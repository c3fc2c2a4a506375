"""FlightRecorder unit behaviour: bounded log, open spans, failure sweeps."""

import gzip
import io
import json
import os
import pickle
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.faults.chaos import make_chaos_profile
from repro.harness.systems import INTERNAL_CLUSTER
from repro.netty.channel import ChannelId
from repro.obs.causal import CausalTracer, TraceContext
from repro.obs.critpath import critical_path
from repro.obs.diff import diff_runs
from repro.obs.flightrec import (
    CHUNK_LINES,
    DEFAULT_CAPACITY,
    FlightEvent,
    FlightRecorder,
    attrs_table,
)
from repro.obs.report_html import render_report
from repro.obs.tracer import chrome_trace, render_timeline
from repro.obs.whatif import ReplayModel
from repro.spark.deploy import SparkSimCluster
from repro.transports import TRANSPORTS


def _named(flight, name):
    """The events of ``flight`` called ``name``, in record order."""
    return [ev for ev in flight.events if ev.name == name]


def ctx(trace=1, span=1, parent=0):
    return TraceContext(trace, span, parent)


class TestRecording:
    def test_record_stamps_fields(self):
        rec = FlightRecorder()
        ev = rec.record(0.5, "msg.send", ctx(3, 7, 2), type=1, nbytes=64)
        assert (ev.t, ev.name) == (0.5, "msg.send")
        assert (ev.trace, ev.span, ev.parent) == (3, 7, 2)
        assert ev.attrs == {"type": 1, "nbytes": 64}
        assert len(rec) == 1

    def test_as_dict_omits_zero_ids(self):
        plain = FlightRecorder().record(1.0, "stage.start", None, stage="s")
        assert plain.as_dict() == {"t": 1.0, "ev": "stage.start", "stage": "s"}
        traced = FlightRecorder().record(1.0, "msg.send", ctx(2, 5))
        d = traced.as_dict()
        assert d["trace"] == 2 and d["span"] == 5 and "parent" not in d

    def test_capacity_bound_drops_oldest_and_counts(self):
        rec = FlightRecorder(capacity=4)
        for i in range(10):
            rec.record(float(i), "ev", None, i=i)
        assert len(rec) == 4
        assert rec.dropped == 6
        assert [ev.attrs["i"] for ev in rec.events] == [6, 7, 8, 9]

    def test_default_capacity(self):
        assert FlightRecorder().capacity == DEFAULT_CAPACITY


class TestEviction:
    """The bounded buffer under pressure — what a committed baseline
    recorded near capacity must still guarantee."""

    def test_exactly_at_capacity_evicts_nothing(self):
        rec = FlightRecorder(capacity=4)
        for i in range(4):
            rec.record(float(i), "ev", None, i=i)
        assert len(rec) == 4 and rec.dropped == 0
        rec.record(4.0, "ev", None, i=4)  # one past: oldest goes first
        assert rec.dropped == 1
        assert [ev.attrs["i"] for ev in rec.events] == [1, 2, 3, 4]

    def test_tombstones_survive_eviction_of_their_spans(self):
        # A span's open-era events may be evicted while its abort
        # tombstone (recorded later, so younger) survives — the failure
        # story must outlive the chatter that preceded it.
        rec = FlightRecorder(capacity=4)
        rec.span_open(ctx(1, 1), channel="c0")
        rec.record(0.1, "msg.send", ctx(1, 1), nbytes=8)
        rec.close_channel(0.2, "c0", "connection reset", attrs_table())  # abort + dead
        for i in range(2):
            rec.record(1.0 + i, "ev", None, i=i)  # push the send out
        assert rec.dropped == 1
        names = [ev.name for ev in rec.events]
        assert "msg.send" not in names
        assert "span.aborted" in names and "channel.dead" in names

    def test_evicted_recording_round_trips_without_dangling_edges(self):
        # Survivors can reference evicted parents; the JSONL round trip
        # must preserve them verbatim, not resolve (or drop) the edge.
        rec = FlightRecorder(capacity=3)
        rec.record(0.0, "msg.send", ctx(1, 1), nbytes=8)       # evicted
        rec.record(0.1, "msg.recv", ctx(1, 1), nbytes=8)       # evicted
        rec.record(0.2, "msg.send", ctx(1, 2, 1), nbytes=16)   # parent=1
        rec.record(0.3, "msg.recv", ctx(1, 2, 1), nbytes=16)
        rec.record(0.4, "stage.finish", None, stage="s", seconds=0.4)
        assert rec.dropped == 2
        back = FlightRecorder.from_jsonl(rec.to_jsonl())
        assert back.to_jsonl() == rec.to_jsonl()
        assert len(back) == 3
        # the child still names span 1 as parent even though span 1's
        # own events are gone
        survivors = [ev for ev in back.events if ev.trace == 1]
        assert {ev.parent for ev in survivors} == {1}
        assert back.open_spans() == []

    def test_from_events_grows_capacity_to_fit(self):
        # Rebuilding from a big recorded log must not re-evict its head.
        events = [FlightEvent(float(i), "ev", attrs={"i": i})
                  for i in range(DEFAULT_CAPACITY + 10)]
        rec = FlightRecorder.from_events(events)
        assert len(rec) == DEFAULT_CAPACITY + 10
        assert rec.dropped == 0
        assert rec.events[0].attrs["i"] == 0

    def test_from_events_explicit_capacity_and_dropped(self):
        events = [FlightEvent(float(i), "ev", attrs={"i": i}) for i in range(6)]
        rec = FlightRecorder.from_events(events, capacity=4, dropped=9)
        assert len(rec) == 4
        assert [ev.attrs["i"] for ev in rec.events] == [2, 3, 4, 5]
        # 9 pre-declared + 2 evicted while replaying
        assert rec.dropped == 11

    def test_gzip_write_and_load_round_trip(self, tmp_path):
        rec = FlightRecorder(capacity=4)
        for i in range(6):
            rec.record(float(i), "ev", ctx(1, i + 1), i=i)
        path = rec.write(str(tmp_path / "flight.jsonl.gz"))
        assert path.endswith(".gz")
        raw = open(path, "rb").read()
        assert raw[:2] == b"\x1f\x8b"  # actually gzip on disk
        back = FlightRecorder.load_jsonl(path)
        assert back.to_jsonl() == rec.to_jsonl()

    def test_gzip_write_is_byte_deterministic(self, tmp_path):
        # committed baselines diff clean only if the bytes never wobble
        rec = FlightRecorder()
        rec.record(0.0, "run.meta", None, transport="nio")
        a = rec.write(str(tmp_path / "a.jsonl.gz"))
        b = rec.write(str(tmp_path / "b.jsonl.gz"))
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_committed_baselines_reexport_to_their_own_bytes(self, tmp_path):
        # One shared encoder, one parse per import: the text and the
        # archive a committed recording re-exports to are the ones it holds.
        paths = sorted((Path(__file__).resolve().parents[2] / "baselines").glob("*.jsonl.gz"))
        assert len(paths) == 3
        for path in paths:
            rec = FlightRecorder.load_jsonl(str(path))
            assert rec.to_jsonl() == gzip.decompress(path.read_bytes()).decode("utf-8")
            again = rec.write(str(tmp_path / path.name))
            assert open(again, "rb").read() == path.read_bytes()

    def test_import_skips_blank_lines_and_export_is_compact_sorted(self):
        text = '\n{"t":0.5,"ev":"msg.send","span":2,"nbytes":8,"ch":"c0"}\n  \n{"t":1,"ev":"x"}\n'
        rec = FlightRecorder.from_jsonl(text)
        assert [(ev.t, ev.name, ev.span, ev.attrs) for ev in rec.events] == [
            (0.5, "msg.send", 2, {"nbytes": 8, "ch": "c0"}), (1, "x", 0, {}),
        ]
        assert rec.to_jsonl() == (
            '{"ch":"c0","ev":"msg.send","nbytes":8,"span":2,"t":0.5}\n{"ev":"x","t":1}\n'
        )
        assert FlightRecorder.from_jsonl("").to_jsonl() == ""


class TestOpenSpans:
    def test_open_close_lifecycle(self):
        rec = FlightRecorder()
        a, b = ctx(1, 1), ctx(1, 2, 1)
        rec.span_open(a, channel="ch-0")
        rec.span_open(b, channel="ch-1")
        assert rec.open_spans() == [1, 2]
        assert rec.open_on("ch-0") and rec.open_on("ch-1")
        rec.span_close(1)
        assert rec.open_spans() == [2]
        assert not rec.open_on("ch-0")
        rec.span_close(1)  # idempotent
        assert rec.open_spans() == [2]

    def test_close_channel_aborts_only_that_channels_spans(self):
        rec = FlightRecorder()
        rec.span_open(ctx(1, 1), channel="dead")
        rec.span_open(ctx(1, 2, 1), channel="dead")
        rec.span_open(ctx(2, 3), channel="alive")
        closed = rec.close_channel(4.0, "dead", "connection reset", attrs_table())
        assert closed == 2
        assert rec.open_spans() == [3]
        aborted = _named(rec, "span.aborted")
        assert [ev.span for ev in aborted] == [1, 2]
        assert all(ev.t == 4.0 and ev.attrs["reason"] == "connection reset"
                   for ev in aborted)
        terminal = _named(rec, "channel.dead")
        assert len(terminal) == 1
        assert terminal[0].attrs == {
            "ch": "dead", "reason": "connection reset", "closed": 2,
        }

    def test_close_all_emits_requested_terminal(self):
        rec = FlightRecorder()
        rec.span_open(ctx(1, 1), channel="x")
        rec.span_open(ctx(2, 2), channel="y")
        closed = rec.close_all(9.0, "world aborted", "mpi.abort", attrs_table())
        assert closed == 2
        assert rec.open_spans() == []
        assert len(_named(rec, "span.aborted")) == 2
        (tomb,) = _named(rec, "mpi.abort")
        assert tomb.t == 9.0 and tomb.attrs["closed"] == 2


class TestQueriesAndExport:
    def _sample(self):
        rec = FlightRecorder()
        rec.record(0.0, "msg.send", ctx(1, 1), nbytes=8)
        rec.record(0.1, "msg.recv", ctx(1, 1), nbytes=8)
        rec.record(0.2, "msg.send", ctx(2, 2), nbytes=16)
        return rec

    def test_to_jsonl_round_trips(self):
        rec = self._sample()
        lines = rec.to_jsonl().splitlines()
        assert len(lines) == 3
        rows = [json.loads(line) for line in lines]
        assert rows[0] == {"t": 0.0, "ev": "msg.send", "trace": 1, "span": 1,
                           "nbytes": 8}

    def test_write(self, tmp_path):
        rec = self._sample()
        path = rec.write(str(tmp_path / "flight.jsonl"))
        assert open(path).read() == rec.to_jsonl()

    def test_empty_jsonl_is_empty_string(self):
        assert FlightRecorder().to_jsonl() == ""

    def test_from_events(self):
        rec = self._sample()
        rebuilt = FlightRecorder.from_events(rec.events)
        assert [ev.name for ev in rebuilt.events] == [
            "msg.send", "msg.recv", "msg.send",
        ]


class TestJsonlImport:
    """`from_jsonl`/`load_jsonl` — the exact inverse of `to_jsonl`."""

    def _rich_recorder(self):
        """Spans, matches with edges, and failure tombstones in one log."""
        rec = FlightRecorder()
        rec.record(0.0, "run.meta", None, transport="mpi-basic", n_workers=2,
                   slots_per_executor=4, rendezvous_threshold=16384)
        rec.record(0.1, "msg.send", ctx(1, 1), type=3, nbytes=64, ch="c0")
        rec.record(0.2, "mpi.match", ctx(1, 1), waited_s=0.05, unexpected=True)
        rec.record(0.3, "msg.send", ctx(1, 2, 1), type=4, nbytes=1 << 20)
        rec.record(0.4, "msg.recv", ctx(1, 2, 1), nbytes=1 << 20)
        # A dangling span closed by a channel death, then the world abort:
        # the tombstone tail every crashed trace ends with.
        rec.span_open(ctx(2, 3), channel="c1")
        share = attrs_table()
        rec.close_channel(0.5, "c1", "connection reset", share)
        rec.span_open(ctx(2, 4), channel="c2")
        rec.close_all(0.6, "world aborted", "mpi.abort", share)
        return rec

    def test_jsonl_round_trip_is_identity(self):
        rec = self._rich_recorder()
        text = rec.to_jsonl()
        assert FlightRecorder.from_jsonl(text).to_jsonl() == text

    def test_events_compare_equal_field_for_field(self):
        rec = self._rich_recorder()
        back = FlightRecorder.from_jsonl(rec.to_jsonl())
        assert len(back) == len(rec)
        for orig, loaded in zip(rec.events, back.events):
            assert (loaded.t, loaded.name) == (orig.t, orig.name)
            assert (loaded.trace, loaded.span, loaded.parent) == (
                orig.trace, orig.span, orig.parent,
            )
            assert loaded.attrs == orig.attrs

    def test_tombstones_survive_the_round_trip(self):
        back = FlightRecorder.from_jsonl(self._rich_recorder().to_jsonl())
        assert [ev.span for ev in _named(back, "span.aborted")] == [3, 4]
        assert len(_named(back, "channel.dead")) == 1
        (tomb,) = _named(back, "mpi.abort")
        assert tomb.attrs == {"reason": "world aborted", "closed": 1}

    def test_load_jsonl_reads_write_output(self, tmp_path):
        rec = self._rich_recorder()
        path = rec.write(str(tmp_path / "flight.jsonl"))
        assert FlightRecorder.load_jsonl(path).to_jsonl() == rec.to_jsonl()

    def test_blank_lines_ignored(self):
        rec = FlightRecorder.from_jsonl('\n{"t": 1.0, "ev": "x"}\n\n')
        assert len(rec) == 1 and rec.events[0].name == "x"

    def test_empty_text_empty_recorder(self):
        assert len(FlightRecorder.from_jsonl("")) == 0


class TestPickling:
    def test_event_and_context_round_trip(self):
        ev = FlightEvent(1.5, "msg.send", trace=2, span=3, parent=1,
                         attrs={"nbytes": 4})
        back = pickle.loads(pickle.dumps(ev))
        assert back.as_dict() == ev.as_dict()
        c = pickle.loads(pickle.dumps(ctx(5, 6, 4)))
        assert (c.trace_id, c.span_id, c.parent_id) == (5, 6, 4)

    def test_recorder_round_trips_through_worker_boundary(self):
        rec = FlightRecorder(capacity=8)
        rec.record(0.0, "msg.send", ctx(1, 1))
        rec.span_open(ctx(1, 2), channel="ch")
        back = pickle.loads(pickle.dumps(rec))
        assert len(back) == 1 and back.events[0].name == "msg.send"
        assert back.open_spans() == [2]


# -- the JSONL round trip under generated recordings ---------------------------

# Lengths at the edges of the export/reload chunking: empty, one line, and
# either side of one and of two chunks.
_EDGE_LENGTHS = sorted({0, 1, CHUNK_LINES - 1, CHUNK_LINES, CHUNK_LINES + 1,
                        2 * CHUNK_LINES - 1, 2 * CHUNK_LINES, 2 * CHUNK_LINES + 1})
_LIFTED = {"t", "ev", "trace", "span", "parent"}
_text = st.text(alphabet=st.one_of(
    st.sampled_from('"\\/\b\f\n\r\t\u2028\u0085 '), st.characters()), max_size=12)
_scalar = st.one_of(
    st.none(), st.booleans(), st.integers(-(2 ** 63), 2 ** 63),
    st.floats(allow_nan=False, allow_infinity=False), _text,
)
# Values that compare equal in pairs but export differently: attrs drawn
# from these few keys and values collide, so the reload's sharing of one
# dict per attrs set is exercised, not just its round trip.
_LOOKALIKES = (0.0, -0.0, 0, False, True, 1, 1.0, "1", "", None)
_pooled = st.dictionaries(st.sampled_from(("ch", "nbytes", "v")),
                          st.sampled_from(_LOOKALIKES), max_size=3)
_events = st.builds(
    FlightEvent,
    t=st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                st.integers(0, 2 ** 53)),
    name=_text,
    trace=st.integers(0, 2 ** 40),
    span=st.integers(0, 2 ** 40),
    parent=st.integers(0, 2 ** 40),
    attrs=st.one_of(
        st.dictionaries(_text.filter(lambda k: k not in _LIFTED), _scalar,
                        max_size=4),
        _pooled,
    ),
)
# How an input line is dressed before the reload reads it.
_DRESS = {
    "plain": lambda line: line + "\n",
    "crlf": lambda line: line + "\r\n",
    "padded": lambda line: " \t" + line + "  \n",
    "blank-before": lambda line: "\n \r\n" + line + "\n",
}


def _typed(value):
    """A value with its type and repr, so ``True`` and ``1`` (or ``1.0``)
    differ, and so do ``0.0`` and ``-0.0``."""
    return type(value), repr(value)


def _fields(ev):
    return (_typed(ev.t), ev.name, _typed(ev.trace), _typed(ev.span),
            _typed(ev.parent),
            {k: _typed(v) for k, v in ev.attrs.items()})


class TestJsonlRoundTripProperty:
    """Any recording round-trips through the chunked export and reload."""

    @settings(max_examples=25, deadline=None)
    @given(pool=st.lists(_events, min_size=1, max_size=6),
           n=st.sampled_from(_EDGE_LENGTHS),
           dress=st.lists(st.sampled_from(sorted(_DRESS)), min_size=1, max_size=5))
    @example(
        pool=[FlightEvent(0.1, "msg.send", 1, 2, 0,
                          {"ch": "channel-0000002a", "nbytes": 64, "q": 'a"b\\c',
                           "u": "\u00e9\u2028\U0001f600", "ok": True, "none": None,
                           "f": -0.0}),
              FlightEvent(3, "stage.finish", attrs={"stage": "s", "x": 1.5e-300}),
              FlightEvent(2.5, "\u00e9v\n")],
        n=CHUNK_LINES + 1,
        dress=["crlf", "blank-before", "padded", "plain"],
    )
    @example(
        pool=[FlightEvent(float(i), "x", attrs={"v": v})
              for i, v in enumerate(_LOOKALIKES)],
        n=len(_LOOKALIKES) * 3,
        dress=["plain"],
    )
    def test_round_trip(self, pool, n, dress):
        rec = FlightRecorder.from_events(pool[i % len(pool)] for i in range(n))
        text = rec.to_jsonl()
        assert text.count("\n") == n
        back = FlightRecorder.from_jsonl(text)
        assert back.to_jsonl() == text
        assert [_fields(ev) for ev in back.events] == [_fields(ev) for ev in rec.events]
        assert _attrs_objects(back) == _attrs_contents(back)
        # Dressed input (CRLF endings, padding, blank lines) reads the same.
        lines = text.splitlines()
        dressed = "".join(_DRESS[dress[i % len(dress)]](line)
                          for i, line in enumerate(lines))
        assert FlightRecorder.from_jsonl(dressed).to_jsonl() == text
        # A file, plain or gzip-compressed, loads the events it holds; the
        # chunked archive is the bytes one write of the whole text gives.
        one_write = io.BytesIO()
        with gzip.GzipFile(filename="", fileobj=one_write, mode="wb", mtime=0) as fh:
            fh.write(text.encode("utf-8"))
        with tempfile.TemporaryDirectory() as tmp:
            plain = rec.write(os.path.join(tmp, "flight.jsonl"))
            packed = rec.write(os.path.join(tmp, "flight.jsonl.gz"))
            assert Path(packed).read_bytes() == one_write.getvalue()
            assert Path(plain).read_text() == text
            from_plain = FlightRecorder.load_jsonl(plain)
            from_packed = FlightRecorder.load_jsonl(packed)
        assert ([_fields(ev) for ev in from_plain.events]
                == [_fields(ev) for ev in from_packed.events]
                == [_fields(ev) for ev in rec.events])


def _attrs_objects(flight):
    """How many attrs dicts ``flight``'s events hold."""
    return len({id(ev.attrs) for ev in flight.events})


def _attrs_contents(flight):
    """How many distinct attrs sets they hold: JSON text, in key order."""
    return len({json.dumps(ev.attrs) for ev in flight.events})


class _Clock:
    """The one engine attribute a causal tracer reads."""

    now = 0.0


class TestAttrsExactness:
    """Events share an attrs dict only if they export the same JSON text.

    Every value below compares equal to another one (``0.0 == -0.0 == 0
    == False``, ``True == 1 == 1.0``) or to nothing (NaN), yet each
    exports its own text; a key that went by equality would hand a later
    event an earlier event's value.
    """

    VALUES = (0.0, -0.0, 0, False, True, 1, 1.0, "1", 1, "", None,
              float("nan"), 0.0, -0.0)

    @staticmethod
    def _same(a, b):
        return type(a) is type(b) and repr(a) == repr(b)

    def test_reload_round_trips_byte_identical(self):
        rec = FlightRecorder()
        for i, v in enumerate(self.VALUES * 2):
            rec.record(float(i), "x", ctx(1, i + 1), v=v)
        text = rec.to_jsonl()
        back = FlightRecorder.from_jsonl(text)
        assert back.to_jsonl() == text
        for orig, ev in zip(rec.events, back.events):
            assert self._same(ev.attrs["v"], orig.attrs["v"])
        # NaN, 1 and the zeros repeat; each distinct text is one dict.
        assert _attrs_objects(back) == _attrs_contents(back) == 11

    def test_tuple_values_key_apart(self):
        # (True,) == (1,) == (1.0,) and (0.0,) == (-0.0,), with one type
        # each: a typed key alone would merge them.
        tracer = CausalTracer(_Clock())
        values = [(True,), (1,), (1.0,), (0.0,), (-0.0,), (1,), (True,)]
        for i, v in enumerate(values):
            tracer.event("x", ctx(1, i + 1), v=v)
        flight = tracer.flight
        assert ([json.dumps(ev.attrs["v"]) for ev in flight.events]
                == [json.dumps(v) for v in values])
        assert _attrs_objects(flight) == _attrs_contents(flight) == 5
        text = flight.to_jsonl()
        assert FlightRecorder.from_jsonl(text).to_jsonl() == text

    def test_tracer_keys_apart_what_exports_apart(self):
        tracer = CausalTracer(_Clock())
        nan = float("nan")
        calls = [
            ("match", (0.0, False)), ("match", (-0.0, False)), ("match", (0, False)),
            ("match", (0.0, 0)), ("match", (nan, True)), ("match", (0.5, True)),
            ("match", (0.5, 1)), ("match", (0.0, False)),
            ("send", (1, 1, "c")), ("send", (True, 1, "c")), ("send", (1, 1.0, "c")),
            ("send", (1, 1, "1")), ("send", (1, 1, 1)), ("send", (1, 0, "c")),
            ("send", (1, -0.0, "c")), ("recv", (1, 1, "c")),
            ("join", (0, "c")), ("join", (False, "c")), ("join", (0.0, "c")),
            ("join", (-0.0, "c")), ("join", (0, None)),
        ]
        expected = []
        for i, (method, args) in enumerate(calls):
            getattr(tracer, method)(ctx(1, i + 1), *args)
            if method == "match":
                expected.append({"waited_s": args[0], "buffered": args[1]})
            elif method == "join":
                expected.append({"nbytes": args[0], "ch": args[1]})
            else:
                expected.append({"type": args[0], "nbytes": args[1], "ch": args[2]})
        tracer.send(ctx(1, 99), 1, 1, "c", leg="mpi-body")
        expected.append({"type": 1, "nbytes": 1, "ch": "c", "leg": "mpi-body"})
        for v in (0.0, -0.0, 0.0, True, 1):
            tracer.event("fault.inject", None, v=v)
            expected.append({"v": v})
        events = tracer.flight.events
        assert [json.dumps(ev.attrs) for ev in events] == [json.dumps(d) for d in expected]
        assert _attrs_objects(tracer.flight) == _attrs_contents(tracer.flight)
        # send and recv of one message share one dict.
        assert events[8].attrs is events[15].attrs


# -- what a recording holds per channel ----------------------------------------

def _causal_cell(transport, causal):
    sim = SparkSimCluster(INTERNAL_CLUSTER, 2, transport, cores_per_executor=2,
                          obs_causal=causal)
    sim.launch()
    result = sim.run_profile(make_chaos_profile(2, 2, shuffle_bytes=8 << 20))
    sim.shutdown()
    return result


def _channels(flight):
    return [ev.attrs["ch"] for ev in flight.events if ev.attrs.get("ch") is not None]


@pytest.fixture(scope="module", params=sorted(TRANSPORTS))
def traced_run(request):
    return request.param, _causal_cell(request.param, True)


@pytest.fixture(scope="module")
def traced(traced_run):
    transport, result = traced_run
    return transport, result.flight


class TestChannelFootprint:
    """A channel's name is one string, recorded and reloaded.

    mpi-coll moves its shuffle off channels, so its cell records no
    ``ch``; every other transport's does.
    """

    def test_events_of_one_channel_share_one_string(self, traced):
        transport, flight = traced
        seen = {}
        for ch in _channels(flight):
            assert seen.setdefault(ch, ch) is ch
        assert seen or transport == "mpi-coll"

    def test_reload_keeps_one_string_per_channel_and_name(self, traced):
        _, flight = traced
        back = FlightRecorder.from_jsonl(flight.to_jsonl())
        chs = _channels(back)
        assert len({id(ch) for ch in chs}) == len(set(chs))
        names = [ev.name for ev in back.events]
        assert len({id(name) for name in names}) == len(set(names))

    @pytest.mark.parametrize("transport", sorted(TRANSPORTS))
    def test_untraced_cell_formats_no_channel_text(self, transport, monkeypatch):
        formatted = []
        as_long_text = ChannelId.as_long_text

        def spy(self):
            formatted.append(self)
            return as_long_text(self)

        monkeypatch.setattr(ChannelId, "as_long_text", spy)
        result = _causal_cell(transport, False)
        assert result.flight is None or len(result.flight) == 0
        assert formatted == []


# -- what a recording holds per attrs set ----------------------------------------

class TestAttrsFootprint:
    """One attrs dict per distinct attrs set, recorded, reloaded and pickled.

    The pickle round trip is the run-cache disk tier's and the parallel
    harness's: pickle keeps one object per shared dict.  It would also
    fail outright if the tracer's attrs table (a closure) were reachable
    from the ``RunResult``.
    """

    def test_record_holds_one_dict_per_set(self, traced):
        _, flight = traced
        assert len(flight) > 0
        assert _attrs_objects(flight) == _attrs_contents(flight)
        # The sharing is real: far fewer sets than events.
        assert _attrs_objects(flight) < len(flight)

    def test_reload_holds_one_dict_per_set(self, traced):
        _, flight = traced
        back = FlightRecorder.from_jsonl(flight.to_jsonl())
        assert _attrs_objects(back) == _attrs_contents(back) == _attrs_contents(flight)

    def test_pickle_round_trip_holds_one_dict_per_set(self, traced_run):
        _, result = traced_run
        back = pickle.loads(pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL))
        assert _attrs_objects(back.flight) == _attrs_contents(back.flight)
        assert back.flight.to_jsonl() == result.flight.to_jsonl()


class TestAttrsReadOnly:
    """No reader writes to the attrs it shares with other events."""

    def test_every_reader_leaves_attrs_as_recorded(self, traced_run):
        transport, result = traced_run
        flight = result.flight
        held = [ev.attrs for ev in flight.events]
        before = [json.dumps(attrs) for attrs in held]
        flight.index()
        cp = critical_path(result)
        ReplayModel.from_result(result).sensitivity()
        diff_runs(result, result, a_label="a", b_label="b")
        render_report([(result, cp)])
        chrome_trace(result)
        render_timeline(result)
        assert [ev.attrs for ev in flight.events] == held
        assert all(ev.attrs is attrs for ev, attrs in zip(flight.events, held))
        assert [json.dumps(attrs) for attrs in held] == before
