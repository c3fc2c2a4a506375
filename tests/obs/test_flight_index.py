"""FlightIndex: the one reading of a flight recording.

Every analysis (critpath, what-if, diff, the HTML report) reads a
recording through ``FlightRecorder.index()``.  These tests pin the index
against a deliberately naive reading of the same log, the conventions
the readers disagree on (and which variant each reads), the invalidation
and pickling rules, and the fence the whole design exists for: a full
round of analyses walks ``flight.events`` once.
"""

import pickle
from collections import deque
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.harness.blame import BLAME_TRANSPORTS, baseline_path
from repro.harness.experiments import _run_ohb
from repro.obs import analyze, critical_path, diff_runs, render_report, stage_bounds
from repro.obs.causal import TraceContext
from repro.obs.flightrec import FlightEvent, FlightIndex, FlightRecorder, flight_of
from repro.obs.report_html import _timeline_svg
from repro.obs.tracer import chrome_trace
from repro.obs.whatif import ReplayModel
from repro.spark.deploy import RunResult
from repro.transports import TRANSPORTS
from repro.util.units import GiB
from repro.workloads.ohb import GROUP_BY

REPO = Path(__file__).resolve().parents[2]


# -- (i) the index equals a naive reading -------------------------------------

_LABELS = st.sampled_from(["A", "B"])
_APPS = st.sampled_from(["app-a", "app-b"])
_SECONDS = st.sampled_from([0.0, 0.25, 0.5, 1.5])
_TASKS = st.sampled_from(["A-task0", "A-task1", "B-task0", "B", "B-task-task2"])


def _attrs(name):
    if name == "msg.send":
        return st.fixed_dictionaries(
            {"nbytes": st.sampled_from([64, 1 << 20])},
            optional={"leg": st.sampled_from(["mpi-body", "mpi-header"])},
        )
    if name == "mpi.match":
        return st.fixed_dictionaries({}, optional={"waited_s": _SECONDS})
    if name in ("stage.start", "stage.finish"):
        # A missing ``stage`` attr is part of the contract (label "?").
        return st.fixed_dictionaries({}, optional={"stage": _LABELS})
    if name in ("job.submit", "job.start"):
        return st.fixed_dictionaries({}, optional={"app": _APPS})
    if name in ("task.start", "task.finish"):
        return st.fixed_dictionaries({}, optional={"task": _TASKS})
    if name == "run.meta":
        return st.fixed_dictionaries({"transport": st.sampled_from(["nio", "mpi-opt"])})
    return st.just({})


_NAMES = (
    "msg.send", "msg.recv", "mpi.match", "span.aborted", "task.start",
    "task.finish", "stage.start", "stage.finish", "job.submit", "job.start",
    "run.meta", "msg.join",
)


@st.composite
def _events(draw):
    """A small log: few ids, so duplicates, restarts and interleavings are
    the common case rather than the rare one."""
    out = []
    for name in draw(st.lists(st.sampled_from(_NAMES), max_size=40)):
        out.append(FlightEvent(
            t=draw(_SECONDS),
            name=name,
            trace=draw(st.integers(0, 3)),
            span=draw(st.integers(1, 4)),
            parent=draw(st.integers(0, 4)),
            attrs=draw(_attrs(name)),
        ))
    return out


def _first(pairs):
    out = {}
    for key, value in pairs:
        out.setdefault(key, value)
    return out


def _naive_stage_pairs(events):
    """A finish pairs with the latest earlier start of its label, unless
    an earlier finish of that label already took it."""
    pairs = []
    for j, fin in enumerate(events):
        if fin.name != "stage.finish":
            continue
        label = fin.attrs.get("stage", "?")
        same = [
            (i, ev) for i, ev in enumerate(events[:j])
            if ev.name in ("stage.start", "stage.finish")
            and ev.attrs.get("stage", "?") == label
        ]
        if same and same[-1][1].name == "stage.start":
            pairs.append((label, same[-1][1], fin))
    return pairs


def _naive_tables(events):
    """One independent comprehension per table — slow, obvious, unshared."""
    sends = [e for e in events if e.name == "msg.send"]
    recvs = [e for e in events if e.name == "msg.recv"]
    matches = [e for e in events if e.name == "mpi.match"]
    metas = [e for e in events if e.name == "run.meta"]
    return {
        "send": {e.span: e for e in sends},
        "send_order": [e.span for e in sends],
        "recv_first": _first((e.span, e.t) for e in recvs),
        "recv_last": {e.span: e.t for e in recvs},
        "match_first": _first((e.span, e.t) for e in matches),
        "close_first": _first(
            (e.span, e.t) for e in events if e.name in ("msg.recv", "mpi.match")
        ),
        "waited": {
            span: sum(e.attrs.get("waited_s", 0.0) for e in matches if e.span == span)
            for span in _first((e.span, None) for e in matches)
        },
        "aborted": {e.span for e in events if e.name == "span.aborted"},
        "parent_of": {e.span: e.parent for e in sends if e.parent},
        "children": {
            parent: [e.span for e in sends if e.parent == parent]
            for parent in _first((e.parent, None) for e in sends if e.parent)
        },
        "body_legs": {e.span for e in sends if e.attrs.get("leg") == "mpi-body"},
        "trace_spans": {
            trace: [e.span for e in sends if e.trace == trace]
            for trace in _first((e.trace, None) for e in sends)
        },
        "task_start": {e.trace: e for e in events if e.name == "task.start"},
        "task_finish": {e.trace: e for e in events if e.name == "task.finish"},
        "stage_pairs": _naive_stage_pairs(events),
        "job_submit": {
            e.attrs.get("app", ""): e.t for e in events if e.name == "job.submit"
        },
        "job_start": {
            e.attrs.get("app", ""): e.t for e in events if e.name == "job.start"
        },
        "first_meta": metas[0].attrs if metas else {},
        "meta": metas[-1].attrs if metas else {},
    }


def _ordered(table):
    # Readers rely on insertion order (stage order, app order), never on
    # hash order: compare dicts as item lists.
    return list(table.items()) if isinstance(table, dict) else table


def _log(*rows):
    """``(name, span-or-trace id, attrs)`` rows as events, t = position."""
    return [
        FlightEvent(t=float(i), name=name, trace=ident, span=ident, parent=0, attrs=attrs)
        for i, (name, ident, attrs) in enumerate(rows)
    ]


@settings(max_examples=200, deadline=None)
@given(_events())
# a second finish must not reuse a consumed start; a restart pairs its
# latest start; a finish with no start and a start with no finish vanish
@example(_log(
    ("stage.start", 0, {"stage": "A"}), ("stage.finish", 0, {"stage": "A"}),
    ("stage.finish", 0, {"stage": "A"}), ("stage.finish", 0, {"stage": "B"}),
    ("stage.start", 0, {"stage": "A"}), ("stage.start", 0, {}),
    ("stage.start", 0, {"stage": "A"}), ("stage.finish", 0, {"stage": "A"}),
))
# match before recv, duplicate recv and match, resend of a closed span
@example(_log(
    ("msg.send", 1, {"nbytes": 64}), ("mpi.match", 1, {"waited_s": 0.25}),
    ("msg.recv", 1, {}), ("msg.recv", 1, {}), ("mpi.match", 1, {"waited_s": 0.5}),
    ("msg.send", 1, {"nbytes": 1 << 20, "leg": "mpi-body"}), ("msg.recv", 2, {}),
))
def test_every_table_equals_the_naive_reading(events):
    index = FlightIndex(events)
    for name, expected in _naive_tables(events).items():
        assert _ordered(getattr(index, name)) == _ordered(expected), name
    closed = {e.span for e in events if e.name in ("msg.recv", "mpi.match", "span.aborted")}
    assert index.unclosed_spans() == sorted(
        {e.span for e in events if e.name == "msg.send"} - closed
    )


def _naive_stage_tasks(events):
    """Per stage label, every trace with a start and a finish, paired as
    (trace, its last start, its last finish), in first-finish order."""
    def last(name, trace):
        return [e for e in events if e.name == name and e.trace == trace][-1]

    def stage(label):
        return label[: label.rfind("-task")] if "-task" in label else label

    out = {}
    for trace in _first((e.trace, None) for e in events if e.name == "task.finish"):
        if any(e.name == "task.start" and e.trace == trace for e in events):
            finish = last("task.finish", trace)
            out.setdefault(stage(finish.attrs.get("task", "")), []).append(
                (trace, last("task.start", trace), finish)
            )
    return out


@settings(max_examples=200, deadline=None)
@given(_events())
def test_stage_tasks_equals_a_naive_grouping(events):
    index = FlightIndex(events)
    assert _ordered(index.stage_tasks()) == _ordered(_naive_stage_tasks(events))
    assert index.stage_tasks() is index.stage_tasks()


def test_naive_reading_covers_every_table():
    tables = set(FlightIndex.__slots__) - {"_memo"}
    assert tables == set(_naive_tables([]))


# -- the conventions the readers disagree on ----------------------------------

def _disagreeing_flight() -> FlightRecorder:
    """A log on which first/last recv, first/last meta and the missing
    ``stage`` attr all give different answers.

    Trace 1's response (span 11, child of request span 10) is delivered
    at 0.40 and decoded again at 0.60; a second ``run.meta``
    changes transport and slot width mid-log; one stage pair carries no
    ``stage`` attr.
    """
    rec = FlightRecorder()
    task = TraceContext(1, 1)
    req, resp = TraceContext(1, 10, 1), TraceContext(1, 11, 10)
    rec.record(0.0, "run.meta", None, transport="nio", n_workers=1,
               slots_per_executor=1, compute_inflation=1.0)
    rec.record(0.0, "stage.start", None, n_tasks=1)  # no stage attr
    rec.record(0.0, "task.start", task, task="?-task0", exec=0)
    rec.record(0.10, "msg.send", req, type=0, nbytes=32)
    rec.record(0.20, "msg.recv", req, type=0, nbytes=32)
    rec.record(0.25, "msg.send", resp, type=1, nbytes=4096)
    rec.record(0.30, "mpi.match", resp, waited_s=0.0)
    rec.record(0.40, "msg.recv", resp, type=1, nbytes=4096)
    rec.record(0.60, "msg.recv", resp, type=1, nbytes=4096)  # decoded twice
    rec.record(0.70, "task.finish", task, task="?-task0", exec=0,
               fetch_wait_s=0.6, local_s=0.0)
    rec.record(0.70, "stage.finish", None)
    rec.record(0.70, "run.meta", None, transport="mpi-opt", n_workers=1,
               slots_per_executor=2, compute_inflation=1.0)
    return rec


class TestReaderConventions:
    def test_index_names_both_variants(self):
        index = _disagreeing_flight().index()
        assert (index.recv_first[11], index.recv_last[11]) == (0.40, 0.60)
        assert index.match_first[11] == index.close_first[11] == 0.30
        assert index.first_meta["transport"] == "nio"
        assert index.meta["transport"] == "mpi-opt"
        assert [label for label, _, _ in index.stage_pairs] == ["?"]

    def test_critpath_ends_the_chain_at_the_last_recv(self):
        stage = analyze(_disagreeing_flight(), "nio").stage("?")
        # wire = request leg + (last recv 0.60 - send 0.25)
        assert stage.seconds("wire") == pytest.approx(0.10 + 0.35)
        assert stage.seconds("fetch-wait") == pytest.approx(0.6 - 0.5)

    def test_whatif_closes_the_leg_at_the_first_recv_and_reads_last_meta(self):
        model = ReplayModel.from_flight(_disagreeing_flight())
        assert (model.transport, model.slots_per_executor) == ("mpi-opt", 2)
        # a missing stage attr is the label "?" here too (was a KeyError)
        assert [s.label for s in model.stages] == ["?"]
        # busy wire: request [0.10, 0.20] + eager response [0.25, 0.30];
        # the retransmit's second delivery adds nothing
        assert model.stages[0].tasks[0].wire == pytest.approx(0.10 + 0.05)

    def test_timeline_draws_to_the_first_recv_or_match(self):
        svg = _timeline_svg(_disagreeing_flight())
        assert f"4096B {0.30 - 0.25:.6f}s" in svg

    def test_diff_labels_a_side_by_its_first_meta(self):
        flight = _disagreeing_flight()
        report = diff_runs(flight, flight)
        assert report.transport_a == report.transport_b == "nio"
        assert report.meta_a["slots_per_executor"] == 1
        assert list(stage_bounds(flight)) == ["?"]


def test_whatif_reads_a_recorded_rendezvous_threshold_of_zero():
    """Threshold 0 makes every matched payload a rendezvous transfer: its
    wire leg is [match, recv], not the eager [send, arrival]."""
    rec = FlightRecorder()
    task, msg = TraceContext(1, 1), TraceContext(1, 10, 1)
    rec.record(0.0, "run.meta", None, transport="mpi-opt", n_workers=1,
               slots_per_executor=1, rendezvous_threshold=0)
    rec.record(0.0, "stage.start", None, stage="S", n_tasks=1)
    rec.record(0.0, "task.start", task, task="S-task0", exec=0)
    rec.record(0.10, "msg.send", msg, type=1, nbytes=64)
    rec.record(0.20, "mpi.match", msg, waited_s=0.0)
    rec.record(0.35, "msg.recv", msg, type=1, nbytes=64)
    rec.record(0.50, "task.finish", task, task="S-task0", exec=0,
               fetch_wait_s=0.45, local_s=0.0)
    rec.record(0.50, "stage.finish", None, stage="S")
    (task_record,) = ReplayModel.from_flight(rec).stages[0].tasks
    assert task_record.wire == pytest.approx(0.35 - 0.20)


@pytest.mark.parametrize("reader", [
    critical_path,
    ReplayModel.from_result,
    chrome_trace,
    lambda run: diff_runs(run, run),
], ids=["critical_path", "ReplayModel.from_result", "chrome_trace", "diff_runs"])
def test_readers_take_runs_through_flight_of(reader):
    rec = _disagreeing_flight()
    assert flight_of(rec) is rec
    assert flight_of(SimpleNamespace(flight=rec)) is rec
    with pytest.raises(ValueError, match="^int carries no flight recording"):
        flight_of(42)
    untraced = RunResult("GroupByTest", "nio", "Frontera", 2, 16)
    with pytest.raises(ValueError) as expected:
        flight_of(untraced)
    assert "obs_causal=True" in str(expected.value)
    with pytest.raises(ValueError) as raised:
        reader(untraced)
    assert str(raised.value) == str(expected.value)


# -- (ii) invalidation ---------------------------------------------------------

class TestInvalidation:
    def test_index_is_reused_while_the_log_is_unchanged(self):
        rec = _disagreeing_flight()
        assert rec.index() is rec.index()

    def test_record_after_index_rebuilds(self):
        rec = _disagreeing_flight()
        before = rec.index()
        rec.record(0.8, "msg.send", TraceContext(1, 12, 1), nbytes=8)
        after = rec.index()
        assert after is not before
        assert 12 in after.send and 12 not in before.send

    def test_head_eviction_at_capacity_rebuilds(self):
        rec = FlightRecorder(capacity=3)
        for span in (1, 2, 3):
            rec.record(float(span), "msg.send", TraceContext(1, span))
        before = rec.index()
        rec.record(4.0, "msg.send", TraceContext(1, 4))  # evicts span 1
        assert len(rec.events) == 3 and rec.dropped == 1  # same len
        after = rec.index()
        assert after is not before
        assert list(after.send) == [2, 3, 4]

    def test_memo_lives_and_dies_with_the_index(self):
        rec = _disagreeing_flight()
        built = []
        rec.index().memoized("k", lambda: built.append(1) or "v")
        assert rec.index().memoized("k", lambda: built.append(1)) == "v"
        rec.record(0.9, "stage.start", None, stage="next")
        rec.index().memoized("k", lambda: built.append(1))
        assert len(built) == 2


# -- (iii) pickling --------------------------------------------------------------

class TestPickling:
    def test_pickle_carries_the_log_alone(self):
        rec = _disagreeing_flight()
        rec.span_open(TraceContext(1, 13), channel="c0")
        plain = pickle.dumps(rec)
        ReplayModel.from_flight(rec)  # builds the index and fills its memo
        assert pickle.dumps(rec) == plain

    def test_loaded_recorder_indexes_lazily(self):
        rec = _disagreeing_flight()
        rec.index()
        loaded = pickle.loads(pickle.dumps(rec))
        assert "_index" not in vars(loaded)
        assert loaded.index().recv_last == rec.index().recv_last
        assert "_index" in vars(loaded)


# -- (iv) multi-tenant traces ----------------------------------------------------

class TestMultiTenant:
    def _flight(self):
        rec = _disagreeing_flight()
        rec.record(0.0, "job.submit", None, app="app-a")
        rec.record(0.3, "job.start", None, app="app-a")
        return rec

    def test_replay_model_still_rejects_them(self):
        with pytest.raises(ValueError, match="does not support multi-tenant"):
            ReplayModel.from_flight(self._flight())

    def test_report_still_omits_the_planner_section(self):
        def page(flight):
            result = SimpleNamespace(
                flight=flight, transport="nio", workload="w", system="s",
                n_workers=1, total_cores=1, total_seconds=0.7,
                stage_seconds={"?": 0.7},
            )
            return render_report([(result, analyze(flight, "nio"))])

        assert "capacity planner" in page(_disagreeing_flight())
        multi = page(self._flight())
        assert "capacity planner" not in multi
        assert "app-a:sched-wait" in multi


# -- (v) the fence: one pass per recording ---------------------------------------

class _CountedLog(deque):
    """``flight.events`` that counts how often it is iterated."""

    passes = 0

    def __iter__(self):
        self.passes += 1
        return super().__iter__()


def _recorded_basic_and_opt():
    return [
        _run_ohb(GROUP_BY, 2, 2 * GiB, transport, 0.1, obs_causal=True).result
        for transport in ("mpi-basic", "mpi-opt")
    ]


@pytest.mark.gate
def test_full_analysis_round_walks_each_recording_once():
    runs = _recorded_basic_and_opt()
    for run in runs:
        run.flight.events = _CountedLog(run.flight.events, run.flight.capacity)
    basic, opt = runs
    cps = critical_path(basic), critical_path(opt)
    assert cps[0].segment_seconds("poll-tax") > 0  # Basic busy-polls
    models = ReplayModel.from_result(basic), ReplayModel.from_result(opt)
    for model in models:
        model.sensitivity()
    diff_runs(opt, basic, a_label="mpi-opt", b_label="mpi-basic").check()
    page = render_report([(basic, cps[0]), (opt, cps[1])])
    assert page.count("capacity planner") == 2
    assert [run.flight.events.passes for run in runs] == [1, 1]
    # The same seeded cells give the same page, whether the index is
    # reused (a second render) or rebuilt (fresh recordings).
    assert render_report([(basic, cps[0]), (opt, cps[1])]) == page
    fresh = _recorded_basic_and_opt()
    assert render_report([(run, critical_path(run)) for run in fresh]) == page


# -- unclosed spans: every causal span closed or tombstoned ----------------------

class TestUnclosedSpans:
    def test_names_sends_nothing_closed(self):
        rec = FlightRecorder()
        for span in (3, 1, 2, 4):
            rec.record(0.0, "msg.send", TraceContext(1, span))
        rec.record(0.1, "msg.recv", TraceContext(1, 1))
        rec.record(0.1, "mpi.match", TraceContext(1, 2))
        rec.record(0.1, "span.aborted", TraceContext(1, 3), reason="x")
        assert rec.index().unclosed_spans() == [4]

    @pytest.mark.parametrize("transport", BLAME_TRANSPORTS)
    def test_committed_baselines_have_none(self, transport):
        flight = FlightRecorder.load_jsonl(str(baseline_path(transport, REPO / "baselines")))
        assert flight.index().send
        assert flight.index().unclosed_spans() == []

    @pytest.mark.parametrize("transport", sorted(TRANSPORTS))
    def test_live_groupby_cell_has_none(self, transport):
        flight = _run_ohb(GROUP_BY, 2, 2 * GiB, transport, 0.1, obs_causal=True).result.flight
        assert flight.index().send
        assert flight.index().unclosed_spans() == []
