"""Flight recorder: a bounded, deterministic structured event log.

Every causally-traced run carries one :class:`FlightRecorder` — an
append-only log of :class:`FlightEvent` records (message send/recv/match,
the mpi-opt header→body join, scheduler task state changes, fault
injections) ordered by simulated time.  The log is bounded: past
``capacity`` events the oldest records are dropped (and counted), so a
pathological run cannot exhaust memory.  Records hold only primitives
(floats, ints, strings), which keeps the recorder picklable across the
parallel harness's worker processes and lets :meth:`to_jsonl` dump the
whole log as one JSON object per line.

The recorder also tracks *open spans*: a message that has been sent but
not yet received (or matched).  Channel death closes that channel's open
spans; an MPI world abort closes all of them — each closure emits a
``span.aborted`` record followed by a single terminal event, so a trace
of a crashed run always ends in an explicit tombstone instead of dangling
sends (see :mod:`repro.obs.causal` for who calls these).

Analyses never walk the log themselves: :meth:`FlightRecorder.index`
hands out one :class:`FlightIndex` per recording — every table
``critpath`` / ``whatif`` / ``diff`` / the HTML report read, filled by a
single pass (DESIGN.md §11 "Reading a recording").  :func:`flight_of`
is the one way an analysis takes its recording from a run.
"""

from __future__ import annotations

import json
from collections import deque
from itertools import islice
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.causal import TraceContext

# Default event-log bound: enough for the figure-suite cells at benchmark
# fidelity with headroom; a full-scale run that overflows it keeps the
# most recent window (the end of the run is where crashes are explained).
DEFAULT_CAPACITY = 262_144

# JSONL lines joined per export string and parsed per ``json.loads`` call
# on reload: neither direction ever holds a list of every line.
CHUNK_LINES = 2048


def _make_encode() -> Callable[[Any], str]:
    """The one JSONL encoder: compact separators, sorted keys.

    ``JSONEncoder.encode`` builds a new C encoder on every call, once per
    event; this builds it once.  Without the C accelerator it falls back
    to ``encode`` itself.  Records hold only primitives, so the circular-
    reference markers are off (a stale marker left by a failed encode
    could otherwise poison the shared encoder).
    """
    encoder = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
    make = json.encoder.c_make_encoder
    if make is None:
        return encoder.encode
    c_encode = make(
        None, encoder.default, json.encoder.encode_basestring_ascii, None,
        encoder.key_separator, encoder.item_separator, True, False, True,
    )
    join = "".join
    return lambda obj: join(c_encode(obj, 0))


_ENCODE = _make_encode()

# The fields a line lifts off an event, in sorted order.
_LIFTED = ("ev", "parent", "span", "t", "trace")


def _line_encoder() -> Callable[["FlightEvent"], str]:
    """``line(ev)``: one encoded object of the event's fields, from templates.

    A line is its attrs' encoded fields with the event's own (``ev``,
    ``t`` and the nonzero ids) spliced in at their sorted places.  Attrs
    are shared, one dict per distinct set, so each dict and set of
    nonzero ids becomes one ``%`` template per export, and an event
    costs the text of its own fields instead of a dict, a key sort and
    an encode.  Attrs with a key that would override an event field are
    encoded as one dict (the attrs win).  An attrs key that is not a
    ``str`` raises ``TypeError`` naming it: JSON object keys are strings.
    """
    encode, float_text, int_text = _ENCODE, float.__repr__, int.__repr__
    templates: dict[int, str | None] = {}  # by attrs id and zero ids
    names: dict[str, str] = {}

    def template(ev: "FlightEvent") -> str | None:
        attrs = ev.attrs
        for k in attrs:
            if type(k) is not str:
                raise TypeError(
                    f"flight event {ev.name!r}: attrs key {k!r} is not a str"
                )
        if any(k in _LIFTED for k in attrs):
            return None
        fields = {k: encode(v).replace("%", "%%") for k, v in attrs.items()}
        fields["ev"] = fields["t"] = "%s"
        for k in ("trace", "span", "parent"):
            if getattr(ev, k):
                fields[k] = "%s"
        return "{" + ",".join(
            encode(k).replace("%", "%%") + ":" + fields[k] for k in sorted(fields)
        ) + "}"

    def line(ev: "FlightEvent") -> str:
        trace, span, parent = ev.trace, ev.span, ev.parent
        key = id(ev.attrs) << 3 | (not trace) | (not span) << 1 | (not parent) << 2
        try:
            tpl = templates[key]
        except KeyError:
            tpl = templates[key] = template(ev)
        if tpl is None:
            fields = {"t": ev.t, "ev": ev.name}
            for k in ("trace", "span", "parent"):
                if getattr(ev, k):
                    fields[k] = getattr(ev, k)
            fields.update(ev.attrs)
            return encode(fields)
        name = ev.name
        text = names.get(name) if type(name) is str else None
        if text is None:
            text = encode(name)
            if type(name) is str:
                names[name] = text
        args = [text]
        if parent:
            args.append(int_text(parent) if type(parent) is int else encode(parent))
        if span:
            args.append(int_text(span) if type(span) is int else encode(span))
        t = ev.t
        # Finite floats and ints encode as their repr; NaN, infinities
        # and anything else as the encoder says.
        if type(t) is float and t - t == 0.0:
            args.append(float_text(t))
        else:
            args.append(int_text(t) if type(t) is int else encode(t))
        if trace:
            args.append(int_text(trace) if type(trace) is int else encode(trace))
        return tpl % tuple(args)

    return line


# What a typed key maps to when its set holds a value that a typed key
# cannot key exactly: look the set up by repr instead.
_BY_REPR = object()

# Value types whose equality, within one type, is equality of their JSON
# text, but for float zeros and NaN.  A tuple is not one: ``(True,) ==
# (1,)``.
_TYPED = frozenset((str, int, float, bool, type(None)))


def _inexact(value: Any) -> bool:
    """Whether a typed key would merge ``value`` with one that exports apart."""
    return type(value) not in _TYPED or (
        type(value) is float and (value != value or not value)
    )


def attrs_table() -> Callable[[dict[str, Any]], dict[str, Any]]:
    """A fresh ``share(attrs)``: one shared dict per distinct attrs set.

    ``share`` returns the dict already held for a set that exports the
    same JSON text (keys in the same order), or keeps a compact copy of
    ``attrs`` as that set's dict and returns it.  Equality alone would
    merge sets that export apart (``0.0`` and ``-0.0``; ``True``, ``1``
    and ``1.0``), so the key is typed: the keys, the values, then each
    value's type.  That is exact only for JSON scalars other than float
    zeros (``0.0 == -0.0``) and NaNs (never equal); a set holding one of
    those, or any other value (a tuple, a list, a dict), is keyed by
    each value's ``repr``, which is exact for every JSON value.  Every
    set holding one ``ch`` string holds the same object.  The tables
    live as long as ``share`` does.
    """
    typed: dict[tuple, Any] = {}
    by_repr: dict[tuple, dict[str, Any]] = {}
    get = typed.get
    strings: dict[str, str] = {}

    def new(attrs: dict[str, Any]) -> dict[str, Any]:
        shared = dict(attrs.items())
        ch = shared.get("ch")
        if type(ch) is str:
            shared["ch"] = strings.setdefault(ch, ch)
        return shared

    def keep(attrs: dict[str, Any]) -> dict[str, Any]:
        key = (*attrs, *map(repr, attrs.values()))
        shared = by_repr.get(key)
        if shared is None:
            shared = by_repr[key] = new(attrs)
        return shared

    def share(attrs: dict[str, Any]) -> dict[str, Any]:
        values = (*attrs.values(),)
        key = (*attrs, *values, *map(type, values))
        try:
            shared = get(key)
        except TypeError:  # a list or dict value
            return keep(attrs)
        if shared is None:
            # A key equal to this one would find the marker too, so the
            # check runs only when a key is new.
            if any(map(_inexact, values)):
                typed[key] = _BY_REPR
                return keep(attrs)
            shared = typed[key] = new(attrs)
        elif shared is _BY_REPR:
            return keep(attrs)
        return shared

    return share


class FlightEvent:
    """One structured record: what happened, when, on which trace.

    ``attrs`` is read-only: events whose attrs export the same JSON text
    share one dict (one per distinct set in a recording, recorded or
    reloaded, see :func:`attrs_table`), so writing to one event's attrs
    would rewrite every event that shares them.  A reader that needs a
    changed set copies it first.
    """

    __slots__ = ("t", "name", "trace", "span", "parent", "attrs")

    def __init__(
        self,
        t: float,
        name: str,
        trace: int = 0,
        span: int = 0,
        parent: int = 0,
        attrs: dict[str, Any] | None = None,
    ) -> None:
        self.t = t
        self.name = name
        self.trace = trace
        self.span = span
        self.parent = parent
        self.attrs = {} if attrs is None else attrs

    def __getstate__(self):
        return (self.t, self.name, self.trace, self.span, self.parent, self.attrs)

    def __setstate__(self, state):
        self.t, self.name, self.trace, self.span, self.parent, self.attrs = state


def stage_of(task_label: str) -> str:
    """``Job0-ResultStage-task7`` -> ``Job0-ResultStage``."""
    return task_label.rsplit("-task", 1)[0] if "-task" in task_label else task_label


class FlightIndex:
    """Every table the analyses read, filled by one pass over a recording.

    Span tables are keyed by span id, trace tables by trace id; plain
    dicts and lists in record order (insertion order only — nothing here
    depends on hash order).  One table per fact, under the invariant every
    recording keeps: a span has one ``msg.send``, at most one ``msg.recv``
    and at most one ``mpi.match``, and a run one ``run.meta``
    (``tests/obs/test_flight_index.py`` checks it on the committed
    baselines and a traced crash per transport).  On a log that breaks it
    the last event of each kind wins.

    * ``send``        — span -> its ``msg.send`` event (``t``, ``nbytes``,
      ``leg``, ``type`` are read off the event), in send order.
    * ``recv`` / ``match`` — time of a span's ``msg.recv`` / ``mpi.match``;
      ``waited`` is the match's ``waited_s``.
    * ``close_first`` — time of a span's ``msg.recv`` *or* ``mpi.match``,
      whichever was recorded first (what the message timeline draws to).
    * ``aborted``     — spans tombstoned by ``span.aborted``.
    * ``parent_of`` / ``children`` / ``body_legs`` — the send-side causal
      edges (``children`` in send order; ``body_legs`` are the mpi-opt
      ``leg == "mpi-body"`` sends).  ``trace_spans`` — trace -> span of
      every send on it, in send order.
    * ``task_start`` / ``task_finish`` — trace -> its last ``task.start``
      / ``task.finish`` event, in first-seen trace order.
    * ``stage_pairs`` — ``(label, stage.start event, stage.finish
      event)`` in finish order.  A start re-arms its label (a restarted
      stage pairs its *latest* start), a finish without an open start is
      dropped, a stage that never finishes yields no pair.  A missing
      ``stage`` attr reads as the label ``"?"`` for every reader.
    * ``job_submit`` / ``job_start`` — app -> time (last event wins,
      first-seen app order).  Non-empty means a multi-tenant trace.
    * ``meta`` — attrs of the ``run.meta`` header (``{}`` when the
      recording predates it).

    Tables are read-only by contract: every reader of one recording
    shares them.  :meth:`memoized` caches tables that are pure functions
    of the index for the index's lifetime: :meth:`stage_tasks` (the
    per-stage task table) and the what-if interval unions.
    """

    __slots__ = (
        "send", "recv", "match", "waited", "close_first", "aborted",
        "parent_of", "children", "body_legs", "trace_spans", "task_start",
        "task_finish", "stage_pairs", "job_submit", "job_start", "meta",
        "_memo",
    )

    def __init__(self, events: Iterable[FlightEvent]) -> None:
        send: dict[int, FlightEvent] = {}
        recv: dict[int, float] = {}
        match: dict[int, float] = {}
        waited: dict[int, float] = {}
        close_first: dict[int, float] = {}
        aborted: set[int] = set()
        parent_of: dict[int, int] = {}
        children: dict[int, list[int]] = {}
        body_legs: set[int] = set()
        trace_spans: dict[int, list[int]] = {}
        task_start: dict[int, FlightEvent] = {}
        task_finish: dict[int, FlightEvent] = {}
        stage_pairs: list[tuple[str, FlightEvent, FlightEvent]] = []
        job_submit: dict[str, float] = {}
        job_start: dict[str, float] = {}
        self.send, self.recv, self.match = send, recv, match
        self.waited, self.close_first = waited, close_first
        self.aborted = aborted
        self.parent_of, self.children = parent_of, children
        self.body_legs, self.trace_spans = body_legs, trace_spans
        self.task_start, self.task_finish = task_start, task_finish
        self.stage_pairs = stage_pairs
        self.job_submit, self.job_start = job_submit, job_start
        self.meta: dict[str, Any] = {}
        self._memo: dict[Any, Any] = {}
        open_stages: dict[str, FlightEvent] = {}

        for ev in events:
            name = ev.name
            if name == "msg.send":
                span = ev.span
                send[span] = ev
                parent = ev.parent
                if parent:
                    parent_of[span] = parent
                    if parent in children:
                        children[parent].append(span)
                    else:
                        children[parent] = [span]
                if ev.attrs.get("leg") == "mpi-body":
                    body_legs.add(span)
                trace = ev.trace
                if trace in trace_spans:
                    trace_spans[trace].append(span)
                else:
                    trace_spans[trace] = [span]
            elif name == "msg.recv":
                span = ev.span
                recv[span] = t = ev.t
                if span not in close_first:
                    close_first[span] = t
            elif name == "mpi.match":
                span = ev.span
                match[span] = t = ev.t
                waited[span] = ev.attrs.get("waited_s", 0.0)
                if span not in close_first:
                    close_first[span] = t
            elif name == "task.start":
                task_start[ev.trace] = ev
            elif name == "task.finish":
                task_finish[ev.trace] = ev
            elif name == "span.aborted":
                aborted.add(ev.span)
            elif name == "stage.start":
                open_stages[ev.attrs.get("stage", "?")] = ev
            elif name == "stage.finish":
                label = ev.attrs.get("stage", "?")
                start = open_stages.pop(label, None)
                if start is not None:
                    stage_pairs.append((label, start, ev))
            elif name == "job.submit":
                job_submit[ev.attrs.get("app", "")] = ev.t
            elif name == "job.start":
                job_start[ev.attrs.get("app", "")] = ev.t
            elif name == "run.meta":
                self.meta = dict(ev.attrs)

    def memoized(self, key: Any, build: Callable[[], Any]) -> Any:
        """``build()``, computed once per ``key`` for this index."""
        try:
            return self._memo[key]
        except KeyError:
            value = self._memo[key] = build()
            return value

    def stage_tasks(self) -> dict[str, list[tuple[int, FlightEvent, FlightEvent]]]:
        """Stage label -> ``(trace, task.start, task.finish)`` per finished task.

        Every trace with both task events (the last of each), grouped by
        :func:`stage_of` its ``task`` attr; stages and their tasks in
        first-finish order.  The one task table critical path and the
        replay model read.
        """
        return self.memoized("stage_tasks", self._stage_tasks)

    def _stage_tasks(self) -> dict[str, list[tuple[int, FlightEvent, FlightEvent]]]:
        starts = self.task_start
        stages: dict[str, list[tuple[int, FlightEvent, FlightEvent]]] = {}
        for trace, finish in self.task_finish.items():
            start = starts.get(trace)
            if start is not None:
                label = stage_of(finish.attrs.get("task", ""))
                stages.setdefault(label, []).append((trace, start, finish))
        return stages

    def unclosed_spans(self) -> list[int]:
        """Spans sent with no recv, no match and no ``span.aborted``.

        Empty for any run that ended, cleanly or not: a failure sweep
        tombstones what delivery never closed.
        """
        closed, aborted = self.close_first, self.aborted
        return sorted(
            s for s in self.send if s not in closed and s not in aborted
        )


class FlightRecorder:
    """Bounded event log plus the open-span table.

    Holds no reference to the engine: callers stamp each record with the
    simulated time, so a finished recorder is plain data — picklable,
    diffable, and attachable to a :class:`~repro.spark.deploy.RunResult`.
    """

    # (FlightIndex, len(events), dropped) of the last index() call. A class
    # default, so recorders unpickled without it index lazily.
    _index: "tuple[FlightIndex, int, int] | None" = None

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        self.capacity = int(capacity)
        self.events: deque[FlightEvent] = deque(maxlen=self.capacity)
        self.dropped = 0
        # span_id -> (TraceContext, channel key or None) for sent-not-yet-
        # received messages; closed by recv/match or by a failure sweep.
        self._open: dict[int, tuple["TraceContext", Any]] = {}

    def __len__(self) -> int:
        return len(self.events)

    # -- recording ----------------------------------------------------------
    def append(
        self,
        t: float,
        name: str,
        ctx: "TraceContext | None",
        attrs: dict[str, Any],
    ) -> FlightEvent:
        """Log one event holding ``attrs`` itself (not a copy).

        The causal tracer passes the one shared dict of each distinct
        attrs set (:func:`attrs_table`); the dict is read-only from here.
        """
        if len(self.events) == self.capacity:
            self.dropped += 1
        if ctx is None:
            ev = FlightEvent(t, name, 0, 0, 0, attrs)
        else:
            ev = FlightEvent(t, name, ctx.trace_id, ctx.span_id, ctx.parent_id, attrs)
        self.events.append(ev)
        return ev

    def record(
        self, t: float, name: str, ctx: "TraceContext | None" = None, **attrs: Any
    ) -> FlightEvent:
        """Log one event with its own attrs dict (shared with no other)."""
        return self.append(t, name, ctx, attrs)

    # -- open-span tracking ---------------------------------------------------
    def span_open(self, ctx: "TraceContext", channel: Any = None) -> None:
        self._open[ctx.span_id] = (ctx, channel)

    def span_close(self, span_id: int) -> None:
        self._open.pop(span_id, None)

    def open_spans(self) -> list[int]:
        """Span ids sent but not yet received/matched (sorted, for tests)."""
        return sorted(self._open)

    def open_on(self, channel: Any) -> bool:
        """Whether any open span was sent on ``channel``."""
        return any(ch == channel for _, ch in self._open.values())

    def close_channel(
        self, t: float, channel: Any, reason: str, share: Callable
    ) -> int:
        """A channel died: close its open spans, emit the terminal event.

        ``share`` maps each attrs set the sweep builds to the dict it
        records: the recording's :func:`attrs_table`.
        """
        victims = sorted(
            sid for sid, (_, ch) in self._open.items() if ch == channel
        )
        self._tombstone(t, victims, reason, share)
        self.append(t, "channel.dead", None,
                    share({"ch": channel, "reason": reason, "closed": len(victims)}))
        return len(victims)

    def close_all(
        self, t: float, reason: str, terminal: str, share: Callable
    ) -> int:
        """Failure sweep: close every open span, then record ``terminal``.

        ``share`` is as for :meth:`close_channel`.
        """
        victims = sorted(self._open)
        self._tombstone(t, victims, reason, share)
        self.append(t, terminal, None, share({"reason": reason, "closed": len(victims)}))
        return len(victims)

    def _tombstone(self, t: float, victims: list[int], reason: str, share: Callable) -> None:
        if victims:
            attrs = share({"reason": reason})
            for sid in victims:
                ctx, _ = self._open.pop(sid)
                self.append(t, "span.aborted", ctx, attrs)

    # -- queries --------------------------------------------------------------
    def index(self) -> FlightIndex:
        """The recording's :class:`FlightIndex`, built on first use.

        Rebuilt when the log grew or evicted its head since the last call
        (``len(events)`` or ``dropped`` moved); replacing an event in
        place is not a supported edit.  Every analysis reads the log
        through this, so a round of them walks ``events`` once.
        """
        cached = self._index
        n, dropped = len(self.events), self.dropped
        if cached is None or cached[1] != n or cached[2] != dropped:
            cached = self._index = (FlightIndex(self.events), n, dropped)
        return cached[0]

    def __getstate__(self) -> dict[str, Any]:
        # The index is derived data: pickles (run-cache entries, parallel-
        # harness results) carry the log alone and stay the bytes they were.
        state = self.__dict__.copy()
        state.pop("_index", None)
        return state

    # -- export ---------------------------------------------------------------
    def _jsonl_chunks(self) -> Iterator[str]:
        """The export, ``CHUNK_LINES`` newline-terminated lines per string."""
        line, events = _line_encoder(), iter(self.events)
        while True:
            lines = list(map(line, islice(events, CHUNK_LINES)))
            if not lines:
                return
            lines.append("")
            yield "\n".join(lines)

    def to_jsonl(self) -> str:
        """One compact JSON object per line, in record order."""
        # Appending to the only reference grows the string in place
        # (CPython resizes it), so the export peaks at its own size plus
        # one chunk; "".join would hold every chunk beside the result.
        text = ""
        for chunk in self._jsonl_chunks():
            text += chunk
        return text

    def write(self, path: str) -> str:
        """Write the JSONL export; a ``.gz`` suffix gzip-compresses it.

        Compression is what makes committed baseline recordings (the diff
        engine's blame references under ``baselines/``) cheap to keep in
        the tree; ``mtime=0`` keeps the archive byte-deterministic so two
        recordings of the same seeded cell produce identical files.  The
        export is written a chunk at a time; deflate's output does not
        depend on how its input is split, so the archive is the bytes a
        single write would give.
        """
        if str(path).endswith(".gz"):
            import gzip

            with open(path, "wb") as raw:
                # filename="" keeps the FNAME header field out — with a
                # bare fileobj GzipFile would embed raw.name, making the
                # bytes depend on where the recording is written.
                with gzip.GzipFile(
                    filename="", fileobj=raw, mode="wb", mtime=0
                ) as fh:
                    for chunk in self._jsonl_chunks():
                        fh.write(chunk.encode("utf-8"))
        else:
            with open(path, "w") as fh:
                fh.writelines(self._jsonl_chunks())
        return path

    @staticmethod
    def from_events(
        events: Iterable[FlightEvent],
        capacity: int | None = None,
        dropped: int = 0,
    ) -> "FlightRecorder":
        """Rebuild a recorder around existing events (analysis helpers).

        The capacity defaults to whichever is larger of
        ``DEFAULT_CAPACITY`` and the event count, so rebuilding a log
        that outgrew the default bound never silently re-evicts its
        head.  ``dropped`` carries an original recorder's eviction count
        through export/import round-trips.
        """
        events = list(events)
        if capacity is None:
            capacity = max(DEFAULT_CAPACITY, len(events))
        rec = FlightRecorder(capacity=capacity)
        rec.events.extend(events)
        # An explicit capacity smaller than the log re-evicts the head;
        # that must show in the counter, never happen silently.
        rec.dropped = int(dropped) + max(0, len(events) - capacity)
        return rec

    # -- import ---------------------------------------------------------------
    @staticmethod
    def from_jsonl(text: str) -> "FlightRecorder":
        """Rebuild a recorder from :meth:`to_jsonl` output.

        The inverse of the export flattening: ``t``/``ev`` and the three
        span ids are lifted back onto the event, every remaining key
        becomes an attr.  ``to_jsonl(from_jsonl(s)) == s`` for any
        exported trace, and the rebuilt events compare equal field-for-
        field — the round-trip the what-if replay engine relies on when
        consuming traces recorded by another process.  Lines end in
        ``"\\n"`` (a ``"\\r\\n"`` ending and surrounding blanks are
        stripped); blank lines are skipped.
        """
        return FlightRecorder._parse(_lines(text))

    @staticmethod
    def load_jsonl(path: str) -> "FlightRecorder":
        """Read a :meth:`write` / :meth:`to_jsonl` export back from disk.

        Transparently decompresses ``.gz`` exports (committed baselines).
        The file is parsed as it is read, never held as one string.
        """
        if str(path).endswith(".gz"):
            import gzip

            with gzip.open(path, "rt", encoding="utf-8") as fh:
                return FlightRecorder._parse(fh)
        with open(path) as fh:
            return FlightRecorder._parse(fh)

    @staticmethod
    def _parse(lines: Iterable[str]) -> "FlightRecorder":
        """Events from JSONL lines, ``CHUNK_LINES`` lines per JSON parse.

        One ``json.loads`` per chunk (the non-blank lines as one array) and
        each chunk's events built before the next is read, so a reload
        holds one chunk of text beside the events.  Every distinct event
        name, ``ch`` value and integer span, trace or parent id is one
        shared object per reload, and every distinct attrs set one shared
        dict (:func:`attrs_table`).
        """
        events: list[FlightEvent] = []
        append, loads, strip = events.append, json.loads, str.strip
        # One object per distinct event name and id; only an exact int
        # goes in the id table, as 1.0 and True would find the int 1.
        share, share_id = {}.setdefault, {}.setdefault
        share_attrs = attrs_table()
        lines = iter(lines)
        while True:
            batch = list(islice(lines, CHUNK_LINES))
            if not batch:
                break
            rows = ",".join(filter(None, map(strip, batch)))
            if not rows:
                continue
            for d in loads("[" + rows + "]"):
                pop = d.pop
                name = pop("ev")
                t = pop("t")
                trace = pop("trace", 0)
                span = pop("span", 0)
                parent = pop("parent", 0)
                if type(trace) is int:
                    trace = share_id(trace, trace)
                if type(span) is int:
                    span = share_id(span, span)
                if type(parent) is int:
                    parent = share_id(parent, parent)
                append(FlightEvent(t, share(name, name), trace, span, parent, share_attrs(d)))
        return FlightRecorder.from_events(events)


def flight_of(run: Any) -> FlightRecorder:
    """The recording of ``run``: a :class:`FlightRecorder` itself, or the
    ``flight`` of a :class:`~repro.spark.deploy.RunResult`."""
    if isinstance(run, FlightRecorder):
        return run
    flight = getattr(run, "flight", None)
    if flight is None:
        raise ValueError(
            f"{type(run).__name__} carries no flight recording: pass a "
            "FlightRecorder or a RunResult run with obs_causal=True"
        )
    return flight


def _lines(text: str) -> Iterator[str]:
    """``text`` split at ``"\\n"``, one line at a time."""
    find, start = text.find, 0
    while True:
        end = find("\n", start)
        if end < 0:
            yield text[start:]
            return
        yield text[start:end]
        start = end + 1
