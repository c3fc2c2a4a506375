"""Causal tracing: trace contexts threaded through the message path.

A :class:`TraceContext` is ``(trace_id, span_id, parent_id)`` — minted
when a Spark message is created (:func:`repro.spark.messages.ensure_trace`),
carried through framing (``WireFrame.trace_ctx``) and the MPI envelope
(``Envelope.trace_ctx``), and propagated across all four transports.  The
context is an *in-memory side channel*: it is never serialized into
header bytes, so frames and envelopes are byte-identical whether tracing
is on or off, and recording never advances the simulated clock — a
causally-traced run reproduces the untraced run's timings exactly.

The causal edges (DESIGN.md §11):

* **send → recv** — ``msg.send`` at the MessageEncoder, ``msg.recv`` at
  the MessageDecoder, sharing one span;
* **match** — ``mpi.match`` when the receive-side matching engine pairs
  an envelope with a posted receive; ``waited_s`` is the envelope's time
  in the unexpected queue (under MPI4Spark-Basic this is the busy-poll's
  discovery delay — the polling tax, made per-message);
* **header → body join** — under MPI4Spark-Optimized the body rides MPI
  as a *child span* of the frame; ``msg.join`` marks the reunion when the
  triggered ``MPI_Recv`` completes;
* **request → response** — a response message's context is a child of
  the request's, so a fetch chain is one connected trace.

Runs opt in via ``obs_causal=True``; the engine default is
:data:`NULL_CAUSAL`, whose one method, ``event``, is a no-op — every
other call site guards on ``env.causal.enabled`` or ``trace_ctx is not
None`` and pays nothing.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.obs.flightrec import DEFAULT_CAPACITY, FlightRecorder, attrs_table

if TYPE_CHECKING:  # pragma: no cover
    from repro.simnet.engine import SimEngine


class TraceContext:
    """One node of the causal DAG: (trace, span, parent-span) ids."""

    __slots__ = ("trace_id", "span_id", "parent_id")

    def __init__(self, trace_id: int, span_id: int, parent_id: int = 0) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id

    def __getstate__(self):
        return (self.trace_id, self.span_id, self.parent_id)

    def __setstate__(self, state):
        self.trace_id, self.span_id, self.parent_id = state


class NullCausal:
    """Disabled causal tracer: records nothing.

    Every other method's call sites check ``enabled`` (or a non-None
    trace context) first, so ``event`` is the one method it needs.
    """

    enabled = False
    flight = None
    __slots__ = ()

    def event(self, name, ctx=None, **attrs) -> None:
        pass


NULL_CAUSAL = NullCausal()


class CausalTracer:
    """Live causal tracer: mints contexts, records into a flight recorder.

    Ids are deterministic per-engine counters, so same-seed runs produce
    identical traces.  All methods stamp ``env.now`` and return without
    scheduling anything — tracing cannot perturb the simulation.

    Every event's attrs are the one shared dict of their set (DESIGN.md
    §11 "Footprint"): each recording method passes its attrs through
    ``_share``, the recording's :func:`~repro.obs.flightrec.attrs_table`.
    The table lives on the tracer for the run alone: the recorder (and
    so a ``RunResult``) never holds it.
    """

    enabled = True

    def __init__(self, env: "SimEngine", capacity: int = DEFAULT_CAPACITY) -> None:
        self.env = env
        self.flight = FlightRecorder(capacity)
        self._next_trace = 0
        self._next_span = 0
        self._share = attrs_table()

    # -- context minting ------------------------------------------------------
    def mint(self) -> TraceContext:
        """A fresh root context (new trace)."""
        self._next_trace += 1
        self._next_span += 1
        return TraceContext(self._next_trace, self._next_span, 0)

    def child(self, parent: "TraceContext | None") -> TraceContext:
        """A child span of ``parent`` (same trace); a root if parent is None."""
        if parent is None:
            return self.mint()
        self._next_span += 1
        return TraceContext(parent.trace_id, self._next_span, parent.span_id)

    # -- message edges --------------------------------------------------------
    def send(
        self,
        ctx: TraceContext,
        type_tag: int,
        nbytes: int,
        channel: Any = None,
        **attrs: Any,
    ) -> None:
        """A message left its sender; the span stays open until recv/match."""
        self.flight.append(
            self.env.now, "msg.send", ctx,
            self._share({"type": type_tag, "nbytes": nbytes, "ch": channel, **attrs}),
        )
        self.flight.span_open(ctx, channel)

    def recv(
        self,
        ctx: TraceContext,
        type_tag: int,
        nbytes: int,
        channel: Any = None,
        **attrs: Any,
    ) -> None:
        """The message reached its destination handler: span closes."""
        self.flight.append(
            self.env.now, "msg.recv", ctx,
            self._share({"type": type_tag, "nbytes": nbytes, "ch": channel, **attrs}),
        )
        self.flight.span_close(ctx.span_id)

    def match(self, ctx: TraceContext, waited_s: float, buffered: bool) -> None:
        """The matching engine paired this envelope with a receive.

        ``waited_s`` is the envelope's unexpected-queue dwell — under the
        Basic design's busy-poll this *is* the per-message polling tax.
        """
        self.flight.append(
            self.env.now, "mpi.match", ctx,
            self._share({"waited_s": waited_s, "buffered": buffered}),
        )
        self.flight.span_close(ctx.span_id)

    def join(self, ctx: TraceContext, nbytes: int, channel: Any = None) -> None:
        """mpi-opt header→body join: the MPI body rejoined frame ``ctx``."""
        self.flight.append(
            self.env.now, "msg.join", ctx, self._share({"nbytes": nbytes, "ch": channel})
        )

    # -- lifecycle / scheduler events ----------------------------------------
    def event(self, name: str, ctx: TraceContext | None = None, **attrs: Any) -> None:
        """Generic record: task/stage state changes, fault injections."""
        self.flight.append(self.env.now, name, ctx, self._share(attrs))

    def channel_closed(self, channel: Any, reason: str) -> None:
        """A transport channel died: close its in-flight spans."""
        self.flight.close_channel(self.env.now, channel, reason, self._share)

    def abort(self, reason: str, terminal: str = "mpi.abort") -> None:
        """Close every open span and leave a ``terminal`` tombstone.

        The MPI world's abort leaves ``mpi.abort``; the cluster's final
        shutdown sweep leaves ``run.end``.
        """
        self.flight.close_all(self.env.now, reason, terminal, self._share)
