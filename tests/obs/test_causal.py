"""Causal tracing: context minting, transport propagation, zero-cost-off.

The propagation tests run the same small shuffle job under every
transport with ``obs_causal=True`` and inspect the flight log;
the zero-cost tests assert the tracing side channel leaves frames,
envelopes and simulated timings untouched when (and even when not)
disabled — the property the figure-suite goldens depend on.
"""

import pickle
from dataclasses import replace

import pytest

from repro.faults.chaos import make_chaos_profile
from repro.harness.systems import INTERNAL_CLUSTER
from repro.mpi.envelope import Envelope, Protocol
from repro.obs import NULL_CAUSAL
from repro.obs.causal import CausalTracer, NullCausal, TraceContext
from repro.spark.deploy import SparkSimCluster
from repro.spark.messages import (
    ChunkFetchRequest,
    RpcRequest,
    StreamChunkId,
    encode_message,
    ensure_trace,
)


def _named(flight, name):
    """The events of ``flight`` called ``name``, in record order."""
    return [ev for ev in flight.events if ev.name == name]


class _Env:
    now = 0.25


def _run(transport, **kwargs):
    sim = SparkSimCluster(
        INTERNAL_CLUSTER, 2, transport, cores_per_executor=2, **kwargs
    )
    sim.launch()
    result = sim.run_profile(make_chaos_profile(2, 2, shuffle_bytes=8 << 20))
    sim.shutdown()
    return sim, result


class TestContexts:
    def test_mint_is_deterministic(self):
        a, b = CausalTracer(_Env()), CausalTracer(_Env())
        ids = lambda t: [(c.trace_id, c.span_id) for c in (t.mint(), t.mint())]
        assert ids(a) == ids(b) == [(1, 1), (2, 2)]

    def test_child_shares_trace_links_parent(self):
        tracer = CausalTracer(_Env())
        root = tracer.mint()
        kid = tracer.child(root)
        assert kid.trace_id == root.trace_id
        assert kid.parent_id == root.span_id
        assert kid.span_id != root.span_id

    def test_child_of_none_is_a_root(self):
        kid = CausalTracer(_Env()).child(None)
        assert kid.parent_id == 0

    def test_null_causal_is_free(self):
        assert not NULL_CAUSAL.enabled and NULL_CAUSAL.flight is None
        # the one call made without an enabled check records nothing
        NULL_CAUSAL.event("x", None, kind="k")

    def test_ensure_trace_mints_once_and_respects_disabled(self):
        msg = RpcRequest(request_id=1)
        assert ensure_trace(msg, NullCausal()) is None
        assert msg.trace_ctx is None
        tracer = CausalTracer(_Env())
        ctx = ensure_trace(msg, tracer)
        assert ctx is msg.trace_ctx
        assert ensure_trace(msg, tracer) is ctx  # kept, not re-minted


class TestConfWiring:
    def test_causal_implies_enabled_without_trace(self):
        sim = SparkSimCluster(
            INTERNAL_CLUSTER, 2, "mpi-opt", obs_enabled=False, obs_causal=True
        )
        assert sim.obs_causal and sim.obs_enabled
        assert sim.env.causal.enabled

    def test_default_engine_has_null_causal(self):
        sim = SparkSimCluster(INTERNAL_CLUSTER, 2, "nio")
        assert not sim.env.causal.enabled


class TestPropagation:
    @pytest.fixture(scope="class", params=["nio", "rdma", "mpi-basic", "mpi-opt"])
    def traced(self, request):
        sim, result = _run(request.param, obs_causal=True)
        return request.param, sim.env.causal.flight, result

    def test_every_send_is_received_and_closed(self, traced):
        _, flight, _ = traced
        sends = _named(flight, "msg.send")
        assert sends
        closed = {ev.span for ev in _named(flight, "msg.recv")}
        closed |= {ev.span for ev in _named(flight, "mpi.match")}
        assert {ev.span for ev in sends} <= closed
        assert flight.open_spans() == []
        assert flight.dropped == 0

    def test_responses_are_children_of_requests(self, traced):
        _, flight, _ = traced
        send_spans = {ev.span: ev for ev in _named(flight, "msg.send")}
        task_spans = {ev.span for ev in _named(flight, "task.start")}
        with_parent = [ev for ev in send_spans.values() if ev.parent]
        assert with_parent
        # requests hang off the task span that issued them...
        assert any(ev.parent in task_spans for ev in with_parent)
        # ...responses off the request span, within the same trace
        responses = [ev for ev in with_parent if ev.parent in send_spans]
        assert responses
        for ev in responses:
            req = send_spans[ev.parent]
            assert req.trace == ev.trace
            assert req.t <= ev.t

    def test_task_and_stage_events_present(self, traced):
        _, flight, result = traced
        n_tasks = sum(1 for ev in flight.events if ev.name == "task.finish")
        assert n_tasks == 12  # 3 stages * 4 tasks
        stages = [ev.attrs["stage"] for ev in _named(flight, "stage.finish")]
        assert stages == list(result.stage_seconds)

    def test_result_carries_picklable_flight(self, traced):
        _, flight, result = traced
        assert result.flight is flight
        back = pickle.loads(pickle.dumps(result))
        assert len(back.flight) == len(flight)

    def test_transport_specific_edges(self, traced):
        transport, flight, _ = traced
        matches = _named(flight, "mpi.match")
        joins = _named(flight, "msg.join")
        if transport in ("nio", "rdma"):
            assert not matches and not joins
        elif transport == "mpi-basic":
            # every message rides MPI; discovery dwell is the polling tax
            assert len(matches) == len(_named(flight, "msg.send"))
            assert not joins
            assert any(ev.attrs["waited_s"] > 0 for ev in matches)
        else:  # mpi-opt: only bulk bodies ride MPI, as child body legs
            assert joins
            assert len(matches) == len(joins)
            body_legs = [
                ev for ev in _named(flight, "msg.send")
                if ev.attrs.get("leg") == "mpi-body"
            ]
            assert len(body_legs) == len(joins)
            frame_spans = {ev.span for ev in _named(flight, "msg.send")}
            assert all(ev.parent in frame_spans for ev in body_legs)


class TestZeroCostWhenDisabled:
    def test_frames_byte_identical_with_and_without_context(self):
        for make in (
            lambda: ChunkFetchRequest(StreamChunkId(7, 0), num_blocks=3),
            lambda: RpcRequest(request_id=9, payload=None, payload_nbytes=128),
        ):
            plain, traced = make(), make()
            ensure_trace(traced, CausalTracer(_Env()))
            f0, f1 = encode_message(plain), encode_message(traced)
            assert f1.header == f0.header
            assert f1.nbytes == f0.nbytes
            assert f1 == f0  # trace_ctx excluded from dataclass equality

    def test_envelopes_compare_equal_across_trace_ctx(self):
        env = Envelope(
            src_gid=0, src_rank=0, dst_gid=1, context_id=0, tag=5,
            payload=None, nbytes=64, protocol=Protocol.EAGER,
        )
        traced = replace(env, trace_ctx=TraceContext(1, 1))
        assert traced == env

    @pytest.mark.parametrize("transport", ["mpi-basic", "mpi-opt"])
    def test_identical_timings_and_event_counts(self, transport):
        sim_off, off = _run(transport)
        sim_on, on = _run(transport, obs_causal=True)
        assert on.total_seconds == off.total_seconds
        assert dict(on.stage_seconds) == dict(off.stage_seconds)
        assert sim_on.env.events_processed == sim_off.env.events_processed
        assert off.flight is None and on.flight is not None


class TestProcessHistory:
    def test_same_cell_records_identically_twice_in_one_process(self):
        # Channel names and handshake tag bases are numbered per engine,
        # so a recording cannot depend on the runs before it.
        _, first = _run("mpi-opt", obs_causal=True)
        _, second = _run("mpi-opt", obs_causal=True)
        assert dict(second.stage_seconds) == dict(first.stage_seconds)
        assert second.flight.to_jsonl() == first.flight.to_jsonl()
