"""Direct layer probes: one public call timed in isolation.

No profiler, no workload around them: a probe answers "what does this
call cost here" without cProfile's per-call bias.  Each runs a fixed
amount of work ``REPEATS`` times and reports the fastest, per operation.
"""

from __future__ import annotations

import time

from repro.mpi.envelope import Envelope, Protocol
from repro.mpi.matching import MatchingEngine
from repro.mpi.request import Request
from repro.netty.frame import WireFrame
from repro.obs.causal import TraceContext
from repro.obs.flightrec import FlightRecorder
from repro.simnet.engine import SimEngine
from repro.simnet.fluid import FluidNetwork
from repro.spark.messages import (
    ChunkFetchSuccess,
    StreamChunkId,
    decode_message,
    encode_message,
)

REPEATS = 3


def _best(fn, n_ops: int) -> float:
    """Fastest of REPEATS runs of ``fn``, in seconds per operation."""
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best / n_ops


def dispatch(n_timeouts: int = 200_000, n_procs: int = 64) -> float:
    """Kernel dispatch: 64 processes yielding timeouts, 200 k in all."""
    per_proc = n_timeouts // n_procs

    def run() -> None:
        env = SimEngine()

        def ticker(period: float):
            for _ in range(per_proc):
                yield env.timeout(period)

        for i in range(n_procs):
            env.process(ticker(1e-6 * (i + 1)))
        env.run()

    return _best(run, per_proc * n_procs)


def fluid_transfer(n_flows: int = 64, rounds: int = 20) -> float:
    """``FluidNetwork.transfer``: 64 flows over 8 uplinks and 8 downlinks,
    so every start and finish re-rates the flows sharing its links."""

    def run() -> None:
        env = SimEngine()
        net = FluidNetwork(env)
        for r in range(rounds):
            for f in range(n_flows):
                links = [(("up", f % 8), 12.5e9), (("down", (f // 8 + r) % 8), 12.5e9)]
                net.transfer(links, 1e6 * (1 + f % 5))
            env.run()

    return _best(run, n_flows * rounds)


def match(depth: int = 256, rounds: int = 40) -> float:
    """Matching engine at queue depth 256: unexpected deliveries probed
    then received, and pre-posted receives matched by later deliveries."""
    n_ops = rounds * depth * 5

    def run() -> None:
        env = SimEngine()
        engine = MatchingEngine(env, lambda envelope, posted, unexpected: None)
        for _ in range(rounds):
            for tag in range(depth):  # fill the unexpected queue
                engine.deliver(Envelope(1, tag % 8, 0, 0, tag, None, 64, Protocol.EAGER))
            for tag in range(depth):
                engine.iprobe(tag % 8, tag, 0)
                engine.post_recv(tag % 8, tag, 0, Request(env, "recv"))
            for tag in range(depth):  # fill the posted queue
                engine.post_recv(tag % 8, tag, 0, Request(env, "recv"))
            for tag in range(depth):
                engine.deliver(Envelope(1, tag % 8, 0, 0, tag, None, 64, Protocol.EAGER))

    return _best(run, n_ops)


def frame_roundtrip(n: int = 20_000) -> float:
    """ChunkFetchSuccess -> WireFrame -> ChunkFetchSuccess."""

    def run() -> None:
        for i in range(n):
            msg = ChunkFetchSuccess(StreamChunkId(i, i & 7), None, 1 << 20, 4)
            frame = encode_message(msg)
            back = decode_message(WireFrame(frame.header, None, frame.body_nbytes))
            if back.stream_chunk_id != msg.stream_chunk_id:
                raise AssertionError("frame round trip lost the chunk id")

    return _best(run, n)


def flight_record(n: int = 100_000) -> float:
    """``FlightRecorder.record`` with a context and two attributes."""
    ctx = TraceContext(1, 2, 1)

    def run() -> None:
        recorder = FlightRecorder()
        for i in range(n):
            recorder.record(i * 1e-6, "msg.send", ctx, type=1, nbytes=i)

    return _best(run, n)


def run_all(quick: bool = False) -> dict[str, float]:
    k = 10 if quick else 1  # quick: a tenth of the work, same per-op unit
    return {
        "simnet.engine.dispatch_ns": 1e9 * dispatch(200_000 // k),
        "simnet.fluid.transfer_us": 1e6 * fluid_transfer(rounds=20 // k),
        "mpi.matching.match_ns": 1e9 * match(rounds=40 // k),
        "netty.pipeline.frame_roundtrip_ns": 1e9 * frame_roundtrip(20_000 // k),
        "obs.trace.record_ns": 1e9 * flight_record(100_000 // k),
    }
