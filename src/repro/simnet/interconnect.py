"""Interconnect fabrics and per-protocol wire cost models.

A :class:`Fabric` is the physical link (IB-HDR, Omni-Path, IB-EDR — the
three systems of Table III). A :class:`WireModel` is LogGP-style protocol
behaviour on top of a fabric:

* ``latency_s``      — one-way propagation + switch latency (``L``),
* ``send/recv_overhead_s`` — per-message CPU time at each end (``o``),
* ``per_byte_s``     — gap per byte, i.e. 1 / effective bandwidth (``G``),
* ``per_chunk_s`` / ``chunk_bytes`` — stacks that segment a message into
  chunks (TCP/Netty framing) pay an extra cost per chunk,
* ``rendezvous_threshold / rendezvous_extra_s`` — MPI's eager→rendezvous
  protocol switch adds a handshake round-trip for large messages,
* ``per_byte_cpu_s`` — CPU time per byte for stacks that copy payloads
  through the host (the IPoIB TCP path copies twice; RDMA and large-message
  MPI are zero-copy).

A :class:`CostModel` holds the calibrated costs a simulated cluster
charges off the wire: the Basic design's polling, the RAM disk, task
dispatch, Spark's fetch window and MPI's rendezvous switch.

Calibration: the constants below are set so that the Fig-8 ping-pong curve
on the internal cluster reproduces the paper's ~9x Netty+MPI advantage at
4 MiB, and documented against publicly reported numbers (IPoIB on 100 G IB
sustains ~10-15 Gb/s; MVAPICH2 pt2pt on HDR reaches ~1 us latency and >85%
of line rate; RDMA verbs latency ~2-3 us with the RDMA-Spark/UCR runtime
reaching only a fraction of line rate end-to-end, consistent with the
paper's measured 2.3x shuffle-read gain over IPoIB vs MPI4Spark's 13x).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.util.units import GiB, MiB, US, gbps


@dataclass(frozen=True)
class Fabric:
    """A physical interconnect."""

    name: str
    line_rate_Bps: float  # bytes/second at line rate
    base_latency_s: float  # propagation + one switch hop

    def __post_init__(self) -> None:
        if self.line_rate_Bps <= 0:
            raise ValueError("line rate must be positive")
        if self.base_latency_s < 0:
            raise ValueError("latency must be non-negative")


# Table III: all three systems have 100 Gb/s fabrics.
IB_HDR = Fabric("IB-HDR", line_rate_Bps=gbps(100), base_latency_s=0.6 * US)
OPA = Fabric("Omni-Path", line_rate_Bps=gbps(100), base_latency_s=0.9 * US)
IB_EDR = Fabric("IB-EDR", line_rate_Bps=gbps(100), base_latency_s=0.7 * US)

FABRICS = {f.name: f for f in (IB_HDR, OPA, IB_EDR)}


@dataclass(frozen=True)
class WireModel:
    """Protocol cost model over a fabric. All times in seconds."""

    name: str
    fabric: Fabric
    latency_s: float
    send_overhead_s: float
    recv_overhead_s: float
    per_byte_s: float
    per_chunk_s: float = 0.0
    chunk_bytes: int = 1 << 30
    rendezvous_threshold: int = 1 << 62
    rendezvous_extra_s: float = 0.0
    per_byte_cpu_s: float = 0.0

    def __post_init__(self) -> None:
        if self.chunk_bytes <= 0:
            raise ValueError("chunk_bytes must be positive")
        for field in ("latency_s", "send_overhead_s", "recv_overhead_s",
                      "per_byte_s", "per_chunk_s", "rendezvous_extra_s",
                      "per_byte_cpu_s"):
            if getattr(self, field) < 0:
                raise ValueError(f"{field} must be non-negative")

    # -- cost queries --------------------------------------------------------
    def n_chunks(self, nbytes: int) -> int:
        return max(1, math.ceil(nbytes / self.chunk_bytes))

    def serialization_time(self, nbytes: int) -> float:
        """Time the NIC/wire is occupied by this message (bandwidth term)."""
        return nbytes * self.per_byte_s + self.n_chunks(nbytes) * self.per_chunk_s

    def sender_cpu_time(self, nbytes: int) -> float:
        """CPU time at the sender before bytes hit the wire."""
        return self.send_overhead_s + nbytes * self.per_byte_cpu_s

    def receiver_cpu_time(self, nbytes: int) -> float:
        """CPU time at the receiver to surface the message to the app."""
        return self.recv_overhead_s + nbytes * self.per_byte_cpu_s

    def protocol_latency(self, nbytes: int) -> float:
        """Extra protocol latency (wire L + rendezvous handshake if any)."""
        extra = self.rendezvous_extra_s if nbytes > self.rendezvous_threshold else 0.0
        return self.latency_s + extra

    def one_way_time(self, nbytes: int) -> float:
        """End-to-end single-message time with no contention.

        This closed-form is what the analytic Fig-8 check uses; the
        simulator composes the same terms with resource contention.
        """
        return (
            self.sender_cpu_time(nbytes)
            + self.protocol_latency(nbytes)
            + self.serialization_time(nbytes)
            + self.receiver_cpu_time(nbytes)
        )

    def effective_bandwidth_Bps(self) -> float:
        return 1.0 / self.per_byte_s if self.per_byte_s > 0 else float("inf")

    def scaled(self, **overrides: float) -> "WireModel":
        return replace(self, **overrides)


@dataclass(frozen=True)
class CostModel:
    """The calibrated costs a simulated cluster charges off the wire.

    One frozen value a ``SparkSimCluster`` is built with (``cost=``) and
    hands to its executors, the Basic event loop, the MPI transports and
    the resilient scheduler; each reads the model it was built with. A
    knob is a ``dataclasses.replace`` of :data:`DEFAULT_COST`, and the run
    cache keys a cell on the model it ran under.
    """

    # Basic-design polling (Sec. VI-D): one selectNow + one MPI_Iprobe per
    # bound channel, every iteration. An idle loop that wakes is charged
    # half a poll period of message-discovery delay; the full-core spin is
    # the executor's polling-core tax.
    select_now_cost_s: float = 0.5 * US
    iprobe_cost_s: float = 0.3 * US
    basic_poll_period_s: float = 5.0 * US
    # Basic's residual interference (cache pollution, scheduler churn from
    # hot spinning threads) on task compute; calibrated against Fig 9.
    basic_compute_inflation: float = 1.3
    # Node-local RAM disk for shuffle spill/read (Sec. VII-C).
    ramdisk_write_Bps: float = 4.0e9
    ramdisk_read_Bps: float = 6.0e9
    # Fixed per-task scheduling/dispatch latency on the executor.
    task_sched_delay_s: float = 2e-3
    # Spark's maxBytesInFlight: a reduce task's outstanding fetch window.
    max_bytes_in_flight: int = 48 * MiB
    # MPI's eager→rendezvous switch point.
    rendezvous_threshold: int = 16 << 10


DEFAULT_COST = CostModel()


# ---------------------------------------------------------------------------
# Protocol constructors. Fractions of line rate and per-message overheads are
# the calibration surface for the whole reproduction; everything downstream
# consumes WireModels, never raw constants.
# ---------------------------------------------------------------------------

def tcp_over(fabric: Fabric) -> WireModel:
    """TCP/IP sockets over the fabric (IPoIB for IB, IPoOPA for Omni-Path).

    IPoIB runs the full kernel TCP stack: interrupt-driven receives, two
    payload copies, ~64 KiB segmentation. Public IPoIB measurements on
    100 G fabrics report ~10-20 Gb/s and tens of microseconds of latency;
    we sit at ~10.5 Gb/s effective which reproduces the paper's vanilla
    Spark shuffle behaviour.
    """
    return WireModel(
        name=f"tcp/{fabric.name}",
        fabric=fabric,
        latency_s=18.0 * US + fabric.base_latency_s,
        send_overhead_s=8.0 * US,
        recv_overhead_s=10.0 * US,
        per_byte_s=1.0 / (0.12 * fabric.line_rate_Bps),
        per_chunk_s=2.0 * US,  # per-64KiB segment: syscall + netty frame pass
        chunk_bytes=64 << 10,
        per_byte_cpu_s=1.0 / (12.0 * GiB),  # payload copies through the host
    )


def rdma_over(fabric: Fabric) -> WireModel:
    """RDMA verbs as driven by RDMA-Spark's UCR runtime.

    Raw verbs reach near line rate, but RDMA-Spark interposes its Unified
    Communication Runtime: chunk registration, completion handling and a
    Spark-2.1-era BlockTransferService. The paper's own measurement is that
    RDMA-Spark's shuffle read is only ~2.3x faster than IPoIB (13.08/5.56),
    so the end-to-end effective bandwidth is calibrated to ~25 Gb/s.
    """
    return WireModel(
        name=f"rdma-ucr/{fabric.name}",
        fabric=fabric,
        latency_s=2.5 * US + fabric.base_latency_s,
        send_overhead_s=3.0 * US,
        recv_overhead_s=3.0 * US,
        per_byte_s=1.0 / (0.25 * fabric.line_rate_Bps),
        per_chunk_s=6.0 * US,  # per-chunk registration/completion bookkeeping
        chunk_bytes=512 << 10,
        per_byte_cpu_s=0.0,  # zero-copy
    )


def mpi_over(fabric: Fabric, cost: CostModel = DEFAULT_COST) -> WireModel:
    """Native MPI (MVAPICH2-X) point-to-point over the fabric.

    ~1 us small-message latency, >85% of line rate for large messages, an
    eager/rendezvous switch at ``cost.rendezvous_threshold`` (16 KiB by
    default), and a ~1 us JNI/Java-binding crossing
    charged to each endpoint (the paper's bindings keep the Java layer slim
    precisely to keep this small).
    """
    return WireModel(
        name=f"mpi/{fabric.name}",
        fabric=fabric,
        latency_s=1.0 * US + fabric.base_latency_s,
        send_overhead_s=1.4 * US,  # MPI_Send + JNI crossing
        recv_overhead_s=1.4 * US,
        per_byte_s=1.0 / (0.88 * fabric.line_rate_Bps),
        rendezvous_threshold=cost.rendezvous_threshold,
        rendezvous_extra_s=3.0 * US,  # RTS/CTS handshake
        per_byte_cpu_s=0.0,  # zero-copy for rendezvous payloads
    )


def tcp_loaded_over(fabric: Fabric) -> WireModel:
    """TCP/IPoIB under a fully loaded Spark executor (the Fig-10/11 regime).

    The kernel TCP path needs CPU for every byte (checksums, copies,
    interrupt handling); on a node whose 56 cores are saturated with Spark
    tasks, the achievable shuffle throughput is far below the idle-node
    ping-pong number. We calibrate the loaded effective bandwidth to
    ~3.6 Gb/s/node from the paper's own measurement that MPI4Spark's
    shuffle read beats vanilla's by 13.08x at 448 cores (Sec. VII-E) —
    kernel-bypass transports (MPI, RDMA) do not degrade this way.
    """
    base = tcp_over(fabric)
    return base.scaled(per_byte_s=1.0 / (0.039 * fabric.line_rate_Bps))


def rdma_loaded_over(fabric: Fabric) -> WireModel:
    """RDMA-Spark's UCR under load.

    Zero-copy, so it degrades far less than TCP, but UCR's chunk
    registration/completion handling is CPU-assisted. Calibrated from the
    paper's vanilla:RDMA shuffle-read ratio of 13.08/5.56 = 2.35x.
    """
    base = rdma_over(fabric)
    return base.scaled(per_byte_s=1.0 / (0.092 * fabric.line_rate_Bps))


def loopback(fabric: Fabric) -> WireModel:
    """Same-node communication: shared-memory speeds, no NIC involvement."""
    return WireModel(
        name=f"shm/{fabric.name}",
        fabric=fabric,
        latency_s=0.3 * US,
        send_overhead_s=0.4 * US,
        recv_overhead_s=0.4 * US,
        per_byte_s=1.0 / (12.0 * GiB),  # single-copy shared memory
    )


PROTOCOLS = {
    "tcp": tcp_over,
    "tcp-loaded": tcp_loaded_over,
    "rdma": rdma_over,
    "rdma-loaded": rdma_loaded_over,
    "mpi": mpi_over,
    "shm": loopback,
}
