"""Names, units, clocks and bounds of everything the benchmark reports.

Pure data (no ``repro`` import): ``run.py`` formats with it, the child
fills it, ``test_bench.py`` checks ``BENCHMARK.json`` against it.  Two
clocks are never mixed: ``host`` is time this machine spent (normalised
by machine speed, see ``speed.py``), ``sim`` is time the simulated
cluster spent (deterministic for a seed), ``-`` marks exact counts.
"""

from __future__ import annotations

from typing import NamedTuple

from layers import LAYERS


class Metric(NamedTuple):
    name: str
    unit: str
    clock: str  # "host" | "sim" | "-"
    better: str  # "lower" | "higher"
    bound: float | None = None  # end-to-end only: share of the parent's median


WORKLOADS: dict[str, str] = {
    "ohb_blocks_8w": (
        "Fig-10 calibration cell (GroupBy 112 GiB, 8 workers, nio/rdma/mpi-opt): "
        "per-block ChunkFetch loads simnet, netty.pipeline and spark.network; "
        "only workload with paper ratios"
    ),
    "poll_scale_32w": (
        "mpi-basic selectNow+Iprobe loop at a 32-worker world: core, mpi.matching and "
        "mpi.runtime hold ~27 % of self time here and ~4 % on ohb_blocks_8w"
    ),
    "control_paths_mix": (
        "stage-execution paths that are not run_profile: job server, fault-recovery "
        "matrix, HiBench iterations, one mpi-coll alltoallv at 64 workers"
    ),
    "obs_record_analyze": (
        "causal and span recording plus critpath, what-if, diff, HTML and JSONL: "
        "obs write and read paths work here and are NULL tracers elsewhere"
    ),
    "figure_sweep_fig9": (
        "regenerating Fig 9 through the run cache, cold then disk-warm then "
        "memory-warm: the only workload with harness caches on"
    ),
    "dataplane_local": (
        "real mini-Spark execution with no simulator: bypass workload for every "
        "simulator optimisation, prediction on it is no change"
    ),
}

END_TO_END: tuple[Metric, ...] = (
    Metric("host_wall_s", "s", "host", "lower", 0.2),
    Metric("setup_s", "s", "host", "lower", 0.25),
    Metric("peak_rss_mib", "MiB", "host", "lower", 0.05),
    Metric("sim_job_s", "s", "sim", "lower", 0.001),
)

_LAYER_EXTRAS: tuple[Metric, ...] = (
    Metric("simnet.engine.events", "count", "-", "lower"),
    Metric("simnet.engine.events_per_host_s", "1/s", "host", "higher"),
    Metric("simnet.fluid.rerate_calls", "count", "-", "lower"),
    Metric("simnet.fluid.rerate_flows", "count", "-", "lower"),
    Metric("simnet.fluid.vector_batches", "count", "-", "higher"),
    Metric("simnet.net.tx_messages", "count", "-", "lower"),
    Metric("simnet.net.tx_bytes", "B", "-", "lower"),
    Metric("netty.loop.iterations", "count", "-", "lower"),
    Metric("netty.loop.poll_rounds", "count", "-", "lower"),
    Metric("netty.loop.select_wakeups", "count", "-", "lower"),
    Metric("netty.loop.sim_poll_tax_s", "s", "sim", "lower"),
    Metric("mpi.matching.iprobe_calls", "count", "-", "lower"),
    Metric("mpi.matching.iprobe_scan_len_total", "count", "-", "lower"),
    Metric("mpi.matching.unexpected_matches", "count", "-", "lower"),
    Metric("mpi.matching.posted_matches", "count", "-", "higher"),
    Metric("mpi.runtime.sends_eager", "count", "-", "lower"),
    Metric("mpi.runtime.sends_rendezvous", "count", "-", "lower"),
    Metric("transports.mpi_coll.host_s", "s", "host", "lower"),
    Metric("transports.mpi_coll.events", "count", "-", "lower"),
    Metric("spark.deploy.tasks_finished", "count", "-", "higher"),
    Metric("spark.deploy.remote_fetch_bytes", "B", "-", "lower"),
    Metric("spark.deploy.sim_fetch_wait_s", "s", "sim", "lower"),
    Metric("spark.deploy.sim_compute_s", "s", "sim", "lower"),
    Metric("spark.dataplane.records_per_host_s", "1/s", "host", "higher"),
    Metric("spark.dataplane.shuffle_bytes", "B", "-", "lower"),
    Metric("workloads.hibench.host_s", "s", "host", "lower"),
    Metric("faults.host_s", "s", "host", "lower"),
    Metric("faults.stage_resubmissions", "count", "-", "lower"),
    Metric("faults.task_retries", "count", "-", "lower"),
    Metric("faults.jobs_completed", "count", "-", "higher"),
    Metric("jobserver.host_s", "s", "host", "lower"),
    Metric("jobserver.sim_jct_p50_s", "s", "sim", "lower"),
    Metric("jobserver.sim_jct_p99_s", "s", "sim", "lower"),
    Metric("jobserver.jobs_finished", "count", "-", "higher"),
    Metric("obs.trace.flight_events", "count", "-", "lower"),
    Metric("obs.trace.flight_dropped", "count", "-", "lower"),
    Metric("obs.trace.causal_overhead_x", "x", "host", "lower"),
    Metric("obs.trace.span_overhead_x", "x", "host", "lower"),
    Metric("obs.trace.jsonl_bytes", "B", "-", "lower"),
    Metric("obs.trace.jsonl_write_ms", "ms", "host", "lower"),
    Metric("obs.trace.jsonl_load_ms", "ms", "host", "lower"),
    Metric("obs.analysis.critpath_ms", "ms", "host", "lower"),
    Metric("obs.analysis.replay_model_ms", "ms", "host", "lower"),
    Metric("obs.analysis.sensitivity_ms", "ms", "host", "lower"),
    Metric("obs.analysis.diff_ms", "ms", "host", "lower"),
    Metric("obs.analysis.html_ms", "ms", "host", "lower"),
    Metric("harness.runcache.cold_s", "s", "host", "lower"),
    Metric("harness.runcache.disk_hit_ms", "ms", "host", "lower"),
    Metric("harness.runcache.mem_hit_us", "us", "host", "lower"),
    Metric("harness.runcache.hits", "count", "-", "higher"),
    Metric("harness.runcache.misses", "count", "-", "lower"),
    Metric("harness.runcache.bytes_written", "B", "-", "lower"),
    Metric("harness.tracecache.sample_runs", "count", "-", "lower"),
    Metric("harness.tracecache.cold_ms", "ms", "host", "lower"),
    # Simulated MPI4Spark speed-ups at 448 cores against the paper's
    # 4.23x / 2.04x (total) and 13.08x / 5.56x (shuffle read).
    Metric("paper.speedup_err_pct", "%", "sim", "lower"),
    Metric("paper.total_vs_vanilla_x", "x", "sim", "higher"),
    Metric("paper.total_vs_rdma_x", "x", "sim", "higher"),
    Metric("paper.read_vs_vanilla_x", "x", "sim", "higher"),
    Metric("paper.read_vs_rdma_x", "x", "sim", "higher"),
    # The untraced child's wall as the clock read it, and the mean sampled
    # machine speed host_wall_s is normalised by (see speed.py).
    Metric("bench.raw_wall_s", "s", "host", "lower"),
    Metric("bench.machine_speed", "x", "host", "higher"),
    Metric("bench.trace_overhead_x", "x", "host", "lower"),
    # Share of the traced unit's wall the layer self times add up to.
    Metric("bench.profile_coverage", "ratio", "host", "higher"),
    # Direct probes: one public call timed in isolation, profiler off.
    Metric("simnet.engine.dispatch_ns", "ns", "host", "lower"),
    Metric("simnet.fluid.transfer_us", "us", "host", "lower"),
    Metric("mpi.matching.match_ns", "ns", "host", "lower"),
    Metric("netty.pipeline.frame_roundtrip_ns", "ns", "host", "lower"),
    Metric("obs.trace.record_ns", "ns", "host", "lower"),
)

PER_LAYER: tuple[Metric, ...] = tuple(
    m
    for layer in LAYERS
    for m in (
        Metric(f"{layer}.self_s", "s", "host", "lower"),
        Metric(f"{layer}.calls", "count", "-", "lower"),
    )
) + _LAYER_EXTRAS

BY_NAME: dict[str, Metric] = {m.name: m for m in END_TO_END + PER_LAYER}

# Checked exactly between two runs of one seed: a change meant only to
# speed the simulator must leave every one of these identical.
DETERMINISTIC: tuple[str, ...] = ("sim_job_s",) + tuple(
    m.name
    for m in _LAYER_EXTRAS
    if m.clock != "host"
    and m.name not in ("simnet.engine.events", "transports.mpi_coll.events")
)


def manifest(run_seconds: int) -> dict:
    """The ``BENCHMARK.json`` this table implies."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": run_seconds,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }
