"""The six workloads: each a timed ``unit`` and a ``verify`` run after it.

Imported only inside a child process, after ``src`` is on ``sys.path``;
importing ``repro`` here is part of what ``setup_s`` measures.  A unit
calls the program through its public harness entry points and records
what it saw on the :class:`Ctx`; ``verify`` turns that into checks and
layer metrics once the clock has stopped.
"""

from __future__ import annotations

import gc
import os
import time
import traceback
from contextlib import contextmanager

from repro.faults import (
    ChaosScenario,
    ExecutorCrash,
    FaultPlan,
    NicDegradation,
    run_scenario,
)
from repro.harness import runcache, tracecache
from repro.harness.parallel import (
    run_hibench_cell,
    run_jobserver_cell,
    run_ohb_cell,
    run_ohb_cells,
)
from repro.harness.report import ohb_speedups, render_ohb
from repro.harness.systems import FRONTERA, INTERNAL_CLUSTER
from repro.obs import critical_path
from repro.obs.diff import diff_runs
from repro.obs.flightrec import FlightRecorder
from repro.obs.report_html import render_report
from repro.obs.whatif import IDENTITY, ReplayModel
from repro.simnet.engine import SimEngine
from repro.spark.deploy import SparkSimCluster
from repro.util.stats import percentile
from repro.util.units import GiB, MiB
from repro.workloads.hibench import SPECS
from repro.workloads.ohb import GROUP_BY, SORT_BY

# Counters folded out of every engine's public metrics registry, keyed by
# (first two name components, last component) of the registry name.
_COUNTERS = {
    ("simnet.fluid", "calls"): "simnet.fluid.rerate_calls",
    ("simnet.fluid", "flows"): "simnet.fluid.rerate_flows",
    ("simnet.fluid", "vector_batches"): "simnet.fluid.vector_batches",
    ("simnet.link", "tx_messages"): "simnet.net.tx_messages",
    ("simnet.link", "tx_bytes"): "simnet.net.tx_bytes",
    ("netty.loop", "iterations"): "netty.loop.iterations",
    ("netty.loop", "poll_rounds"): "netty.loop.poll_rounds",
    ("netty.loop", "select_wakeups"): "netty.loop.select_wakeups",
    ("netty.loop", "poll_tax_s"): "netty.loop.sim_poll_tax_s",
    ("mpi.rank", "iprobe_calls"): "mpi.matching.iprobe_calls",
    ("mpi.rank", "iprobe_scan_len_total"): "mpi.matching.iprobe_scan_len_total",
    ("mpi.rank", "unexpected_matches"): "mpi.matching.unexpected_matches",
    ("mpi.rank", "posted_matches"): "mpi.matching.posted_matches",
    ("mpi.world", "sends_eager"): "mpi.runtime.sends_eager",
    ("mpi.world", "sends_rendezvous"): "mpi.runtime.sends_rendezvous",
}
for _head in ("spark.scheduler", "spark.app"):
    _COUNTERS.update({
        (_head, "tasks_finished"): "spark.deploy.tasks_finished",
        (_head, "remote_fetch_bytes"): "spark.deploy.remote_fetch_bytes",
        (_head, "fetch_wait_s"): "spark.deploy.sim_fetch_wait_s",
        (_head, "compute_s"): "spark.deploy.sim_compute_s",
    })

# The paper's MPI4Spark speed-ups at 448 cores (Fig 10a, GroupByTest).
PAPER_SPEEDUPS = {
    "total_mpi_vs_vanilla": 4.23,
    "total_mpi_vs_rdma": 2.04,
    "read_mpi_vs_vanilla": 13.08,
    "read_mpi_vs_rdma": 5.56,
}
# The model sits at ~30 % mean error today; a change may not add more
# than half a point to what the seed-0 run of this tree records.
PAPER_ERR_SLACK_PT = 0.5


class Ctx:
    """What one child process records while it runs a workload."""

    def __init__(self, seed: int, quick: bool, extras: bool, sampler=None) -> None:
        self.seed = seed
        self.quick = quick
        self.extras = extras
        self.sampler = sampler  # speed.SpeedSampler, or None under the profiler
        # Relative input-size jitter in [0, 1e-4), 0 at seed 0: every seed
        # is a distinct input, yet the work stays the same to ~0.01 %.
        self.jitter = ((seed * 2654435761) % 2**32) / 2**32 * 1e-4
        self.t0 = time.perf_counter()
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._engines: list[SimEngine] = []
        self.cells: dict[str, dict] = {}
        self.checks: list[tuple[str, bool, str]] = []
        self.layer: dict[str, float] = {}

    def size(self, nbytes: int) -> int:
        return int(nbytes * (1.0 + self.jitter))

    def pick(self, full, quick):
        return quick if self.quick else full

    @contextmanager
    def span(self, name: str):
        """Bench-side span: name, start, end, parent (Chrome-trace later)."""
        rec = {"name": name, "start": time.perf_counter() - self.t0, "end": None,
               "parent": self._stack[-1] if self._stack else None}
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter() - self.t0

    def host_s(self, *names: str) -> float:
        """Host seconds spent in the named spans, speed-normalised like
        ``host_wall_s`` (raw in a profiled child, which has no sampler)."""
        spans = [s for s in self.spans if s["name"] in names]
        if self.sampler is None:
            return sum(s["end"] - s["start"] for s in spans)
        return sum(self.sampler.normalise(self.t0 + s["start"], self.t0 + s["end"])[0]
                   for s in spans)

    def track_engines(self) -> None:
        """Note every ``SimEngine`` built from here on, so a cell's kernel
        event count and registry counters can be read when it ends.  The
        engines are dropped at the cell boundary: nothing lives longer
        than it would have."""
        init, engines = SimEngine.__init__, self._engines

        def tracked(engine, *args, **kwargs):
            init(engine, *args, **kwargs)
            engines.append(engine)

        SimEngine.__init__ = tracked

    def cell(self, name: str, fn, *args, sim_s=None):
        """Run one cell under a span; a cell that raises is a failed op."""
        with self.span(name):
            try:
                result = fn(*args)
            except Exception:
                self.check(f"{name}.ran", False, traceback.format_exc(limit=4))
                self._engines.clear()
                return None
            rec: dict = {"events": 0}
            for engine in self._engines:
                rec["events"] += engine.events_processed
                for cname, value in engine.metrics.snapshot().counters.items():
                    parts = cname.split(".")
                    key = _COUNTERS.get((f"{parts[0]}.{parts[1]}", parts[-1]))
                    if key is not None:
                        rec[key] = rec.get(key, 0.0) + value
            self._engines.clear()
        # A finished cell leaves its simulation (or cached RDD) behind as
        # cyclic garbage; whether the collector happens to reach it before
        # the next cell allocates decided 150 or 250 MiB of peak RSS on
        # dataplane_local.  Collect at the boundary: peak_rss_mib is then
        # the largest cell, not luck.  Inside the unit's wall, outside
        # the cell's span.
        gc.collect()
        self.check(f"{name}.ran", True)
        if sim_s is not None:
            rec["sim_s"] = float(sim_s(result))
        self.cells[name] = rec
        return result

    @property
    def sim_job_s(self) -> float:
        """Simulated seconds of every cell so far, the warm-up cell too."""
        return sum(rec.get("sim_s", 0.0) for rec in self.cells.values())

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    def totals(self) -> dict[str, float]:
        """Kernel events and registry counters summed over the unit's
        cells (the set-up warm-up cell is not part of the unit)."""
        out = dict.fromkeys({"events", *_COUNTERS.values()}, 0.0)
        for name, rec in self.cells.items():
            if not name.startswith("setup."):
                for key, value in rec.items():
                    if key in out:
                        out[key] += value
        return out


def setup(ctx: Ctx) -> None:
    """Prime both sample traces into the private (empty) trace cache and
    push one tiny cell through every import the units need."""
    ctx.track_engines()
    with ctx.span("setup.prime_traces"):
        GROUP_BY.sample_trace()
        SORT_BY.sample_trace()
    ctx.layer["harness.tracecache.cold_ms"] = 1e3 * ctx.host_s("setup.prime_traces")
    spec = ("GroupByTest", 2, ctx.size(64 * MiB), "mpi-opt", 0.02, FRONTERA.name)
    ctx.cell("setup.warmup", run_ohb_cell, spec, sim_s=lambda c: c.total_seconds)
    # The warm-up simulation's generators free more garbage as they are
    # finalised; drain it all, so none of it is finalised inside the unit.
    while gc.collect():
        pass


def _fetch_bytes_agree(ctx: Ctx, names: list[str]) -> None:
    seen = {ctx.cells[n]["spark.deploy.remote_fetch_bytes"] for n in names if n in ctx.cells}
    ctx.check("remote_fetch_bytes.equal_across_transports", len(seen) == 1, repr(seen))


# -- 1. ohb_blocks_8w ---------------------------------------------------------

def unit_ohb_blocks_8w(ctx: Ctx):
    workers, data = ctx.pick((8, 112 * GiB), (2, 4 * GiB))
    cells = []
    for transport in ("nio", "rdma", "mpi-opt"):
        spec = ("GroupByTest", workers, ctx.size(data), transport, 0.25, FRONTERA.name)
        cells.append(ctx.cell(f"ohb.{transport}", run_ohb_cell, spec,
                              sim_s=lambda c: c.total_seconds))
    return cells


def verify_ohb_blocks_8w(ctx: Ctx, cells, expected: dict) -> None:
    _fetch_bytes_agree(ctx, ["ohb.nio", "ohb.rdma", "ohb.mpi-opt"])
    if None in cells:
        return
    (speedups,) = ohb_speedups(cells).values()
    errs = [abs(speedups[k] - ref) / ref * 100.0 for k, ref in PAPER_SPEEDUPS.items()]
    err = sum(errs) / len(errs)
    ctx.layer.update({
        "paper.speedup_err_pct": err,
        "paper.total_vs_vanilla_x": speedups["total_mpi_vs_vanilla"],
        "paper.total_vs_rdma_x": speedups["total_mpi_vs_rdma"],
        "paper.read_vs_vanilla_x": speedups["read_mpi_vs_vanilla"],
        "paper.read_vs_rdma_x": speedups["read_mpi_vs_rdma"],
    })
    ctx.cells["ohb.paper"] = {"speedup_err_pct": err}
    cap = expected.get("ohb.paper", {}).get("speedup_err_pct")
    if cap is not None and not ctx.quick:
        ctx.check("paper_speedup_err_pct.within_half_point",
                  err <= cap + PAPER_ERR_SLACK_PT, f"{err:.3f} vs {cap:.3f}")


# -- 2. poll_scale_32w --------------------------------------------------------

def unit_poll_scale_32w(ctx: Ctx):
    workers, data = ctx.pick((32, 64 * GiB), (4, 4 * GiB))
    spec = ("GroupByTest", workers, ctx.size(data), "mpi-basic", 0.1, FRONTERA.name)
    return ctx.cell("poll.mpi-basic", run_ohb_cell, spec, sim_s=lambda c: c.total_seconds)


def verify_poll_scale_32w(ctx: Ctx, cell, expected: dict) -> None:
    rec = ctx.cells.get("poll.mpi-basic", {})
    ctx.check("poll.loop_polled", rec.get("netty.loop.poll_rounds", 0) > 0)
    ctx.check("poll.iprobe_called", rec.get("mpi.matching.iprobe_calls", 0) > 0)


# -- 3. control_paths_mix -----------------------------------------------------

JOBSERVER_CELLS = (("nio", "fair"), ("mpi-basic", "fair"), ("mpi-opt", "fair"),
                   ("mpi-opt", "fifo"))
FAULT_CELLS = (("nio", "abort"), ("rdma", "abort"), ("mpi-basic", "abort"),
               ("mpi-opt", "abort"), ("mpi-opt", "shrink"), ("mpi-coll", "abort"),
               ("mpi-coll", "shrink"))
# Holds at every seed: sockets and ULFM-shrink recover through stage
# resubmission, MPI_ERRORS_ARE_FATAL loses the job.
FAULT_PATTERN = {("nio", "abort"): True, ("rdma", "abort"): True,
                 ("mpi-basic", "abort"): False, ("mpi-opt", "abort"): False,
                 ("mpi-opt", "shrink"): True, ("mpi-coll", "shrink"): True}


def unit_control_paths_mix(ctx: Ctx):
    out: dict = {"jobserver": [], "faults": [], "hibench": []}
    n_jobs = ctx.pick(20, 4)
    # The arrival trace keeps its seed (another trace is another amount
    # of work); --seed moves the cluster seed and the job sizes.
    trace = (42, n_jobs, 1.0, ctx.size(64 * MiB), ctx.size(256 * MiB), (8, 16, 24), 0.25)
    with ctx.span("jobserver"):
        for transport, sched in JOBSERVER_CELLS:
            spec = (transport, sched, FRONTERA.name, 4, 8, 7 + ctx.seed, trace)
            out["jobserver"].append(ctx.cell(
                f"jobserver.{transport}.{sched}", run_jobserver_cell, spec,
                sim_s=lambda r: r.makespan_s))
    workers, shuffle = ctx.pick((8, 256 * MiB), (4, 64 * MiB))
    with ctx.span("faults"):
        for transport, mode in FAULT_CELLS:
            plan = (
                FaultPlan(seed=7 + ctx.seed, name="crash+degrade")
                .add(NicDegradation(at_s=0.002, node_index=2, factor=4.0, duration_s=0.5))
                .add(ExecutorCrash(at_s=0.005, exec_id=1))
            )
            scenario = ChaosScenario(
                name="fault-recovery", system=INTERNAL_CLUSTER, n_workers=workers,
                transport=transport, plan=plan, mpi_fault_mode=mode,
                cores_per_executor=4, shuffle_bytes=ctx.size(shuffle), deadline_s=120.0)
            out["faults"].append(ctx.cell(
                f"faults.{transport}.{mode}", run_scenario, scenario,
                sim_s=lambda r: r.baseline_seconds + r.faulted_seconds))
    workers, fidelity = ctx.pick((8, 0.125), (2, 0.05))
    with ctx.span("hibench"):
        for name in ("LDA", "SVM"):
            spec = (name, FRONTERA.name, workers, "mpi-opt", None, fidelity)
            out["hibench"].append(ctx.cell(
                f"hibench.{name}", run_hibench_cell, spec, sim_s=lambda c: c.total_seconds))
    workers, per_worker = ctx.pick((64, 14 * GiB), (4, 1 * GiB))
    spec = ("GroupByTest", workers, ctx.size(workers * per_worker), "mpi-coll", 0.1,
            FRONTERA.name)
    out["coll"] = ctx.cell("coll.mpi-coll", run_ohb_cell, spec,
                           sim_s=lambda c: c.total_seconds)
    out["n_jobs"] = n_jobs
    return out


def verify_control_paths_mix(ctx: Ctx, out, expected: dict) -> None:
    jcts: list[float] = []
    finished = 0
    for (transport, sched), res in zip(JOBSERVER_CELLS, out["jobserver"]):
        if res is None:
            continue
        ok = len(res.finished) == out["n_jobs"] and not any(r.failed for r in res.records)
        ctx.check(f"jobserver.{transport}.{sched}.all_jobs_finish", ok)
        ctx.cells[f"jobserver.{transport}.{sched}"]["jobs_finished"] = len(res.finished)
        finished += len(res.finished)
        jcts.extend(res.jcts())
    completed = resub = retries = 0
    for key, rep in zip(FAULT_CELLS, out["faults"]):
        if rep is None:
            continue
        rec = ctx.cells[f"faults.{key[0]}.{key[1]}"]
        rec["job_completed"] = int(rep.job_completed)
        rec["stage_resubmissions"] = rep.stage_resubmissions
        rec["task_retries"] = rep.task_retries
        completed += rep.job_completed
        resub += rep.stage_resubmissions
        retries += rep.task_retries
        if key in FAULT_PATTERN:
            ctx.check(f"faults.{key[0]}.{key[1]}.recover_or_abort",
                      rep.job_completed == FAULT_PATTERN[key], rep.job_failure)
    ctx.layer.update({
        "jobserver.host_s": ctx.host_s("jobserver"),
        "jobserver.jobs_finished": finished,
        "jobserver.sim_jct_p50_s": percentile(jcts, 50) if jcts else 0.0,
        "jobserver.sim_jct_p99_s": percentile(jcts, 99) if jcts else 0.0,
        "faults.host_s": ctx.host_s("faults"),
        "faults.jobs_completed": completed,
        "faults.stage_resubmissions": resub,
        "faults.task_retries": retries,
        "workloads.hibench.host_s": ctx.host_s("hibench"),
        "transports.mpi_coll.host_s": ctx.host_s("coll.mpi-coll"),
        "transports.mpi_coll.events": ctx.cells.get("coll.mpi-coll", {}).get("events", 0),
    })


# -- 4. obs_record_analyze ----------------------------------------------------

def _span_traced_cell(workers: int, data: int, obs_trace: bool):
    sim = SparkSimCluster(FRONTERA, workers, "mpi-opt", obs_enabled=True,
                          obs_trace=obs_trace)
    sim.launch()
    result = sim.run_profile(GROUP_BY.build_profile(FRONTERA, workers, data, fidelity=0.25))
    sim.shutdown()
    return result


def unit_obs_record_analyze(ctx: Ctx):
    workers, data = ctx.pick((4, 56 * GiB), (2, 4 * GiB))
    data = ctx.size(data)
    runs = {}
    for transport in ("mpi-basic", "mpi-opt"):
        spec = ("GroupByTest", workers, data, transport, 0.25, FRONTERA.name, True)
        cell = ctx.cell(f"obs.causal.{transport}", run_ohb_cell, spec,
                        sim_s=lambda c: c.total_seconds)
        runs[transport] = None if cell is None else cell.result
    ctx.cell("obs.spans.mpi-opt", _span_traced_cell, workers, data, True,
             sim_s=lambda r: r.total_seconds)
    out = {"runs": runs, "spec": (workers, data)}
    basic, opt = runs["mpi-basic"], runs["mpi-opt"]
    if basic is None or opt is None:
        return out
    for _ in range(ctx.pick(10, 2)):
        with ctx.span("analysis.critpath"):
            cp_basic, cp_opt = critical_path(basic), critical_path(opt)
        with ctx.span("analysis.replay_model"):
            models = ReplayModel.from_result(basic), ReplayModel.from_result(opt)
        with ctx.span("analysis.sensitivity"):
            ranked = [m.sensitivity() for m in models]
        with ctx.span("analysis.diff"):
            diff = diff_runs(opt, basic, a_label="mpi-opt", b_label="mpi-basic")
        with ctx.span("analysis.html"):
            html = render_report([(basic, cp_basic), (opt, cp_opt)])
    for _ in range(ctx.pick(3, 1)):
        with ctx.span("flight.to_jsonl"):
            text = basic.flight.to_jsonl()
        with ctx.span("flight.from_jsonl"):
            loaded = FlightRecorder.from_jsonl(text)
    out.update(models=models, ranked=ranked, diff=diff, html=html, text=text, loaded=loaded)
    return out


def verify_obs_record_analyze(ctx: Ctx, out, expected: dict) -> None:
    _fetch_bytes_agree(ctx, ["obs.causal.mpi-basic", "obs.causal.mpi-opt"])
    if "diff" not in out:
        return
    for model in out["models"]:
        ctx.check(f"whatif.identity_exact.{model.transport}",
                  model.retime(IDENTITY).wall_s == model.wall_s)
    try:
        out["diff"].check()
        ctx.check("diff.sum_identity", True)
    except AssertionError as exc:
        ctx.check("diff.sum_identity", False, str(exc))
    ctx.check("flight.jsonl_roundtrip", out["loaded"].to_jsonl() == out["text"])
    ctx.check("report.html_rendered", out["html"].startswith("<!DOCTYPE html>"))
    flights = [r.flight for r in out["runs"].values()]
    n_analysis = ctx.pick(10, 2)
    n_jsonl = ctx.pick(3, 1)
    ctx.layer.update({
        "obs.trace.flight_events": sum(len(f.events) for f in flights),
        "obs.trace.flight_dropped": sum(f.dropped for f in flights),
        "obs.trace.jsonl_bytes": len(out["text"]),
        "obs.trace.jsonl_write_ms": 1e3 * ctx.host_s("flight.to_jsonl") / n_jsonl,
        "obs.trace.jsonl_load_ms": 1e3 * ctx.host_s("flight.from_jsonl") / n_jsonl,
        "obs.analysis.critpath_ms": 1e3 * ctx.host_s("analysis.critpath") / n_analysis,
        "obs.analysis.replay_model_ms": 1e3 * ctx.host_s("analysis.replay_model") / n_analysis,
        "obs.analysis.sensitivity_ms": 1e3 * ctx.host_s("analysis.sensitivity") / n_analysis,
        "obs.analysis.diff_ms": 1e3 * ctx.host_s("analysis.diff") / n_analysis,
        "obs.analysis.html_ms": 1e3 * ctx.host_s("analysis.html") / n_analysis,
    })
    ctx.cells["obs.flight"] = {"flight_events": ctx.layer["obs.trace.flight_events"],
                               "jsonl_bytes": len(out["text"])}
    if ctx.extras:
        # Recording overhead = recorded cell ÷ its NULL-tracer twin, both
        # timed here, after the unit's clock has stopped.
        workers, data = out["spec"]
        for transport in ("mpi-basic", "mpi-opt"):
            spec = ("GroupByTest", workers, data, transport, 0.25, FRONTERA.name)
            ctx.cell(f"extras.plain.{transport}", run_ohb_cell, spec)
        ctx.cell("extras.nospans.mpi-opt", _span_traced_cell, workers, data, False)
        ctx.layer["obs.trace.causal_overhead_x"] = (
            ctx.host_s("obs.causal.mpi-basic", "obs.causal.mpi-opt")
            / ctx.host_s("extras.plain.mpi-basic", "extras.plain.mpi-opt"))
        ctx.layer["obs.trace.span_overhead_x"] = (
            ctx.host_s("obs.spans.mpi-opt") / ctx.host_s("extras.nospans.mpi-opt"))


# -- 5. figure_sweep_fig9 -----------------------------------------------------

def _rows(cells) -> list[tuple]:
    return [(c.workload, c.n_workers, c.transport, c.total_seconds,
             tuple(c.result.stage_seconds.items())) for c in cells]


def unit_figure_sweep_fig9(ctx: Ctx):
    # The specs of experiments.fig9_basic_vs_optimized, with the data size
    # carrying the seed's jitter (identical to it at seed 0).
    scale, fidelity = ctx.pick((1, 0.25), (16, 0.05))
    specs = [
        (workload.name, workers, ctx.size(data // scale), transport, fidelity, FRONTERA.name)
        for workload in (GROUP_BY, SORT_BY)
        for workers, data in ((2, 28 * GiB), (4, 56 * GiB))
        for transport in ("nio", "mpi-basic", "mpi-opt")
    ]
    passes = ctx.pick(50, 3)
    os.environ["REPRO_RUN_CACHE"] = "1"
    try:
        tracecache.clear_memory_cache()
        tracecache.clear_disk_cache()
        cold = [
            ctx.cell(f"fig9.{s[0]}.{s[1]}w.{s[3]}", run_ohb_cell, s,
                     sim_s=lambda c: c.total_seconds)
            for s in specs
        ]
        with ctx.span("fig9.disk_warm"):
            for _ in range(passes):
                runcache.clear_memory_cache()
                disk = run_ohb_cells(specs, jobs=1)
        with ctx.span("fig9.mem_warm"):
            for _ in range(passes):
                mem = run_ohb_cells(specs, jobs=1)
        with ctx.span("fig9.render"):
            table = render_ohb(mem, "Fig 9 - Basic vs Optimized")
    finally:
        os.environ["REPRO_RUN_CACHE"] = "0"
    return {"cold": cold, "disk": disk, "mem": mem, "table": table,
            "passes": passes, "n": len(specs)}


def verify_figure_sweep_fig9(ctx: Ctx, out, expected: dict) -> None:
    if None not in out["cold"]:
        cold = _rows(out["cold"])
        ctx.check("fig9.disk_warm_rows_equal_cold", _rows(out["disk"]) == cold)
        ctx.check("fig9.mem_warm_rows_equal_cold", _rows(out["mem"]) == cold)
        ctx.check("fig9.table_rendered", "GroupByTest" in out["table"])
        _fetch_bytes_agree(ctx, [f"fig9.GroupByTest.2w.{t}"
                                 for t in ("nio", "mpi-basic", "mpi-opt")])
    stats = runcache.run_cache_stats()
    tstats = tracecache.trace_cache_stats()
    n, passes = out["n"], out["passes"]
    ctx.check("fig9.cache_traffic",
              (stats["misses"], stats["hits_disk"], stats["hits_mem"])
              == (n, n * passes, n * passes), repr(stats))
    ctx.layer.update({
        "harness.runcache.cold_s": ctx.host_s(*(k for k in ctx.cells if k.startswith("fig9."))),
        "harness.runcache.disk_hit_ms": 1e3 * ctx.host_s("fig9.disk_warm") / (n * passes),
        "harness.runcache.mem_hit_us": 1e6 * ctx.host_s("fig9.mem_warm") / (n * passes),
        "harness.runcache.bytes_written": stats["bytes_written"],
    })
    ctx.cells["fig9.cache"] = {"misses": stats["misses"], "sample_runs": tstats["sample_runs"]}


# -- 6. dataplane_local -------------------------------------------------------

def unit_dataplane_local(ctx: Ctx):
    pairs, parts = ctx.pick((1_000_000, 16), (20_000, 4))
    pairs += parts * int(ctx.jitter * 1e6)  # whole records per partition
    os.environ["REPRO_TRACE_CACHE"] = "0"
    try:
        traces = {}
        for w in (GROUP_BY, SORT_BY):
            traces[w.name] = ctx.cell(
                f"dataplane.{w.name}",
                lambda: w.trace_sample(num_pairs=pairs, num_partitions=parts))
        for name, spec in SPECS.items():
            traces[name] = ctx.cell(f"dataplane.{name}", spec.trace_sample)
    finally:
        os.environ.pop("REPRO_TRACE_CACHE")
    return {"traces": traces, "pairs": pairs}


def verify_dataplane_local(ctx: Ctx, out, expected: dict) -> None:
    records = shuffle_bytes = 0
    for name, trace in out["traces"].items():
        if trace is None:
            continue
        records += trace.total_records
        shuffle_bytes += sum(st.total_shuffle_bytes for st in trace.stages)
        ctx.cells[f"dataplane.{name}"].update(
            records=trace.total_records,
            shuffle_bytes=sum(st.total_shuffle_bytes for st in trace.stages))
        if name in (GROUP_BY.name, SORT_BY.name):
            generated = trace.stages[0].total_records_in
            shuffled = max(int(st.shuffle_records.sum()) for st in trace.stages
                           if st.shuffle_records is not None)
            ctx.check(f"dataplane.{name}.record_counts",
                      generated == shuffled == out["pairs"], f"{generated} {shuffled}")
    ctx.layer.update({
        "spark.dataplane.records_per_host_s":
            records / ctx.host_s(*(k for k in ctx.cells if k.startswith("dataplane."))),
        "spark.dataplane.shuffle_bytes": shuffle_bytes,
    })


UNITS = {
    "ohb_blocks_8w": (unit_ohb_blocks_8w, verify_ohb_blocks_8w),
    "poll_scale_32w": (unit_poll_scale_32w, verify_poll_scale_32w),
    "control_paths_mix": (unit_control_paths_mix, verify_control_paths_mix),
    "obs_record_analyze": (unit_obs_record_analyze, verify_obs_record_analyze),
    "figure_sweep_fig9": (unit_figure_sweep_fig9, verify_figure_sweep_fig9),
    "dataplane_local": (unit_dataplane_local, verify_dataplane_local),
}


def finish(ctx: Ctx, wall_s: float) -> None:
    """Layer metrics every workload reports the same way."""
    totals = ctx.totals()
    events = totals.pop("events")
    ctx.layer.update(totals)
    ctx.layer["simnet.engine.events"] = events
    ctx.layer["simnet.engine.events_per_host_s"] = events / wall_s
    stats, tstats = runcache.run_cache_stats(), tracecache.trace_cache_stats()
    ctx.layer["harness.runcache.hits"] = stats["hits_mem"] + stats["hits_disk"]
    ctx.layer["harness.runcache.misses"] = stats["misses"]
    ctx.layer["harness.tracecache.sample_runs"] = tstats["sample_runs"]
