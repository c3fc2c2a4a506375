"""One child process of the benchmark: set up, run one workload unit, report.

``run.py`` starts a fresh child for every repeat so no cache, import or
allocator state leaks between measurements.  The child writes one JSON
object to ``--out``; it prints nothing.

Modes: ``unit`` (set-up + timed unit + checks), ``setup`` (set-up only,
more samples for ``setup_s``), ``probes`` (the direct layer probes).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys
import time
from pathlib import Path

from speed import SETUP_PERIOD_S, SpeedSampler

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
EXPECTED_PATH = BENCH_DIR / "expected.json"


def _private_caches(tmp: Path) -> None:
    """Point every on-disk store of the program at this child's own
    directory, so the repo's ``results/`` is never read or written."""
    os.environ.update({
        "REPRO_RUN_CACHE": "0",
        "REPRO_RUN_CACHE_DIR": str(tmp / "runcache"),
        "REPRO_TRACE_CACHE_DIR": str(tmp / "tracecache"),
        "REPRO_LEDGER": "0",
        "REPRO_LEDGER_PATH": str(tmp / "ledger.jsonl"),
    })
    for name in ("REPRO_TRACE_CACHE", "REPRO_JOBS", "REPRO_FULL", "REPRO_BLAME_INJECT"):
        os.environ.pop(name, None)


def _plain(value):
    """Integral floats become ints, so counters compare exactly."""
    if isinstance(value, float) and value.is_integer() and abs(value) < 2**53:
        return int(value)
    return value


def _matches(seen, want) -> bool:
    if isinstance(want, int) and not isinstance(want, bool):
        return seen == want
    return math.isclose(seen, want, rel_tol=1e-6, abs_tol=1e-12)


def check_expected(ctx, expected_cells: dict) -> None:
    """One op per cell: simulated seconds to 1e-6, counters exactly.
    Kernel event counts are recorded in the file but never compared."""
    for cell, want in expected_cells.items():
        seen = ctx.cells.get(cell)
        if seen is None:
            ctx.check(f"expected.{cell}", False, "cell did not run")
            continue
        bad = [
            f"{key}: {seen.get(key)!r} != {value!r}"
            for key, value in want.items()
            if key != "events" and (key not in seen or not _matches(seen[key], value))
        ]
        ctx.check(f"expected.{cell}", not bad, "; ".join(bad))


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("unit", "setup", "probes"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--tmp", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--profile", action="store_true")
    ap.add_argument("--extras", action="store_true")
    ap.add_argument("--quick", action="store_true")
    args = ap.parse_args()

    entered = time.perf_counter()
    _private_caches(args.tmp)
    sys.path.insert(0, str(SRC_DIR))
    out: dict = {}
    if args.mode == "probes":
        import probes

        out["layer"] = probes.run_all(args.quick)
        args.out.write_text(json.dumps(out))
        return

    # The profiler would slow the speed kernel itself, so a profiled
    # child reports raw times; end-to-end numbers never come from one.
    sampler = None if args.profile else SpeedSampler()
    if sampler is not None:
        sampler.start(SETUP_PERIOD_S)
    import workloads  # imports repro: part of set-up

    ctx = workloads.Ctx(args.seed, args.quick, args.extras, sampler)
    with ctx.span("setup"):
        workloads.setup(ctx)
    out["raw_setup_s"] = out["setup_s"] = time.time() - args.spawned_at
    if sampler is not None:
        out["setup_s"], _speed = sampler.normalise(
            entered, time.perf_counter(), wall=out["raw_setup_s"])
        sampler.start()

    if args.mode == "unit":
        unit, verify = workloads.UNITS[args.workload]
        profiler = None
        if args.profile:
            import cProfile

            profiler = cProfile.Profile()
        with ctx.span(args.workload):
            t0 = time.perf_counter()
            if profiler is not None:
                profiler.enable()
            try:
                state = unit(ctx)
            finally:
                if profiler is not None:
                    profiler.disable()
            t1 = time.perf_counter()
        wall, speed = (t1 - t0, 1.0) if sampler is None else sampler.normalise(t0, t1)
        out["host_wall_s"] = wall
        out["raw_wall_s"] = t1 - t0
        out["machine_speed"] = speed
        out["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        out["sim_job_s"] = ctx.sim_job_s
        workloads.finish(ctx, wall)
        expected = {}
        if not args.quick and EXPECTED_PATH.exists():
            expected = json.loads(EXPECTED_PATH.read_text())["workloads"].get(
                args.workload, {})
        verify(ctx, state, expected)
        if args.seed == 0:
            check_expected(ctx, expected)
        if profiler is not None:
            from layers import fold_profile

            out["profile"] = fold_profile(profiler, BENCH_DIR)
        out["layer"] = {k: _plain(v) for k, v in ctx.layer.items()}
        out["cells"] = {
            name: {k: _plain(v) for k, v in rec.items()}
            for name, rec in ctx.cells.items()
            if not name.startswith(("setup.", "extras."))
        }
        out["checks"] = ctx.checks
    if sampler is not None:
        sampler.stop()
    out["spans"] = ctx.spans
    args.out.write_text(json.dumps(out))


if __name__ == "__main__":
    main()
