#!/usr/bin/env python3
"""The repo benchmark: six workloads, two clocks, a layer table.

One run of one workload, as the pipeline calls it (last stdout line is
the result object)::

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Every workload, for a person (table of every metric, payload under
``bench/out/``)::

    python3 bench/run.py [--repeats 3] [--seed 0] [--no-trace] [--quick]
    python3 bench/run.py --compare A.json B.json

``--trace 0`` measures the end-to-end metrics from untraced children,
each a fresh process run one at a time.  ``--trace 1`` fills the layer
table from one more untraced child, one child under cProfile and the
direct probes.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
sys.path.insert(0, str(BENCH_DIR))

from metrics import (  # noqa: E402
    BY_NAME,
    DETERMINISTIC,
    END_TO_END,
    PER_LAYER,
    WORKLOADS,
)

SCHEMA = "repro-bench/1"
# Set-ups timed per run (measured children first, set-up-only children
# for the rest): setup_s is a 0.4 s quantity and needs the samples.
SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 150


def build() -> None:
    """The program is pure Python: "building" is byte-compiling it once,
    so the first child's set-up is not the one that pays for it."""
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"bench: no program to measure: {ROOT / 'src' / 'repro'} is missing")
    for tree in (ROOT / "src" / "repro", BENCH_DIR):
        compileall.compile_dir(str(tree), quiet=2, workers=1)


def spawn(mode: str, workload: str, seed: int, *, profile=False, extras=False,
          quick=False) -> dict:
    """Run one child to completion and return what it wrote."""
    OUT_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=OUT_DIR, prefix="tmp-"))
    try:
        cmd = [sys.executable, str(BENCH_DIR / "child.py"), "--mode", mode,
               "--workload", workload, "--seed", str(seed), "--tmp", str(tmp),
               "--out", str(tmp / "result.json")]
        cmd += ["--profile"] * profile + ["--extras"] * extras + ["--quick"] * quick
        # One hash seed for every child: set and dict-of-set iteration
        # orders, and with them profiler call counts, repeat exactly.
        # A pinned mmap threshold (glibc's own default, but no longer
        # self-adjusting): otherwise whether a multi-MB string lands in a
        # fresh mapping or a recycled heap hole varies with heap layout,
        # and obs_record_analyze peaks at 116 or 123 MiB from seed to seed.
        env = {**os.environ, "PYTHONHASHSEED": "0", "MALLOC_MMAP_THRESHOLD_": "131072"}
        cmd += ["--spawned-at", repr(time.time())]
        done = subprocess.run(cmd, cwd=ROOT, env=env, timeout=CHILD_TIMEOUT_S,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        if done.returncode != 0:
            sys.exit(f"bench: {mode} child of {workload} failed:\n{done.stderr}")
        return json.loads((tmp / "result.json").read_text())
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _exact(child: dict) -> dict:
    """A child's simulated metrics and counters: identical across repeats."""
    seen = {"sim_job_s": child["sim_job_s"], **child["layer"]}
    return {name: seen[name] for name in DETERMINISTIC if name in seen}


def _differing(a: dict, b: dict) -> list[str]:
    return sorted(n for n in set(a) | set(b) if a.get(n) != b.get(n))


def _stats(values: list[float]) -> dict:
    return {"median": statistics.median(values), "min": min(values),
            "max": max(values), "n": len(values)}


def measure(workload: str, seed: int, *, seconds=None, repeats=None, quick=False) -> dict:
    """End-to-end metrics: untraced children until ``seconds`` of timed
    units have run (or exactly ``repeats``), then set-up-only children."""
    units: list[dict] = []
    while True:
        units.append(spawn("unit", workload, seed, quick=quick))
        if repeats is not None:
            if len(units) >= repeats:
                break
        # Start another unit only if at least half of it fits the budget
        # (of real seconds: the raw wall, not the normalised one).
        elif sum(u["raw_wall_s"] for u in units) + 0.5 * units[-1]["raw_wall_s"] > seconds:
            break
    setups = [u["setup_s"] for u in units]
    while len(setups) < (2 if quick else SETUP_SAMPLES):
        setups.append(spawn("setup", workload, seed, quick=quick)["setup_s"])
    checks = [c for u in units for c in u["checks"]]
    for other in units[1:]:
        drift = _differing(_exact(units[0]), _exact(other))
        checks.append(("repeat.sim_and_counters_identical", not drift, " ".join(drift)))
    metrics = {m.name: _stats([u[m.name] for u in units])
               for m in END_TO_END if m.name != "setup_s"}
    metrics["setup_s"] = _stats(setups)
    return {
        "metrics": metrics,
        "checks": checks,
        # Beside the normalised walls: what the clock read, and the speed.
        "raw": {k: _stats([u[k] for u in units]) for k in ("raw_wall_s", "machine_speed")},
        "counters": _exact(units[0]),
    }


def trace(workload: str, seed: int, *, quick=False) -> dict:
    """Layer table: counters and host timings from an untraced child,
    self time and calls from a child under cProfile, then the probes."""
    plain = spawn("unit", workload, seed, extras=True, quick=quick)
    traced = spawn("unit", workload, seed, profile=True, quick=quick)
    layer: dict[str, float] = dict.fromkeys((m.name for m in PER_LAYER), 0)
    layer.update(plain["layer"])
    for name, row in traced["profile"].items():
        layer[f"{name}.self_s"] = row["self_s"]
        layer[f"{name}.calls"] = row["calls"]
    layer.update(spawn("probes", workload, seed, quick=quick)["layer"])
    layer["bench.raw_wall_s"] = plain["raw_wall_s"]
    layer["bench.machine_speed"] = plain["machine_speed"]
    layer["bench.trace_overhead_x"] = traced["raw_wall_s"] / plain["raw_wall_s"]
    drift = _differing(_exact(plain), _exact(traced))
    checks = plain["checks"] + traced["checks"]
    checks.append(("traced.sim_and_counters_identical", not drift, " ".join(drift)))
    layer["bench.profile_coverage"] = (
        sum(row["self_s"] for row in traced["profile"].values()) / traced["raw_wall_s"])
    _write_chrome_trace(workload, plain["spans"], traced["spans"])
    return {"metrics": {m.name: layer[m.name] for m in PER_LAYER}, "checks": checks}


def _write_chrome_trace(workload: str, plain: list[dict], traced: list[dict]) -> None:
    """Bench-side spans of both children as Chrome-trace JSON (one
    process row per child; ``args.parent`` is the enclosing span)."""
    events = []
    for pid, (label, spans) in enumerate((("untraced", plain), ("cProfile", traced)), 1):
        events.append({"ph": "M", "name": "process_name", "pid": pid, "tid": 1,
                       "args": {"name": f"{workload} {label}"}})
        for span in spans:
            parent = span["parent"]
            events.append({
                "ph": "X", "name": span["name"], "pid": pid, "tid": 1,
                "ts": 1e6 * span["start"], "dur": 1e6 * (span["end"] - span["start"]),
                "args": {"parent": None if parent is None else spans[parent]["name"]},
            })
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"trace_{workload}.json").write_text(json.dumps({"traceEvents": events}))


# -- output -------------------------------------------------------------------

def _failed(checks) -> list:
    return [c for c in checks if not c[1]]


def print_table(workload: str, values: dict[str, float]) -> None:
    print(f"# {workload}")
    for name, value in values.items():
        m = BY_NAME[name]
        print(f"{name:<40} {value:>20.6f} {m.unit:<6} {m.clock}")


def result_line(values: dict[str, float], checks) -> str:
    return json.dumps({
        "correct": not _failed(checks),
        "attempted": len(checks),
        "failed": len(_failed(checks)),
        "metrics": {k: {"value": v, "unit": BY_NAME[k].unit} for k, v in values.items()},
    })


def run_one(args) -> int:
    """Pipeline mode: one workload, one result object as the last line."""
    build()
    if args.trace:
        got = trace(args.workload, args.seed, quick=args.quick)
        values = got["metrics"]
    else:
        got = measure(args.workload, args.seed, seconds=args.seconds,
                      repeats=args.repeats, quick=args.quick)
        values = {k: v["median"] for k, v in got["metrics"].items()}
    print_table(args.workload, values)
    for name, stats in got.get("raw", {}).items():
        print(f"{name:<40} {stats['median']:>20.6f}  (n={stats['n']}, not normalised)")
    for name, _ok, detail in _failed(got["checks"]):
        print(f"FAILED {name}: {detail}", file=sys.stderr)
    print(result_line(values, got["checks"]))
    return 1 if _failed(got["checks"]) else 0


def run_all(args) -> int:
    """Every workload: ``--repeats`` untraced children and one traced
    pass each; the payload is what ``--compare`` reads."""
    build()
    payload = {"schema": SCHEMA, "seed": args.seed, "quick": args.quick, "workloads": {}}
    failed = []
    for workload in WORKLOADS:
        got = measure(workload, args.seed, repeats=args.repeats or 3, quick=args.quick)
        entry = {"end_to_end": got["metrics"], "raw": got["raw"],
                 "counters": got["counters"], "per_layer": {}}
        checks = got["checks"]
        print_table(workload, {k: v["median"] for k, v in got["metrics"].items()})
        if not args.no_trace:
            traced = trace(workload, args.seed, quick=args.quick)
            entry["per_layer"] = traced["metrics"]
            checks = checks + traced["checks"]
            print_table(workload, traced["metrics"])
        entry["attempted"], entry["failed"] = len(checks), len(_failed(checks))
        entry["ops_failed_share"] = len(_failed(checks)) / len(checks)
        failed += [(workload, *c) for c in _failed(checks)]
        payload["workloads"][workload] = entry
    out = Path(args.out) if args.out else OUT_DIR / f"bench_seed{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=1))
    print(f"payload: {out}")
    for workload, name, _ok, detail in failed:
        print(f"FAILED {workload} {name}: {detail}", file=sys.stderr)
    return 1 if failed else 0


def compare(path_a: str, path_b: str) -> int:
    """Per workload and end-to-end metric: both medians, the change
    against the bound, ``unresolved`` where a set's own min-max spread is
    wider than the bound.  Simulated metrics must be identical."""
    a, b = (json.loads(Path(p).read_text())["workloads"] for p in (path_a, path_b))
    worse = 0
    print(f"{'workload':<20} {'metric':<14} {'A median':>14} {'B median':>14} "
          f"{'change':>9} {'bound':>7}  verdict")
    for workload in a:
        if workload not in b:
            continue
        for m in END_TO_END:
            sa, sb = a[workload]["end_to_end"][m.name], b[workload]["end_to_end"][m.name]
            change = (sb["median"] - sa["median"]) / sa["median"]
            if m.better == "higher":
                change = -change
            spread = max((s["max"] - s["min"]) / s["median"] for s in (sa, sb))
            if change > m.bound:
                verdict, worse = "REGRESSED", worse + 1
            elif spread > m.bound:
                verdict = "unresolved"
            else:
                verdict = "ok"
            print(f"{workload:<20} {m.name:<14} {sa['median']:>14.6f} {sb['median']:>14.6f} "
                  f"{100 * change:>+8.2f}% {100 * m.bound:>6.1f}%  {verdict}")
        drift = _differing(a[workload]["counters"], b[workload]["counters"])
        if drift:
            worse += 1
            print(f"{workload:<20} simulated metrics and counters differ: {' '.join(drift)}")
    return 1 if worse else 0


def write_expected() -> int:
    """Regenerate ``expected.json`` from one seed-0 child per workload."""
    build()
    cells = {w: spawn("unit", w, 0)["cells"] for w in WORKLOADS}
    path = BENCH_DIR / "expected.json"
    path.write_text(json.dumps(
        {"schema": "repro-bench-expected/1", "seed": 0, "workloads": cells},
        indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=tuple(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0,
                    help="timed-unit seconds to measure per run (pipeline mode)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeats", type=int,
                    help="exactly this many untraced children instead of --seconds")
    ap.add_argument("--no-trace", action="store_true")
    ap.add_argument("--quick", action="store_true", help="tiny geometry, for tests")
    ap.add_argument("--out", help="payload path (all-workloads mode)")
    ap.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    ap.add_argument("--write-expected", action="store_true")
    args = ap.parse_args()
    if args.compare:
        return compare(*args.compare)
    if args.write_expected:
        return write_expected()
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
