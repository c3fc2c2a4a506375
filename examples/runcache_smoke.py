#!/usr/bin/env python
"""Full-run result cache smoke: simulate a cell once, replay many.

Runs one fig9-sized GroupBy cell and its 2x-NIC what-if twin (the same
spec with ``link_rate=2.0``) three times each against a fresh private
cache store:

1. **cold** — empty store, the cell really simulates;
2. **warm (memo)** — same process, served from the in-process memo;
3. **warm (disk)** — memo dropped, served from the disk store, which is
   what a fresh CI run or a parallel-harness worker would hit.

Exits non-zero unless the two cells cost exactly two simulations, every
replay's rows are byte-identical to its own cold run's, the perturbed
wall differs from the plain one (the knob is part of the cache key, not
an entry shared with the plain cell) and each warm tier is >= 5x faster
than the cold simulation (in practice a warm hit is one unpickle —
thousands of times faster).

Run:  PYTHONPATH=src python examples/runcache_smoke.py
"""

import os
import sys
import tempfile
import time

MIN_WARM_SPEEDUP = 5.0

SPEC = ("GroupByTest", 2, 28 * 2**30, "mpi-basic", 0.25, "Frontera")


def canon(cell) -> str:
    """Canonical textual form of one cell's result rows."""
    return repr(
        (
            cell.workload,
            cell.n_workers,
            cell.total_cores,
            cell.data_bytes,
            cell.transport,
            cell.result.launch_seconds,
            sorted(cell.result.stage_seconds.items()),
        )
    )


def timed(fn, arg):
    t0 = time.perf_counter()
    out = fn(arg)
    return out, time.perf_counter() - t0


def main() -> int:
    os.environ["REPRO_RUN_CACHE_DIR"] = tempfile.mkdtemp(
        prefix="runcache-smoke-"
    )
    from repro.harness import runcache
    from repro.harness.parallel import OhbSpec, run_ohb_cell

    specs = {"plain": SPEC, "2x NIC": OhbSpec(*SPEC, link_rate=2.0)}
    failures = []
    runcache.clear_memory_cache()
    cold = {name: timed(run_ohb_cell, spec) for name, spec in specs.items()}
    memo = {name: timed(run_ohb_cell, spec) for name, spec in specs.items()}
    runcache.clear_memory_cache()
    disk = {name: timed(run_ohb_cell, spec) for name, spec in specs.items()}
    stats = runcache.run_cache_stats()

    for name in specs:
        cold_cell, cold_wall = cold[name]
        print(f"{name}: simulated wall {cold_cell.total_seconds:.4f}s")
        print(f"  cold (simulated):   {cold_wall * 1e3:9.1f} ms")
        for tier, (cell, wall) in (("memo", memo[name]), ("disk", disk[name])):
            print(
                f"  warm ({tier} hit):    {wall * 1e3:9.1f} ms"
                f"   {cold_wall / wall:,.0f}x"
            )
            if canon(cell) != canon(cold_cell):
                failures.append(f"{name}: {tier}-hit rows differ from the simulated rows")
            if cold_wall / wall < MIN_WARM_SPEEDUP:
                failures.append(
                    f"{name}: warm {tier} hit only {cold_wall / wall:.1f}x faster "
                    f"than cold (need >= {MIN_WARM_SPEEDUP}x)"
                )
    print(
        f"stats: {stats['cell_runs']} simulation(s), "
        f"{stats['hits_mem']} memo hit(s), {stats['hits_disk']} disk hit(s)"
    )

    if stats["cell_runs"] != len(specs):
        failures.append(
            f"expected exactly {len(specs)} simulations, ran {stats['cell_runs']}"
        )
    if cold["2x NIC"][0].total_seconds == cold["plain"][0].total_seconds:
        failures.append("2x NIC wall equals the plain wall: the knob was not applied")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print(f"runcache smoke OK: {len(specs)} simulations, byte-identical replays")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
