"""Parallel experiment harness: fan independent cells over processes.

Every experiment cell (one ``(system, workload, transport, scale)``
combination) owns its own :class:`~repro.simnet.engine.SimEngine` and
seed, so a cell's rows are a pure function of its spec — identical
whether it runs in this process, a worker process, or any worker count.
That makes parallelism free of determinism risk: the only requirements
are (1) cell specs built from primitives so they pickle under both fork
and spawn start methods, and (2) an order-preserving merge, which
``ProcessPoolExecutor.map`` gives us directly (results come back in
submission order regardless of completion order).

``--jobs N`` on the benchmark suite and the ``REPRO_JOBS`` environment
variable both route through :func:`resolve_jobs`; ``jobs=1`` bypasses
multiprocessing entirely (no pool, no pickling) so the serial path stays
exactly what it was.
"""

from __future__ import annotations

import dataclasses
import os
from typing import Any, Callable, Iterable, NamedTuple, Sequence

from repro.simnet.interconnect import DEFAULT_COST, CostModel

# Cell specs are plain tuples of primitives; workers re-resolve registry
# objects (workloads, systems) by name so specs pickle under any start
# method and never drag a half-built simulation across the fork.


def resolve_jobs(jobs: int | None = None) -> int:
    """Normalize a worker count: explicit arg > ``REPRO_JOBS`` env > 1."""
    if jobs is None:
        jobs = int(os.environ.get("REPRO_JOBS", "1") or "1")
    return max(1, int(jobs))


def parallel_map(
    fn: Callable[[Any], Any], items: Sequence[Any], jobs: int | None = None
) -> list[Any]:
    """``[fn(x) for x in items]``, fanned over ``jobs`` processes.

    Results are returned in input order (order-preserving merge). With
    ``jobs <= 1`` or fewer than two items this runs inline — the serial
    path involves no pool, no pickling and no subprocess.
    """
    jobs = resolve_jobs(jobs)
    items = list(items)
    if jobs <= 1 or len(items) < 2:
        return [fn(x) for x in items]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(jobs, len(items))) as pool:
        return list(pool.map(fn, items, chunksize=1))


# -- module-level workers (must be importable by worker processes) ----------

class OhbSpec(NamedTuple):
    """One OHB cell: what to run, then the what-if knobs to run it under.

    The first six fields are the argument order of ``experiments._run_ohb``
    with the system passed by name; plain 6- and 7-tuples are the same
    spec with the remaining fields at their defaults.  The four rates are
    the :class:`~repro.obs.whatif.Perturbation` knobs the simulator can
    realise (1.0 = unchanged): ``link_rate`` scales the fabric line rate
    (every transport derives its ``per_byte_s`` from it), ``poll_tax`` the
    cost model's Basic poll costs, ``serializer_rate`` /
    ``local_read_rate`` its ramdisk shuffle write / read bandwidths.
    """

    workload: str
    n_workers: int
    data_bytes: int
    transport: str
    fidelity: float
    system: str
    obs_causal: bool = False
    link_rate: float = 1.0
    poll_tax: float = 1.0
    serializer_rate: float = 1.0
    local_read_rate: float = 1.0


def perturbed_system(system, link_rate: float):
    """``system`` with its fabric line rate scaled by ``link_rate``."""
    if link_rate == 1.0:
        return system
    fabric = dataclasses.replace(
        system.fabric, line_rate_Bps=system.fabric.line_rate_Bps * link_rate
    )
    return dataclasses.replace(system, fabric=fabric)


def run_ohb_cell(spec: tuple, cost: CostModel = DEFAULT_COST) -> Any:
    """Worker: one OHB cell from an :class:`OhbSpec` (or a plain tuple
    of its leading fields), through the run cache.

    The cell runs under ``cost`` with the spec's poll-tax and ramdisk
    knobs multiplied in. The cache key is the normalised spec plus that
    model, so a spec at identity knobs and the plain 6-tuple are one
    entry, and every perturbed cell or model is its own.
    """
    spec = OhbSpec(*spec)
    from repro.harness.runcache import get_or_run

    # Poll-tax scaling: cheaper polls *and* a proportionally shorter poll
    # period — poll_tax=0.0 is a free, instantly-reactive poll loop, the
    # simulator's closest realization of "no polling tax".
    cost = dataclasses.replace(
        cost,
        select_now_cost_s=cost.select_now_cost_s * spec.poll_tax,
        iprobe_cost_s=cost.iprobe_cost_s * spec.poll_tax,
        basic_poll_period_s=cost.basic_poll_period_s * spec.poll_tax,
        ramdisk_write_Bps=cost.ramdisk_write_Bps * spec.serializer_rate,
        ramdisk_read_Bps=cost.ramdisk_read_Bps * spec.local_read_rate,
    )

    def _run():
        from repro.harness.experiments import _run_ohb
        from repro.harness.systems import SYSTEMS
        from repro.workloads.ohb import GROUP_BY, SORT_BY

        workloads = {w.name: w for w in (GROUP_BY, SORT_BY)}
        return _run_ohb(
            workloads[spec.workload],
            spec.n_workers,
            spec.data_bytes,
            spec.transport,
            spec.fidelity,
            system=perturbed_system(SYSTEMS[spec.system], spec.link_rate),
            obs_causal=spec.obs_causal,
            cost=cost,
        )

    return get_or_run("ohb", spec, _run, cost=cost)


def run_hibench_cell(spec: tuple) -> Any:
    """Worker: one HiBench cell from a primitive spec.

    ``spec`` is ``(workload_name, system_name, n_workers, transport,
    cores_per_executor, fidelity)``; ``cores_per_executor`` may be None.
    """
    workload_name, system_name, n_workers, transport, cores, fidelity = spec
    from repro.harness.runcache import get_or_run

    def _run():
        from repro.harness.experiments import HiBenchCell
        from repro.harness.systems import SYSTEMS
        from repro.spark.deploy import SparkSimCluster
        from repro.workloads.hibench import SPECS

        system = SYSTEMS[system_name]
        sim = SparkSimCluster(system, n_workers, transport, cores_per_executor=cores)
        sim.launch()
        prof = SPECS[workload_name].build_profile(
            system, n_workers, cores_per_executor=cores, fidelity=fidelity
        )
        res = sim.run_profile(prof)
        sim.shutdown()
        return HiBenchCell(workload_name, system.name, transport, res.total_seconds)

    canon = (workload_name, system_name, n_workers, transport, cores, fidelity)
    return get_or_run("hibench", canon, _run)


def run_jobserver_cell(spec: tuple) -> Any:
    """Worker: one job-server contention cell from a primitive spec.

    ``spec`` is ``(transport, scheduler_name, system_name, n_workers,
    cores_per_executor, cluster_seed, trace_spec)`` with ``trace_spec`` =
    ``(seed, n_jobs, mean_interarrival_s, min_bytes, max_bytes,
    parallelism_choices, fidelity)`` — primitives only, so cells pickle
    under any start method. Returns a
    :class:`~repro.jobserver.server.JobServerResult`.
    """
    transport, sched_name, system_name, n_workers, cores, cluster_seed, ts = spec
    seed, n_jobs, mean_ia, min_bytes, max_bytes, par_choices, fidelity = ts
    from repro.harness.runcache import get_or_run

    def _run():
        from repro.harness.systems import SYSTEMS
        from repro.jobserver import SCHEDULERS, poisson_trace, run_trace
        from repro.spark.deploy import SparkSimCluster

        trace = poisson_trace(
            seed=seed,
            n_jobs=n_jobs,
            mean_interarrival_s=mean_ia,
            min_bytes=min_bytes,
            max_bytes=max_bytes,
            parallelism_choices=tuple(par_choices),
            fidelity=fidelity,
        )
        sim = SparkSimCluster(
            SYSTEMS[system_name],
            n_workers,
            transport,
            cores_per_executor=cores,
            seed=cluster_seed,
        )
        return run_trace(sim, SCHEDULERS.create(sched_name), trace)

    canon = (
        transport, sched_name, system_name, n_workers, cores, cluster_seed,
        (seed, n_jobs, mean_ia, min_bytes, max_bytes, tuple(par_choices), fidelity),
    )
    return get_or_run("jobserver", canon, _run)


def run_flight_cell(spec: tuple) -> Any:
    """Worker: one causal OHB cell, returning its flight recording.

    ``spec`` is a :func:`run_ohb_cell` spec with ``obs_causal`` forced
    on; the return value is the run's
    :class:`~repro.obs.flightrec.FlightRecorder` (picklable), which is
    what baseline recording and blame reports need.
    """
    cell = run_ohb_cell(OhbSpec(*spec)._replace(obs_causal=True))
    return cell.result.flight


def run_ohb_cells(specs: Iterable[tuple], jobs: int | None = None) -> list[Any]:
    """Run OHB cell specs, preserving spec order in the result list."""
    return parallel_map(run_ohb_cell, list(specs), jobs)


def run_flight_cells(specs: Iterable[tuple], jobs: int | None = None) -> list[Any]:
    """Run causal cell specs, returning flight recordings in spec order."""
    return parallel_map(run_flight_cell, list(specs), jobs)


def run_hibench_cells(specs: Iterable[tuple], jobs: int | None = None) -> list[Any]:
    """Run HiBench cell specs, preserving spec order in the result list."""
    return parallel_map(run_hibench_cell, list(specs), jobs)


def run_jobserver_cells(specs: Iterable[tuple], jobs: int | None = None) -> list[Any]:
    """Run job-server cell specs, preserving spec order in the result list."""
    return parallel_map(run_jobserver_cell, list(specs), jobs)
