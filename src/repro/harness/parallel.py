"""Parallel experiment harness: one cell runner, fanned over processes.

A harness cell is a ``NamedTuple`` spec (:class:`OhbSpec`,
:class:`HiBenchSpec`, :class:`JobServerSpec`) holding names its ``run()``
resolves to registry objects; an :class:`OhbSpec` also holds the
:class:`~repro.simnet.interconnect.CostModel` its cluster is built with
(the other kinds run under the default model). :func:`run_cell` runs one
through the run cache, keyed on the spec value alone; :func:`run_cells`
fans a list of any mix of kinds and models.

Every cell owns its own :class:`~repro.simnet.engine.SimEngine` and
seed, so a cell's result is a pure function of its spec — identical
whether it runs in this process, a worker process, or any worker count.
That makes parallelism free of determinism risk: the only requirements
are (1) specs that pickle under both fork and spawn start methods (never
a half-built simulation), and (2) an order-preserving merge, which
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


# -- cell specs ---------------------------------------------------------------

class OhbSpec(NamedTuple):
    """One OHB cell; ``run()`` returns an :class:`~repro.harness.experiments.OhbCell`.

    The first six fields are the argument order of ``experiments._run_ohb``
    with the system passed by name; plain 6- and 7-tuples are the same
    spec with the remaining fields at their defaults. ``link_rate``
    scales the fabric line rate (every transport derives its
    ``per_byte_s`` from it); every other knob is a field of ``cost``.
    """

    workload: str
    n_workers: int
    data_bytes: int
    transport: str
    fidelity: float
    system: str
    obs_causal: bool = False
    link_rate: float = 1.0
    io_threads: int = 8
    cost: CostModel = DEFAULT_COST

    def run(self) -> Any:
        from repro.harness.experiments import _run_ohb
        from repro.harness.systems import SYSTEMS
        from repro.workloads.ohb import GROUP_BY, SORT_BY

        system = SYSTEMS[self.system]
        if self.link_rate != 1.0:
            fabric = dataclasses.replace(
                system.fabric, line_rate_Bps=system.fabric.line_rate_Bps * self.link_rate
            )
            system = dataclasses.replace(system, fabric=fabric)
        workloads = {w.name: w for w in (GROUP_BY, SORT_BY)}
        return _run_ohb(
            workloads[self.workload], self.n_workers, self.data_bytes, self.transport,
            self.fidelity, system=system, obs_causal=self.obs_causal,
            io_threads=self.io_threads, cost=self.cost,
        )


class HiBenchSpec(NamedTuple):
    """One HiBench cell; ``run()`` returns a :class:`~repro.harness.experiments.HiBenchCell`.

    ``cores_per_executor`` may be None (the system's cores per node).
    """

    workload: str
    system: str
    n_workers: int
    transport: str
    cores_per_executor: int | None
    fidelity: float

    def run(self) -> Any:
        from repro.harness.experiments import HiBenchCell
        from repro.harness.systems import SYSTEMS
        from repro.spark.deploy import SparkSimCluster
        from repro.workloads.hibench import SPECS

        system = SYSTEMS[self.system]
        cores = self.cores_per_executor
        sim = SparkSimCluster(system, self.n_workers, self.transport, cores_per_executor=cores)
        sim.launch()
        prof = SPECS[self.workload].build_profile(
            system, self.n_workers, cores_per_executor=cores, fidelity=self.fidelity
        )
        res = sim.run_profile(prof)
        sim.shutdown()
        return HiBenchCell(self.workload, system.name, self.transport, res.total_seconds)


class JobServerSpec(NamedTuple):
    """One job-server contention cell; ``run()`` returns a
    :class:`~repro.jobserver.server.JobServerResult`.

    ``trace`` is ``(seed, n_jobs, mean_interarrival_s, min_bytes,
    max_bytes, parallelism_choices, fidelity)`` with a tuple of choices.
    """

    transport: str
    scheduler: str
    system: str
    n_workers: int
    cores_per_executor: int
    cluster_seed: int
    trace: tuple

    def run(self) -> Any:
        from repro.harness.systems import SYSTEMS
        from repro.jobserver import SCHEDULERS, poisson_trace, run_trace
        from repro.spark.deploy import SparkSimCluster

        seed, n_jobs, mean_ia, min_bytes, max_bytes, choices, fidelity = self.trace
        trace = poisson_trace(
            seed, n_jobs, mean_interarrival_s=mean_ia, min_bytes=min_bytes,
            max_bytes=max_bytes, parallelism_choices=choices, fidelity=fidelity,
        )
        sim = SparkSimCluster(
            SYSTEMS[self.system], self.n_workers, self.transport,
            cores_per_executor=self.cores_per_executor, seed=self.cluster_seed,
        )
        return run_trace(sim, SCHEDULERS.create(self.scheduler), trace)


# -- the runner (module-level: worker processes import it) --------------------

def run_cell(spec: OhbSpec | HiBenchSpec | JobServerSpec) -> Any:
    """Run one cell spec through the run cache, keyed on the spec alone."""
    from repro.harness.runcache import get_or_run

    return get_or_run(spec, spec.run)


def run_cells(specs: Iterable[tuple], jobs: int | None = None) -> list[Any]:
    """Run cell specs of any kinds, preserving spec order in the result list."""
    return parallel_map(run_cell, list(specs), jobs)


# Plain-tuple adapters for callers that build specs as tuples.

def run_ohb_cell(spec: tuple) -> Any:
    return run_cell(OhbSpec(*spec))


def run_ohb_cells(specs: Iterable[tuple], jobs: int | None = None) -> list[Any]:
    return run_cells([OhbSpec(*spec) for spec in specs], jobs)


def run_hibench_cell(spec: tuple) -> Any:
    return run_cell(HiBenchSpec(*spec))


def run_jobserver_cell(spec: tuple) -> Any:
    *cell, (seed, n_jobs, mean_ia, lo, hi, choices, fidelity) = spec
    trace = (seed, n_jobs, mean_ia, lo, hi, tuple(choices), fidelity)
    return run_cell(JobServerSpec(*cell, trace))
