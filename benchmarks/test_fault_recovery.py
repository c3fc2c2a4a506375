"""Fault-recovery matrix: one seeded fault plan, four transports.

The paper's Sec. VI-A caveat made measurable: MPI wins raw shuffle
throughput, but its default fault model (MPI_ERRORS_ARE_FATAL) turns one
lost executor into a lost job, while the socket transports recover through
Spark's stage-resubmission machinery. With ULFM-style communicator
shrinking assumed, MPI recovers too. The injected plan is identical in
every cell — one executor crash plus one NIC degradation, landing at the
start of the shuffle-read stage — and two same-seed runs must render
byte-identical availability reports.
"""

import pytest

from benchmarks.conftest import FULL
from repro.faults import (
    ChaosScenario,
    ExecutorCrash,
    FaultPlan,
    NicDegradation,
    render_matrix,
    run_scenario,
)
from repro.harness.systems import INTERNAL_CLUSTER
from repro.util.units import MiB

N_WORKERS = 8 if FULL else 4
SHUFFLE_BYTES = (256 if FULL else 64) * MiB
SEED = 7

# The cells of the matrix: (transport, mpi fault mode).
CELLS = [
    ("nio", "abort"),
    ("rdma", "abort"),
    ("mpi-basic", "abort"),
    ("mpi-opt", "abort"),
    ("mpi-opt", "shrink"),
    ("mpi-coll", "abort"),
    ("mpi-coll", "shrink"),
]

# The collective transport drains the whole exchange so fast that at the
# reduced 64 MiB geometry the 5 ms crash lands after the job is already
# done; its cells shuffle 256 MiB so the fault hits mid-alltoallv.
COLL_SHUFFLE_BYTES = 256 * MiB


def the_plan():
    """1 executor crash + 1 NIC degradation, mid-shuffle, fixed seed."""
    return (
        FaultPlan(seed=SEED, name="crash+degrade")
        .add(NicDegradation(at_s=0.002, node_index=2, factor=4.0, duration_s=0.5))
        .add(ExecutorCrash(at_s=0.005, exec_id=1))
    )


def make_cell(transport, mode):
    return ChaosScenario(
        name="fault-recovery",
        system=INTERNAL_CLUSTER,
        n_workers=N_WORKERS,
        transport=transport,
        plan=the_plan(),
        mpi_fault_mode=mode,
        cores_per_executor=4,
        shuffle_bytes=COLL_SHUFFLE_BYTES if transport == "mpi-coll" else SHUFFLE_BYTES,
        deadline_s=120.0,
    )


def run_matrix():
    return [run_scenario(make_cell(t, m)) for t, m in CELLS]


def test_fault_recovery_matrix():
    reports = run_matrix()
    print()
    print(render_matrix(reports))
    by = {(r.transport, r.fault_mode): r for r in reports}

    # Socket transports survive: the dead executor's map output is
    # recomputed and the read stage resubmitted.
    for cell in [("nio", "n/a"), ("rdma", "n/a")]:
        r = by[cell]
        assert r.job_completed, r.render()
        assert r.stage_resubmissions >= 1
        assert r.executors_lost >= 1
        assert r.recovery_seconds > 0

    # Default MPI semantics: one dead rank aborts the world -> job lost.
    # The collective transport is no exception: a participant dying
    # mid-alltoallv kills the world under MPI_ERRORS_ARE_FATAL.
    for cell in [("mpi-basic", "abort"), ("mpi-opt", "abort"),
                 ("mpi-coll", "abort")]:
        r = by[cell]
        assert not r.job_completed, r.render()
        assert "abort" in r.job_failure.lower()

    # ULFM-style shrinking restores Spark-level recoverability: the failed
    # exchange surfaces as a fetch failure and the stage is resubmitted.
    for cell in [("mpi-opt", "shrink"), ("mpi-coll", "shrink")]:
        shrink = by[cell]
        assert shrink.job_completed, shrink.render()
        assert shrink.stage_resubmissions >= 1


def test_reports_are_deterministic():
    a = run_scenario(make_cell("nio", "abort"))
    b = run_scenario(make_cell("nio", "abort"))
    assert a.render() == b.render()
