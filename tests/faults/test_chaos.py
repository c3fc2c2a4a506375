"""The chaos harness end-to-end: determinism and the transport asymmetry.

The headline experiment in miniature: the same seeded fault plan is replayed
against different transports. Socket-based transports recover through Spark's
resubmission machinery; MPI in world-abort mode loses the whole job; MPI with
ULFM-style shrinking recovers.
"""

import pytest

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


def crash_plan(seed=7):
    return (
        FaultPlan(seed=seed, name="crash+degrade")
        .add(NicDegradation(at_s=0.002, node_index=2, factor=4.0, duration_s=0.5))
        .add(ExecutorCrash(at_s=0.005, exec_id=1))
    )


def scenario(transport, plan=None, mode="abort", workers=4):
    return ChaosScenario(
        name="test-cell",
        system=INTERNAL_CLUSTER,
        n_workers=workers,
        transport=transport,
        plan=plan or crash_plan(),
        mpi_fault_mode=mode,
        cores_per_executor=4,
        shuffle_bytes=64 * MiB,
        deadline_s=60.0,
    )


class TestDeterminism:
    def test_same_seed_reports_byte_identical(self):
        plan = (
            FaultPlan(seed=21, name="noisy")
            .add(ExecutorCrash(at_s=0.004, exec_id=2))
            .add(NicDegradation(at_s=0.002, node_index=1, factor=3.0, duration_s=0.3))
        )
        a = run_scenario(scenario("nio", plan=plan))
        b = run_scenario(scenario("nio", plan=plan))
        assert a.render() == b.render()

    def test_different_seed_changes_chaos(self):
        # The faults are scripted either way; the plan's seed builds both
        # clusters. At minimum the rendered seed differs and the run still
        # completes.
        r = run_scenario(
            scenario("nio", plan=crash_plan(seed=8))
        )
        assert r.seed == 8
        assert r.job_completed


class TestTransportAsymmetry:
    def test_nio_recovers_via_resubmission(self):
        r = run_scenario(scenario("nio"))
        assert r.job_completed
        assert r.stage_resubmissions >= 1
        assert r.executors_lost >= 1
        assert r.recovery_seconds > 0

    def test_rdma_recovers_via_resubmission(self):
        r = run_scenario(scenario("rdma"))
        assert r.job_completed
        assert r.stage_resubmissions >= 1
        assert r.recovery_seconds > 0

    def test_mpi_world_abort_loses_the_job(self):
        r = run_scenario(scenario("mpi-opt", mode="abort"))
        assert not r.job_completed
        assert "abort" in r.job_failure.lower()

    def test_mpi_shrink_recovers(self):
        r = run_scenario(scenario("mpi-opt", mode="shrink"))
        assert r.job_completed
        assert r.stage_resubmissions >= 1

    def test_fault_mode_is_na_for_sockets(self):
        r = run_scenario(scenario("nio", mode="abort"))
        assert r.fault_mode == "n/a"

    def test_collective_transport_reports_its_fault_mode(self):
        # mpi-coll is an MPI transport by its declared trait, not its
        # name: its report carries the MPI world's fault mode.
        r = run_scenario(scenario("mpi-coll", mode="shrink"))
        assert (r.transport, r.fault_mode) == ("mpi-coll", "shrink")


class TestReportRendering:
    def test_matrix_has_one_row_per_cell(self):
        reports = [
            run_scenario(scenario("nio")),
            run_scenario(scenario("mpi-opt", mode="shrink")),
        ]
        table = render_matrix(reports)
        lines = table.splitlines()
        assert len(lines) == 2 + len(reports)  # header + rule + rows
        assert "nio" in table and "mpi-opt" in table and "shrink" in table

    def test_render_mentions_failure_reason(self):
        r = run_scenario(scenario("mpi-basic", mode="abort"))
        assert not r.job_completed
        assert r.job_failure in r.render()
