"""OHB workload tests: real execution correctness + profile construction."""

import numpy as np
import pytest

from repro.harness.profile import ComputeStage, ShuffleReadStage, ShuffleWriteStage
from repro.harness.systems import FRONTERA
from repro.util.units import GiB
from repro.workloads.ohb import GROUP_BY, SORT_BY, OhbWorkload


class TestRealExecution:
    def test_groupby_sample_runs_and_traces(self):
        sc = GROUP_BY.run_sample(num_pairs=800, num_partitions=4)
        labels = [st.label for job in sc.tracer.jobs for st in job.stages]
        assert labels == [
            "Job0-ResultStage",
            "Job1-ShuffleMapStage",
            "Job1-ResultStage",
        ]
        trace = sc.tracer.find_stage("Job1-ShuffleMapStage")
        assert trace.shuffle_records.sum() == 800

    def test_sortby_sample_has_job2_labels(self):
        # sortByKey runs a sampling job first, so the sort is Job2 —
        # exactly the labeling in the paper's Fig-10b breakdown.
        sc = SORT_BY.run_sample(num_pairs=800, num_partitions=4)
        labels = [st.label for job in sc.tracer.jobs for st in job.stages]
        assert "Job2-ShuffleMapStage" in labels
        assert "Job2-ResultStage" in labels

    def test_groupby_result_correct(self):
        from repro.spark import SparkContext

        sc = SparkContext()
        rdd = GROUP_BY.build_rdd(sc, num_pairs=400, num_partitions=4)
        groups = dict(rdd.collect())
        assert sum(len(v) for v in groups.values()) == 400

    def test_sortby_result_sorted(self):
        from repro.spark import SparkContext

        sc = SparkContext()
        rdd = SORT_BY.build_rdd(sc, num_pairs=400, num_partitions=4)
        keys = [k for k, _ in rdd.collect()]
        assert keys == sorted(keys)

    def test_unknown_workload_rejected(self):
        from repro.spark import SparkContext

        with pytest.raises(ValueError):
            OhbWorkload("Bogus").build_rdd(SparkContext(), 10, 2)


class TestProfiles:
    def test_groupby_profile_structure(self):
        prof = GROUP_BY.build_profile(FRONTERA, 8, 112 * GiB, fidelity=0.25)
        kinds = [type(s) for s in prof.stages]
        assert kinds == [ComputeStage, ShuffleWriteStage, ShuffleReadStage]
        labels = [s.label for s in prof.stages]
        assert labels == [
            "Job0-ResultStage",
            "Job1-ShuffleMapStage",
            "Job1-ResultStage",
        ]

    def test_sortby_profile_has_sampling_job(self):
        prof = SORT_BY.build_profile(FRONTERA, 8, 112 * GiB, fidelity=0.25)
        labels = [s.label for s in prof.stages]
        assert labels == [
            "Job0-ResultStage",
            "Job1-ResultStage",  # range-sampling job
            "Job2-ShuffleMapStage",
            "Job2-ResultStage",
        ]

    def test_profile_conserves_bytes(self):
        prof = GROUP_BY.build_profile(FRONTERA, 8, 112 * GiB, fidelity=0.25)
        read = next(s for s in prof.stages if isinstance(s, ShuffleReadStage))
        assert read.fetch_bytes.sum() == pytest.approx(112 * GiB, rel=0.01)
        write = next(s for s in prof.stages if isinstance(s, ShuffleWriteStage))
        assert write.write_bytes_per_task.sum() == pytest.approx(112 * GiB, rel=0.01)

    def test_fidelity_preserves_stage_compute_time(self):
        # Folding tasks must not change the expected stage time: per-task
        # seconds stay one core's worth of work.
        full = GROUP_BY.build_profile(FRONTERA, 8, 112 * GiB, fidelity=1.0)
        folded = GROUP_BY.build_profile(FRONTERA, 8, 112 * GiB, fidelity=0.25)
        t_full = full.stages[0].seconds_per_task.mean()
        t_folded = folded.stages[0].seconds_per_task.mean()
        assert t_folded == pytest.approx(t_full, rel=0.05)
        assert folded.stages[0].n_tasks == full.stages[0].n_tasks // 4

    def test_tasks_scale_with_cores(self):
        prof = GROUP_BY.build_profile(FRONTERA, 8, 112 * GiB)
        assert prof.stages[0].n_tasks == 8 * 56

    def test_clock_scaling(self):
        from repro.workloads.calibration import GROUP_BY_TEST

        slower = GROUP_BY_TEST.scaled_to_clock(1.35)  # half of 2.7 GHz
        assert slower.gen_s == pytest.approx(GROUP_BY_TEST.gen_s * 2)
        assert slower.record_bytes == GROUP_BY_TEST.record_bytes
