"""DAG scheduler: stage cutting, labels, shuffle reuse, traces."""

import pytest

from repro.spark import SparkConf, SparkContext
from repro.spark.tracing import SampleTrace


def map_stage(sc):
    """The shuffle-map stage of ``sc``'s traced jobs, read the way
    ``OhbWorkload.build_profile`` reads a sample trace."""
    return SampleTrace.from_recorder(sc.tracer, "test", {}).find_stage("ShuffleMapStage")


@pytest.fixture
def sc():
    return SparkContext(SparkConf({"spark.default.parallelism": "4"}))


class TestStageCutting:
    def test_narrow_only_is_single_stage(self, sc):
        rdd = sc.range(10).map(lambda x: x + 1).map(lambda x: x * 2)
        job = sc.dag_scheduler.build_job(rdd, list)
        assert len(job.stages) == 1
        assert job.stages[0].kind() == "ResultStage"

    def test_one_shuffle_two_stages(self, sc):
        rdd = sc.range(10).map(lambda x: (x % 3, x)).group_by_key(2)
        job = sc.dag_scheduler.build_job(rdd, list)
        kinds = [s.kind() for s in job.stages]
        assert kinds == ["ShuffleMapStage", "ResultStage"]

    def test_narrow_after_shuffle_stays_in_result_stage(self, sc):
        rdd = (
            sc.range(10)
            .map(lambda x: (x % 3, x))
            .reduce_by_key(lambda a, b: a + b, 2)
            .map_values(lambda v: v * 2)
        )
        job = sc.dag_scheduler.build_job(rdd, list)
        assert len(job.stages) == 2

    def test_chained_shuffles(self, sc):
        rdd = (
            sc.range(20)
            .map(lambda x: (x % 5, x))
            .reduce_by_key(lambda a, b: a + b, 4)
            .map(lambda kv: (kv[1] % 3, kv[0]))
            .group_by_key(2)
        )
        job = sc.dag_scheduler.build_job(rdd, list)
        kinds = [s.kind() for s in job.stages]
        assert kinds == ["ShuffleMapStage", "ShuffleMapStage", "ResultStage"]

    def test_join_creates_two_map_stages(self, sc):
        a = sc.parallelize([("k", 1)], 2)
        b = sc.parallelize([("k", 2)], 2)
        job = sc.dag_scheduler.build_job(a.join(b), list)
        kinds = [s.kind() for s in job.stages]
        assert kinds.count("ShuffleMapStage") == 2
        assert kinds[-1] == "ResultStage"

    def test_stage_task_counts(self, sc):
        rdd = sc.range(10, 3).map(lambda x: (x, x)).group_by_key(5)
        job = sc.dag_scheduler.build_job(rdd, list)
        assert job.stages[0].num_tasks == 3  # map side
        assert job.stages[1].num_tasks == 5  # reduce side

    def test_invalid_partition_rejected(self, sc):
        rdd = sc.range(10, 2)
        with pytest.raises(ValueError):
            sc.dag_scheduler.build_job(rdd, list, partitions=[5])


class TestStageLabels:
    def test_paper_style_labels(self, sc):
        # OHB GroupByTest shape: Job0 generates, Job1 shuffles + reads.
        data = sc.range(10).map(lambda x: (x % 3, x))
        data.count()  # Job0
        grouped = data.group_by_key(2)
        grouped.count()  # Job1
        labels = [st.label for job in sc.tracer.jobs for st in job.stages]
        assert labels == [
            "Job0-ResultStage",
            "Job1-ShuffleMapStage",
            "Job1-ResultStage",
        ]


class TestShuffleReuse:
    def test_shuffle_not_recomputed_across_jobs(self, sc):
        computed = []
        rdd = sc.range(10).map(lambda x: (computed.append(x) or x % 2, x)).group_by_key(2)
        rdd.count()
        first = len(computed)
        rdd.count()  # same shuffle: map stage must be skipped
        assert len(computed) == first


class TestTraces:
    def test_shuffle_matrix_accounts_all_bytes(self, sc):
        rdd = sc.range(100, 4).map(lambda x: (x % 8, x)).group_by_key(4)
        rdd.count()
        trace = map_stage(sc)
        assert trace.shuffle_matrix is not None
        assert trace.shuffle_matrix.shape == (4, 4)
        assert trace.total_shuffle_bytes > 0
        assert trace.shuffle_records.sum() == 100

    def test_result_stage_fetch_matrix(self, sc):
        rdd = sc.range(100, 4).map(lambda x: (x % 8, x)).group_by_key(4)
        rdd.count()
        map_trace = map_stage(sc)
        result_trace = sc.tracer.jobs[-1].stages[-1]
        assert result_trace.fetch_matrix is not None
        # fetch_matrix is the transpose view of the shuffle matrix.
        assert result_trace.fetch_matrix.sum() == map_trace.shuffle_matrix.sum()

    def test_records_in_counted(self, sc):
        sc.range(50, 2).count()
        trace = sc.tracer.jobs[-1].stages[-1]
        assert sum(trace.records_in) == 50

    def test_trace_disabled(self, sc):
        sc.tracer.enabled = False
        sc.range(10).count()
        assert sc.tracer.jobs == []

    def test_find_stage_missing_raises(self, sc):
        with pytest.raises(KeyError):
            SampleTrace.from_recorder(sc.tracer, "test", {}).find_stage("nope")
