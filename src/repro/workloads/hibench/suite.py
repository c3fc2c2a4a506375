"""HiBench workload specifications and scaled profiles (Fig. 12).

Every Table-IV workload has (a) a *real sample implementation* (see
:mod:`~repro.workloads.hibench.ml`, ``micro``, ``graph``) used by the
correctness tests and examples, and (b) a scaled :class:`WorkloadProfile`
for the simulated cluster, built here.

Profile shapes:

* **iterative** (SVM, LR, GMM, LDA, NWeight): data generation, then per
  iteration a compute stage plus an aggregation/shuffle round. The
  *shuffle volume per round* is each workload's communication knob,
  calibrated (constants below) so the vanilla-transport communication
  share matches what the paper's Fig-12 speedups imply. LDA and NWeight
  move data-proportional state each round (large shuffles); LR/SVM/GMM
  aggregate model-sized partials (small shuffles).
* **one-shot shuffle** (TeraSort, Repartition): generate, shuffle-write,
  shuffle-read — the OHB shape with workload-specific compute costs
  (TeraSort's sort CPU keeps it compute-bound; transports tie, as the
  paper observes).

Round aggregation: simulating 100 gradient-descent barriers individually
is event-count-prohibitive; iterations are folded into at most
``MAX_SIMULATED_ROUNDS`` rounds carrying proportionally more bytes and
compute. Totals (and therefore stage-time ratios) are preserved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.harness.profile import (
    ComputeStage,
    ShuffleReadStage,
    ShuffleWriteStage,
    WorkloadProfile,
    _spread,
    scaled_read_matrices,
    spread_cpu,
)
from repro.harness.systems import SystemConfig
from repro.spark.conf import SparkConf
from repro.spark.context import SparkContext
from repro.spark.tracing import SampleTrace
from repro.util.units import GiB, MiB
from repro.workloads.calibration import COSTS

MAX_SIMULATED_ROUNDS = 8

# HDFS on the evaluation nodes: effective per-node sequential throughput of
# the datanode path (disk/page-cache + HDFS protocol). HDFS replication
# traffic crosses the network over TCP for *every* transport — MPI4Spark
# only accelerates Spark's shuffle, not HDFS — so HDFS-heavy workloads
# (TeraSort) show small end-to-end gains, exactly as Fig. 12b reports.
HDFS_NODE_BPS = 0.55e9
HDFS_REPLICATION = 3


@dataclass(frozen=True)
class HiBenchSpec:
    """Shape parameters of one HiBench workload at the Huge scale."""

    name: str
    category: str
    nominal_bytes: int
    # iterative workloads: bytes shuffled per iteration
    shuffle_bytes_per_round: int = 0
    one_shot_shuffle: bool = False  # TeraSort / Repartition shape
    hdfs_input: bool = False  # Job0 reads the dataset from HDFS
    hdfs_output_bytes: int = 0  # final stage writes to HDFS
    hdfs_output_replicated: bool = True  # replication-3 pipeline on output
    description: str = ""

    def _hdfs_seconds(self, nbytes: float, n_workers: int, replicated: bool) -> float:
        """Cluster-wide HDFS time: local disk plus (for writes) the
        replication pipeline, which is transport-independent TCP traffic."""
        per_node = nbytes / n_workers
        t = per_node / HDFS_NODE_BPS
        if replicated:
            t *= HDFS_REPLICATION
        return t

    def build_profile(
        self,
        system: SystemConfig,
        n_workers: int,
        cores_per_executor: int | None = None,
        fidelity: float = 1.0,
    ) -> WorkloadProfile:
        costs = COSTS[self.name].scaled_to_clock(system.clock_ghz)
        cores = cores_per_executor or system.threads_per_node
        if system.hyperthreading and cores > system.cores_per_node:
            # Two hyperthreads share one core's pipelines: per-thread
            # throughput is ~60% of a dedicated core (SMT yields ~1.2x per
            # core, not 2x). This is why Stampede2's compute-bound
            # workloads show the paper's smaller speedups (Fig. 12c).
            costs = costs.scaled_to_clock(0.6, ref_ghz=1.0)
        total_cores = n_workers * cores
        n_tasks = max(n_workers, int(total_cores * fidelity))
        total_records = self.nominal_bytes / costs.record_bytes

        gen_cpu = spread_cpu(total_records * costs.gen_s, n_tasks, total_cores, 0.05, 7)
        if self.hdfs_input:
            # All of a node's tasks share its datanode: the per-node drain
            # time stretches every concurrent task, so it adds per task.
            gen_cpu = gen_cpu + self._hdfs_seconds(
                self.nominal_bytes, n_workers, replicated=False
            )
        stages: list = [
            ComputeStage(label="Job0-ResultStage", seconds_per_task=gen_cpu)
        ]

        if self.one_shot_shuffle:
            stages.append(
                ShuffleWriteStage(
                    label="Job1-ShuffleMapStage",
                    seconds_per_task=spread_cpu(
                        total_records * costs.map_s, n_tasks, total_cores, 0.05, 11
                    ),
                    write_bytes_per_task=_spread(
                        float(self.nominal_bytes), n_tasks, 0.05, 13
                    ),
                )
            )
            fetch, blocks = scaled_read_matrices(
                float(self.nominal_bytes), n_tasks, n_workers, n_tasks, 0.05
            )
            stages.append(
                ShuffleReadStage(
                    label="Job1-ResultStage",
                    fetch_bytes=fetch,
                    blocks=blocks,
                    combine_seconds_per_task=spread_cpu(
                        total_records * costs.combine_s, n_tasks, total_cores, 0.05, 17
                    ),
                )
            )
        else:
            rounds = min(costs.iterations, MAX_SIMULATED_ROUNDS)
            fold = costs.iterations / rounds
            round_bytes = self.shuffle_bytes_per_round * fold
            round_compute = total_records * costs.iter_compute_s * fold
            round_records = round_bytes / max(costs.record_bytes, 1)
            for r in range(rounds):
                stages.append(
                    ComputeStage(
                        label=f"Iter{r}-ComputeStage",
                        seconds_per_task=spread_cpu(
                            round_compute, n_tasks, total_cores, 0.05, 31 + r
                        ),
                    )
                )
                stages.append(
                    ShuffleWriteStage(
                        label=f"Iter{r}-ShuffleMapStage",
                        seconds_per_task=spread_cpu(
                            round_records * costs.map_s, n_tasks, total_cores, 0.05, 47 + r
                        ),
                        write_bytes_per_task=_spread(round_bytes, n_tasks, 0.05, 53 + r),
                    )
                )
                fetch, blocks = scaled_read_matrices(
                    round_bytes, n_tasks, n_workers, n_tasks, 0.05, seed=61 + r
                )
                stages.append(
                    ShuffleReadStage(
                        label=f"Iter{r}-ResultStage",
                        fetch_bytes=fetch,
                        blocks=blocks,
                        combine_seconds_per_task=spread_cpu(
                            round_records * costs.combine_s, n_tasks, total_cores,
                            0.05, 71 + r,
                        ),
                    )
                )
        if self.hdfs_output_bytes:
            out_t = self._hdfs_seconds(
                self.hdfs_output_bytes, n_workers,
                replicated=self.hdfs_output_replicated,
            )
            stages.append(
                ComputeStage(
                    label="JobN-HdfsOutputStage",
                    seconds_per_task=np.full(n_tasks, out_t),
                )
            )
        return WorkloadProfile(
            name=self.name,
            nominal_bytes=self.nominal_bytes,
            n_executors=n_workers,
            cores_per_executor=cores,
            stages=stages,
        )

    def trace_sample(self, **params) -> SampleTrace:
        """Execute this workload's real sample program; freeze the traces.

        Unlike OHB, the HiBench profiles above are analytic (calibrated
        constants), so the sample trace feeds correctness tests rather
        than ``build_profile``.
        """
        program = SAMPLE_PROGRAMS.get(self.name)
        if program is None:
            raise KeyError(f"no sample program registered for {self.name!r}")
        merged = {**SAMPLE_PARAM_DEFAULTS[self.name], **params}
        sc = SparkContext(SparkConf({"spark.default.parallelism": "4"}))
        program(sc, **merged)
        return SampleTrace.from_recorder(sc.tracer, self.name, merged)


# -- sample programs (real executions, traced) ------------------------------
# Imported lazily inside each runner: ml/micro/graph import the hibench
# package, which imports this module at package-init time.

def _sample_svm(sc, **kw):
    from repro.workloads.hibench import ml

    ml.train_svm(sc, **kw)


def _sample_lr(sc, **kw):
    from repro.workloads.hibench import ml

    ml.train_logistic_regression(sc, **kw)


def _sample_gmm(sc, **kw):
    from repro.workloads.hibench import ml

    ml.train_gmm(sc, **kw)


def _sample_lda(sc, **kw):
    from repro.workloads.hibench import ml

    ml.train_lda(sc, **kw)


def _sample_terasort(sc, **kw):
    from repro.workloads.hibench import micro

    micro.terasort(sc, **kw).count()


def _sample_repartition(sc, **kw):
    from repro.workloads.hibench import micro

    micro.repartition(sc, **kw).count()


def _sample_nweight(sc, **kw):
    from repro.workloads.hibench import graph

    graph.nweight(sc, **kw).count()


SAMPLE_PROGRAMS: dict[str, Callable] = {
    "SVM": _sample_svm,
    "LR": _sample_lr,
    "GMM": _sample_gmm,
    "LDA": _sample_lda,
    "TeraSort": _sample_terasort,
    "Repartition": _sample_repartition,
    "NWeight": _sample_nweight,
}

# Fixed sample-scale parameters: part of the trace-cache key, so changing
# them addresses new cache entries rather than invalidating old ones.
SAMPLE_PARAM_DEFAULTS: dict[str, dict] = {
    "SVM": {"n_points": 800, "dim": 8, "iterations": 2},
    "LR": {"n_points": 800, "dim": 8, "iterations": 2},
    "GMM": {"n_points": 600, "dim": 2, "k": 3, "iterations": 2},
    "LDA": {"n_docs": 120, "vocab": 80, "n_topics": 4, "words_per_doc": 12,
            "iterations": 1},
    "TeraSort": {"n_records": 3000, "num_partitions": 4},
    "Repartition": {"n_records": 2000, "num_partitions": 4},
    "NWeight": {"n_vertices": 80, "avg_degree": 3, "hops": 2},
}


# ---------------------------------------------------------------------------
# The Huge-scale specs. shuffle_bytes_per_round values are calibrated so the
# vanilla communication share reproduces the paper's Fig-12 speedups (the
# implied shares: LDA ~46%, SVM ~16%, GMM ~36%, LR ~38% @2.17x on OPA,
# Repartition ~36%, NWeight ~41%, TeraSort ~0 i.e. compute-bound).
# ---------------------------------------------------------------------------

SPECS: dict[str, HiBenchSpec] = {
    "SVM": HiBenchSpec(
        name="SVM", category="Machine Learning", nominal_bytes=48 * GiB,
        shuffle_bytes_per_round=290 * MiB,
        description="Support Vector Machine by hinge-loss gradient descent",
    ),
    "LR": HiBenchSpec(
        name="LR", category="Machine Learning", nominal_bytes=48 * GiB,
        shuffle_bytes_per_round=2500 * MiB,
        description="Logistic Regression by log-loss gradient descent",
    ),
    "GMM": HiBenchSpec(
        name="GMM", category="Machine Learning", nominal_bytes=40 * GiB,
        shuffle_bytes_per_round=2160 * MiB,
        description="Gaussian Mixture Model by EM",
    ),
    "LDA": HiBenchSpec(
        name="LDA", category="Machine Learning", nominal_bytes=48 * GiB,
        shuffle_bytes_per_round=1000 * MiB,
        description="Latent Dirichlet Allocation (word-topic shuffle each round)",
    ),
    "Repartition": HiBenchSpec(
        name="Repartition", category="Micro Benchmarks", nominal_bytes=96 * GiB,
        one_shot_shuffle=True, hdfs_input=True, hdfs_output_bytes=96 * GiB,
        hdfs_output_replicated=False,
        description="Round-robin every record to a new partition (pure shuffle)",
    ),
    "TeraSort": HiBenchSpec(
        name="TeraSort", category="Micro Benchmarks", nominal_bytes=64 * GiB,
        one_shot_shuffle=True, hdfs_input=True, hdfs_output_bytes=64 * GiB,
        description="Sort 100-byte records by 10-byte key (sort + HDFS bound)",
    ),
    "NWeight": HiBenchSpec(
        name="NWeight", category="Graph", nominal_bytes=32 * GiB,
        shuffle_bytes_per_round=1400 * MiB,
        description="n-hop vertex associations (join-shaped shuffle per hop)",
    ),
}
