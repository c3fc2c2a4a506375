"""SparkConf: Spark-flavoured configuration with the paper's defaults."""

from __future__ import annotations

from typing import Any, Mapping

from repro.util.config import Config

# Defaults mirror the paper's evaluation setup (Sec. VII-C) where relevant.
_DEFAULTS: dict[str, Any] = {
    "spark.app.name": "repro-app",
    "spark.master": "local[1]",
    "spark.default.parallelism": "8",
    # Shuffle data plane (values from vanilla Spark's defaults)
    "spark.reducer.maxSizeInFlight": "48m",
    "spark.reducer.maxReqsInFlight": "5",
    "spark.shuffle.compress": "true",
    # Transport selection:
    #   nio (vanilla) | rdma | mpi-basic | mpi-opt | mpi-coll
    "spark.repro.transport": "nio",
    # Determinism: seeds the simulation engine's RNG (repro.util.rng).
    "spark.repro.seed": "0",
    # Fault tolerance (vanilla Spark defaults where they exist)
    "spark.task.maxFailures": "4",
    "spark.stage.maxConsecutiveAttempts": "4",
    "spark.speculation": "false",
    "spark.speculation.multiplier": "1.5",
    "spark.speculation.quantile": "0.75",
    "spark.blacklist.enabled": "true",
    # MPI reaction to rank death: abort (MPI_ERRORS_ARE_FATAL) | shrink (ULFM)
    "spark.repro.mpi.faultMode": "abort",
    # Observability (repro.obs): metrics snapshots and causal tracing
    # (the flight recording the Chrome trace exports) are opt-in; causal
    # implies enabled. The registry itself is always on.
    "spark.repro.obs.enabled": "false",
    "spark.repro.obs.causal": "false",
    # Multi-tenant job server (repro.jobserver): inter-job scheduler
    # (fifo | fair | pack), arrival-trace shape, per-job profile fidelity.
    "spark.repro.jobserver.scheduler": "fifo",
    "spark.repro.jobserver.meanInterarrival": "4.0",
    "spark.repro.jobserver.fidelity": "0.5",
    # Paper Sec. VII-C memory settings
    "spark.worker.memory": "120g",
    "spark.daemon.memory": "6g",
    "spark.executor.memory": "120g",
    "spark.driver.memory": "6g",
}


class SparkConf(Config):
    """Configuration for a :class:`~repro.spark.context.SparkContext`."""

    def __init__(self, values: Mapping[str, Any] | None = None) -> None:
        merged = dict(_DEFAULTS)
        if values:
            merged.update(values)
        super().__init__(merged)

    def set_app_name(self, name: str) -> "SparkConf":
        return self.set("spark.app.name", name)  # type: ignore[return-value]

    def set_master(self, master: str) -> "SparkConf":
        return self.set("spark.master", master)  # type: ignore[return-value]

    @property
    def app_name(self) -> str:
        return str(self.get("spark.app.name"))

    @property
    def default_parallelism(self) -> int:
        return self.get_int("spark.default.parallelism")
