"""SparkConf: Spark-flavoured configuration for the local data plane."""

from __future__ import annotations

from typing import Any, Mapping

from repro.util.config import Config

# The one key something reads: SparkContext's default partition count.
# Callers may pass any other Spark key; nothing interprets it.
_DEFAULTS: dict[str, Any] = {"spark.default.parallelism": "8"}


class SparkConf(Config):
    """Configuration for a :class:`~repro.spark.context.SparkContext`."""

    def __init__(self, values: Mapping[str, Any] | None = None) -> None:
        super().__init__({**_DEFAULTS, **(values or {})})

    @property
    def default_parallelism(self) -> int:
        return self.get_int("spark.default.parallelism")
