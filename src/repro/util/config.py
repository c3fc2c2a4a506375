"""A ``SparkConf``-style string-keyed configuration map.

Spark configures everything through dotted string keys
(``spark.default.parallelism`` etc.); the local data plane keeps that idiom
so the examples read like real Spark programs. The simulator is configured
by typed constructor values instead.
"""

from __future__ import annotations

from typing import Any, Mapping


class ConfigError(KeyError):
    """Raised when a required configuration key is missing or malformed."""


class Config:
    """An immutable key/value configuration.

    >>> conf = Config({"spark.executor.cores": "4"})
    >>> conf.get_int("spark.executor.cores")
    4
    """

    def __init__(self, values: Mapping[str, Any] | None = None) -> None:
        self._values: dict[str, Any] = dict(values or {})

    def get(self, key: str, default: Any = None) -> Any:
        return self._values.get(key, default)

    def get_int(self, key: str, default: int | None = None) -> int:
        value = self._values.get(key, default)
        if value is None:
            raise ConfigError(f"missing required config key {key!r}")
        try:
            return int(value)
        except (TypeError, ValueError):
            raise ConfigError(f"config key {key!r}={value!r} is not an int") from None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        body = ", ".join(f"{k}={v!r}" for k, v in sorted(self._values.items()))
        return f"Config({body})"
