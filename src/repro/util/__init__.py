"""Shared utilities: units, configuration, statistics, serialization sizing.

These helpers are deliberately dependency-light; every other subpackage in
:mod:`repro` builds on them.
"""

from repro.util.units import (
    KB,
    MB,
    GB,
    TB,
    KiB,
    MiB,
    GiB,
    TiB,
    US,
    MS,
    SEC,
    fmt_bytes,
    fmt_time,
    gbps,
)
from repro.util.config import Config, ConfigError
from repro.util.stats import percentile
from repro.util.serialization import estimate_size, size_cache_stats, sizeof, SizedPayload

__all__ = [
    "KB",
    "MB",
    "GB",
    "TB",
    "KiB",
    "MiB",
    "GiB",
    "TiB",
    "US",
    "MS",
    "SEC",
    "fmt_bytes",
    "fmt_time",
    "gbps",
    "Config",
    "ConfigError",
    "percentile",
    "estimate_size",
    "size_cache_stats",
    "sizeof",
    "SizedPayload",
]
