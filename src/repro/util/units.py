"""Byte/time unit constants and human-readable formatting.

Conventions used throughout the reproduction:

* Sizes are plain ``int``/``float`` **bytes**. Decimal units (``KB`` = 1e3)
  match how network line rates are quoted (100 Gb/s); binary units
  (``KiB`` = 1024) match how message sizes are quoted in the paper's
  ping-pong figure (4 KB ... 4 MB are powers of two there).
* Times are ``float`` **seconds**; ``US``/``MS`` are convenience multipliers
  so cost-model constants can be written as ``2 * US``.
"""

from __future__ import annotations

import re
from typing import Sequence

# --- byte units -----------------------------------------------------------
KB = 10**3
MB = 10**6
GB = 10**9
TB = 10**12

KiB = 1 << 10
MiB = 1 << 20
GiB = 1 << 30
TiB = 1 << 40

# --- time units (seconds) -------------------------------------------------
US = 1e-6
MS = 1e-3
SEC = 1.0


def gbps(rate: float) -> float:
    """Convert a line rate in gigabits/second to bytes/second.

    >>> gbps(100) == 12.5e9
    True
    """
    return rate * 1e9 / 8.0


_SUFFIXES = [
    ("TiB", TiB),
    ("GiB", GiB),
    ("MiB", MiB),
    ("KiB", KiB),
    ("TB", TB),
    ("GB", GB),
    ("MB", MB),
    ("KB", KB),
    ("B", 1),
]

_PARSE_RE = re.compile(
    r"^\s*(?P<num>\d+(?:\.\d+)?)\s*(?P<suffix>[KMGT]?i?B?)\s*$", re.IGNORECASE
)

_PARSE_SUFFIXES = {
    "": 1,
    "b": 1,
    "k": KiB,
    "kb": KiB,
    "kib": KiB,
    "m": MiB,
    "mb": MiB,
    "mib": MiB,
    "g": GiB,
    "gb": GiB,
    "gib": GiB,
    "t": TiB,
    "tb": TiB,
    "tib": TiB,
}


def parse_bytes(text: str | int | float) -> int:
    """Parse a Spark-style size string (``"48m"``, ``"120GB"``) into bytes.

    Spark interprets bare ``k``/``m``/``g`` suffixes as binary units, so we
    do too. Plain numbers pass through unchanged.
    """
    if isinstance(text, (int, float)):
        return int(text)
    m = _PARSE_RE.match(text)
    if not m:
        raise ValueError(f"cannot parse size: {text!r}")
    mult = _PARSE_SUFFIXES.get(m.group("suffix").lower())
    if mult is None:
        raise ValueError(f"unknown size suffix in {text!r}")
    return int(float(m.group("num")) * mult)


def fmt_bytes(n: float) -> str:
    """Render a byte count with a binary-unit suffix (``"4.0MiB"``)."""
    neg = n < 0
    n = abs(n)
    for suffix, mult in (("TiB", TiB), ("GiB", GiB), ("MiB", MiB), ("KiB", KiB)):
        if n >= mult:
            return f"{'-' if neg else ''}{n / mult:.1f}{suffix}"
    return f"{'-' if neg else ''}{n:.0f}B"


def fmt_time(seconds: float) -> str:
    """Render a duration at an appropriate scale (``"12.3us"``, ``"4.5s"``)."""
    neg = seconds < 0
    s = abs(seconds)
    if s >= 60.0:
        text = f"{s / 60.0:.1f}min"
    elif s >= 1.0:
        text = f"{s:.2f}s"
    elif s >= 1e-3:
        text = f"{s * 1e3:.2f}ms"
    elif s >= 1e-6:
        text = f"{s * 1e6:.2f}us"
    else:
        text = f"{s * 1e9:.1f}ns"
    return ("-" if neg else "") + text


def fmt_columns(cols: Sequence[str], rows: Sequence[Sequence[str]]) -> list[str]:
    """Header, rule and one line per row of a left-aligned text table.

    Columns are two spaces apart and as wide as their widest cell; every
    cell is padded, the last one included.
    """
    widths = [max([len(c)] + [len(r[i]) for r in rows]) for i, c in enumerate(cols)]
    lines = [
        "  ".join(c.ljust(w) for c, w in zip(cols, widths)),
        "  ".join("-" * w for w in widths),
    ]
    lines.extend("  ".join(v.ljust(w) for v, w in zip(r, widths)) for r in rows)
    return lines
