"""Unit tests for repro.util.units."""

from repro.util.units import (
    GB,
    GiB,
    KiB,
    MB,
    MiB,
    US,
    fmt_bytes,
    fmt_time,
    gbps,
)


class TestGbps:
    def test_100g_line_rate(self):
        assert gbps(100) == 12.5e9

    def test_zero(self):
        assert gbps(0) == 0.0


class TestFormatting:
    def test_fmt_bytes_scales(self):
        assert fmt_bytes(0) == "0B"
        assert fmt_bytes(4 * MiB) == "4.0MiB"
        assert fmt_bytes(3 * GiB) == "3.0GiB"
        assert fmt_bytes(-2 * KiB) == "-2.0KiB"

    def test_fmt_time_scales(self):
        assert fmt_time(2.5 * US) == "2.50us"
        assert fmt_time(0.015) == "15.00ms"
        assert fmt_time(3.0) == "3.00s"
        assert fmt_time(120.0) == "2.0min"
        assert fmt_time(5e-10) == "0.5ns"

    def test_fmt_time_negative(self):
        assert fmt_time(-1.5) == "-1.50s"

    def test_decimal_vs_binary_constants(self):
        assert MB == 10**6
        assert MiB == 1 << 20
        assert GB < GiB
