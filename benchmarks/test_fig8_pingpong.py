"""Fig 8 — Netty ping-pong latency on the internal cluster (IB-EDR).

Regenerates both curves (small and large message sizes) and checks their
shape. The paper's 4 MB speed-up and its band are a row of
``repro.harness.paper``, gated by ``benchmarks/test_paper_scorecard.py``.
"""

import pytest

from benchmarks.conftest import write_bench_json
from repro.harness.experiments import FIG8_LARGE_SIZES, FIG8_SMALL_SIZES, fig8_pingpong
from repro.harness.report import render_fig8
from repro.util.units import MiB


@pytest.fixture(scope="module")
def results():
    return fig8_pingpong(iterations=4)


class TestFig8Shape:
    def test_mpi_wins_at_every_size(self, results):
        nio, mpi = results["netty-nio"], results["netty-mpi"]
        for size in FIG8_SMALL_SIZES + FIG8_LARGE_SIZES:
            assert mpi.latency_s[size] < nio.latency_s[size]

    def test_speedup_grows_from_small_to_large(self, results):
        nio, mpi = results["netty-nio"], results["netty-mpi"]
        small = nio.latency_s[64] / mpi.latency_s[64]
        large = nio.latency_s[4 * MiB] / mpi.latency_s[4 * MiB]
        assert large > small

    def test_latencies_monotone_in_size(self, results):
        for curve in results.values():
            sizes = sorted(curve.latency_s)
            lats = [curve.latency_s[s] for s in sizes]
            assert lats == sorted(lats)


@pytest.mark.gate
def test_fig8_bench_json(results):
    print("\n" + render_fig8(results))
    path = write_bench_json(
        "fig8_pingpong",
        {
            "curves": {
                name: {str(size): lat for size, lat in sorted(curve.latency_s.items())}
                for name, curve in results.items()
            }
        },
    )
    assert path.exists()
