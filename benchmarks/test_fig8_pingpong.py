"""Fig 8 — Netty ping-pong latency on the internal cluster (IB-EDR).

Paper: "Netty+MPI performs considerably better with speedups of up to 9x
for 4MB messages." This bench regenerates both curves (small and large
message sizes) and checks the headline ratio.
"""

import pytest

from benchmarks.conftest import write_bench_json
from repro.harness.experiments import FIG8_LARGE_SIZES, FIG8_SMALL_SIZES, fig8_pingpong
from repro.harness.report import render_fig8
from repro.util.units import MiB


@pytest.fixture(scope="module")
def results():
    return fig8_pingpong(iterations=4)


def test_fig8_curves(results):
    out = fig8_pingpong(iterations=2)
    print()
    print(render_fig8(results))
    assert set(out) == {"netty-nio", "netty-mpi"}
    # Headline shape (also checked test-by-test below): MPI wins at every
    # size and reaches the paper's ~9x at 4 MB.
    nio, mpi = results["netty-nio"], results["netty-mpi"]
    for size in FIG8_SMALL_SIZES + FIG8_LARGE_SIZES:
        assert mpi.latency_s[size] < nio.latency_s[size]
    ratio = nio.latency_s[4 * MiB] / mpi.latency_s[4 * MiB]
    assert 7.0 < ratio < 11.0, f"4MB speedup {ratio:.2f} outside paper band"


class TestFig8Shape:
    def test_mpi_wins_at_every_size(self, results):
        nio, mpi = results["netty-nio"], results["netty-mpi"]
        for size in FIG8_SMALL_SIZES + FIG8_LARGE_SIZES:
            assert mpi.latency_s[size] < nio.latency_s[size]

    def test_speedup_up_to_9x_at_4mb(self, results):
        nio, mpi = results["netty-nio"], results["netty-mpi"]
        ratio = nio.latency_s[4 * MiB] / mpi.latency_s[4 * MiB]
        assert 7.0 < ratio < 11.0, f"4MB speedup {ratio:.2f} outside paper band"

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


def test_fig8_bench_json(results):
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
