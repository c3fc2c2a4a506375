"""Fig 9 — MPI4Spark-Basic vs MPI4Spark-Optimized vs Vanilla Spark.

Paper: "MPI4Spark-Optimized performs better than the MPI4Spark-Basic
[because] constant polling in the selector thread was consuming CPU time
hence starving the actual compute tasks." GroupByTest and SortByTest at
28 GB / 112 cores and 56 GB / 224 cores on Frontera. The paper reports
no Fig-9 numbers, so ``repro.harness.paper`` has no Fig-9 row.
"""

import pytest

from benchmarks.conftest import OHB_FIDELITY, ohb_payload, write_bench_json
from repro.harness.report import render_ohb
from repro.obs import polling_tax_seconds
from repro.util.units import GiB
from repro.workloads.ohb import GROUP_BY, SORT_BY

# Every test in this file gates a paper claim in CI (pytest -m gate).
pytestmark = pytest.mark.gate


@pytest.fixture(scope="module")
def cells(jobs):
    from repro.harness.parallel import OhbSpec, run_cells
    from repro.harness.systems import FRONTERA

    specs = [
        OhbSpec(workload.name, n_workers, data, transport, OHB_FIDELITY, FRONTERA.name)
        for workload in (GROUP_BY, SORT_BY)
        for n_workers, data in ((2, 28 * GiB),)
        for transport in ("nio", "mpi-basic", "mpi-opt")
    ]
    return run_cells(specs, jobs)


class TestFig9Shape:
    def _by(self, cells, workload, transport):
        return next(
            c for c in cells if c.workload == workload and c.transport == transport
        )

    @pytest.mark.parametrize("workload", ["GroupByTest", "SortByTest"])
    def test_optimized_beats_basic(self, cells, workload):
        basic = self._by(cells, workload, "mpi-basic")
        opt = self._by(cells, workload, "mpi-opt")
        assert opt.total_seconds < basic.total_seconds

    @pytest.mark.parametrize("workload", ["GroupByTest", "SortByTest"])
    def test_basic_compute_stages_inflated_by_polling(self, cells, workload):
        # The polling tax shows up in the compute-heavy stages.
        basic = self._by(cells, workload, "mpi-basic")
        vanilla = self._by(cells, workload, "nio")
        assert (
            basic.result.stage_seconds["Job0-ResultStage"]
            > vanilla.result.stage_seconds["Job0-ResultStage"]
        )

    @pytest.mark.parametrize("workload", ["GroupByTest", "SortByTest"])
    def test_basic_shuffle_read_still_fast(self, cells, workload):
        # Basic's wire path is MPI: its shuffle read beats vanilla's even
        # though polling hurts everything else.
        basic = self._by(cells, workload, "mpi-basic")
        vanilla = self._by(cells, workload, "nio")
        assert (
            basic.result.shuffle_read_seconds()
            < vanilla.result.shuffle_read_seconds()
        )

    def test_every_cell_instruments_every_layer(self, cells):
        from repro.transports import transport_class

        for c in cells:
            layers = ["netty.loop.*", "simnet.link.*", "spark.scheduler.*", "transport.*"]
            if transport_class(c.transport).uses_mpi:
                layers.append("mpi.rank.*")
            missing = [p for p in layers if not c.result.metrics.names(p)]
            assert missing == [], c.transport

    @pytest.mark.parametrize("workload", ["GroupByTest", "SortByTest"])
    def test_measured_polling_tax_basic_vs_opt(self, cells, workload):
        # Sec VI-D made measurable: Basic's selectNow+MPI_Iprobe spin burns
        # real CPU seconds; Optimized parks in select and pays ~none.
        basic = polling_tax_seconds(self._by(cells, workload, "mpi-basic").result.metrics)
        opt = polling_tax_seconds(self._by(cells, workload, "mpi-opt").result.metrics)
        assert basic > 0.0
        assert basic >= 10.0 * opt


@pytest.fixture(scope="module")
def causal_cells(jobs):
    """The 2-worker GroupBy cells re-run with causal flight recording."""
    from repro.harness.parallel import OhbSpec, run_cells
    from repro.harness.systems import FRONTERA

    specs = [
        OhbSpec(GROUP_BY.name, 2, 28 * GiB, transport, OHB_FIDELITY, FRONTERA.name, True)
        for transport in ("nio", "mpi-basic", "mpi-opt")
    ]
    return run_cells(specs, jobs)


class TestFig9CriticalPath:
    """Sec VI-D as a causal claim: the poll tax sits on Basic's critical path."""

    def test_poll_tax_share_10x_basic_vs_opt(self, causal_cells):
        from repro.obs import critical_path

        share = {
            c.transport: critical_path(c.result).share("poll-tax")
            for c in causal_cells
        }
        assert share["mpi-basic"] > 0.0
        assert share["mpi-basic"] >= 10.0 * share["mpi-opt"]
        assert share["nio"] == 0.0  # no matching engine at all

    def test_flight_logs_complete(self, causal_cells):
        for c in causal_cells:
            flight = c.result.flight
            assert flight is not None and flight.dropped == 0
            assert flight.open_spans() == []

    def test_tracing_does_not_perturb_figure_rows(self, causal_cells, cells):
        # The zero-cost contract at benchmark scale: the traced cells
        # reproduce the untraced cells' rows exactly.
        untraced = {
            (c.workload, c.n_workers, c.transport): c
            for c in cells
        }
        for traced in causal_cells:
            base = untraced[(traced.workload, traced.n_workers, traced.transport)]
            assert traced.total_seconds == base.total_seconds
            assert dict(traced.result.stage_seconds) == dict(
                base.result.stage_seconds
            )


def test_fig9_rows_match_committed_goldens(cells):
    """With causal tracing off (the default), this PR must reproduce the
    committed figure rows bit-exactly — the observability side channel may
    not move a single simulated number."""
    import json
    import pathlib

    golden_path = (
        pathlib.Path(__file__).resolve().parent.parent
        / "results"
        / "BENCH_fig9_basic_vs_optimized.json"
    )
    golden = {
        (r["workload"], r["n_workers"], r["transport"]): r
        for r in json.loads(golden_path.read_text())["cells"]
    }
    assert golden
    for c in cells:
        row = golden[(c.workload, c.n_workers, c.transport)]
        assert c.total_seconds == row["total_seconds"]
        assert dict(c.result.stage_seconds) == row["stage_seconds"]


def test_fig9_bench_json(cells):
    print("\n" + render_ohb(cells, "Fig 9 — Basic vs Optimized vs Vanilla (Frontera)"))
    path = write_bench_json("fig9_basic_vs_optimized", ohb_payload(cells))
    import json

    payload = json.loads(path.read_text())
    assert payload["cells"] and all(
        row["total_seconds"] > 0 for row in payload["cells"]
    )
