"""What-if replay validation — predictions vs ground-truth re-simulations.

The capacity planner (:mod:`repro.obs.whatif`) is only useful if its
analytic re-timings track what the simulator would actually do with the
knob changed.  This suite is the empirical gate: every fig9 and fig10
cell is recorded once with causal tracing, re-timed under three
perturbation kinds (link rate, poll tax, serializer cost), and compared
against a real re-simulation of the same cell with the knob applied.

Gates: the unperturbed replay must reproduce each recorded wall
*exactly*, and every prediction must agree with its re-simulation within
±10% relative error.  ``results/BENCH_whatif.json`` records the
per-cell predicted / simulated / error rows.
"""

import json
import pathlib

import pytest

from benchmarks.conftest import FULL, OHB_FIDELITY, OHB_WORKERS, write_bench_json

GOLDEN = (
    pathlib.Path(__file__).resolve().parent.parent / "results" / "BENCH_whatif.json"
)


@pytest.fixture(scope="module")
def payload(jobs):
    """The full fig9 ∪ fig10 validation matrix (one run per module)."""
    from repro.harness.whatif import validate_matrix, whatif_cells

    return validate_matrix(
        cells=whatif_cells(OHB_WORKERS), fidelity=OHB_FIDELITY, jobs=jobs
    )


@pytest.mark.gate
def test_whatif_smoke(jobs):
    """CI gate: the fig9 GroupBy cells, validated, in under a minute.

    Independent of the full-matrix fixture so ``-k smoke`` stays cheap:
    records the 2-worker GroupBy cells under mpi-basic and nio, replays
    2x NIC / zero poll-tax / 2x serializer, and checks each prediction
    against the re-simulated truth.
    """
    from repro.harness.whatif import validate_matrix, whatif_cells

    cells = [
        c
        for c in whatif_cells(OHB_WORKERS)
        if c["workload"] == "GroupByTest"
        and c["n_workers"] == min(OHB_WORKERS)
        and c["transport"] in ("mpi-basic", "nio")
    ]
    assert len(cells) == 2
    smoke = validate_matrix(cells=cells, fidelity=OHB_FIDELITY, jobs=jobs)
    assert smoke["summary"]["identity_all_exact"]
    assert smoke["summary"]["all_within_tolerance"]
    write_bench_json("whatif_smoke", smoke)


class TestWhatifMatrix:
    def test_covers_fig9_and_fig10(self, payload):
        # fig9: 2 workloads x 2 scales x 3 transports; fig10: 2 workloads
        # x len(OHB_WORKERS) x 3 transports; overlapping cells are tagged
        # with both figures and simulated once.
        fig9 = [c for c in payload["cells"] if "fig9" in c["figures"]]
        fig10 = [c for c in payload["cells"] if "fig10" in c["figures"]]
        assert len(fig9) == 12
        assert len(fig10) == 2 * len(OHB_WORKERS) * 3
        assert {c["transport"] for c in fig9} == {"nio", "mpi-basic", "mpi-opt"}
        assert {c["transport"] for c in fig10} == {"nio", "rdma", "mpi-opt"}

    def test_three_perturbation_kinds(self, payload):
        names = {p["name"] for p in payload["perturbations"]}
        assert names == {"2x NIC", "zero poll-tax", "2x serializer"}
        for cell in payload["cells"]:
            assert {r["perturbation"] for r in cell["rows"]} == names

    def test_identity_replay_exact_everywhere(self, payload):
        # The engine's self-test: with no knobs changed, the replay must
        # reproduce each recorded wall bit-exactly, not approximately.
        for cell in payload["cells"]:
            assert cell["identity_exact"], (
                f"{cell['workload']}/{cell['n_workers']}w/{cell['transport']}: "
                f"identity replay {cell['identity_replay_s']!r} != recorded "
                f"{cell['recorded_s']!r}"
            )

    def test_predictions_within_tolerance(self, payload):
        tol = payload["tolerance"]
        for cell in payload["cells"]:
            for row in cell["rows"]:
                assert abs(row["error"]) <= tol, (
                    f"{cell['workload']}/{cell['n_workers']}w/"
                    f"{cell['transport']} under {row['perturbation']}: "
                    f"predicted {row['predicted_s']:.4f}s vs simulated "
                    f"{row['simulated_s']:.4f}s ({row['error']:+.2%})"
                )

    def test_poll_tax_knob_honest_for_basic(self, payload):
        # Attribution vs sensitivity (DESIGN.md §14): Basic's dwell is
        # recv-posting backpressure, so zeroing the poll tax moves the
        # simulated wall by (almost) nothing — and the replay model must
        # *predict* that near-zero sensitivity, not the critical-path
        # attribution share.
        for cell in payload["cells"]:
            if cell["transport"] != "mpi-basic":
                continue
            row = next(
                r for r in cell["rows"] if r["perturbation"] == "zero poll-tax"
            )
            assert row["simulated_speedup"] < 1.02
            assert row["predicted_speedup"] < 1.02


@pytest.mark.skipif(FULL, reason="goldens are recorded at reduced geometry")
def test_whatif_rows_match_committed_goldens(payload):
    """Re-running the matrix must reproduce the committed rows bit-exactly
    (both the replayed predictions and the re-simulated truths are pure
    functions of the cell spec)."""
    golden = json.loads(GOLDEN.read_text())
    by_key = {
        (c["workload"], c["n_workers"], c["transport"]): c for c in golden["cells"]
    }
    assert by_key
    for cell in payload["cells"]:
        g = by_key[(cell["workload"], cell["n_workers"], cell["transport"])]
        assert cell["recorded_s"] == g["recorded_s"]
        rows = {r["perturbation"]: r for r in g["rows"]}
        for row in cell["rows"]:
            assert row["predicted_s"] == rows[row["perturbation"]]["predicted_s"]
            assert row["simulated_s"] == rows[row["perturbation"]]["simulated_s"]


def test_whatif_bench_json(payload):
    path = write_bench_json("whatif", payload)
    out = json.loads(path.read_text())
    assert out["summary"]["all_within_tolerance"]
    assert out["summary"]["identity_all_exact"]
    assert out["summary"]["n_rows"] == sum(len(c["rows"]) for c in out["cells"])
    assert all(
        row["predicted_s"] > 0 and row["simulated_s"] > 0
        for cell in out["cells"]
        for row in cell["rows"]
    )
