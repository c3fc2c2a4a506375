"""Differential run analysis on real recorded clusters.

The synthetic contracts live in ``tests/obs/test_diff.py``; here the
engine meets real fig9-geometry runs: self-diff identity on every
transport, the attribution sum identity on a genuine cross-transport
delta, poll-tax ranked top for basic-vs-opt (consistent with the >=10x
critical-path share gap ``test_fig9_basic_vs_opt`` asserts), structural
nodes when the cluster geometry changes under the workload, and the
blame reports of ``repro.harness.blame`` against the recordings
committed under ``baselines/``.
"""

import math
import pathlib

import pytest

from benchmarks.conftest import OHB_FIDELITY, write_bench_json
from repro.harness.blame import BLAME_TRANSPORTS, baseline_path, blame_report
from repro.obs import analyze, diff_runs
from repro.obs.critpath import SEGMENTS
from repro.obs.flightrec import FlightRecorder
from repro.util.units import GiB

# Every test in this file gates a paper claim in CI (pytest -m gate).
pytestmark = pytest.mark.gate

BASELINES = pathlib.Path(__file__).resolve().parent.parent / "baselines"

TRANSPORTS = ("nio", "rdma", "mpi-basic", "mpi-opt")


def causal_spec(transport, n_workers=2, data=28 * GiB):
    from repro.harness.parallel import OhbSpec
    from repro.harness.systems import FRONTERA

    return OhbSpec("GroupByTest", n_workers, data, transport, OHB_FIDELITY,
                   FRONTERA.name, True)


@pytest.fixture(scope="module")
def runs(jobs):
    """Causal fig9-cell RunResults, one per transport, plus a 4w cell."""
    from repro.harness.parallel import run_cells

    specs = [causal_spec(t) for t in TRANSPORTS]
    specs.append(causal_spec("mpi-opt", n_workers=4))
    cells = run_cells(specs, jobs)
    by_key = {spec.transport: cell.result for spec, cell in zip(specs[:-1], cells)}
    by_key["mpi-opt-4w"] = cells[-1].result
    return by_key


class TestSelfDiffIdentity:
    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_every_transport_self_diffs_to_exact_zero(self, runs, transport):
        result = runs[transport]
        diff = diff_runs(result, result)
        assert diff.is_identity(), diff.render()
        assert diff.wall_delta_s == 0.0
        assert diff.structural == []
        assert all(diff.segment_delta(seg) == 0.0 for seg in SEGMENTS)
        diff.check()

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_jsonl_round_trip_preserves_identity(self, runs, transport, tmp_path):
        # a committed baseline (write → gzip → load) diffs its own live
        # run to zero — the contract the blame reports stand on
        from repro.obs.flightrec import FlightRecorder

        result = runs[transport]
        path = result.flight.write(str(tmp_path / f"{transport}.jsonl.gz"))
        diff = diff_runs(FlightRecorder.load_jsonl(path), result)
        assert diff.is_identity(), diff.render()


class TestBasicVsOpt:
    def test_attributions_sum_to_measured_delta(self, runs):
        diff = diff_runs(runs["mpi-opt"], runs["mpi-basic"],
                         a_label="mpi-opt", b_label="mpi-basic")
        diff.check()  # the sum identity, to float precision
        total = math.fsum(d for _, _, d in diff.contributions())
        assert total == pytest.approx(diff.wall_delta_s, abs=1e-9)
        # stage walls are real: the measured delta matches the
        # RunResult-level slowdown fig9 asserts
        assert diff.wall_delta_s == pytest.approx(
            runs["mpi-basic"].total_seconds - runs["mpi-opt"].total_seconds,
            rel=1e-6,
        )

    def test_poll_tax_is_the_top_contributor(self, runs):
        diff = diff_runs(runs["mpi-opt"], runs["mpi-basic"],
                         a_label="mpi-opt", b_label="mpi-basic")
        assert diff.wall_delta_s > 0  # basic is slower
        assert diff.top_contributor() == "poll-tax", diff.render()
        # and it explains at least half the gap
        share = diff.segment_delta("poll-tax") / diff.wall_delta_s
        assert share >= 0.5, diff.render()

    def test_blame_consistent_with_critpath_share_gap(self, runs):
        # test_fig9_basic_vs_opt asserts basic's critical-path poll-tax
        # share is >=10x opt's; the diff must tell the same story in
        # absolute seconds, with the inflation re-split on both sides.
        basic_cp = analyze(runs["mpi-basic"].flight, "mpi-basic")
        opt_cp = analyze(runs["mpi-opt"].flight, "mpi-opt")
        assert basic_cp.share("poll-tax") >= 10 * opt_cp.share("poll-tax")
        diff = diff_runs(runs["mpi-opt"], runs["mpi-basic"])
        assert diff.segment_delta("poll-tax") > 0
        assert diff.segment_delta("poll-tax") >= 10 * abs(
            diff.segment_delta("wire")
        )

    def test_writes_diff_summary_artifact(self, runs):
        diff = diff_runs(runs["mpi-opt"], runs["mpi-basic"],
                         a_label="mpi-opt", b_label="mpi-basic")
        path = write_bench_json("diff_basic_vs_opt", diff.as_dict())
        assert path.exists()


class TestGeometryChange:
    def test_worker_count_change_yields_structural_nodes(self, runs):
        diff = diff_runs(runs["mpi-opt"], runs["mpi-opt-4w"],
                         a_label="2w", b_label="4w")
        diff.check()  # identity must hold across geometry too
        assert diff.meta_mismatches()["n_workers"] == (2, 4)
        # same stage labels, different task packing: every aligned stage
        # carries a task-count annotation, none of which charges time
        kinds = {n.kind for s in diff.stages for n in s.nodes}
        assert "task-count" in kinds
        assert all(
            n.delta_s == 0.0
            for s in diff.stages
            for n in s.nodes
        )
        assert not diff.is_identity()

    def test_doubling_workers_speeds_up_the_run(self, runs):
        diff = diff_runs(runs["mpi-opt"], runs["mpi-opt-4w"])
        assert diff.wall_delta_s < 0


class TestBlameBaselines:
    """The proxy cell re-recorded on this tree against ``baselines/``."""

    @pytest.mark.parametrize("transport", BLAME_TRANSPORTS)
    def test_committed_baseline_self_diffs_to_zero(self, transport, tmp_path):
        diff, _ = blame_report(transport, out_dir=tmp_path, baseline_dir=BASELINES)
        assert diff.is_identity(), diff.render()

    def test_poll_tax_carries_the_committed_basic_vs_opt_gap(self):
        # The proxy cell's Sec VI-D story, read off the committed
        # recordings (which the self-diffs above pin to this tree).
        opt, basic = (
            FlightRecorder.load_jsonl(str(baseline_path(t, BASELINES)))
            for t in ("mpi-opt", "mpi-basic")
        )
        diff = diff_runs(opt, basic, a_label="mpi-opt", b_label="mpi-basic")
        assert diff.wall_delta_s > 0
        assert diff.segment_delta("poll-tax") >= 0.5 * diff.wall_delta_s, diff.render()

    @pytest.mark.parametrize(
        ("transport", "segment", "factor"),
        [("mpi-opt", "serialize", 4.0), ("mpi-basic", "poll-tax", 2.0)],
    )
    def test_injected_regression_is_blamed_on_its_segment(
        self, transport, segment, factor, tmp_path
    ):
        diff, _ = blame_report(
            transport, out_dir=tmp_path, baseline_dir=BASELINES,
            inject=(segment, factor),
        )
        assert diff.top_contributor() == segment, diff.render()
        assert diff.wall_delta_s > 0
