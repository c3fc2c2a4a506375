"""Every file committed under ``results/`` and ``baselines/`` has a writer.

The committed files are the payloads CI's gates job regenerates and then
requires byte-identical, so one that nothing regenerates is checked by
nothing: every ``results/`` writer carries the ``gate`` marker that job
selects on. The writer list lives here, beside the ``.gitignore`` policy it
enforces: a tracked file missing from it fails, and so does a listed file
that is no longer tracked or whose writer no longer names it.
"""

import ast
import subprocess
from pathlib import Path

import pytest

from repro.harness.blame import BLAME_TRANSPORTS, baseline_path

ROOT = Path(__file__).resolve().parent.parent

# results/BENCH_<figure>.json -> the benchmark node that writes it with
# write_bench_json("<figure>", ...).
BENCH_WRITERS = {
    "fig8_pingpong": "benchmarks/test_fig8_pingpong.py::test_fig8_bench_json",
    "fig9_basic_vs_optimized": "benchmarks/test_fig9_basic_vs_opt.py::test_fig9_bench_json",
    "fig9_opt_vs_coll": "benchmarks/test_fig9_opt_vs_coll.py::test_bench_json",
    "fig10_weak_scaling": "benchmarks/test_fig10_weak_scaling.py::test_fig10_bench_json",
    "fig11_strong_scaling": "benchmarks/test_fig11_strong_scaling.py::test_fig11_bench_json",
    "fig12_hibench": "benchmarks/test_fig12_hibench.py::test_fig12_bench_json",
    "jobserver": "benchmarks/test_jobserver.py::test_jobserver_bench_json",
    "paper": "benchmarks/test_paper_scorecard.py::test_paper_bench_json",
    "whatif": "benchmarks/test_whatif.py::test_whatif_bench_json",
}

# The blame baselines are written by `examples/run_diff.py
# --record-baselines`, through this function, at the paths baseline_path
# gives for each of BLAME_TRANSPORTS.
BASELINE_WRITER = "src/repro/harness/blame.py::record_blame_baselines"


def _tracked() -> set[str]:
    try:
        out = subprocess.run(
            ["git", "ls-files", "results", "baselines"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        ).stdout
    except (OSError, subprocess.CalledProcessError):
        pytest.skip("not a git checkout")
    return set(out.split())


def _function(node: str) -> ast.FunctionDef:
    path, name = node.split("::")
    for fn in ast.walk(ast.parse((ROOT / path).read_text())):
        if isinstance(fn, ast.FunctionDef) and fn.name == name:
            return fn
    raise AssertionError(f"{node}: no such function")


def _calls(fn: ast.FunctionDef, callee: str) -> list[ast.Call]:
    return [
        c for c in ast.walk(fn)
        if isinstance(c, ast.Call) and getattr(c.func, "id", None) == callee
    ]


def test_every_tracked_result_has_a_writer():
    listed = {f"results/BENCH_{figure}.json" for figure in BENCH_WRITERS}
    listed |= {baseline_path(t).as_posix() for t in BLAME_TRANSPORTS}
    tracked = _tracked()
    assert sorted(tracked - listed) == [], "tracked with no writer"
    assert sorted(listed - tracked) == [], "listed but not tracked"


@pytest.mark.parametrize("figure", sorted(BENCH_WRITERS))
def test_bench_writer_names_its_payload(figure):
    calls = _calls(_function(BENCH_WRITERS[figure]), "write_bench_json")
    assert [ast.literal_eval(c.args[0]) for c in calls] == [figure]


def _gate_marked(node: str) -> bool:
    """The node carries the ``gate`` marker: as a decorator, or through
    its module's ``pytestmark``."""
    path = node.split("::")[0]
    marks = [ast.unparse(d) for d in _function(node).decorator_list]
    for stmt in ast.parse((ROOT / path).read_text()).body:
        if isinstance(stmt, ast.Assign) and any(
            getattr(t, "id", None) == "pytestmark" for t in stmt.targets
        ):
            marks.append(ast.unparse(stmt.value))
    return any("pytest.mark.gate" in mark for mark in marks)


@pytest.mark.parametrize("figure", sorted(BENCH_WRITERS))
def test_bench_writer_runs_in_the_gates_job(figure):
    # CI's gates job runs `-m gate` and then requires results/ unchanged:
    # a writer without the marker is never regenerated there, so its
    # payload is checked by nothing.
    assert _gate_marked(BENCH_WRITERS[figure])


def test_baseline_writer_names_its_recordings():
    assert _calls(_function(BASELINE_WRITER), "baseline_path")
    assert "record_blame_baselines(" in (ROOT / "examples/run_diff.py").read_text()
