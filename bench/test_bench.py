"""Tests of the benchmark itself (quick geometry; ``python -m pytest bench -q``)."""

from __future__ import annotations

import cProfile
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import layers  # noqa: E402
import metrics  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _git_status() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    return subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                          capture_output=True, text=True, check=True).stdout


@pytest.fixture(scope="module")
def payloads():
    """Two quick all-workloads runs of the same tree, untraced."""
    before = _git_status()
    out = []
    for tag in ("a", "b"):
        path = BENCH_DIR / "out" / f"test_{tag}.json"
        done = _run("--quick", "--repeats", "1", "--no-trace", "--out", str(path))
        assert done.returncode == 0, done.stderr
        out.append(json.loads(path.read_text()))
    return before, out


def test_manifest_matches_metric_table_and_contract():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert manifest == metrics.manifest(manifest["run_seconds"])
    assert 1 <= manifest["run_seconds"] <= 60
    assert 2 <= len(manifest["workloads"]) <= 8
    assert 1 <= len(manifest["end_to_end"]) <= 16
    assert 1 <= len(manifest["per_layer"]) <= 128
    names = [w["name"] for w in manifest["workloads"]]
    names += [m["name"] for m in manifest["end_to_end"] + manifest["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in manifest["end_to_end"] + manifest["per_layer"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in manifest["workloads"])
    assert all(0 <= m["bound"] <= 0.25 for m in manifest["end_to_end"])
    setup = [m for m in manifest["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in manifest["end_to_end"])}]


def test_every_repro_module_has_a_layer():
    src = ROOT / "src" / "repro"
    modules = {p.relative_to(src).with_suffix("").as_posix() for p in src.rglob("*.py")}
    unmapped = sorted(m for m in modules if layers.layer_of_module(m) is None)
    assert not unmapped, f"add these to bench/layers.py: {unmapped}"
    listed = {m for mods in layers.LAYER_MODULES.values() for m in mods}
    stale = sorted(m for m in listed
                   if not (m in modules or (m.endswith("/*") and (src / m[:-2]).is_dir())))
    assert not stale, f"bench/layers.py names modules that are gone: {stale}"


def test_fold_charges_builtins_to_the_calling_layer():
    sys.path.insert(0, str(ROOT / "src"))
    from repro.util.stats import percentile

    data = list(range(2000, 0, -1))
    profiler = cProfile.Profile()
    profiler.enable()
    for _ in range(50):
        percentile(data, 50)  # sorts: builtin time owed to obs.registry
    profiler.disable()
    table = layers.fold_profile(profiler, BENCH_DIR)
    total = sum(row["self_s"] for row in table.values())
    assert table["obs.registry"]["calls"] == 50
    assert table["obs.registry"]["self_s"] > 0.9 * total
    assert set(table) == set(layers.LAYERS)


def test_payload_schema_and_every_metric_reported(payloads):
    _before, (a, _b) = payloads
    assert a["schema"] == "repro-bench/1" and set(a["workloads"]) == set(metrics.WORKLOADS)
    for workload, entry in a["workloads"].items():
        assert set(entry["end_to_end"]) == {m.name for m in metrics.END_TO_END}, workload
        for name, stats in entry["end_to_end"].items():
            assert NAME.match(name) and stats["n"] >= 1
            assert stats["min"] <= stats["median"] <= stats["max"] and stats["median"] > 0
        assert entry["failed"] == 0 and entry["attempted"] >= 1
        assert entry["ops_failed_share"] == 0


def test_two_runs_agree_on_sim_metrics_and_counters(payloads):
    _before, (a, b) = payloads
    for workload in metrics.WORKLOADS:
        ea, eb = a["workloads"][workload], b["workloads"][workload]
        assert ea["end_to_end"]["sim_job_s"] == eb["end_to_end"]["sim_job_s"]
        assert ea["counters"] and ea["counters"] == eb["counters"], workload


def test_a_run_leaves_the_work_tree_alone(payloads):
    before, _ = payloads
    if before is None:
        pytest.skip("not a git checkout")
    assert _git_status() == before
    leftovers = [p.name for p in (BENCH_DIR / "out").iterdir() if p.name.startswith("tmp-")]
    assert not leftovers


def test_compare_lists_every_pairing(payloads):
    out = BENCH_DIR / "out"
    done = _run("--compare", str(out / "test_a.json"), str(out / "test_b.json"))
    assert done.returncode in (0, 1), done.stderr  # quick units are too short to hold a bound
    assert "differ" not in done.stdout
    rows = [line for line in done.stdout.splitlines()[1:] if line.strip()]
    assert len(rows) == len(metrics.WORKLOADS) * len(metrics.END_TO_END)


@pytest.mark.parametrize("workload", ["poll_scale_32w", "dataplane_local"])
def test_traced_pipeline_run_reports_the_layer_table(workload):
    done = _run("--workload", workload, "--seed", "1", "--trace", "1", "--quick")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m.name for m in metrics.PER_LAYER}
    value = {k: v["value"] for k, v in result["metrics"].items()}
    assert value["bench.profile_coverage"] > 0.9
    assert value["harness.runcache.hits"] == 0
    simulator = ("simnet.engine", "simnet.fluid", "simnet.net", "netty.loop",
                 "netty.pipeline", "mpi.matching", "mpi.runtime", "core")
    if workload == "dataplane_local":
        assert all(value[f"{layer}.self_s"] == 0 for layer in simulator)
        assert value["spark.dataplane.self_s"] > 0
    else:
        assert value["netty.loop.poll_rounds"] > 0 and value["mpi.matching.self_s"] > 0
    trace = json.loads((BENCH_DIR / "out" / f"trace_{workload}.json").read_text())
    assert {e["name"] for e in trace["traceEvents"]} >= {"setup", workload}


def test_untraced_pipeline_run_reports_end_to_end_only():
    done = _run("--workload", "ohb_blocks_8w", "--seed", "2", "--seconds", "0.2",
                "--trace", "0", "--quick")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result["metrics"]) == {m.name for m in metrics.END_TO_END}
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_the_program():
    bare = BENCH_DIR / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH_DIR, bare / "bench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        done = _run("--workload", "ohb_blocks_8w", "--seed", "0", "--seconds", "1",
                    "--trace", "0", cwd=bare)
        assert done.returncode != 0
        assert done.stdout.strip() == ""
    finally:
        shutil.rmtree(bare, ignore_errors=True)
