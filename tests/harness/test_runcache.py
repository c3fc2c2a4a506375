"""Full-run result cache: correctness of the two-tier store.

Like the sample-trace cache, the run cache is an accelerator, never a
correctness dependency: everything here asserts that cell results are
identical with the cache cold, warm (memo and disk), disabled, corrupted,
keyed by a stale code fingerprint, or shared across worker processes.
"""

from __future__ import annotations

import dataclasses
import pickle
import time

import pytest

from repro.harness import runcache
from repro.harness.parallel import OhbSpec, run_cell, run_cells
from repro.harness.runcache import (
    RUN_SCHEMA,
    cache_dir,
    cache_enabled,
    code_fingerprint,
    get_or_run,
    run_key,
)
from repro.simnet.interconnect import DEFAULT_COST, CostModel
from repro.util.units import GiB

SPEC = OhbSpec("GroupByTest", 2, 1 * GiB, "nio", 0.05, "Frontera")


@pytest.fixture(autouse=True)
def cold_env(monkeypatch):
    """The shared tests/conftest fixture already isolates the store; also
    guarantee the enable flag is unset so cache_enabled() is the default."""
    monkeypatch.delenv("REPRO_RUN_CACHE", raising=False)


def _canon(cell):
    return (
        cell.workload,
        cell.n_workers,
        cell.transport,
        repr(cell.result.total_seconds),
        repr(sorted(cell.result.stage_seconds.items())),
    )


def _entry_paths():
    return sorted(cache_dir().glob("*.pkl"))


class TestEnableSwitch:
    def test_enabled_by_default(self):
        assert cache_enabled()

    def test_disable_via_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_RUN_CACHE", "0")
        assert not cache_enabled()
        calls = []
        out = get_or_run(("fake",), lambda: calls.append(1) or "x")
        assert out == "x" and calls == [1]
        get_or_run(("fake",), lambda: calls.append(1) or "x")
        assert calls == [1, 1]  # every call re-runs
        assert not _entry_paths()


class TestKeying:
    def test_key_is_deterministic_and_spec_sensitive(self):
        k1 = run_key(SPEC)
        assert k1 == run_key(OhbSpec(*SPEC))
        assert k1 != run_key(tuple(SPEC))  # the spec's type is in the key
        assert k1 != run_key(SPEC._replace(system="Stampede2"))

    def test_key_covers_every_cost_model_field(self):
        # Cells run under models that differ in any one field must never
        # share an address.
        keys = {run_key(SPEC)}
        assert run_key(SPEC._replace(cost=CostModel())) in keys
        for f in dataclasses.fields(CostModel):
            cost = dataclasses.replace(
                DEFAULT_COST, **{f.name: getattr(DEFAULT_COST, f.name) * 2}
            )
            keys.add(run_key(SPEC._replace(cost=cost)))
        assert len(keys) == 1 + len(dataclasses.fields(CostModel))

    @pytest.mark.parametrize(
        ("transport", "field", "value"),
        [("nio", "max_bytes_in_flight", 4 << 20),
         ("mpi-opt", "rendezvous_threshold", 4 << 20)],
    )
    def test_cell_under_changed_model_is_simulated_not_served(
        self, transport, field, value
    ):
        # The fetch window and the rendezvous threshold once stayed out of
        # the key: a cell run under a changed one was served the default
        # model's entry.
        spec = SPEC._replace(transport=transport)
        changed = spec._replace(cost=dataclasses.replace(DEFAULT_COST, **{field: value}))
        assert run_key(changed) != run_key(spec)
        run_cell(spec)
        before = runcache.run_cache_stats()["cell_runs"]
        run_cell(changed)
        assert runcache.run_cache_stats()["cell_runs"] == before + 1
        run_cell(changed)
        assert runcache.run_cache_stats()["cell_runs"] == before + 1

    def test_key_covers_code_fingerprint(self, monkeypatch):
        k1 = run_key(SPEC)
        monkeypatch.setattr(runcache, "_FINGERPRINT", "0" * 64)
        assert run_key(SPEC) != k1

    def test_fingerprint_tracks_source_edits(self, tmp_path, monkeypatch):
        (tmp_path / "a.py").write_text("x = 1\n")
        monkeypatch.setattr(runcache, "_source_root", lambda: tmp_path)
        monkeypatch.setattr(runcache, "_FINGERPRINT", None)
        f1 = code_fingerprint()
        runcache._FINGERPRINT = None
        assert code_fingerprint() == f1  # stable while sources are
        (tmp_path / "a.py").write_text("x = 2\n")
        runcache._FINGERPRINT = None
        f2 = code_fingerprint()
        assert f2 != f1


class TestTiers:
    def test_memo_then_disk_then_run(self):
        calls = []

        def runner():
            calls.append(1)
            return {"rows": [1, 2, 3]}

        r1 = get_or_run(("tiers",), runner)
        assert calls == [1]
        # Memo hit: no new execution, equal value, never the same object.
        r2 = get_or_run(("tiers",), runner)
        assert calls == [1] and r2 == r1 and r2 is not r1
        # Disk hit after a memo wipe (a fresh worker process).
        runcache.clear_memory_cache()
        r3 = get_or_run(("tiers",), runner)
        assert calls == [1] and r3 == r1
        assert len(_entry_paths()) == 1

    def test_stats_account_hits_and_misses(self):
        base = runcache.run_cache_stats()
        get_or_run(("stats",), lambda: "v")
        get_or_run(("stats",), lambda: "v")
        runcache.clear_memory_cache()
        get_or_run(("stats",), lambda: "v")
        stats = runcache.run_cache_stats()
        assert stats["misses"] == base["misses"] + 1
        assert stats["cell_runs"] == base["cell_runs"] + 1
        assert stats["hits_mem"] == base["hits_mem"] + 1
        assert stats["hits_disk"] == base["hits_disk"] + 1

    def test_unpicklable_result_runs_uncached(self):
        calls = []

        def runner():
            calls.append(1)
            return lambda: None  # locals don't pickle

        base_errors = runcache.run_cache_stats()["errors"]
        out = get_or_run(("unpicklable",), runner)
        assert callable(out) and calls == [1]
        assert runcache.run_cache_stats()["errors"] == base_errors + 1
        assert not _entry_paths()
        # Next call runs again — nothing was cached.
        get_or_run(("unpicklable",), runner)
        assert calls == [1, 1]


class TestCellRows:
    def test_cold_warm_disabled_rows_identical(self, monkeypatch):
        cold = [_canon(c) for c in run_cells([SPEC], jobs=1)]
        assert len(_entry_paths()) == 1
        # Warm memo.
        memo = [_canon(c) for c in run_cells([SPEC], jobs=1)]
        # Warm disk (fresh-process shape: cold memo, surviving store).
        runcache.clear_memory_cache()
        disk = [_canon(c) for c in run_cells([SPEC], jobs=1)]
        # Disabled: a genuine re-simulation.
        monkeypatch.setenv("REPRO_RUN_CACHE", "0")
        off = [_canon(c) for c in run_cells([SPEC], jobs=1)]
        assert cold == memo == disk == off

    def test_warm_hit_skips_simulation(self):
        run_cells([SPEC], jobs=1)
        base = runcache.run_cache_stats()["cell_runs"]
        runcache.clear_memory_cache()
        run_cells([SPEC], jobs=1)
        assert runcache.run_cache_stats()["cell_runs"] == base

    @pytest.mark.gate
    def test_knob_twin_is_its_own_entry_and_warm_tiers_are_fast(self):
        # A fig9 cell and its 2x-NIC what-if twin: the knob is part of the
        # key, so the pair costs exactly two simulations across the cold,
        # memo and disk tiers, and a warm hit (one unpickle) replays the
        # cold rows at least 5x faster than simulating them.
        plain = OhbSpec("GroupByTest", 2, 28 * GiB, "mpi-basic", 0.25, "Frontera")
        specs = (plain, plain._replace(link_rate=2.0))
        base = runcache.run_cache_stats()["cell_runs"]

        def tier():
            cells, walls = [], []
            for spec in specs:
                t0 = time.perf_counter()
                cells.append(run_cell(spec))
                walls.append(time.perf_counter() - t0)
            return cells, walls

        cold, cold_s = tier()
        memo, memo_s = tier()
        runcache.clear_memory_cache()
        disk, disk_s = tier()
        assert runcache.run_cache_stats()["cell_runs"] == base + 2
        assert cold[0].total_seconds != cold[1].total_seconds
        for warm, warm_s in ((memo, memo_s), (disk, disk_s)):
            assert [_canon(c) for c in warm] == [_canon(c) for c in cold]
            assert all(c >= 5 * w for c, w in zip(cold_s, warm_s)), (cold_s, warm_s)

    def test_pool_workers_share_parent_seeded_store(self):
        specs = [SPEC, OhbSpec("SortByTest", 2, 1 * GiB, "mpi-opt", 0.05, "Frontera")]
        serial = [_canon(c) for c in run_cells(specs, jobs=1)]
        assert len(_entry_paths()) == 2
        fanned = [_canon(c) for c in run_cells(specs, jobs=4)]
        assert serial == fanned


class TestCorruption:
    def _prime(self):
        calls = []

        def runner():
            calls.append(1)
            return {"payload": 42}

        get_or_run(("corrupt",), runner)
        runcache.clear_memory_cache()
        return calls, runner

    def test_truncated_entry_recomputes_and_rewrites(self):
        calls, runner = self._prime()
        (path,) = _entry_paths()
        path.write_bytes(path.read_bytes()[: len(path.read_bytes()) // 3])
        base_err = runcache.run_cache_stats()["errors"]
        out = get_or_run(("corrupt",), runner)
        assert out == {"payload": 42} and calls == [1, 1]
        assert runcache.run_cache_stats()["errors"] == base_err + 1
        # The entry was rewritten: a fresh cold process now hits disk.
        runcache.clear_memory_cache()
        get_or_run(("corrupt",), runner)
        assert calls == [1, 1]

    def test_garbage_bytes_recompute(self):
        calls, runner = self._prime()
        (path,) = _entry_paths()
        path.write_bytes(b"not a pickle at all")
        out = get_or_run(("corrupt",), runner)
        assert out == {"payload": 42} and calls == [1, 1]

    def test_miskeyed_entry_recomputes(self):
        # An entry whose recorded key disagrees with its address (e.g. a
        # hand-copied file) must be treated as a miss, not trusted.
        calls, runner = self._prime()
        (path,) = _entry_paths()
        payload = {
            "schema": RUN_SCHEMA,
            "key": "0" * 64,
            "result": pickle.dumps({"payload": 42}),
        }
        path.write_bytes(pickle.dumps(payload))
        out = get_or_run(("corrupt",), runner)
        assert out == {"payload": 42} and calls == [1, 1]

    def test_wrong_schema_recomputes(self):
        calls, runner = self._prime()
        (path,) = _entry_paths()
        blob = path.read_bytes()
        payload = pickle.loads(blob)
        payload["schema"] = "run-result/0"
        path.write_bytes(pickle.dumps(payload))
        out = get_or_run(("corrupt",), runner)
        assert out == {"payload": 42} and calls == [1, 1]

    def test_stale_code_fingerprint_entry_is_unreachable(self, monkeypatch):
        # Content addressing makes stale entries unreachable rather than
        # detected: after a source change the old entry's address simply
        # never comes up again, and the fresh run writes a new entry.
        calls, runner = self._prime()
        assert len(_entry_paths()) == 1
        monkeypatch.setattr(runcache, "_FINGERPRINT", "f" * 64)
        out = get_or_run(("corrupt",), runner)
        assert out == {"payload": 42} and calls == [1, 1]
        assert len(_entry_paths()) == 2  # old entry intact, new one added
