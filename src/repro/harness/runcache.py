"""Two-tier full-run result cache: simulate a cell once, replay many.

This is the harness's one persistent store, and the policy is by cost: a
simulated cell (seconds of host time) is worth keeping across processes
and goes through :func:`get_or_run` (from ``parallel.run_cell``); a
sample trace (milliseconds) is memoised per process by
:mod:`repro.harness.tracecache` and nothing else; host seconds are never
part of a cached or committed result.
Every cell result is a pure function of its spec — that is the parallel
harness's founding invariant — so a cell's result is cached in

* an **in-process memo** (dict) — free hits within one process;
* a **content-addressed disk store** under ``results/.runcache/`` —
  shared across the ``ProcessPoolExecutor`` workers of
  :mod:`repro.harness.parallel` and across repeated CI runs.

The key is a sha256 over a canonical textual repr of (schema, the cell
spec, a code-version fingerprint of ``src/repro``, and the Python minor
version). A spec is a ``NamedTuple`` of :mod:`repro.harness.parallel`,
so its repr holds its type name and every field, the
:class:`~repro.simnet.interconnect.CostModel` the cell runs under
included. The code fingerprint — a sha256 over the sorted (path,
content-hash) pairs of every ``repro`` source file — means *any* source
edit invalidates every entry cleanly: stale entries are never read
because the address they were stored under no longer matches anything
the code asks for. The cost model covers the other direction: a cell run
under a changed model (a what-if knob, blame's ``inject``, an ablation)
in an unchanged source tree gets its own address, so it can neither
poison nor read the default model's entries.

Both tiers store the *pickled* result blob and every hit unpickles it
afresh, so a cached cell is byte-identical to a recomputed one and no two
callers ever alias the same mutable result object.

Corrupted or stale entries (truncated pickle, garbage bytes, an entry
whose recorded key disagrees with its filename) are treated as misses:
the cell re-simulates and the entry is rewritten. Disk writes are atomic
(tmp file + ``os.replace``) so concurrent workers never observe a
half-written entry.

Set ``REPRO_RUN_CACHE=0`` to disable both tiers (every call re-simulates
the cell); ``REPRO_RUN_CACHE_DIR`` overrides the store location.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import sys
import tempfile
from pathlib import Path
from typing import Any, Callable

RUN_SCHEMA = "run-result/1"

# In-process memo: key -> pickled result blob (never the live object).
_MEMO: dict[str, bytes] = {}

# Process-lifetime stats. Callers that attribute traffic to one run (the
# obs snapshot hook in ``spark.deploy``) snapshot a baseline and publish
# deltas, mirroring the trace-memo pattern.
_STATS = {
    "hits_mem": 0,
    "hits_disk": 0,
    "misses": 0,
    "cell_runs": 0,
    "bytes_read": 0,
    "bytes_written": 0,
    "errors": 0,
}

# Cached code fingerprint; recomputed per process.
_FINGERPRINT: str | None = None


def run_cache_stats() -> dict[str, int]:
    """Process-lifetime cache stats (copy; safe to mutate)."""
    return dict(_STATS)


def cache_enabled() -> bool:
    """Both tiers are on unless ``REPRO_RUN_CACHE=0``."""
    return os.environ.get("REPRO_RUN_CACHE", "1") != "0"


def cache_dir() -> Path:
    """On-disk store location (``REPRO_RUN_CACHE_DIR`` overrides)."""
    override = os.environ.get("REPRO_RUN_CACHE_DIR")
    if override:
        return Path(override)
    return Path("results") / ".runcache"


def _source_root() -> Path:
    """The ``repro`` package directory whose sources key the cache."""
    return Path(__file__).resolve().parent.parent


def code_fingerprint() -> str:
    """sha256 over the sorted (relpath, content-sha) of ``src/repro``.

    Computed once per process: any edit to any repro source file changes
    the fingerprint and therefore every cache address. This is what lets
    the cache default to *on* — a stale entry is unreachable by
    construction rather than detected after the fact.
    """
    global _FINGERPRINT
    if _FINGERPRINT is None:
        root = _source_root()
        h = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            rel = path.relative_to(root).as_posix()
            h.update(rel.encode("utf-8"))
            h.update(b"\x00")
            h.update(hashlib.sha256(path.read_bytes()).digest())
        _FINGERPRINT = h.hexdigest()
    return _FINGERPRINT


def run_key(spec: tuple) -> str:
    """Content hash addressing one (spec, code-version) cell result.

    Canonical-repr hashing, not ``hash()``: PYTHONHASHSEED salts the
    builtin hash per process, and the whole point of the disk tier is
    that different processes agree on the address.
    """
    material = repr(
        (
            RUN_SCHEMA,
            spec,
            code_fingerprint(),
            f"py{sys.version_info.major}.{sys.version_info.minor}",
        )
    )
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


def _entry_path(key: str) -> Path:
    return cache_dir() / f"{key}.pkl"


def _load_disk(key: str) -> bytes | None:
    """Read one disk entry's result blob; any defect (missing, truncated,
    garbage, wrong recorded key) is a miss, never an error for the caller."""
    path = _entry_path(key)
    try:
        blob = path.read_bytes()
    except OSError:
        return None
    try:
        payload = pickle.loads(blob)
        if payload["schema"] != RUN_SCHEMA or payload["key"] != key:
            raise ValueError("stale or mismatched cache entry")
        result_blob = payload["result"]
        if not isinstance(result_blob, bytes):
            raise TypeError("cache entry does not hold a pickled result")
    except Exception:
        _STATS["errors"] += 1
        return None
    _STATS["bytes_read"] += len(blob)
    return result_blob


def _store_disk(key: str, result_blob: bytes) -> None:
    """Atomic write (tmp + rename); failures are silently tolerated —
    the cache is an accelerator, never a correctness dependency."""
    payload = {"schema": RUN_SCHEMA, "key": key, "result": result_blob}
    try:
        directory = cache_dir()
        directory.mkdir(parents=True, exist_ok=True)
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as f:
                f.write(blob)
            os.replace(tmp, _entry_path(key))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        _STATS["bytes_written"] += len(blob)
    except Exception:
        _STATS["errors"] += 1


def get_or_run(spec: tuple, runner: Callable[[], Any]) -> Any:
    """Return the result for ``spec``, simulating at most once per machine
    while the cache holds.

    Lookup order: in-process memo, disk store, then ``runner()`` (the
    real cell simulation) with the pickled result promoted into both
    tiers. Hits unpickle a fresh object every time. With the cache
    disabled every call simulates. Unpicklable results (a runner
    returning live simulation state) run uncached rather than failing.
    """
    if not cache_enabled():
        _STATS["cell_runs"] += 1
        return runner()
    key = run_key(spec)
    blob = _MEMO.get(key)
    if blob is not None:
        _STATS["hits_mem"] += 1
        return pickle.loads(blob)
    blob = _load_disk(key)
    if blob is not None:
        _STATS["hits_disk"] += 1
        _MEMO[key] = blob
        return pickle.loads(blob)
    _STATS["misses"] += 1
    _STATS["cell_runs"] += 1
    result = runner()
    try:
        blob = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception:
        _STATS["errors"] += 1
        return result
    _MEMO[key] = blob
    _store_disk(key, blob)
    return pickle.loads(blob)


def clear_memory_cache() -> None:
    """Drop the in-process memo (disk entries survive)."""
    _MEMO.clear()
