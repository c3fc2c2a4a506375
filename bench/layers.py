"""Module -> layer map and the cProfile fold that fills the layer table.

Every file under ``src/repro`` is listed here by hand: a module nobody
assigned to a layer fails ``test_bench.py`` instead of silently landing
in ``other``.  ``pkg/*`` names every module of a package.
"""

from __future__ import annotations

import pstats
from pathlib import Path

# Small shared helpers: their self time belongs to whoever called them,
# exactly like builtins and the stdlib.
CALLER = "<caller>"
OTHER = "other"
# Levels of non-repro callers the fold walks before giving up on a chain.
_DEPTH = 8

LAYER_MODULES: dict[str, tuple[str, ...]] = {
    "simnet.engine": ("simnet/__init__", "simnet/engine", "simnet/events",
                      "simnet/resources"),
    "simnet.fluid": ("simnet/fluid",),
    "simnet.net": ("simnet/topology", "simnet/sockets", "simnet/interconnect"),
    "netty.loop": ("netty/eventloop", "netty/selector"),
    "netty.pipeline": ("netty/__init__", "netty/channel", "netty/pipeline",
                       "netty/handler", "netty/frame", "netty/bytebuf",
                       "netty/bootstrap"),
    "mpi.matching": ("mpi/matching",),
    "mpi.runtime": ("mpi/__init__", "mpi/runtime", "mpi/communicator",
                    "mpi/request", "mpi/collectives", "mpi/dpm",
                    "mpi/datatypes", "mpi/envelope", "mpi/errors", "mpi/status"),
    "core": ("core/*",),
    "transports": ("transports/*",),
    "spark.deploy": ("spark/deploy", "spark/standalone"),
    "spark.network": ("spark/network", "spark/messages"),
    "spark.dataplane": ("spark/__init__", "spark/rdd", "spark/local",
                        "spark/partitioner", "spark/dag", "spark/context",
                        "spark/tracing", "spark/conf", "util/serialization"),
    "workloads": ("workloads/*", "workloads/hibench/*"),
    "faults": ("faults/*",),
    "jobserver": ("jobserver/*",),
    "obs.registry": ("obs/__init__", "obs/registry", "util/stats"),
    "obs.trace": ("obs/causal", "obs/flightrec", "obs/tracer"),
    "obs.analysis": ("obs/critpath", "obs/whatif", "obs/diff", "obs/report_html"),
    "harness": ("harness/*",),
    CALLER: ("__init__", "util/__init__", "util/config", "util/rng", "util/units"),
}

LAYERS: tuple[str, ...] = tuple(k for k in LAYER_MODULES if k != CALLER) + (OTHER,)

_EXACT = {m: layer for layer, mods in LAYER_MODULES.items() for m in mods
          if not m.endswith("/*")}
_PACKAGES = {m[:-2]: layer for layer, mods in LAYER_MODULES.items() for m in mods
             if m.endswith("/*")}


def layer_of_module(rel: str) -> str | None:
    """Layer of ``rel`` (path under ``src/repro`` without ``.py``), or None."""
    return _EXACT.get(rel) or _PACKAGES.get(rel.rpartition("/")[0])


def _layer_of_file(filename: str, bench_dir: str) -> str | None:
    """Layer owning a profiled code object's file; None = charge the caller."""
    marker = "/src/repro/"
    at = filename.rfind(marker)
    if at >= 0:
        layer = layer_of_module(filename[at + len(marker):-3])
        return None if layer in (None, CALLER) else layer
    if filename.startswith(bench_dir):
        return OTHER
    return None


def fold_profile(profile, bench_dir: str | Path) -> dict[str, dict[str, float]]:
    """Fold a finished ``cProfile.Profile`` into ``{layer: {self_s, calls}}``.

    A function in a ``repro`` module owns its self time.  Self time of
    anything else (builtins, stdlib, numpy, CALLER modules) is split over
    its callers in proportion to the per-caller self time pstats keeps,
    through up to ``_DEPTH`` levels of non-``repro`` callers; what reaches
    no ``repro`` function by then is ``other``.
    """
    stats = pstats.Stats(profile).stats  # func -> (cc, nc, tt, ct, callers)
    bench_dir = str(bench_dir)
    own = {func: _layer_of_file(func[0], bench_dir) for func in stats}

    # Caller weights of every function that does not own its time.
    edges: dict[tuple, list[tuple[tuple, float]]] = {}
    for func, (_cc, _nc, _tt, _ct, callers) in stats.items():
        if own[func] is not None:
            continue
        weight = {c: v[2] for c, v in callers.items() if c != func}
        if sum(weight.values()) <= 0.0:
            weight = {c: float(v[0]) for c, v in callers.items() if c != func}
        total = sum(weight.values())
        edges[func] = [(c, w / total) for c, w in weight.items()] if total > 0 else []

    # Relax: share[f] = sum over callers of (caller's layer | caller's share).
    share: dict[tuple, dict[str, float]] = {func: {} for func in edges}
    for _ in range(_DEPTH):
        nxt = {}
        for func, callers in edges.items():
            out: dict[str, float] = {}
            for caller, w in callers:
                layer = own.get(caller)
                parts = {layer: 1.0} if layer is not None else share.get(caller, {})
                for name, frac in parts.items():
                    out[name] = out.get(name, 0.0) + frac * w
            nxt[func] = out
        share = nxt

    table = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
    for func, (_cc, nc, tt, _ct, _callers) in stats.items():
        layer = own[func]
        if layer is not None:
            table[layer]["self_s"] += tt
            table[layer]["calls"] += nc
            continue
        parts = share[func]
        for name, frac in parts.items():
            table[name]["self_s"] += tt * frac
        table[OTHER]["self_s"] += tt * max(0.0, 1.0 - sum(parts.values()))
    return table
