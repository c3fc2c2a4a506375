"""Counts are added in place to the registry counters their owners hold.

A snapshot only reads counter values, so no owner keeps a private
mirror that a snapshot hook copies in. ``on_snapshot`` is left for the
one value that is not a count added in place: the process-global cache
stats that ``spark/deploy.py`` copies into ``cache.*``. This guard walks
every ``src/repro`` module and fails on any other caller. Counters are
the registry's only metric kind.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import repro
from repro.obs.registry import Counter, MetricsRegistry

SRC_DIR = Path(repro.__file__).parent
HOOK_CALLERS = {"spark/deploy.py"}


def hook_sites(source: str) -> list[int]:
    """Lines of every ``<anything>.on_snapshot(...)`` call."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "on_snapshot"
    ]


def test_on_snapshot_has_exactly_one_caller():
    callers = {
        path.relative_to(SRC_DIR).as_posix()
        for path in SRC_DIR.rglob("*.py")
        if hook_sites(path.read_text())
    }
    assert callers == HOOK_CALLERS


@pytest.mark.parametrize(
    "source",
    [
        "env.metrics.on_snapshot(self._publish)\n",
        "def f(m):\n    m.on_snapshot(lambda: None)\n",
    ],
)
def test_guard_catches_hook_shapes(source):
    assert hook_sites(source)


def test_counter_has_one_way_to_add():
    assert not hasattr(Counter, "inc")
    with pytest.raises(AttributeError):
        Counter("x").inc = None


def test_registry_keeps_counters_only():
    for kind in ("histogram", "time_gauge"):
        assert not hasattr(MetricsRegistry, kind)
