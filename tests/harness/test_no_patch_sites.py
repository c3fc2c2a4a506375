"""The harness varies costs by building values, never by patching.

A knob that assigns to another module's or class's attribute (a module
constant, a class trait, a function) leaks across cells and needs a
restore path and a hand-kept cache-key entry. The harness builds a
:class:`~repro.simnet.interconnect.CostModel` instead; this guard walks
every ``src/repro/harness`` module and fails on any assignment (or
``setattr``) whose target is an attribute of an imported name.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import repro.harness

HARNESS_DIR = Path(repro.harness.__file__).parent


def _imported_names(tree: ast.Module) -> set[str]:
    """Every name an import binds anywhere in the module (any scope)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names.add(alias.asname or alias.name.partition(".")[0])
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                names.add(alias.asname or alias.name)
    return names


def _targets(node: ast.AST):
    """Flattened assignment targets (tuple/list unpacking included)."""
    if isinstance(node, (ast.Tuple, ast.List)):
        for elt in node.elts:
            yield from _targets(elt)
    elif isinstance(node, ast.Starred):
        yield from _targets(node.value)
    else:
        yield node


def _root_name(node: ast.AST) -> str | None:
    """``a`` for ``a.b.c``; None when the chain does not start at a name."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def patch_sites(source: str) -> list[tuple[int, str]]:
    """``(line, target)`` of every write to an imported name's attribute."""
    tree = ast.parse(source)
    imported = _imported_names(tree)
    sites = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = [t for target in node.targets for t in _targets(target)]
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = list(_targets(node.target))
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "setattr"
            and node.args
            and isinstance(node.args[0], ast.Name)
            and node.args[0].id in imported
        ):
            sites.append((node.lineno, f"setattr({node.args[0].id}, ...)"))
            continue
        else:
            continue
        for target in targets:
            if isinstance(target, ast.Attribute) and _root_name(target) in imported:
                sites.append((target.lineno, ast.unparse(target)))
    return sites


@pytest.mark.parametrize(
    "path", sorted(HARNESS_DIR.glob("*.py")), ids=lambda p: p.name
)
def test_harness_module_patches_nothing(path):
    sites = patch_sites(path.read_text())
    assert not sites, f"{path.name} assigns to imported attributes: {sites}"


@pytest.mark.parametrize(
    "source",
    [
        "import repro.spark.deploy as deploy\ndeploy.X = 1\n",
        "from repro.transports.mpi_basic import MpiBasicTransport\n"
        "MpiBasicTransport.compute_inflation = 2.0\n",
        "def f():\n    from repro.simnet import interconnect\n"
        "    interconnect.mpi_over = None\n",
        "import repro.core.mpi_netty as m\n(m.A, m.B) = (1, 2)\n",
        "import repro.core.mpi_netty as m\nm.A *= 2\n",
        "import os\nsetattr(os, 'sep', '/')\n",
    ],
)
def test_guard_catches_patch_shapes(source):
    assert patch_sites(source)


def test_guard_ignores_local_state():
    source = (
        "import dataclasses\n"
        "class C:\n    def f(self):\n        self.x = 1\n"
        "spec = object()\nspec.y = 2\n"
    )
    assert patch_sites(source) == []
