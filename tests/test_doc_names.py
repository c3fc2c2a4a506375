"""Every ``repro.x.y`` dotted name and every backticked ``*.py`` path in
README.md and DESIGN.md resolves.

A deletion or rename that leaves a doc naming code that is not there
fails here. A name resolves when its longest importable prefix is a
module and the rest is reachable by ``getattr`` from it. Names that are
part of a longer dotted word (``spark.repro.obs.causal``, a conf key)
are not code names and are skipped. A path resolves when it names a file
from the repo root or from ``src/repro/``.
"""

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"(?<![\w.\-/])repro(?:\.[A-Za-z_]\w*)+")
PATH = re.compile(r"`([^`\s]+\.py)`")
DOCS = ["README.md", "DESIGN.md"]


def _names(doc: str) -> list[str]:
    return sorted(set(NAME.findall((ROOT / doc).read_text())))


def _resolve(name: str):
    parts = name.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ModuleNotFoundError:
            continue
        for attr in parts[i:]:
            obj = getattr(obj, attr)
        return obj
    raise ModuleNotFoundError(name)


@pytest.mark.parametrize("doc", DOCS)
def test_dotted_names_resolve(doc):
    names = _names(doc)
    assert names
    missing = []
    for name in names:
        try:
            _resolve(name)
        except (ImportError, AttributeError):
            missing.append(name)
    assert missing == []


@pytest.mark.parametrize("doc", DOCS)
def test_py_paths_exist(doc):
    paths = sorted(set(PATH.findall((ROOT / doc).read_text())))
    assert paths
    missing = [
        p for p in paths
        if not (ROOT / p).is_file() and not (ROOT / "src" / "repro" / p).is_file()
    ]
    assert missing == []
