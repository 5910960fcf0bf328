"""Imports inside the package run one way, from the base layers up to the CLI.

A module may import only modules of an earlier layer, so no import cycle can
form and each layer can be read and tested without the ones above it.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "saris"

LAYERS = [
    {"geometry", "streams"},
    {"channel"},
    {"beamforming"},
    {"estimation"},
    {"deployment"},
    {"config"},
    {"experiments"},
    {"cli"},
]
RANK = {module: rank for rank, layer in enumerate(LAYERS) for module in layer}


def package_imports(path: Path) -> set[str]:
    """Sibling modules named by ``from .x import ...`` and ``from . import x``."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                found.add(node.module.split(".")[0])
            else:
                found.update(alias.name for alias in node.names)
    return found


def test_every_module_has_a_layer():
    modules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(RANK)


def test_imports_point_to_earlier_layers_only():
    upward = [
        f"{path.stem} imports {target}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem in RANK
        for target in sorted(package_imports(path))
        if RANK.get(target, len(LAYERS)) >= RANK[path.stem]
    ]
    assert upward == []


@pytest.mark.parametrize("module", sorted(RANK, key=RANK.get))
def test_importing_a_layer_loads_no_later_layer(module):
    # a fresh interpreter, so nothing this test process imported counts
    pythonpath = os.pathsep.join([str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")])
    code = f"import sys, saris.{module}; print(*sorted(m for m in sys.modules if m.startswith('saris.')))"
    loaded = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=pythonpath),
        capture_output=True, text=True, check=True,
    ).stdout.split()
    later = [name for name in loaded if RANK[name.removeprefix("saris.")] > RANK[module]]
    assert f"saris.{module}" in loaded and later == []
