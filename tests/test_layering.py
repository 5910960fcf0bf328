"""Imports inside the package run one way, from the base layers up to the CLI.

A module may import only modules of an earlier layer, so no import cycle can
form and each layer can be read and tested without the ones above it.  And
every name the package defines at module level, private helpers included, is
read by the program itself, so code that only tests call lives in ``tests/``.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "saris"
# The program: the package and the benchmark that drives it.
PROGRAM = sorted(PACKAGE.glob("*.py")) + sorted((PACKAGE.parent.parent / "perfbench").glob("*.py"))

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


def package_definitions(path: Path) -> list[str]:
    """Module-level functions, classes and assigned constants, private
    ``_name`` ones included (dunders are not), and ``Class.method`` for the
    public methods and properties of those classes."""
    found = []
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [
                name.id
                for target in targets
                for name in ast.walk(target)
                if isinstance(name, ast.Name) and not name.id.startswith("__")
            ]
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("__"):
            found.append(node.name)
            if isinstance(node, ast.ClassDef):
                found += [
                    f"{node.name}.{item.name}"
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
                ]
    return found


def names_read(path: Path) -> tuple[set[str], set[str]]:
    """Identifiers loaded as a bare name, and those loaded as an attribute;
    strings (such as the tracer's name lists) are not reads."""
    names, attrs = set(), set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            attrs.add(node.attr)
    return names, attrs


def test_every_public_name_is_read_by_the_program():
    # A method counts as read when an attribute of its name is loaded
    # anywhere (the receiver's class is not resolved); a module-level
    # function or class when its name is loaded either way.
    reads = [names_read(path) for path in PROGRAM]
    attrs = set().union(*(a for _, a in reads))
    read = attrs.union(*(n for n, _ in reads))
    unread = [
        f"{path.stem}.{name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name in package_definitions(path)
        if ("." in name and name.rsplit(".", 1)[1] not in attrs) or ("." not in name and name not in read)
    ]
    assert unread == []
