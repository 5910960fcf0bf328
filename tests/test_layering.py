"""Imports inside the package run one way, from the base layers up to the CLI.

A module may import only modules of an earlier layer, so no import cycle can
form and each layer can be read and tested without the ones above it.  And
every name the package defines at module level, private helpers included, is
read by the program itself, as is every field a dataclass stores, so code that
only tests call lives in ``tests/``.
Input rules live where the config is built, so only an allowlisted set of
functions outside ``config.py`` may raise.  Default settings live there too,
in the config dataclasses' fields, so only an allowlisted set of function
parameters has a default.
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


def dataclass_fields(path: Path) -> list[str]:
    """``Class.field`` for each stored field of the module's ``@dataclass``
    classes: ``InitVar`` fields are constructor arguments, not storage."""
    found = []
    for node in ast.parse(path.read_text()).body:
        decorators = [d.func if isinstance(d, ast.Call) else d for d in getattr(node, "decorator_list", [])]
        if not any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators):
            continue
        found += [
            f"{node.name}.{item.target.id}"
            for item in node.body
            if isinstance(item, ast.AnnAssign)
            and not ast.unparse(item.annotation).startswith(("InitVar", "ClassVar"))
        ]
    return found


def test_every_dataclass_field_is_read_by_the_program():
    # A record keeps only what the program reads: each stored field is loaded
    # as an attribute somewhere in the package or the benchmark (the owner's
    # class is not resolved).  NamedTuples are read by position and exempt.
    attrs = set().union(*(a for _, a in map(names_read, PROGRAM)))
    unread = [
        name
        for path in sorted(PACKAGE.glob("*.py"))
        for name in dataclass_fields(path)
        if name.rsplit(".", 1)[1] not in attrs
    ]
    assert unread == []


# Every function outside config.py that raises, and why its check belongs
# there: each input rule is checked once, where the config or a sweep point
# is built, so the functions a trial runs check numerics only.
RAISING_FUNCTIONS = {
    # the boundary: the CLI's flags and the sweep points
    "cli._comma_list.read": "parses a comma-separated sweep flag",
    "cli._out_path": "parses --out; an empty path is a usage error",
    "experiments._sweep_points": "builds every sweep point before the first trial",
    "estimation.group_subsurfaces": "the one copy of the rule that N' divides L*N; the sweep boundary calls it",
    "estimation.pilot_patterns": "not on the trial path; the benchmark builds books from unchecked flags",
    # the one per-link guard that accepted configs reach
    "channel.terrestrial_path_loss_db": "no boundary twin: a user can land on the BS",
    # numerical failures
    "beamforming.optimize_rows": "zero, underflowed or non-finite channel",
    "deployment.simulate_trial": "zero quantized channel",
    "deployment.grid_search": "non-finite cell score",
    "experiments._rate_at": "non-finite mean rate",
    "experiments.run_estimation_sweep": "non-finite mean at a sweep point",
    "experiments.write_csv": "I/O failure, reported with the path",
}


def raising_functions(path: Path) -> set[str]:
    """``module.qualname`` of every function whose own body (nested
    functions apart) holds a ``raise``."""
    found = set()

    def visit(node, qualname):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{qualname}.{child.name}")
            else:
                if isinstance(child, ast.Raise):
                    found.add(qualname)
                visit(child, qualname)

    visit(ast.parse(path.read_text()), path.stem)
    return found


# The config sections outside config.py, whose __post_init__ holds their input rules.
CONFIG_SECTIONS = {"channel.EnvParams", "beamforming.BfOptions", "deployment.Scenario", "deployment.Grid2D"}


def test_trial_path_raises_only_numerical_errors():
    raising = {
        name
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem != "config"
        for name in raising_functions(path)
        if name.removesuffix(".__post_init__") not in CONFIG_SECTIONS
    }
    assert raising == set(RAISING_FUNCTIONS)


# Every function parameter in the package that has a default, and why.  A
# setting's default is a field of the config dataclass that owns it
# (``BfOptions``, ``Scenario``, ``SimConfig``), so the functions a run calls
# take each setting from their caller, and tests call them with what the CLI
# passes.
DEFAULTED_PARAMETERS = {
    "beamforming.optimize_rows.init_w": "None is the cold start; rate_loss calls it with and without a warm start",
    "cli.main.argv": "None reads sys.argv, as the console script calls it",
}


def defaulted_parameters(path: Path) -> set[str]:
    """``module.qualname.parameter`` of every parameter with a default, in
    every function and lambda of the module, nested ones included."""
    found = set()

    def visit(node, qualname):
        for child in ast.iter_child_nodes(node):
            name = qualname
            if isinstance(child, (ast.FunctionDef, ast.ClassDef, ast.Lambda)):
                name = f"{qualname}.{getattr(child, 'name', '<lambda>')}"
            if isinstance(child, (ast.FunctionDef, ast.Lambda)):
                args = child.args
                positional = args.posonlyargs + args.args
                defaulted = positional[len(positional) - len(args.defaults) :]
                defaulted += [arg for arg, value in zip(args.kwonlyargs, args.kw_defaults) if value is not None]
                found.update(f"{name}.{arg.arg}" for arg in defaulted)
            visit(child, name)

    visit(ast.parse(path.read_text()), path.stem)
    return found


def test_settings_come_from_the_caller():
    found = set().union(*(defaulted_parameters(path) for path in sorted(PACKAGE.glob("*.py"))))
    assert found == set(DEFAULTED_PARAMETERS)
