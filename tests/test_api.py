"""The public surface: every name a module exports through ``__all__``
exists, the packages re-export nothing, and every raise follows the error
policy."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import nlsgrowth
from nlsgrowth import errors
from nlsgrowth.harness.config import ENGINE_SCHEMAS
from test_harness import SECTION_CONSTRUCTORS

MODULES = sorted(
    info.name for info in pkgutil.walk_packages(nlsgrowth.__path__, "nlsgrowth.")
)


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", ())
    missing = [name for name in exported if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ names missing: {missing}"


def test_modules_discovered():
    assert "nlsgrowth.errors" in MODULES
    assert "nlsgrowth.harness.cli" in MODULES


SRC = Path(nlsgrowth.__file__).parent

# the raises outside the error policy: (file, enclosing function, exception)
RAISE_ALLOWLIST = {
    ("_fft.py", "<module>", "ImportError"),          # scipy without its pocketfft module
    ("harness/cli.py", "main", "AssertionError"),    # unreachable verb
    ("harness/cli.py", "<module>", "SystemExit"),
    ("__main__.py", "<module>", "SystemExit"),
}


def _raises(tree, func="<module>"):
    """(enclosing function, raised name) of every raise statement in tree."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.Raise):
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            yield func, exc.id if isinstance(exc, ast.Name) else ast.unparse(node)
        inner = node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) else func
        yield from _raises(node, inner)


def test_error_policy():
    # invalid input is a ValueError (ConfigError for config keys), a numerical
    # abort is a NumericsError; the CLI maps them to exit codes 2 and 3
    policy = {"ValueError", "ConfigError", "NumericsError"}
    stray = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        for func, name in _raises(ast.parse(path.read_text(encoding="utf-8"))):
            if name not in policy and (rel, func, name) not in RAISE_ALLOWLIST:
                stray.append((rel, func, name))
    assert not stray


# constructor name -> the keys of the config section the runner passes it as ``**``
SECTION_KEYS = {
    make.__name__: {key.partition(".")[2] for key in ENGINE_SCHEMAS[engine] if key.startswith(section + ".")}
    for engine, section, make, *_ in SECTION_CONSTRUCTORS
}


def _calls(trees):
    """(called name, marks) of every call: the positions and keywords it
    passes, "*" for a starred argument and "**" for a ``**`` one that is not a
    config section (a section passes its keys, ``SECTION_KEYS``); ``cls(...)``
    inside a class calls that class."""
    def walk(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                marks = {"*" if isinstance(arg, ast.Starred) else i for i, arg in enumerate(child.args)}
                for kw in child.keywords:
                    marks.update([kw.arg] if kw.arg else SECTION_KEYS.get(name, ["**"]))
                yield (owner if name == "cls" and owner else name), marks
            yield from walk(child, child.name if isinstance(child, ast.ClassDef) else owner)

    for tree in trees:
        yield from walk(tree, None)


def _is_dataclass(node):
    return any(
        getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass" for d in node.decorator_list
    )


def _defaults(tree):
    """(callable name, parameter, position or None) of every defaulted
    parameter of a function and every defaulted field of a dataclass, whose
    constructor is called by the class name."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            positional = args.posonlyargs + args.args
            offset = 1 if positional and positional[0].arg in ("self", "cls") else 0
            first = len(positional) - len(args.defaults)
            for i, arg in enumerate(positional[first:], first):
                yield node.name, arg.arg, i - offset
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield node.name, arg.arg, None
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            kw_only = any(
                kw.arg == "kw_only" and kw.value.value is True
                for d in node.decorator_list if isinstance(d, ast.Call) for kw in d.keywords
            )
            fields = [f for f in node.body if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name)]
            for i, f in enumerate(fields):
                value = f.value
                if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field":
                    if not {kw.arg for kw in value.keywords} & {"default", "default_factory"}:
                        continue
                if value is not None:
                    yield node.name, f.target.id, None if kw_only else i


# (function, parameter) -> why only tests set that default: the options that
# no caller in src/, demos/ or perfbench/ passes
TEST_SEAMS = {
    ("main", "argv"): "the CLI entry point; the console script passes no argv",
    ("run_nlw", "coupling"): "coupling = 0 is the free-wave oracle",
}


def test_every_default_is_passed():
    # a default stays only if some call outside tests/ passes its parameter
    # (else it is an option no caller sets, unless it is a listed test seam)
    # and some such call omits it (else every caller restates it); a starred
    # or non-section ``**`` argument may or may not pass a parameter, so such
    # a call counts on both sides
    src_trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.rglob("*.py"))]
    root = SRC.parents[1]
    callers = [
        ast.parse(path.read_text(encoding="utf-8"))
        for folder in ("demos", "perfbench")
        for path in sorted((root / folder).rglob("*.py"))
    ]
    calls = {}
    for name, marks in _calls(src_trees + callers):
        calls.setdefault(name, []).append(marks)
    unset, restated = [], []
    for tree in src_trees:
        for func, name, pos in _defaults(tree):
            passes, omits = False, False
            for marks in calls.get(func, []):
                named = bool({name, pos} & marks)
                passes |= named or "**" in marks or (pos is not None and "*" in marks)
                omits |= not named
            if not passes:
                unset.append((func, name))
            elif not omits:
                restated.append((func, name))
    assert sorted(restated) == []
    assert sorted(unset) == sorted(TEST_SEAMS)


def test_one_public_surface():
    # the package modules hold the API; the packages re-export nothing
    for init in (SRC / "__init__.py", SRC / "harness" / "__init__.py"):
        body = ast.parse(init.read_text(encoding="utf-8")).body
        assert isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
        assigned = [t.id for node in body[1:] if isinstance(node, ast.Assign) for t in node.targets]
        assert len(assigned) == len(body) - 1
        assert assigned == (["__version__"] if init.parent == SRC else [])
    assert errors.__all__ == ["NumericsError"]


def test_perfbench_targets_resolve():
    # perfbench's spans.install looks up each TARGETS entry with getattr, so a
    # name deleted from src/ breaks every traced benchmark run; read the list
    # through the AST, without importing perfbench
    spans = SRC.parents[1] / "perfbench" / "spans.py"
    (targets,) = [
        node.value for node in ast.parse(spans.read_text(encoding="utf-8")).body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]
    ]
    names = [(entry.elts[1].value, entry.elts[2].value) for entry in targets.elts]
    assert ("nlsgrowth.lattice", "run_lattice") in names
    missing = [(module, attr) for module, attr in names if not hasattr(importlib.import_module(module), attr)]
    assert not missing


# the engine calls that define an experiment; three demos render the
# acceptance criteria's own runs (run_criterion) and run their demo-only
# data as configs (runner.execute), so none of them defines an experiment a
# second time.  The Grönwall radii sweep of lattice_growth.py keeps
# run_lattice_batch: it runs c04's shape at radii no criterion runs
EXPERIMENT_CALLS = {
    "lattice_states", "run_continuum", "picard_solve", "bootstrap_monitor",
    "linear_propagate", "comb_oracle", "newton_iterate",
}


@pytest.mark.parametrize("demo", ["lattice_growth.py", "continuum_conservation.py", "newton_convergence.py"])
def test_demos_render_the_criteria_runs(demo):
    tree = ast.parse((SRC.parents[1] / "demos" / demo).read_text(encoding="utf-8"))
    called = {name for name, _ in _calls([tree])}
    assert "run_criterion" in called
    assert not called & EXPERIMENT_CALLS
