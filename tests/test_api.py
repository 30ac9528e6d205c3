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
    ("fields.py", "at", "IndexError"),               # LatticeField.at: no such site
    ("harness/acceptance.py", "run_criterion", "KeyError"),  # unknown criterion name
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


def _passed_arguments(trees):
    """called name -> positions and keywords passed in some call; a starred
    argument passes every position, a ``**`` one every keyword."""
    passed = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            marks = passed.setdefault(name, set())
            for i, arg in enumerate(node.args):
                marks.add("*" if isinstance(arg, ast.Starred) else i)
            marks.update(kw.arg or "**" for kw in node.keywords)
    return passed


def test_every_default_is_passed():
    # a parameter with a default that no call passes is an option no caller sets
    src_trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.rglob("*.py"))]
    root = SRC.parents[1]
    callers = [
        ast.parse(path.read_text(encoding="utf-8"))
        for folder in ("tests", "demos", "perfbench")
        for path in sorted((root / folder).rglob("*.py"))
    ]
    passed = _passed_arguments(src_trees + callers)
    unset = []
    for tree in src_trees:
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            offset = 1 if positional and positional[0].arg in ("self", "cls") else 0
            first = len(positional) - len(args.defaults)
            defaulted = [(arg.arg, i - offset) for i, arg in enumerate(positional) if i >= first]
            defaulted += [
                (arg.arg, None) for arg, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
            ]
            marks = passed.get(node.name, set())
            for name, pos in defaulted:
                if not marks & {name, "**"} and (pos is None or not marks & {pos, "*"}):
                    unset.append((node.name, name))
    assert not unset


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
