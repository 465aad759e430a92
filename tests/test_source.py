"""Rules for the package source, checked on its syntax trees."""

import ast
import importlib
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "cubicsums"


def _raises_assertion_error(node):
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_no_bare_assertions():
    # out-of-domain input fails with the module's own typed error: an assert
    # statement vanishes under python -O, and an AssertionError names no module
    sites = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Assert) or (isinstance(node, ast.Raise) and _raises_assertion_error(node)):
                sites.append(f"{path.name}:{node.lineno}")
    assert sites == []


def test_unchecked_constructor_stays_in_ideals():
    # FactoredIdeal._trusted skips the public constructor's checks; only
    # ideals.py, which builds its factors sorted and valid, may use it
    sites = {}
    for path in sorted(p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and node.attr == "_trusted") or (
                isinstance(node, ast.Name) and node.id == "_trusted"
            ):
                sites.setdefault(path.relative_to(ROOT).as_posix(), []).append(node.lineno)
    assert list(sites) == ["src/cubicsums/ideals.py"], sites


def test_every_exported_name_resolves():
    # `import *` and the benchmark tracer read every name in a module's
    # __all__ with getattr, so a stale entry breaks both
    missing = []
    for path in sorted(SRC.glob("*.py")):
        name = "cubicsums" if path.stem == "__init__" else f"cubicsums.{path.stem}"
        mod = importlib.import_module(name)
        missing += [f"{name}.{n}" for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert missing == []
