"""Rules for the package source, checked on its syntax trees."""

import ast
import builtins
import importlib
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "cubicsums"


def _src_nodes():
    """(file name, node) for every syntax node of the package source."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            yield path.name, node


def _raised_name(node):
    """The class name a raise statement names, or None (bare raise, attribute)."""
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return exc.id if isinstance(exc, ast.Name) else None


def test_no_bare_assertions():
    # out-of-domain input fails with the module's own typed error: an assert
    # statement vanishes under python -O, and an AssertionError names no module
    sites = [f"{name}:{node.lineno}" for name, node in _src_nodes()
             if isinstance(node, ast.Assert) or (isinstance(node, ast.Raise) and _raised_name(node) == "AssertionError")]
    assert sites == []


def test_no_builtin_exception_raised():
    # every raise names a module's own error class (ArithError, SumsError, ...),
    # which the CLI maps to exit 2; a bare ValueError says nothing of where it came from
    def builtin_exception(name):
        obj = getattr(builtins, name or "", None)
        return isinstance(obj, type) and issubclass(obj, BaseException)

    sites = [f"{name}:{node.lineno}" for name, node in _src_nodes()
             if isinstance(node, ast.Raise) and builtin_exception(_raised_name(node))]
    assert sites == []


def test_only_cli_touches_the_environment():
    # the CLI defaults OpenBLAS's thread count for its own process; a library
    # module that read or wrote os.environ would act on every program importing it
    names = {"environ", "environb", "putenv", "unsetenv"}
    sites = {name for name, node in _src_nodes()
             if (isinstance(node, ast.Attribute) and node.attr in names)
             or (isinstance(node, ast.alias) and node.name in names)}
    assert sites == {"cli.py"}


def test_unchecked_constructor_stays_in_ideals():
    # FactoredIdeal._trusted skips the public constructor's checks; only
    # enumerate_ideals, which builds its factors sorted and valid, may use it
    def names(node):
        return {getattr(node, key, None) for key in ("attr", "id", "name")}

    sites = set()
    for path in sorted(p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:  # each module-level def or class
            if any("_trusted" in names(node) for node in ast.walk(top)):
                sites.add(f"{path.relative_to(ROOT).as_posix()}:{getattr(top, 'name', top.lineno)}")
    assert sites == {"src/cubicsums/ideals.py:FactoredIdeal", "src/cubicsums/ideals.py:enumerate_ideals"}


def test_field_spec_built_only_by_the_parser():
    # presets and documents define a field one way: parse_field_spec is the
    # one place that builds a FieldSpec, so the one place that defaults its disc
    sites = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {}
        for func in ast.walk(tree):  # breadth first, so a nested function is named last
            if isinstance(func, ast.FunctionDef):
                owner.update((id(node), func.name) for node in ast.walk(func))
        sites |= {f"{path.stem}.{owner.get(id(node), '<module>')}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and "FieldSpec" in (getattr(node.func, "id", None),
                                                                    getattr(node.func, "attr", None))}
    assert sites == {"fieldspec.parse_field_spec"}


def test_every_exported_name_resolves():
    # `import *` and the benchmark tracer read every name in a module's
    # __all__ with getattr, so a stale entry breaks both
    missing = []
    for path in sorted(SRC.glob("*.py")):
        name = "cubicsums" if path.stem == "__init__" else f"cubicsums.{path.stem}"
        mod = importlib.import_module(name)
        missing += [f"{name}.{n}" for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert missing == []


def _module_constants(path, names):
    """{name: node} for the module-level assignments of names in a file."""
    tree = ast.parse((ROOT / path).read_text(encoding="utf-8"))
    return {node.targets[0].id: node.value for node in tree.body
            if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) in names}


def test_benchmark_layer_names_resolve():
    # the benchmark reports one row per layer name; a renamed function
    # blanks its row, read here from the benchmark's source without running it
    run = _module_constants("perfbench/run.py", {"LAYER_FUNCS", "LAYER_COUNTS"})
    counters = _module_constants("perfbench/spans.py", {"COUNTERS"})["COUNTERS"]
    names = set(ast.literal_eval(run["LAYER_FUNCS"]))
    names |= {func for func, _, _ in ast.literal_eval(run["LAYER_COUNTS"])}
    names |= {ast.literal_eval(key) for key in counters.keys}
    unresolved = set()
    for name in names:
        module, func = name.split(".")
        if not hasattr(importlib.import_module(f"cubicsums.{module}"), func):
            unresolved.add(name)
    # the two whose rows the benchmark still lists under their old names
    assert unresolved == {"arith.write_tables", "sums.S_K_direct"}


def _binds_library_names(node):
    if isinstance(node, ast.ImportFrom):
        return node.level > 0 or (node.module or "").split(".")[0] == "cubicsums"
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "cubicsums" for alias in node.names)
    return isinstance(node, ast.Name) and node.id == "__all__"


def test_package_init_binds_no_library_names():
    # callers import each name from the module that defines it
    # (`from cubicsums import sums`); the package namespace re-exports nothing
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    assert [node.lineno for node in ast.walk(tree) if _binds_library_names(node)] == []


def test_benchmark_tracer_sees_every_cli_step():
    # the benchmark's tracer wraps module attributes and the `cmd_*` functions
    # of cli: a runner defined elsewhere, or a further `cmd_` name, would be
    # timed under the wrong row or under a row the benchmark does not list
    cli = importlib.import_module("cubicsums.cli")
    assert {runner.__module__ for _, _, runner in cli._EXPERIMENTS.values()} == {"cubicsums.cli"}
    assert {n for n in vars(cli) if n.startswith("cmd_")} == {"cmd_sieve", "cmd_verify", "cmd_experiment"}
    layer_funcs = ast.literal_eval(_module_constants("perfbench/run.py", {"LAYER_FUNCS"})["LAYER_FUNCS"])
    assert {name for name in layer_funcs if name.startswith("cli.")} == {"cli.cmd_sieve", "cli.cmd_verify",
                                                                        "cli.cmd_experiment"}
