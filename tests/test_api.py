"""Public API surface: every exported name exists, is re-exported and has
a user, every name the benchmark harness in ``perfbench/`` uses is still
there, and importing the CLI loads no module it does not need."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import treelayout
from treelayout import aware, cost, oblivious, tree

MODULES = (tree, aware, oblivious, cost)
ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_all_names_resolve_and_are_reexported(module):
    for name in module.__all__:
        obj = getattr(module, name)
        assert getattr(treelayout, name, None) is obj, name


def _imported_names(path: Path) -> set:
    return {a.name for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.ImportFrom) for a in node.names}


def test_every_exported_name_has_a_user():
    # no exported API that nothing calls: another module of the package
    # or the benchmark imports it, or README.md documents it
    package = Path(treelayout.__file__).resolve().parent
    readme = set(re.findall(r"\w+", (ROOT / "README.md").read_text()))
    unused = []
    for module in MODULES:
        own = Path(module.__file__).resolve()
        used = set(readme)
        for path in [*package.glob("*.py"), *PERFBENCH.glob("*.py")]:
            if path.resolve() != own:
                used |= _imported_names(path)
        unused += [name for name in module.__all__ if name not in used]
    assert unused == []


def _function(path: Path, name: str) -> ast.FunctionDef:
    return next(node for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.FunctionDef) and node.name == name)


def _patched_names(install: ast.FunctionDef) -> set:
    """``(target, attribute)`` for every attribute ``install`` assigns,
    directly or by ``setattr``, with the tuples its loops run over
    expanded; a target is the name it imports a module or class under."""
    loops = {node.target.id: [getattr(e, "id", getattr(e, "value", None))
                              for e in node.iter.elts]
             for node in ast.walk(install)
             if isinstance(node, ast.For) and isinstance(node.iter, ast.Tuple)}

    def values(expr):
        if isinstance(expr, ast.Name):
            return loops.get(expr.id, [expr.id])
        return [expr.value] if isinstance(expr, ast.Constant) else []

    out = set()
    for node in ast.walk(install):
        if isinstance(node, ast.Assign):
            out.update((target, t.attr) for t in node.targets
                       if isinstance(t, ast.Attribute)
                       for target in values(t.value))
        elif (isinstance(node, ast.Call)
              and getattr(node.func, "id", None) == "setattr"):
            obj, attr = node.args[:2]
            out.update((target, a) for target in values(obj)
                       for a in values(attr))
    return out


def test_every_name_the_tracer_patches_exists():
    install = _function(PERFBENCH / "tracer.py", "install")
    targets = {}
    for node in ast.walk(install):
        if isinstance(node, ast.Import):
            for a in node.names:
                targets[a.asname or a.name] = importlib.import_module(a.name)
        elif isinstance(node, ast.ImportFrom):
            module = importlib.import_module(node.module)
            for a in node.names:
                targets[a.asname or a.name] = getattr(module, a.name)
    patched = _patched_names(install)
    # the guard must see the patches it exists for
    assert {("cli", "load_tree"), ("cli", "cost_report"),
            ("aware", "compute_weights"),
            ("cli", "gen_lower_bound")} <= patched, patched
    missing = sorted((t, a) for t, a in patched
                     if not hasattr(targets[t], a))
    assert not missing


@pytest.mark.parametrize("script", ["checks.py", "workloads.py"])
def test_every_name_the_benchmark_imports_is_exported(script):
    names = [a.name
             for node in ast.walk(ast.parse((PERFBENCH / script).read_text()))
             if isinstance(node, ast.ImportFrom) and node.module == "treelayout"
             for a in node.names]
    assert names
    exported = {n for m in MODULES for n in m.__all__}
    assert [n for n in names if n not in exported] == []


def test_cost_report_alone_takes_the_running_max():
    # worst_cum is derived in one place: no other module names the
    # helper, and the CLI imports nothing private from cost
    package = Path(treelayout.__file__).resolve().parent
    naming = [path.name for path in sorted(package.glob("*.py"))
              if path.name != "cost.py"
              and re.search(r"\b_running_max\b", path.read_text())]
    assert naming == []
    cli = ast.parse((package / "cli.py").read_text())
    private = [a.name for node in ast.walk(cli)
               if isinstance(node, ast.ImportFrom)
               and node.module in ("cost", "treelayout.cost")
               for a in node.names if a.name.startswith("_")]
    assert private == []


def test_budget_rule_is_decided_in_aware_alone():
    # the budget rule has one implementation: no other module names its
    # exact test, so every split goes through the engine
    package = Path(treelayout.__file__).resolve().parent
    naming = [path.name for path in sorted(package.glob("*.py"))
              if path.name != "aware.py"
              and re.search(r"\b_exact_reciprocal_le\b", path.read_text())]
    assert naming == []


def test_no_module_assigns_block_of():
    # a BlockAssignment derives its index from its own fields, so no
    # function sets one from outside, by assignment or by setattr
    package = Path(treelayout.__file__).resolve().parent
    assigned = [
        (path.name, node.lineno) for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if (isinstance(node, ast.Attribute) and node.attr == "block_of"
            and isinstance(node.ctx, ast.Store))
        or (isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "setattr"
            and getattr(node.args[1], "value", None) == "block_of")]
    assert assigned == []


def test_only_the_tree_assigns_its_parent_table():
    # a TreeTopology derives its parents from its own child links on first
    # read, so no other module sets the cache, by assignment or by setattr
    package = Path(treelayout.__file__).resolve().parent
    assigned = [
        path.name for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if (isinstance(node, ast.Attribute) and node.attr == "_parent"
            and isinstance(node.ctx, ast.Store))
        or (isinstance(node, ast.Call) and len(node.args) > 1
            and (getattr(node.func, "id", None) == "setattr"
                 or getattr(node.func, "attr", None) == "__setattr__")
            and getattr(node.args[1], "value", None) == "_parent")]
    assert assigned == ["tree.py"]


def test_cli_import_leaves_fractions_unloaded():
    # only the exact-arithmetic checks make a Fraction, and they import it
    # themselves, so the commands never load fractions, decimal or numbers
    code = ("import sys, treelayout.cli; print(' '.join(sorted("
            "{'fractions', 'decimal', 'numbers'} & set(sys.modules))))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert proc.stdout.strip() == ""
