"""Every name the benchmark scripts import from the program exists, and
takes the arguments the scripts pass it, so a deletion or a signature
change in ``src/`` fails here rather than in a benchmark run.  The
imports and calls are read from the scripts' source, those inside
functions included."""

import ast
import importlib
import inspect
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _program_imports():
    """(script, module, name) per imported program name; name is None for
    a whole-module import."""
    for script in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(script.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and \
                    node.module.split(".")[0] == "arabmorph":
                for alias in node.names:
                    yield script.name, node.module, alias.name
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "arabmorph":
                        yield script.name, alias.name, None


def test_every_program_name_the_benchmark_imports_exists():
    imports = list(_program_imports())
    assert {script for script, _, _ in imports} >= {"run.py", "gen.py",
                                                    "checks.py"}
    missing = []
    for script, module, name in imports:
        mod = importlib.import_module(module)
        if name is not None and not hasattr(mod, name):
            missing.append(f"{script}: from {module} import {name}")
    assert missing == []


_FUNCTION_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _scope_nodes(scope):
    """The nodes of a module or function body outside nested functions;
    a nested function's ``def`` is in its enclosing scope."""
    todo = list(ast.iter_child_nodes(scope))
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, _FUNCTION_SCOPES):
            todo.extend(ast.iter_child_nodes(node))


def _bindings(scope):
    """Name -> program object for each name the scope binds by importing
    it from ``arabmorph``, and name -> None for each it binds otherwise."""
    bound = {}
    for node in _scope_nodes(scope):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and \
                node.module.split(".")[0] == "arabmorph":
            mod = importlib.import_module(node.module)
            for alias in node.names:
                bound[alias.asname or alias.name] = getattr(mod, alias.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[(alias.asname or alias.name).split(".")[0]] = None
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            bound[node.name] = None
        elif isinstance(node, ast.arg):
            bound[node.arg] = None
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound[node.id] = None
    return bound


def _program_calls(scope, names=None):
    """(line, program object, call) per call in ``scope`` whose callee is
    a name that resolves to an object imported from ``arabmorph``."""
    names = {**(names or {}), **_bindings(scope)}
    for node in _scope_nodes(scope):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and names.get(node.func.id) is not None:
            yield node.lineno, names[node.func.id], node
        elif isinstance(node, _FUNCTION_SCOPES):
            yield from _program_calls(node, names)


def test_every_benchmark_call_into_the_program_binds_its_signature():
    checked, problems = set(), []
    for script in sorted(BENCH.glob("*.py")):
        tree = ast.parse(script.read_text(encoding="utf-8"))
        for line, obj, call in _program_calls(tree):
            if any(isinstance(a, ast.Starred) for a in call.args) or \
                    any(k.arg is None for k in call.keywords):
                continue
            checked.add(call.func.id)
            try:
                inspect.signature(obj).bind(
                    *call.args, **{k.arg: k.value for k in call.keywords})
            except TypeError as exc:
                problems.append(f"{script.name}:{line}: "
                                f"{call.func.id}: {exc}")
    assert problems == []
    assert {"compatible", "PipelineConfig", "import_wordlist",
            "merge_reviewed", "analyze_type"} <= checked
