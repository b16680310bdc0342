"""Every name the benchmark scripts import from the program exists, so a
deletion in ``src/`` fails here rather than in a benchmark run.  The
imports are read from the scripts' source, those inside functions
included."""

import ast
import importlib
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
