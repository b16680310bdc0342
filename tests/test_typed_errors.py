"""The typed-error contract, read from the source: every ``raise`` in the
package is a bare re-raise or raises one of the package's own
``ValueError`` subclasses that ``cli._ERRORS`` lists, and every exception
class the package defines is listed there, so the command line reports
each error it can meet as one line and exit status 2."""

import ast
import importlib
from pathlib import Path

from arabmorph.cli import _ERRORS

SRC = Path(__file__).parent.parent / "src" / "arabmorph"


def _modules():
    """(module, syntax tree) for each source file of the package."""
    for path in sorted(SRC.glob("*.py")):
        name = "arabmorph" if path.stem == "__init__" else \
            f"arabmorph.{path.stem}"
        yield (importlib.import_module(name),
               ast.parse(path.read_text(encoding="utf-8"), str(path)))


def _raised_name(node: ast.Raise) -> str | None:
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return exc.id if isinstance(exc, ast.Name) else None


def test_every_raise_is_a_listed_package_error_or_a_re_raise():
    problems = []
    for module, tree in _modules():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            where = f"{module.__name__}:{node.lineno}"
            name = _raised_name(node)
            cls = getattr(module, name, None) if name else None
            if not (isinstance(cls, type)
                    and cls.__module__.startswith("arabmorph")
                    and issubclass(cls, ValueError)):
                problems.append(f"{where}: raises {ast.unparse(node.exc)}, "
                                "not a package ValueError subclass")
            elif cls not in _ERRORS:
                problems.append(f"{where}: {name} is not in cli._ERRORS")
    assert problems == []


def test_every_package_error_class_is_listed():
    defined = {getattr(module, node.name)
               for module, tree in _modules() for node in tree.body
               if isinstance(node, ast.ClassDef)
               and issubclass(getattr(module, node.name), BaseException)}
    assert defined
    assert defined <= set(_ERRORS)
    assert all(issubclass(cls, ValueError) for cls in defined)
