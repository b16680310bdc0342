"""``tools/src_lines.py``, the line counter behind the ``src/`` sizes that
ROADMAP and CHANGES.md report."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).parents[1] / "tools" / "src_lines.py"

FIXTURE = '''\
"""A module docstring
over two lines."""

import os  # a trailing comment

# a comment-only line
TEXT = """not a
docstring"""


def f(x):
    """A function docstring."""
    return (x +
            1)


class C:
    """A class
    docstring."""
    y = os.sep
'''
# Code lines: 4 (import), 7-8 (the string that is not a docstring),
# 11 (def), 13-14 (the expression), 17 (class) and 20.
FIXTURE_COUNTS = (20, 8)


def _load():
    spec = importlib.util.spec_from_file_location("src_lines", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_module_counts_its_lines_and_its_code_lines(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(FIXTURE, encoding="utf-8")
    assert _load().count(path) == FIXTURE_COUNTS


def test_the_total_row_sums_the_modules(tmp_path, capsys):
    (tmp_path / "a.py").write_text(FIXTURE, encoding="utf-8")
    (tmp_path / "b.py").write_text("# only a comment\n\nx = 1\n",
                                   encoding="utf-8")
    _load().main([str(tmp_path)])
    header, *rows, total = capsys.readouterr().out.splitlines()
    assert header.split() == ["module", "lines", "code"]
    counts = {name: (int(lines), int(code))
              for name, lines, code in map(str.split, rows)}
    assert counts == {"a.py": FIXTURE_COUNTS, "b.py": (3, 1)}
    assert total.split() == ["total", "23", "9"]


def test_two_trees_give_each_module_in_both_and_the_difference(tmp_path,
                                                               capsys):
    base, new = tmp_path / "base", tmp_path / "new"
    for src in (base, new):
        src.mkdir()
        (src / "a.py").write_text(FIXTURE, encoding="utf-8")
    (base / "b.py").write_text("x = 1\n", encoding="utf-8")
    (new / "c.py").write_text("x = 1\n\ny = 2\n", encoding="utf-8")
    _load().main([str(base), str(new)])
    assert [row.split() for row in capsys.readouterr().out.splitlines()] == [
        ["module", "base", "new", "diff"],
        ["a.py", "8", "8", "+0"],
        ["b.py", "1", "0", "-1"],
        ["c.py", "0", "2", "+2"],
        ["total", "9", "10", "+1"]]
