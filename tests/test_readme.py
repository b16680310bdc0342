"""The README's examples run as written: the Quick start ``analyze`` call
through ``cli.main`` and the "Library use" snippet both print the XML
document the README shows (the library one with ``source=""``)."""

import re
import shlex
from pathlib import Path

import pytest

from arabmorph.cli import main

ROOT = Path(__file__).parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _block(section, lang):
    """The first ``lang`` code block under the README's ``## section``."""
    body = README.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{lang}\n(.*?)```", body, re.S).group(1)


def _quick_start():
    """The Quick start's commands, continuation lines joined, and the
    output it shows."""
    commands, output = [], []
    for line in _block("Quick start", "sh").splitlines():
        if line.startswith("$ "):
            commands.append(line[2:])
        elif commands and commands[-1].endswith("\\"):
            commands[-1] = commands[-1][:-1] + line
        else:
            output.append(line)
    return commands, "\n".join(output) + "\n"


@pytest.fixture
def in_checkout_copy(tmp_path, monkeypatch):
    """A working directory where the README's relative paths resolve."""
    for name in ("src", "tests"):
        (tmp_path / name).symlink_to(ROOT / name)
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_quick_start_prints_the_document_shown(in_checkout_copy, capsys):
    commands, shown = _quick_start()
    (echo, analyze) = [shlex.split(c) for c in commands]
    assert echo[0] == "echo" and echo[2] == ">"
    Path(echo[3]).write_text(echo[1] + "\n", encoding="utf-8")
    assert analyze[0] == "arabmorph"
    assert main(analyze[1:]) == 0
    assert capsys.readouterr().out == shown


def test_library_snippet_prints_the_document_shown(in_checkout_copy,
                                                   capsys):
    _, shown = _quick_start()
    exec(_block("Library use", "python"), {})
    assert capsys.readouterr().out == \
        shown.replace('source="phrase.txt"', 'source=""') + "\n"
