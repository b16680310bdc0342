"""The TSV loaders that share one blank/comment-line rule: compat pairs,
the frequency table and wordlist imports.  Any text either parses or
raises the loader's own error; a line that is blank after stripping is
skipped, a line starting with ``#`` is a comment, and any other line,
one that starts with a space before its ``#`` included, is data."""

import io

import pytest
from hypothesis import given, strategies as st

from arabmorph.disambig import LmError, load_freq_table
from arabmorph.lexicon import (Flag, Kind, LexiconError, _parse_pairs,
                               import_wordlist)


def _pairs(text):
    return _parse_pairs(io.StringIO(text))


def _freq(text):
    return load_freq_table(io.StringIO(text))


def _wordlist(text):
    batch = import_wordlist(io.StringIO(text), Kind.STEM, Flag.MSA)
    return [(c.entry, c.status) for c in batch.candidates]


LOADERS = {"compat": (_pairs, LexiconError),
           "freq": (_freq, LmError),
           "wordlist": (_wordlist, LexiconError)}

# Characters that make well-formed rows likely, plus anything else.
_CHARS = st.one_of(st.sampled_from("\t\t  #ab3N-معـ\r\x0c"),
                   st.characters())
_LINES = st.text(_CHARS, max_size=12)
_SKIPPED = st.one_of(st.text(" \t\r\x0c  ", max_size=4),
                     _LINES.map(lambda s: "#" + s.replace("\n", "")))


def _parse(loader, text):
    load, error = LOADERS[loader]
    try:
        return load(text)
    except error as exc:
        return type(exc)


@pytest.mark.parametrize("loader", sorted(LOADERS))
@given(text=st.text(_CHARS, max_size=80))
def test_any_text_parses_or_raises_the_loaders_error(loader, text):
    _parse(loader, text)


@pytest.mark.parametrize("loader", sorted(LOADERS))
@given(data=st.data())
def test_blank_and_comment_lines_change_nothing(loader, data):
    rows = data.draw(st.lists(_LINES.map(lambda s: s.replace("\n", "")),
                              max_size=6))
    text = "".join(row + "\n" for row in rows)
    padded = []
    for row in rows:
        padded += data.draw(st.lists(_SKIPPED, max_size=2)) + [row]
    padded += data.draw(st.lists(_SKIPPED, max_size=2))
    assert _parse(loader, "".join(row + "\n" for row in padded)) == \
        _parse(loader, text)


ROWS = {"compat": "N\tNSuff", "freq": "kitAb_1\tN\t3",
        "wordlist": "كتاب\tbook\tN"}


@pytest.mark.parametrize("loader", sorted(LOADERS))
def test_a_whitespace_only_line_is_skipped(loader):
    row = ROWS[loader]
    assert _parse(loader, f" \t \n{row}\n\t\n") == _parse(loader, row + "\n")
    assert _parse(loader, "  \n\t\n") == _parse(loader, "")


def test_an_indented_hash_line_is_data_not_a_comment():
    assert _pairs(" #N\tNSuff\n") == {("#N", "NSuff")}
    assert _freq(" #a_1\tN\t3\n") == {("#a_1", "N"): 3}
    # Read as a row, "#w" is refused as no word tokenize would read.
    with pytest.raises(LexiconError, match=r"^wordlist:1: '#w' is not a word"):
        _wordlist(" #w\tgloss\tN\n")
    for loader, (load, error) in LOADERS.items():
        with pytest.raises(error, match=":1: expected"):
            load(" # a comment?\n")
        assert _parse(loader, "# a comment\n") == _parse(loader, "")
