"""Properties of the annotated-XML format over generated documents:
``teixml``'s escapers write what ``xml.sax.saxutils``'s write,
``emit_tei`` writes the bytes of a line-by-line reference that quotes
every value with ``xml.sax.saxutils``, ``emit_tei`` and ``parse_tei``
are inverse, or ``emit_tei`` refuses a header XML cannot carry,
``apply_corrections`` is idempotent, and any text given to ``parse_tei``
or ``load_gold`` either parses or raises the reader's own error."""

import io
from xml.sax import saxutils

import pytest
from hypothesis import example, given, strategies as st

from arabmorph.evaluation import load_gold
from arabmorph.lexicon import Flag, LexiconError
from arabmorph.teixml import (UNKNOWN_ANA, Note, TeiDoc, TeiError, TeiWord,
                              apply_corrections, emit_tei, escape, parse_tei,
                              quoteattr)
from arabmorph.translit import DEFAULT_TABLE
from oracles import reference_emit_tei

LETTERS = "".join(sorted(DEFAULT_TABLE.arabic_letters))
BUCKWALTER = "".join(sorted(DEFAULT_TABLE.b2a))      # includes < > & ' | { }

_part = st.text(BUCKWALTER, max_size=6)
_ana = st.builds(lambda voc, lemma, pos: f"{voc}/{lemma}/{pos}", _part,
                 st.text(BUCKWALTER, min_size=1, max_size=6), _part)


def _xml_char(c):
    """Whether XML 1.0 can carry the character."""
    return (c in "\t\n\r" or " " <= c <= "\ud7ff"
            or "\ue000" <= c <= "\ufffd" or c >= "\U00010000")


_xml_text = st.text(st.characters().filter(_xml_char), max_size=12)
# Any text, lone surrogates and the characters XML refuses made likely.
_any_text = st.text(st.one_of(st.characters(blacklist_categories=()),
                              st.sampled_from("\x00\x1f\ufffe\udcff\t\r")),
                    max_size=12)


@st.composite
def _word(draw, surfaces=st.text(LETTERS, max_size=6), anas=_ana):
    surface = draw(surfaces)
    if draw(st.integers(0, 5)) == 0:
        return TeiWord(surface, UNKNOWN_ANA)
    notes = draw(st.lists(anas, max_size=3))
    mark = draw(st.integers(-1, len(notes) - 1))
    return TeiWord(surface, draw(anas),
                   tuple(Note(a, i == mark) for i, a in enumerate(notes)))


@st.composite
def tei_docs(draw, header=_xml_text, word=_word()):
    """Documents whose words repeat by reference, with ``header`` text."""
    pool = draw(st.lists(word, min_size=1, max_size=5))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), max_size=12))
    return TeiDoc(source=draw(header), flags=draw(header),
                  version=draw(header),
                  words=tuple(pool[i] for i in picks))


# Every character quoteattr or escape changes, with both quote kinds,
# drawn as often as all the others together.
_SPECIAL = st.sampled_from("\"'&<>\t\n\r")
_odd_part = st.text(st.one_of(st.sampled_from(BUCKWALTER), _SPECIAL),
                    max_size=6)
_odd_ana = st.builds(lambda voc, lemma, pos: f"{voc}/{lemma}/{pos}",
                     _odd_part, _odd_part, _odd_part)
_shared = TeiWord('k&"<', 'k"b/k_1/N', (Note("q'\"/x\t_1/N", True),))


# Text of the characters the escapers change, other text between them,
# and values holding both quote kinds.
_escapable = st.one_of(
    st.text(st.one_of(_SPECIAL, st.characters()), max_size=12),
    st.builds("{}\"{}'{}".format, *[st.text(max_size=3)] * 3))


@example("\"'")
@example("&amp;\t<'>\r\n")
@given(_escapable)
def test_the_escapers_write_what_saxutils_writes(text):
    assert escape(text) == saxutils.escape(text)
    assert quoteattr(text) == saxutils.quoteattr(text)


@pytest.mark.parametrize("source,flags", [
    ("a\"b.txt", "CA|'MSA'"), ("it's \"x\".txt", "\"'"), ("'", '"')])
def test_a_header_holding_quotes_is_quoted_as_saxutils_quotes_it(source,
                                                                 flags):
    doc = TeiDoc(source=source, flags=flags)
    xml = emit_tei(doc)
    assert xml.splitlines()[1] == (
        f"<text source={saxutils.quoteattr(source)} "
        f"flags={saxutils.quoteattr(flags)} "
        f"version={saxutils.quoteattr(doc.version)}>")
    assert parse_tei(xml) == doc


@example(TeiDoc())
@example(TeiDoc(source='"', flags="'\"", words=(
    _shared, TeiWord("k\r", "a/b/N", (Note("x/y\n/P"),)), _shared)))
@given(tei_docs(word=_word(st.text(st.one_of(st.sampled_from(LETTERS),
                                             _SPECIAL), max_size=6),
                           _odd_ana)))
def test_emit_tei_writes_the_bytes_of_the_quoting_reference(doc):
    assert emit_tei(doc) == reference_emit_tei(doc)


@given(tei_docs(_any_text))
def test_emit_and_parse_are_inverse(doc):
    try:
        xml = emit_tei(doc)
    except TeiError:
        assert not all(map(_xml_char, doc.source + doc.flags + doc.version))
        return
    parsed = parse_tei(xml)
    assert parsed == doc
    assert emit_tei(parsed) == xml
    # equal words come back as one object
    assert len({id(w) for w in parsed.words}) == len(set(parsed.words))


@given(tei_docs())
def test_apply_corrections_is_idempotent_on_generated_documents(doc):
    once = apply_corrections(doc)
    assert apply_corrections(once) == once
    assert not any(n.corrected for w in once.words for n in w.notes)
    assert parse_tei(emit_tei(once)) == once


@pytest.mark.parametrize("text", ["\ud800", '<text source="\udfff"/>'])
def test_a_lone_surrogate_is_a_tei_error(text):
    with pytest.raises(TeiError, match="not encodable as UTF-8"):
        parse_tei(text)


_TEI_PIECES = st.sampled_from([
    "<text>", "</text>", "<body>", "</body>", "<w", "</w>", "<note", "/>",
    ">", ' ana="a/b_1/N"', ' ana="UNK//UNK"', ' ana="x"', ' ed="correct"',
    "&amp;", "&#0;", "كتاب", " ", "\n", "<!--c-->", "<?pi x?>", "<![CDATA[",
    "]]>", "<!DOCTYPE text>", '<text source="s">', "<w><w>", "\udc80"])
_ANY_CHAR = st.characters(blacklist_categories=())   # lone surrogates too


@given(st.lists(st.one_of(_TEI_PIECES, st.text(_ANY_CHAR, max_size=3)),
                max_size=20).map("".join))
def test_any_text_parses_or_raises_tei_error(text):
    try:
        parse_tei(text)
    except TeiError:
        pass


@given(tei_docs(), st.data())
def test_a_spliced_document_parses_or_raises_tei_error(doc, data):
    xml = emit_tei(doc)
    start = data.draw(st.integers(0, len(xml)))
    end = data.draw(st.integers(start, min(len(xml), start + 8)))
    insert = data.draw(st.one_of(_TEI_PIECES, st.text(_ANY_CHAR, max_size=3)))
    try:
        parse_tei(xml[:start] + insert + xml[end:])
    except TeiError:
        pass


_GOLD_PIECES = st.sampled_from(
    ["\t", "\t", "\n", "\n", "/", "/", "#", " ", "\r", "كتاب", "kitAb_1",
     "N", "UNK", "\udc80"] + [flag.name for flag in Flag])


@given(st.lists(st.one_of(_GOLD_PIECES, st.text(_ANY_CHAR, max_size=2)),
                max_size=30).map("".join))
def test_any_text_loads_as_gold_or_raises_lexicon_error(text):
    for source in (io.StringIO(text), text.splitlines(keepends=True)):
        try:
            sentences = load_gold(source)
        except LexiconError:
            continue
        for token in (t for s in sentences for t in s):
            assert token.lemma_pos == tuple(token.ana.split("/")[1:])
