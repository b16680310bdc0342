import inspect
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import pytest

from arabmorph.analyzer import analyze_text, tokenize
from arabmorph.disambig import apply_rules, empty_lm, rank
from arabmorph.lexicon import parse_flagset
from arabmorph.teixml import (Note, TeiDoc, TeiError, TeiWord, UNKNOWN_ANA,
                              apply_corrections, doc_from_ranked, emit_tei,
                              parse_tei)

DATA = Path(__file__).parent / "data"
GOLDEN = (DATA / "golden_ma_katib.xml").read_text(encoding="utf-8")

KATIB = TeiWord(surface="كاتب", ana="kAtib/kAtib_1/N",
                notes=(Note("kAtib/kAtib_2/A"),))
MAEA = TeiWord(surface="مع", ana="maEa/maEa_1/PREP")
PHRASE_DOC = TeiDoc(source="phrase.txt", flags="MSA", version="0.1.0",
                    words=(MAEA, KATIB))


def _ranked_phrase(lexicon, rules, freq):
    sets = analyze_text(tokenize("مع كاتب"), lexicon, parse_flagset(["MSA"]))
    return rank(apply_rules(sets, rules), empty_lm(freq=freq))


def test_emit_matches_the_golden_fragment(lexicon, rules, freq):
    doc = doc_from_ranked(_ranked_phrase(lexicon, rules, freq),
                          source="phrase.txt", flags="MSA")
    assert emit_tei(doc) == GOLDEN
    fragment = ('    <w ana="kAtib/kAtib_1/N">\n'
                '      <note ana="kAtib/kAtib_2/A"/>\n'
                '      كاتب\n'
                '    </w>\n')
    assert fragment in GOLDEN


@pytest.mark.parametrize("record", [KATIB, KATIB.notes[0], MAEA,
                                    Note("kAtib/kAtib_2/A", corrected=True)])
def test_words_and_notes_are_slotted_frozen_and_still_replace(record):
    cls = type(record)
    assert not hasattr(record, "__dict__")
    with pytest.raises(FrozenInstanceError):
        record.ana = "x/x_1/N"
    names = [f.name for f in fields(cls)]
    assert list(inspect.signature(cls).parameters) == names
    values = [getattr(record, name) for name in names]
    keyword = cls(**dict(zip(names, values)))
    assert keyword == cls(*values) == record
    assert hash(keyword) == hash(record)
    assert repr(keyword) == repr(record) == f"{cls.__name__}(" + ", ".join(
        f"{name}={value!r}" for name, value in zip(names, values)) + ")"
    changed = replace(record, ana="x/x_1/N")
    assert (changed.ana, record.ana) == ("x/x_1/N", values[names.index("ana")])
    assert replace(changed, ana=record.ana) == record
    assert cls(*values[:-1]) == \
        replace(record, **{names[-1]: fields(cls)[-1].default})


def test_emit_empty_document_is_header_only():
    xml = emit_tei(TeiDoc(source="empty.txt", flags="CA"))
    assert "<body/>" in xml
    assert "<w" not in xml
    assert parse_tei(xml).words == ()


def test_emit_unknown_word_convention():
    doc = TeiDoc(words=(TeiWord(surface="قهوة", ana=UNKNOWN_ANA),))
    xml = emit_tei(doc)
    assert '<w ana="UNK//UNK">' in xml
    assert parse_tei(xml).words[0].ana == UNKNOWN_ANA


def test_parse_is_inverse_of_emit():
    assert parse_tei(GOLDEN) == PHRASE_DOC


def test_emit_parse_emit_is_byte_identical(lexicon, rules, freq, corpus_text):
    from arabmorph.lexicon import ALL_FLAGS
    sets = analyze_text(tokenize(corpus_text), lexicon, ALL_FLAGS)
    ranked = rank(apply_rules(sets, rules), empty_lm(freq=freq))
    xml = emit_tei(doc_from_ranked(ranked, source="toy_corpus.txt", flags="all"))
    assert emit_tei(parse_tei(xml)) == xml


def test_parse_preserves_correction_marker():
    marked = GOLDEN.replace('<note ana="kAtib/kAtib_2/A"/>',
                            '<note ana="kAtib/kAtib_2/A" ed="correct"/>')
    doc = parse_tei(marked)
    assert doc.words[1].notes[0].corrected


def test_parse_rejects_two_corrected_notes():
    doc = TeiDoc(words=(TeiWord(surface="x", ana="a/b_1/N",
                                notes=(Note("c/d_1/N", corrected=True),
                                       Note("e/f_1/N", corrected=True))),))
    with pytest.raises(TeiError, match="more than one"):
        emit_tei(doc)
    xml = ('<text><body><w ana="a/b_1/N">'
           '<note ana="c/d_1/N" ed="correct"/>'
           '<note ana="e/f_1/N" ed="correct"/>x</w></body></text>')
    with pytest.raises(TeiError, match="more than one"):
        parse_tei(xml)


def test_parse_rejects_malformed_xml_with_position():
    with pytest.raises(TeiError, match="line 1"):
        parse_tei("<text><body><w>")


def test_parse_rejects_unrecognized_ana_format():
    xml = '<text><body><w ana="no-slashes">x</w></body></text>'
    with pytest.raises(TeiError, match="unrecognized"):
        parse_tei(xml)


def test_parse_rejects_nested_words():
    xml = ('<text><body><w ana="a/b_1/N"><w ana="c/d_1/N">x</w>y</w>'
           '</body></text>')
    with pytest.raises(TeiError, match="nested|unexpected"):
        parse_tei(xml)


@pytest.mark.parametrize("inner", [
    '<w ana="c/d_1/N">x</w>',
    '<note ana="c/d_1/N"><w ana="e/f_1/N">x</w></note>',
])
def test_parse_names_a_nested_word_at_any_depth(inner):
    xml = f'<text><body><w ana="a/b_1/N">{inner}y</w></body></text>'
    with pytest.raises(TeiError, match="^nested <w> elements are not "
                                       "allowed$"):
        parse_tei(xml)


def test_apply_corrections_swaps_marked_note():
    marked = TeiDoc(words=(MAEA, TeiWord(
        surface="كاتب", ana="kAtib/kAtib_1/N",
        notes=(Note("kAtib/kAtib_2/A", corrected=True),))))
    corrected = apply_corrections(marked)
    word = corrected.words[1]
    assert word.ana == "kAtib/kAtib_2/A"
    assert word.notes == (Note("kAtib/kAtib_1/N"),)
    assert corrected.words[0] == MAEA


def test_apply_corrections_identity_without_marks():
    assert apply_corrections(PHRASE_DOC) == PHRASE_DOC


def test_apply_corrections_is_idempotent():
    marked = TeiDoc(words=(TeiWord(
        surface="x", ana="a/a_1/N",
        notes=(Note("b/b_1/V"), Note("c/c_1/A", corrected=True))),))
    once = apply_corrections(marked)
    assert apply_corrections(once) == once
    word = once.words[0]
    assert word.ana == "c/c_1/A"
    assert word.notes == (Note("a/a_1/N"), Note("b/b_1/V"))


def test_apply_corrections_preserves_analysis_multiset():
    marked = TeiDoc(words=(TeiWord(
        surface="x", ana="a/a_1/N",
        notes=(Note("b/b_1/V", corrected=True), Note("c/c_1/A"))),))
    before = {marked.words[0].ana} | {n.ana for n in marked.words[0].notes}
    after_word = apply_corrections(marked).words[0]
    after = {after_word.ana} | {n.ana for n in after_word.notes}
    assert before == after


def test_surface_text_is_invariant_under_the_emit_correct_cycle():
    marked = GOLDEN.replace('<note ana="kAtib/kAtib_2/A"/>',
                            '<note ana="kAtib/kAtib_2/A" ed="correct"/>')
    doc = parse_tei(marked)
    cycled = parse_tei(emit_tei(apply_corrections(doc)))
    assert "".join(w.surface for w in cycled.words) == \
        "".join(w.surface for w in doc.words)


@pytest.mark.parametrize("body,message", [
    ('<TEI/>', "expected <text> root, got <TEI>"),
    ('<text><w>x</w></text>', "<w> without ana attribute near 'x'"),
    ('<text><w ana="a/b_1/N"><b/>x</w></text>', "unexpected <b> inside <w>"),
    ('<text><w ana="a/b_1/N"><note/>x</w></text>',
     "<note> without ana attribute in word with ana 'a/b_1/N'"),
    ('<text><w ana="">x</w></text>',
     "word 'x' (word #1) has an empty analysis"),
    ('<text><w ana="a/b_1/N"><note ana="c"/>x</w></text>',
     "word 'x' (word #1) has unrecognized note format 'c'"),
    ('<text><w ana="UNK//UNK"><note ana="c/d_1/N"/>x</w></text>',
     "unknown word 'x' (word #1) carries notes"),
])
def test_parse_names_each_malformed_element(body, message):
    with pytest.raises(TeiError) as exc:
        parse_tei(body)
    assert str(exc.value) == message
