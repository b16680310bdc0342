"""The review path works once per distinct word: equal ``<w>`` blocks parse
to one shared ``TeiWord``, corrections run once per word object, equal
gold rows give one ``GoldToken``; outputs and every error position are
those of word-by-word processing."""

import io

import pytest

from arabmorph import teixml
from arabmorph.evaluation import _lemma_pos, load_gold
from arabmorph.lexicon import LexiconError
from arabmorph.teixml import (Note, TeiDoc, TeiError, TeiWord,
                              apply_corrections, emit_tei, parse_tei)

MARKED = ('<w ana="kAtib/kAtib_1/N"><note ana="kAtib/kAtib_2/A" '
          'ed="correct"/>كاتب</w>')
UNMARKED = '<w ana="kAtib/kAtib_1/N"><note ana="kAtib/kAtib_2/A"/>كاتب</w>'
MAEA = '<w ana="maEa/maEa_1/PREP">مع</w>'


def _xml(*blocks):
    return ('<text source="a&amp;b.txt" flags="CA|MSA" version="0.1.0">'
            f'<body>{"".join(blocks)}</body></text>')


REVIEWED = _xml(MARKED, MAEA, MARKED, UNMARKED, '<w ana="UNK//UNK">قهوة</w>',
                MAEA, '<w ana="&lt;ilaY/&lt;ilaY_1/PREP">إلى</w>')

# emit_tei(apply_corrections(parse_tei(REVIEWED))) as word-by-word
# processing gives it.
CORRECTED = """\
<?xml version="1.0" encoding="UTF-8"?>
<text source="a&amp;b.txt" flags="CA|MSA" version="0.1.0">
  <body>
    <w ana="kAtib/kAtib_2/A">
      <note ana="kAtib/kAtib_1/N"/>
      كاتب
    </w>
    <w ana="maEa/maEa_1/PREP">
      مع
    </w>
    <w ana="kAtib/kAtib_2/A">
      <note ana="kAtib/kAtib_1/N"/>
      كاتب
    </w>
    <w ana="kAtib/kAtib_1/N">
      <note ana="kAtib/kAtib_2/A"/>
      كاتب
    </w>
    <w ana="UNK//UNK">
      قهوة
    </w>
    <w ana="maEa/maEa_1/PREP">
      مع
    </w>
    <w ana="&lt;ilaY/&lt;ilaY_1/PREP">
      إلى
    </w>
  </body>
</text>
"""


@pytest.fixture
def checked(monkeypatch):
    """The ``where`` label of every ``_check_word`` call."""
    labels = []
    check = teixml._check_word

    def counting(word, where=""):
        labels.append(where)
        check(word, where)

    monkeypatch.setattr(teixml, "_check_word", counting)
    return labels


def test_repeated_w_blocks_parse_to_one_object():
    words = parse_tei(REVIEWED).words
    assert words[0] is words[2]
    assert words[1] is words[5]
    # a different mark is different content
    assert words[3] is not words[0]
    assert words[3] == TeiWord("كاتب", "kAtib/kAtib_1/N",
                               (Note("kAtib/kAtib_2/A"),))
    assert len({id(w) for w in words}) == 5


def test_equal_content_written_differently_gives_an_equal_word():
    spaced = '<w ana="maEa/maEa_1/PREP">\n  مع\n</w>'
    words = parse_tei(_xml(MAEA, spaced, MAEA)).words
    assert words[0] is words[2]
    assert words[1] == words[0]


def test_parse_checks_once_per_distinct_block(checked):
    parse_tei(REVIEWED)
    assert checked == ["word #1", "word #2", "word #4", "word #5", "word #7"]


def test_corrections_check_once_per_distinct_object(checked):
    a = TeiWord("x", "a/a_1/N", (Note("b/b_1/V", corrected=True),))
    equal_copy = TeiWord("x", "a/a_1/N", (Note("b/b_1/V", corrected=True),))
    b = TeiWord("y", "c/c_1/N")
    fixed = apply_corrections(TeiDoc(words=(a, b, a, equal_copy, b, a)))
    assert checked == ["word #1", "word #2", "word #4"]
    words = fixed.words
    assert words[0] is words[2] is words[5]
    assert words[1] is b and words[4] is b
    assert words[3] == words[0]
    assert words[0] == TeiWord("x", "b/b_1/V", (Note("a/a_1/N"),))


def test_the_review_cycle_output_is_unchanged():
    assert emit_tei(apply_corrections(parse_tei(REVIEWED))) == CORRECTED


def test_a_bad_word_after_good_copies_reports_its_own_position():
    bad = '<w ana="no-slashes">كاتب</w>'
    with pytest.raises(TeiError, match=r"word #4\)"):
        parse_tei(_xml(MAEA, MAEA, MAEA, bad, bad))
    two_marks = ('<w ana="kAtib/kAtib_1/N">'
                 '<note ana="kAtib/kAtib_2/A" ed="correct"/>'
                 '<note ana="kAtib/kAtib_3/V" ed="correct"/>كاتب</w>')
    with pytest.raises(TeiError, match=r"word #4\) marks more than one"):
        parse_tei(_xml(MARKED, MAEA, MARKED, two_marks, MARKED))


def test_corrections_report_a_bad_object_after_good_copies():
    good = TeiWord("x", "a/a_1/N")
    bad = TeiWord("x", "a/a_1/N", (Note("b/b_1/V", corrected=True),
                                   Note("c/c_1/V", corrected=True)))
    with pytest.raises(TeiError, match=r"word #3\) marks more than one"):
        apply_corrections(TeiDoc(words=(good, good, bad, good, bad)))


def test_a_bad_gold_row_after_duplicates_reports_its_own_line():
    row = "كتاب\tkitAb/kitAb_1/N\tMSA\n"
    text = row + row + "\n" + row + "كتاب\tnoslashes\tMSA\n"
    with pytest.raises(LexiconError, match=r"<gold>:5: bad analysis"):
        load_gold(io.StringIO(text + row))
    with pytest.raises(LexiconError, match=r"g\.tsv:5: unknown genre"):
        load_gold(io.StringIO(row + row + "# c\n" + row
                              + "كتاب\tkitAb/kitAb_1/N\tPOETRY\n"),
                  filename="g.tsv")


def test_duplicate_gold_rows_share_one_token():
    row = "كتاب\tkitAb/kitAb_1/N\tMSA\n"
    other = "مع\tmaEa/maEa_1/PREP\tCA\n"
    sents = load_gold(io.StringIO(row + other + row + "\n" + row))
    tokens = [t for s in sents for t in s]
    assert [len(s) for s in sents] == [3, 1]
    assert tokens[0] is tokens[2] is tokens[3]
    assert tokens[1] is not tokens[0]
    for token in tokens:
        assert token.lemma_pos == _lemma_pos(token.ana)
    assert tokens[0].lemma_pos == ("kitAb_1", "N")
