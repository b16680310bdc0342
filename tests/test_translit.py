import io
import re

import pytest
from hypothesis import given, strategies as st

from arabmorph.textio import read_with
from arabmorph.translit import (ALIF_VARIANTS, BuckTable, DEFAULT_TABLE,
                                TranslitError, arabic_to_buck, buck_to_arabic,
                                normalize, strip_diacritics)

BUCK_ALPHABET = sorted(DEFAULT_TABLE.b2a)
ARABIC_ALPHABET = sorted(DEFAULT_TABLE.a2b)

buck_strings = st.text(alphabet=BUCK_ALPHABET, max_size=30)
arabic_strings = st.text(alphabet=ARABIC_ALPHABET, max_size=30)


def test_table_is_bijective():
    assert len(DEFAULT_TABLE.a2b) == len(DEFAULT_TABLE.b2a)
    for ar, bw in DEFAULT_TABLE.a2b.items():
        assert DEFAULT_TABLE.b2a[bw] == ar


def test_arabic_to_buck_examples():
    assert arabic_to_buck("مع") == "mE"
    assert arabic_to_buck("") == ""
    assert arabic_to_buck("الكتاب") == "AlktAb"
    assert arabic_to_buck("كاتب") == "kAtb"


def test_buck_to_arabic_examples():
    assert buck_to_arabic("kAtib") == "كاتِب"
    assert buck_to_arabic("") == ""
    assert buck_to_arabic("mE") == "مع"


def test_buck_to_arabic_rejects_invalid_character():
    with pytest.raises(TranslitError, match="position 2"):
        buck_to_arabic("kAXib")


def test_unmapped_characters_pass_through():
    assert arabic_to_buck("مع!x") == "mE!x"


def test_strip_diacritics_examples():
    assert strip_diacritics("kitAb") == "ktAb"
    assert strip_diacritics("kut~Ab") == "ktAb"
    assert strip_diacritics("mE") == "mE"
    assert strip_diacritics("gadAF") == "gdA"


@given(buck_strings)
def test_strip_diacritics_idempotent(s):
    assert strip_diacritics(strip_diacritics(s)) == strip_diacritics(s)


@given(arabic_strings)
def test_round_trip_from_arabic(s):
    assert buck_to_arabic(arabic_to_buck(s)) == s


@given(buck_strings)
def test_round_trip_from_buckwalter(s):
    assert arabic_to_buck(buck_to_arabic(s)) == s


def test_normalize_drops_tatweel():
    assert normalize("k_tAb") == "ktAb"
    assert normalize("____") == ""


def test_normalize_alif_folding_is_opt_in():
    word = ">rD"
    assert normalize(word) == ">rD"
    assert normalize(word, fold_alif=True) == "ArD"
    for v in ALIF_VARIANTS:
        assert normalize(v, fold_alif=True) == "A"


def test_lexicon_voc_fields_round_trip(lexicon):
    for entry in lexicon.entries():
        assert arabic_to_buck(buck_to_arabic(entry.voc)) == entry.voc
        assert strip_diacritics(entry.voc) == entry.surface


def test_custom_table_loads_from_stream():
    table = BuckTable.from_stream(io.StringIO("U+0645\tm\nU+0639\tE\n"))
    assert table.to_buck("مع") == "mE"
    assert table.to_arabic("mE") == "مع"
    last = BuckTable.from_stream(io.StringIO("U+10FFFF\tx\n"))
    assert last.to_buck("\U0010ffff") == "x"


def test_table_rejects_bad_rows():
    with pytest.raises(TranslitError, match="^<translit>:1: "):
        BuckTable.from_stream(io.StringIO("0645\tm\n"))
    with pytest.raises(TranslitError, match="duplicate"):
        BuckTable.from_stream(io.StringIO("U+0645\tm\nU+0646\tm\n"))
    with pytest.raises(TranslitError,
                       match=r"^t.tsv:2: bad codepoint 'U\+110000'$"):
        BuckTable.from_stream(io.StringIO("U+0645\tm\nU+110000\tx\n"),
                              "t.tsv")


@pytest.mark.parametrize("rows,message", [
    # A code point mapped twice: the first row would be lost.
    ("U+0645\tm\nU+0645\tn\n",
     r"^t.tsv:2: duplicate codepoint U\+0645, first used at line 1$"),
    # A Buckwalter character used twice could not map back.
    ("U+0645\tm\n# comment\nU+0646\tm\n",
     r"^t.tsv:3: duplicate Buckwalter character 'm', first used at line 1$"),
    # Text maps back one character at a time.
    ("U+0645\tmm\n", r"^t.tsv:1: expected codepoint<TAB>char$"),
    # Neither a diacritic nor a letter: "au" is no Buckwalter character.
    ("U+064E\tau\n", r"^t.tsv:1: expected codepoint<TAB>char$")])
def test_table_rows_map_one_character_each_way(rows, message):
    with pytest.raises(TranslitError, match=message):
        BuckTable.from_stream(io.StringIO(rows), "t.tsv")


@pytest.mark.parametrize("mapping", [
    {"\u0645": "ua"},       # its key would strip to ''
    {"\u0645": ""},         # '' is in DIACRITICS: the letter would vanish
    {"\u0645\u0639": "m"}])
def test_a_table_built_from_a_dict_maps_one_character_each_way(mapping):
    [(ar, bw)] = mapping.items()
    with pytest.raises(TranslitError, match=(
            f"^table pair {re.escape(repr(ar))} -> {re.escape(repr(bw))}: "
            "each side must be one character$")):
        BuckTable(mapping)


def test_a_table_built_from_a_dict_refuses_a_repeated_buckwalter_character():
    with pytest.raises(TranslitError,
                       match="^duplicate Buckwalter character in table$"):
        BuckTable({"\u0645": "m", "\u0646": "m"})


def test_table_rows_are_stripped_like_every_tsv_field():
    table = BuckTable.from_stream(["U+0645\tm\r\n", " U+0639 \tE\n"],
                                  "t.tsv")
    assert table.a2b == {"\u0645": "m", "\u0639": "E"}


def test_presentation_forms_and_joiners_read_inside_a_word():
    # Lam-alif is one form for two letters; ZWNJ and ZWJ map to nothing.
    assert arabic_to_buck("\ufedb\ufe98\ufe90 \ufefb") == "ktb lA"
    assert arabic_to_buck("\u0643\u200c\u062a\u200d\u0628") == "ktb"
    assert {"\ufedb", "\ufefb"} <= DEFAULT_TABLE.arabic_letters
    assert "\u200c" not in DEFAULT_TABLE.arabic_letters
    # A form whose NFKC holds a diacritic or a space is no word character.
    assert arabic_to_buck("\ufe70") == "\ufe70"
    assert DEFAULT_TABLE.runs.fullmatch("\ufedb\u200c\ufe98")
    assert not DEFAULT_TABLE.runs.search("\ufe70")
    # A table without lam reads no lam-alif.
    table = BuckTable({"\u0627": "A"})
    assert table.to_buck("\ufefb\ufe8d") == "\ufefbA"


def test_an_arabic_block_letter_outside_the_table_is_a_word_letter():
    # Persian pe (U+067E) joins its neighbours and passes through to_buck.
    assert "\u067e" in DEFAULT_TABLE.arabic_letters
    assert DEFAULT_TABLE.runs.fullmatch("\u0628\u067e\u0643")
    assert arabic_to_buck("\u0628\u067e\u0643") == "b\u067ek"
    # The block's punctuation and digits are no letters.
    assert not DEFAULT_TABLE.runs.search("\u060c\u061f\u0663")


def test_table_file_errors_name_the_file(tmp_path):
    path = tmp_path / "t.tsv"
    path.write_text("# a table\nU+110000\tx\n", encoding="utf-8")
    with pytest.raises(TranslitError, match=(
            f"^{re.escape(str(path))}:2: bad codepoint 'U\\+110000'$")):
        read_with(BuckTable.from_stream, path)


def test_table_skips_blank_and_comment_lines_by_the_tsv_rule():
    rows = "U+0645\tm\nU+0639\tE\n"
    padded = " \t\n# comment\nU+0645\tm\n\n  \nU+0639\tE\n\t\n"
    assert BuckTable.from_stream(io.StringIO(padded)).a2b == \
        BuckTable.from_stream(io.StringIO(rows)).a2b
    with pytest.raises(TranslitError, match="^<translit>:1: bad codepoint"):
        BuckTable.from_stream(io.StringIO(" #U+0645\tm\n"))


_HEX = st.text("0123456789abcdefABCDEF", min_size=4, max_size=6)
_ANY = st.text(st.characters(blacklist_categories=()), max_size=3)
_TABLE_PIECES = st.one_of(
    st.sampled_from(["U+", "\t", "\t", "\n", "\n", "#", " ", "\r", "m"]),
    _HEX.map("U+{}".format), _HEX, _ANY,
    st.builds("U+{}\t{}\n".format, _HEX, _ANY))


@given(st.lists(_TABLE_PIECES, max_size=24).map("".join))
def test_any_text_loads_as_a_table_or_raises_translit_error(text):
    for source in (io.StringIO(text), text.splitlines(keepends=True)):
        try:
            table = BuckTable.from_stream(source)
        except TranslitError:
            continue
        assert {bw: ar for ar, bw in table.a2b.items()} == table.b2a
