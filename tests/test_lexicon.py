import inspect
import io
import logging
import re
from collections import Counter
from dataclasses import FrozenInstanceError, fields, replace
from itertools import cycle, product
from pathlib import Path
from xml.sax.saxutils import escape

import pytest
from hypothesis import given, settings, strategies as st

DATA = Path(__file__).parent / "data"

from arabmorph.analyzer import tokenize
from arabmorph.cli import default_lexicon_dir
from arabmorph.lexicon import (ALL_FLAGS, LEXICON_FILES, PRIMARY_TAGS,
                               Candidate, CompatTables, Flag,
                               Kind, LexEntry, Lexicon, LexiconError,
                               ReviewBatch, Status, _can_surface,
                               _flag_text, _parse_flag_text,
                               classical_preset,
                               compatible, flag_names, fold_tag,
                               format_entry_line,
                               import_tei_dictionary, import_wordlist,
                               load_lexicon,
                               load_lexicon_dir, load_review,
                               merge_reviewed, parse_entry_line, parse_flagset,
                               reject_known, save_review, serialize_lexicon)
from arabmorph.translit import (arabic_to_buck, buck_to_arabic, normalize,
                                strip_diacritics)

from oracles import (reference_adds, reference_format_entry_line,
                     reference_parse_entry_line)

flag_lists = st.lists(st.sampled_from([f.name for f in Flag]), max_size=9)


# --- flag sets --------------------------------------------------------------

def test_parse_flagset_single_name_and_legacy_prefix():
    assert parse_flagset(["XRAM_CA"]) == Flag.CA
    assert parse_flagset(["ca"]) == Flag.CA
    assert parse_flagset(["xram_spec_med"]) == Flag.SPEC_MED


def test_parse_flagset_empty_and_idempotent_union():
    assert parse_flagset([]) == Flag(0)
    assert parse_flagset(["CA", "MSA", "CA"]) == Flag.CA | Flag.MSA


def test_parse_flagset_rejects_unknown_name():
    with pytest.raises(LexiconError) as exc:
        parse_flagset(["CA", "BOGUS"])
    assert "BOGUS" in str(exc.value)
    for f in Flag:
        assert f.name in str(exc.value)


def test_classical_preset_composition():
    preset = classical_preset()
    assert preset == Flag.CA | Flag.SPEC_ALCH | Flag.SPEC_GRAM | Flag.NE
    assert preset & Flag.MSA == Flag(0)
    deselected = Flag.MSA | Flag.ICA | Flag.SPEC_MED | Flag.FNE | Flag.CAP
    assert preset | deselected == ALL_FLAGS


@given(flag_lists)
def test_parse_flagset_matches_manual_union(names):
    expected = Flag(0)
    for n in names:
        expected |= Flag[n]
    assert parse_flagset(names) == expected


def test_flag_names_matches_enum_iteration_over_every_mask():
    for bits in range(int(ALL_FLAGS) + 1):
        mask = Flag(bits)
        assert flag_names(mask) == [f.name for f in Flag if f & mask]


# --- entry parsing ----------------------------------------------------------

def test_parse_entry_line_six_columns():
    e = parse_entry_line("ktAb\tkitAb\tN\tbook\tkitAb_1\tCA|MSA", Kind.STEM)
    assert (e.surface, e.voc, e.cat, e.gloss, e.lemma) == \
        ("ktAb", "kitAb", "N", "book", "kitAb_1")
    assert e.flags == Flag.CA | Flag.MSA
    assert e.pos == "kitAb/N"
    assert e.head_tag() == "N"


def test_parse_entry_line_missing_flags_defaults_to_all():
    e = parse_entry_line("ktAb\tkitAb\tN\tbook\tkitAb_1", Kind.STEM)
    assert e.flags == ALL_FLAGS


def test_parse_entry_line_null_affix_and_pos_annotation():
    e = parse_entry_line("0\t0\tPref-0", Kind.PREFIX)
    assert e.surface == "" and e.voc == "" and e.pos == ""
    e = parse_entry_line("Al\tAl\tPref-Al\tthe <pos>Al/DET</pos>", Kind.PREFIX)
    assert e.gloss == "the" and e.pos == "Al/DET"
    assert e.tag_units() == ["DET"]


def test_parse_entry_line_rejections():
    with pytest.raises(LexiconError, match="non-empty surface"):
        parse_entry_line("0\ta\tN\tx\tx_1", Kind.STEM)
    with pytest.raises(LexiconError, match="does not reduce"):
        parse_entry_line("ktb\tkitAb\tN\tbook\tkitAb_1", Kind.STEM)
    with pytest.raises(LexiconError, match="base_N"):
        parse_entry_line("ktAb\tkitAb\tN\tbook\tkitAb\tCA", Kind.STEM)
    with pytest.raises(LexiconError, match="3 to 6"):
        parse_entry_line("ktAb\tkitAb", Kind.STEM)
    with pytest.raises(LexiconError, match="^s.tsv:4: empty category$"):
        parse_entry_line("ktAb\tkitAb\t \tbook", Kind.STEM, 4, "s.tsv")
    for _ in range(2):  # a flag text that fails is not memoized
        with pytest.raises(LexiconError,
                           match="^s.tsv:5: unknown flag 'BOGUS'; "):
            parse_entry_line("ktAb\tkitAb\tN\tb\tkitAb_1\tCA|BOGUS",
                             Kind.STEM, 5, "s.tsv")


@pytest.mark.parametrize("tag,folded", [
    ("PV", "V"), ("PREP", "PREP"), ("Ndu", "N"), ("Pref-Al", "Pref-Al"),
    # AraMorph's compound tags
    ("NEG_PART", "PART"), ("NOUN_PROP", "NE"), ("DEM_PRON_MS", "PRON"),
    ("REL_PRON", "PRON"), ("INTERROG_PART", "PART"), ("SUB_CONJ", "CONJ"),
    ("FUT_PART", "PART"), ("PV_PASS", "V"), ("IV_PASS", "V"),
    # AraMorph's verb stem categories; a verb suffix is no verb stem
    ("PV_V", "V"), ("IV_yu", "V"), ("IV_Vd", "V"), ("CV_V", "V"),
    ("IVSUFF_DO:3MS", "IVSUFF_DO:3MS"),
    # a tag that matches no rule passes through unchanged
    ("FOO", "FOO")])
def test_fold_tag_maps_categories_and_subtypes_onto_the_tag_set(tag, folded):
    assert fold_tag(tag) == folded


def test_fold_tag_keeps_every_primary_tag():
    assert [fold_tag(t) for t in PRIMARY_TAGS] == list(PRIMARY_TAGS)


# Pieces of real rows, so that generated rows reach every check.
_ROW_PIECES = st.sampled_from([
    "0", " ", "\t", "|", "<pos>", "</pos>", "/", "+", "_", "_1", "_0", "#",
    "ktAb", "kitAb", "ktb", "a", "~", "N", "PV", "Pref-Al", "CA", "msa",
    "XRAM_NE", "bogus", "\u0643"])


@given(st.sampled_from(list(Kind)),
       st.text(max_size=40) | st.lists(_ROW_PIECES, max_size=16).map("".join))
def test_parse_entry_line_parses_or_raises_lexicon_error(kind, line):
    try:
        entry = parse_entry_line(line, kind)
    except LexiconError:
        return
    assert entry.kind is kind and entry.cat and entry.flags


# Text in a gloss column: the annotation's markup, line breaks and a tab,
# which splits the column, padding that ``str.strip`` removes, and U+2028
# and U+0085, which a regex "." matches.
_GLOSS_TEXT = st.lists(st.sampled_from([
    "a", " ", "<", "x/N", "<pos>", "<pos>", "</pos>", "\r", "\n", "\t",
    "\u00a0", "\u2028", "\x85"]), max_size=3).map("".join)
# A gloss column, mostly shaped as text, then ``<pos>``, text and
# ``</pos>``.
_GLOSS_COLUMNS = st.builds("{}{}{}{}".format, _GLOSS_TEXT,
                           st.sampled_from(["<pos>", "<pos>", ""]),
                           _GLOSS_TEXT,
                           st.sampled_from(["</pos>", "</pos>", ""]))
# Seven columns, one more than a row has, each mostly a value that a row
# keeps; surface and voc are drawn as a pair.
_SURFACE_VOC = st.sampled_from([["ktAb", "kitAb"]] * 5
                               + [["0", "0"], ["ktb", "kitAb"],
                                  ["k\nt", "k\nt"]])
_LATER_COLUMNS = (st.sampled_from(["N"] * 5 + ["", "N\r"]),
                  _GLOSS_COLUMNS,
                  st.sampled_from(["kitAb_1"] * 3 + ["", "x"]),
                  st.sampled_from(["CA"] * 3 + ["", "XRAM_NE|msa", "bogus"]),
                  st.sampled_from(["", "more"]))
_PADS = st.sampled_from(["", "", "", " ", "\u00a0", "\r"])


@st.composite
def _row_texts(draw):
    """The first 1 to 7 columns, mostly 5 or 6, each padded or not."""
    columns = draw(_SURFACE_VOC) + [draw(c) for c in _LATER_COLUMNS]
    n = draw(st.sampled_from([1, 2, 3, 4, 5, 5, 5, 6, 6, 6, 7]))
    return "\t".join(draw(_PADS) + column + draw(_PADS)
                     for column in columns[:n])


def _parsed(parse, line, kind):
    """The entry ``parse`` reads from ``line``, or its error."""
    try:
        return parse(line, kind, 7, "s.tsv")
    except LexiconError as exc:
        return f"LexiconError: {exc}"


@settings(max_examples=500)
@given(st.sampled_from(list(Kind)), _row_texts())
def test_parse_entry_line_reads_or_refuses_as_the_reference_reader(kind,
                                                                   line):
    assert _parsed(parse_entry_line, line, kind) == \
        _parsed(reference_parse_entry_line, line, kind)


def test_entries_are_slotted_and_still_replace_and_merge():
    entry = parse_entry_line("ktAb\tkitAb\tN\tbook\tkitAb_1\tCA", Kind.STEM)
    assert not hasattr(entry, "__dict__")
    with pytest.raises(FrozenInstanceError):
        entry.voc = "kutub"
    assert list(inspect.signature(LexEntry).parameters) == [
        f.name for f in fields(LexEntry)]
    assert LexEntry(**{f.name: getattr(entry, f.name)
                       for f in fields(LexEntry)}) == entry
    msa = replace(entry, flags=Flag.MSA)
    assert (msa.flags, msa.voc, entry.flags) == (Flag.MSA, "kitAb", Flag.CA)
    lex = _mini_lexicon(["ktAb\tkitAb\tN\tbook\tkitAb_1\tCA"])
    assert not lex.add(msa)
    assert lex.stems["ktAb"] == [replace(entry, flags=Flag.CA | Flag.MSA)]


_FLAG_SETS = st.integers(1, int(ALL_FLAGS)).map(Flag)


# Gloss and pos text that holds the annotation's markup.
_MARKUP = st.lists(st.sampled_from(["a", "b", " ", "(", "-", "/", "<", ">",
                                    "pos", "<pos>", "</pos>"]),
                   max_size=6).map(lambda parts: "".join(parts).strip())


def _ends_in_annotation(gloss):
    return gloss.endswith("</pos>") and "<pos>" in gloss[:-len("</pos>")]


@st.composite
def _entries(draw, kind=None):
    """A valid entry: null affixes, explicit and default ``<pos>``
    annotations, glosses and lemmas or none, any non-empty flag set.
    Glosses and explicit annotations may hold ``<``, ``>``, ``<pos>`` and
    ``</pos>`` wherever a row can carry them back."""
    kind = kind or draw(st.sampled_from(list(Kind)))
    units = draw(st.lists(
        st.tuples(st.sampled_from("ktbAlw>"),
                  st.sampled_from(["", "a", "i", "u", "~a"])),
        min_size=1 if kind is Kind.STEM else 0, max_size=3))
    voc = "".join(letter + vowels for letter, vowels in units)
    cat = draw(st.sampled_from(["N", "PV", "Pref-Al", "Suff-0", "NSuff-ap"]))
    pos = draw(st.none() | st.sampled_from(
        ["", "Al/DET", "wa/CONJ+Al/DET", "kitAb/N+ap/NSUFF"])
        | _MARKUP.filter(lambda p: "<pos>" not in p and "</pos>" not in p))
    gloss = draw(st.text("abc ()-", max_size=8).map(str.strip)
                 | _MARKUP.filter(lambda g: not _ends_in_annotation(g)))
    return LexEntry(
        kind=kind, surface=strip_diacritics(voc), voc=voc, cat=cat,
        gloss=gloss,
        pos=f"{voc}/{cat}" if voc and pos is None else pos or "",
        lemma=draw(st.just("") | st.builds("{}_{}".format,
                                           st.sampled_from(["kitAb", "Al"]),
                                           st.integers(1, 12))),
        flags=draw(_FLAG_SETS))


def _rows_counted(lex):
    return sum(1 for _ in lex.entries())


@given(st.lists(_entries(), max_size=12),
       st.lists(st.tuples(_entries(), st.sampled_from([Status.ACCEPTED,
                                                        Status.REJECTED])),
                max_size=6))
def test_len_counts_rows_after_adds_copies_and_merges(added, reviewed):
    lex = _mini_lexicon(["ktAb\tkitAb\tN\tbook\tkitAb_1\tCA"])
    # Re-adding rows with every flag gives duplicates and flag unions.
    for entry in added + [replace(e, flags=ALL_FLAGS) for e in added[::2]]:
        lex.add(entry)
        assert len(lex) == _rows_counted(lex)
    clone = lex.copy()
    assert len(clone) == _rows_counted(clone) == len(lex)
    batch = ReviewBatch([Candidate(e, status) for e, status in reviewed])
    merged = merge_reviewed(lex, batch)
    assert len(merged) == _rows_counted(merged)
    assert len(lex) == _rows_counted(lex) == len(clone)


@given(st.lists(_entries(), min_size=1, max_size=5), st.data())
def test_adds_equal_a_reference_keyed_by_row(pool, data):
    """Rows drawn from a small pool, repeated with other flags, added to a
    lexicon and then to a copy of it: return values, ``len``, row order
    and serialization match the reference, and the copy's adds leave the
    original as it was."""
    pool += [replace(e, cat=e.cat + "2") for e in pool]   # shared buckets

    def adds():
        picks = data.draw(st.lists(st.tuples(st.integers(0, len(pool) - 1),
                                             _FLAG_SETS), max_size=10))
        return [replace(pool[i], flags=flags) for i, flags in picks]

    first, then = adds(), adds()
    lex = Lexicon(CompatTables(frozenset(), frozenset(), frozenset()))
    assert [lex.add(e) for e in first] == reference_adds(first)[0]
    clone = lex.copy()
    assert [clone.add(e) for e in then] == \
        reference_adds(first + then)[0][len(first):]
    for lexicon, added in ((lex, first), (clone, first + then)):
        rows = reference_adds(added)[1]
        assert len(lexicon) == len(rows)
        assert list(lexicon.entries()) == rows
        files = serialize_lexicon(lexicon)
        for kind, name in zip(Kind, ("prefixes.tsv", "stems.tsv",
                                     "suffixes.tsv")):
            assert files[name] == "".join(format_entry_line(e) + "\n"
                                          for e in rows if e.kind is kind)


def _pad(text, pads):
    """Every tab-separated field of ``text`` with the next ``pads`` around
    it."""
    return "".join("\t".join(f"{next(pads)}{field}{next(pads)}"
                             for field in row.split("\t")) + "\n"
                   for row in text.splitlines())


@given(_entries(Kind.STEM), st.lists(_entries(), max_size=12),
       st.lists(st.sampled_from(["", " ", "  "]), min_size=1))
def test_serialize_load_round_trip_over_generated_entries(stem, entries,
                                                          pads):
    lex = Lexicon(CompatTables(ab=frozenset({("Pref-Al", "N")}),
                               bc=frozenset(), ac=frozenset()))
    for entry in [stem] + entries:
        lex.add(entry)
    files = serialize_lexicon(lex)
    reloaded = _reloaded(files, pads)
    assert list(reloaded.entries()) == list(lex.entries())
    assert serialize_lexicon(reloaded) == files


def _reloaded(files, pads=("",)):
    """``load_lexicon`` of ``serialize_lexicon``'s files, the entry files'
    fields padded with ``pads`` in turn."""
    spaces = cycle(pads)
    return load_lexicon(
        *(io.StringIO(_pad(files[name], spaces)) for name in LEXICON_FILES[:3]),
        tuple(io.StringIO(files[name]) for name in LEXICON_FILES[3:]))


@given(_entries())
def test_the_row_writer_writes_the_reference_bytes(entry):
    assert format_entry_line(entry) == reference_format_entry_line(entry)


def test_every_flag_column_reads_back_as_its_mask():
    for bits in range(1, int(ALL_FLAGS) + 1):
        assert _parse_flag_text(_flag_text(Flag(bits))) == Flag(bits)


def test_an_entry_without_flags_is_not_written():
    entry = LexEntry(Kind.STEM, "ktb", "kataba", "PV", "write", "kataba/PV",
                     "katab_1", Flag(0))
    message = ("^entry ktb/katab_1 has no flags; its row would read back "
               "with every flag$")
    with pytest.raises(LexiconError, match=message):
        format_entry_line(entry)
    lex = _mini_lexicon(["ktAb\tkitAb\tN\tbook\tkitAb_1\tCA"])
    lex.add(entry)
    with pytest.raises(LexiconError, match=message):
        serialize_lexicon(lex)
    with pytest.raises(LexiconError, match=message):
        save_review(ReviewBatch([Candidate(entry)]), io.StringIO())


@pytest.mark.parametrize("entry,name,value", [
    (LexEntry(Kind.STEM, "ktb", "kataba", "PV", " write ", "kataba/V ",
              "katab_1", Flag.CA), "gloss", " write "),
    (LexEntry(Kind.STEM, "ktb", "kataba", "PV ", "write", "kataba/PV",
              "katab_1", Flag.CA), "category", "PV ")])
def test_an_entry_with_a_padded_field_is_not_written(entry, name, value):
    message = (f"^entry ktb/katab_1: {name} '{value}' has leading or "
               "trailing whitespace, which its row would not read back$")
    with pytest.raises(LexiconError, match=message):
        format_entry_line(entry)
    lex = _mini_lexicon(["ktAb\tkitAb\tN\tbook\tkitAb_1\tCA"])
    lex.add(entry)
    with pytest.raises(LexiconError, match=message):
        serialize_lexicon(lex)
    with pytest.raises(LexiconError, match=message):
        save_review(ReviewBatch([Candidate(entry)]), io.StringIO())


def test_the_annotation_is_the_last_pos_that_ends_the_gloss_column():
    entry = LexEntry(Kind.STEM, "ktb", "kataba", "PV", "a <pos>x</pos> b",
                     "kataba/V", "katab_1", Flag.CA)
    assert format_entry_line(entry).split("\t")[3] == \
        "a <pos>x</pos> b <pos>kataba/V</pos>"
    lex = Lexicon(CompatTables(frozenset(), frozenset(), frozenset()))
    lex.add(entry)
    assert list(_reloaded(serialize_lexicon(lex)).entries()) == [entry]
    batch = ReviewBatch([Candidate(entry, Status.ACCEPTED)])
    assert _through_review_file(batch).candidates == batch.candidates


def test_a_pos_holding_the_annotation_markup_is_refused():
    for pos in ("a<pos>b", "a</pos>b"):
        entry = LexEntry(Kind.STEM, "ktb", "kataba", "PV", "g", pos,
                         "katab_1", Flag.CA)
        with pytest.raises(LexiconError, match=f"^entry ktb/katab_1: pos "
                           f"'{pos}' would not read back from a row$"):
            format_entry_line(entry)
    with pytest.raises(LexiconError, match="^s.tsv:3: pos 'a</pos>b' would "
                       "not read back from a row$"):
        parse_entry_line("ktb\tkataba\tPV\tg <pos>a</pos>b</pos>",
                         Kind.STEM, 3, "s.tsv")
    for tag in ("A<pos>", "A</pos>"):
        with pytest.raises(LexiconError, match=f"^w.tsv:1: pos 'jAmd/{tag}' "
                           "would not read back from a row$"):
            import_wordlist(io.StringIO(f"جامد\tcool\t{tag}\n"),
                            Kind.STEM, Flag.ICA, "w.tsv")


def _mini_lexicon(stem_rows, prefix_rows=("0\t0\tPref-0",),
                  suffix_rows=("0\t0\tSuff-0",),
                  ab=("Pref-0\tN",), bc=("N\tSuff-0",), ac=("Pref-0\tSuff-0",)):
    return load_lexicon(
        io.StringIO("\n".join(prefix_rows)),
        io.StringIO("\n".join(stem_rows)),
        io.StringIO("\n".join(suffix_rows)),
        (io.StringIO("\n".join(ab)), io.StringIO("\n".join(bc)),
         io.StringIO("\n".join(ac))),
    )


def test_load_collapses_duplicate_rows_by_flag_union():
    lex = _mini_lexicon(["ktAb\tkitAb\tN\tbook\tkitAb_1\tCA",
                         "ktAb\tkitAb\tN\tbook\tkitAb_1\tMSA"])
    entries = lex.stems["ktAb"]
    assert len(entries) == 1
    assert entries[0].flags == Flag.CA | Flag.MSA


def test_load_reports_line_numbers_on_malformed_rows():
    with pytest.raises(LexiconError, match="stems:2"):
        _mini_lexicon(["ktAb\tkitAb\tN\tbook\tkitAb_1", "broken"])


def test_load_rejects_empty_stem_file():
    with pytest.raises(LexiconError, match="no entries"):
        _mini_lexicon(["# only a comment"])


def test_load_warns_on_compat_category_without_entries(caplog):
    with caplog.at_level(logging.WARNING, logger="arabmorph.lexicon"):
        _mini_lexicon(["ktAb\tkitAb\tN\tbook\tkitAb_1"],
                      ab=("Pref-0\tN", "Pref-Al\tN"))
    assert any("Pref-Al" in r.message for r in caplog.records)


# --- lookup -----------------------------------------------------------------

def test_lookup_three_readings_of_ktab(lexicon):
    entries = lexicon.lookup("ktAb", Kind.STEM, ALL_FLAGS)
    assert [e.lemma for e in entries] == ["kitAb_1", "kut~Ab_1", "kAtib_1"]


def test_lookup_with_empty_mask_is_empty(lexicon):
    assert lexicon.lookup("ktAb", Kind.STEM, Flag(0)) == []
    assert lexicon.lookup("absent", Kind.STEM, ALL_FLAGS) == []


def test_lookup_classical_preset_excludes_ica_only(lexicon):
    assert lexicon.lookup("dA", Kind.STEM, ALL_FLAGS)
    assert lexicon.lookup("dA", Kind.STEM, classical_preset()) == []


def test_lookup_all_flags_equals_unfiltered(lexicon):
    for surface, bucket in lexicon.stems.items():
        assert lexicon.lookup(surface, Kind.STEM, ALL_FLAGS) == bucket


def test_lookup_fold_alif(lexicon):
    plain = lexicon.lookup(">rD", Kind.STEM, ALL_FLAGS)
    assert plain
    assert lexicon.lookup("ArD", Kind.STEM, ALL_FLAGS) == []
    assert lexicon.lookup("ArD", Kind.STEM, ALL_FLAGS, fold_alif=True) == plain


def test_a_view_leaves_the_lexicon_rows_as_they_were(tmp_path):
    """A view may hold a lexicon bucket itself; folding two surfaces onto
    one key, or hiding a row, gives the view a list of its own, on the text
    parse and on a snapshot hit of the same rows alike."""
    lex = _mini_lexicon(["ArD\tAaroD\tN\tland\tAaroD_1\tCA",
                         ">rD\t>aroD\tN\tland\t>aroD_1\tMSA",
                         ">rD\t>aruD\tN\tland\t>aruD_1\tCA"])
    for name, text in serialize_lexicon(lex).items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    load_lexicon_dir(tmp_path)                # writes the snapshot
    hit = load_lexicon_dir(tmp_path)
    assert any(type(bucket) is str      # restored, not yet built
               for bucket in hit._tables[Kind.STEM].values())
    rows = {s: list(bucket) for s, bucket in lex.stems.items()}
    for lexicon in (lex, hit):
        for active in (ALL_FLAGS, Flag.CA, Flag.MSA):
            for fold_alif in (False, True):
                view = lexicon.view(active, fold_alif)
                assert [e.voc for key in list(view.stems)
                        for e in view.read(key)] == [
                    e.voc for e in lex.entries()
                    if e.kind is Kind.STEM and e.flags & active]
        assert lexicon.stems == rows


@given(st.data())
def test_lookup_flag_monotonicity(lexicon, data):
    surface = data.draw(st.sampled_from(sorted(lexicon.stems)))
    small = data.draw(flag_lists)
    extra = data.draw(flag_lists)
    f_small = parse_flagset(small)
    f_big = f_small | parse_flagset(extra)
    subset = lexicon.lookup(surface, Kind.STEM, f_small)
    superset = lexicon.lookup(surface, Kind.STEM, f_big)
    assert set(map(id, subset)) <= set(map(id, superset))


@given(st.data())
def test_lookup_equals_a_filter_over_entries(lexicon, data):
    raw = sorted({e.surface for e in lexicon.entries()})
    folded = sorted({normalize(s, fold_alif=True) for s in raw} - set(raw))
    surface = data.draw(st.sampled_from(raw) | st.sampled_from(folded)
                        | st.text(alphabet="Ab>|<{tkl", max_size=4))
    kind = data.draw(st.sampled_from(list(Kind)))
    fold_alif = data.draw(st.booleans())
    active = parse_flagset(data.draw(flag_lists))

    def key(s):
        return normalize(s, fold_alif=True) if fold_alif else s

    expected = [e for e in lexicon.entries()
                if e.kind is kind and e.flags & active
                and key(e.surface) == key(surface)]
    assert lexicon.lookup(surface, kind, active, fold_alif) == expected


@pytest.mark.parametrize("fold_alif", [False, True])
def test_lookup_is_a_filter_with_a_stem_that_holds_a_line_feed(fold_alif):
    # No row can hold a line feed, but ``add`` takes any entry: the alif
    # fold of the stem keys, joined by line feeds, then splits into more
    # keys than stems, and each key is folded on its own.
    lex = _mini_lexicon([">mr\t>amr\tN\tcommand\t>amr_1\tMSA",
                         "ktb\tkutub\tN\tbooks\tkitAb_1\tMSA"])
    assert lex.add(replace(lex.stems["ktb"][0], surface="k\n>t"))

    def key(s):
        return normalize(s, fold_alif=True) if fold_alif else s

    for surface in ("k\n>t", "k\nAt", ">mr", "Amr", "ktb"):
        expected = [e for e in lex.entries()
                    if e.kind is Kind.STEM and key(e.surface) == key(surface)]
        assert lex.lookup(surface, Kind.STEM, Flag.MSA, fold_alif) == expected


def test_the_three_tables_are_the_store(lexicon):
    aliases = (lexicon.prefixes, lexicon.stems, lexicon.suffixes)
    for kind, alias in zip(Kind, aliases):
        assert lexicon.table(kind) is lexicon.tables[kind] is alias


@pytest.mark.parametrize("query,fold_alif", [(">mr", False), ("Amr", True)])
def test_add_after_a_lookup_shows_the_new_row(query, fold_alif):
    lex = _mini_lexicon([">mr\t>amr\tN\tcommand\t>amr_1\tMSA"])
    assert [e.lemma for e in lex.lookup(query, Kind.STEM, Flag.MSA,
                                        fold_alif)] == [">amr_1"]
    assert lex.add(parse_entry_line(">mr\t>am~ar\tPV\tappoint\t>am~ar_1\tMSA",
                                    Kind.STEM))
    assert [e.lemma for e in lex.lookup(query, Kind.STEM, Flag.MSA,
                                        fold_alif)] == [">amr_1", ">am~ar_1"]


@pytest.mark.parametrize("query,fold_alif", [(">mr", False), ("Amr", True)])
def test_add_after_a_lookup_shows_a_flag_union(query, fold_alif):
    lex = _mini_lexicon([">mr\t>amr\tN\tcommand\t>amr_1\tCA"])
    assert lex.lookup(query, Kind.STEM, Flag.MSA, fold_alif) == []
    assert not lex.add(parse_entry_line(">mr\t>amr\tN\tcommand\t>amr_1\tMSA",
                                        Kind.STEM))
    [entry] = lex.lookup(query, Kind.STEM, Flag.MSA, fold_alif)
    assert entry.flags == Flag.CA | Flag.MSA


def test_a_copy_changes_without_changing_the_original():
    lex = load_lexicon_dir(default_lexicon_dir())
    narrow = next(e for e in lex.entries() if e.flags != ALL_FLAGS)
    queries = [(e.surface, e.kind) for e in lex.entries()]
    before = [lex.lookup(s, k, ALL_FLAGS) for s, k in queries]
    files = serialize_lexicon(lex)
    clone = lex.copy()
    assert serialize_lexicon(clone) == files
    assert clone.add(parse_entry_line(
        "qhwp\tqahowap\tN\tcoffee\tqahowap_1\tMSA", Kind.STEM))
    assert not clone.add(replace(narrow, flags=ALL_FLAGS))
    assert narrow not in clone.table(narrow.kind)[narrow.surface]
    assert [lex.lookup(s, k, ALL_FLAGS) for s, k in queries] == before
    assert lex.lookup("qhwp", Kind.STEM, ALL_FLAGS) == []
    assert serialize_lexicon(lex) == files


def test_known_lemma_pos_is_kept_until_add_and_not_shared_by_copy():
    lex = load_lexicon_dir(default_lexicon_dir())
    known = lex.known_lemma_pos()
    assert isinstance(known, frozenset)
    assert known == {(e.lemma, e.head_tag()) for e in lex.entries()
                     if e.kind is Kind.STEM and e.lemma}
    assert lex.known_lemma_pos() is known
    clone = lex.copy()
    assert clone.known_lemma_pos() == known
    assert clone.add(parse_entry_line(
        "qhwp\tqahowap\tN\tcoffee\tqahowap_1\tMSA", Kind.STEM))
    assert clone.known_lemma_pos() == known | {("qahowap_1", "N")}
    assert lex.known_lemma_pos() is known


# --- compatibility ----------------------------------------------------------

def test_compatible_requires_all_three_pairs():
    tables = CompatTables(ab=frozenset({("Pref-Al", "N")}),
                          bc=frozenset({("N", "Suff-0")}),
                          ac=frozenset({("Pref-Al", "Suff-0")}))
    assert compatible(tables, "Pref-Al", "N", "Suff-0")
    assert not compatible(tables, "Pref-Al", "N", "Suff-X")
    assert not compatible(tables, "Pref-Al", "PV", "Suff-0")
    assert not compatible(tables, "Pref-0", "N", "Suff-0")


def test_compatible_article_never_attaches_to_perfect_verbs(lexicon):
    assert not compatible(lexicon.compat, "Pref-Al", "PV", "Suff-0")
    assert compatible(lexicon.compat, "Pref-Al", "N", "Suff-0")


def test_compatible_is_pure_and_implies_projections(lexicon):
    t = lexicon.compat
    for triple in [("Pref-0", "N", "Suff-0"), ("Pref-Al", "A", "NSuff-ap"),
                   ("Pref-IV", "IV", "IVSuff-u")]:
        first = compatible(t, *triple)
        assert compatible(t, *triple) == first
        if first:
            assert (triple[0], triple[1]) in t.ab
            assert (triple[1], triple[2]) in t.bc
            assert (triple[0], triple[2]) in t.ac


def test_bundled_affixes_respect_the_segmentation_caps(lexicon):
    from oracles import MAX_PREFIX_LEN, MAX_SUFFIX_LEN
    assert max(len(s) for s in lexicon.prefixes) <= MAX_PREFIX_LEN
    assert max(len(s) for s in lexicon.suffixes) <= MAX_SUFFIX_LEN


# --- serialization round trip ----------------------------------------------

def test_lexicon_serialize_load_round_trip(lexicon):
    files = serialize_lexicon(lexicon)
    reloaded = load_lexicon(
        io.StringIO(files["prefixes.tsv"]),
        io.StringIO(files["stems.tsv"]),
        io.StringIO(files["suffixes.tsv"]),
        (io.StringIO(files["compat_ab.tsv"]), io.StringIO(files["compat_bc.tsv"]),
         io.StringIO(files["compat_ac.tsv"])),
    )
    assert Counter(lexicon.entries()) == Counter(reloaded.entries())
    assert lexicon.compat == reloaded.compat


# --- imports ----------------------------------------------------------------

TEI = """\
<?xml version="1.0" encoding="UTF-8"?>
<TEI xmlns="http://www.tei-c.org/ns/1.0"><text><body>
<entry><form><orth>كِتاب</orth></form><sense>book</sense></entry>
</body></text></TEI>
"""


def test_import_tei_entry_without_live_lexicon_is_pending():
    batch = import_tei_dictionary(io.StringIO(TEI), Flag.CA)
    assert len(batch.candidates) == 1
    cand = batch.candidates[0]
    assert cand.status is Status.PENDING
    assert cand.entry.surface == "ktAb"
    assert cand.entry.voc == "kitAb"
    assert cand.entry.flags == Flag.CA
    assert cand.entry.kind is Kind.STEM


def test_import_tei_dedups_against_live_lexicon(lexicon, caplog):
    with open(DATA / "tei_dict.xml", encoding="utf-8") as f:
        with caplog.at_level(logging.WARNING, logger="arabmorph.lexicon"):
            batch = import_tei_dictionary(f, Flag.CA)
    reject_known(batch, lexicon)
    by_surface = {c.entry.surface: c.status for c in batch.candidates}
    assert by_surface == {"ktAb": Status.REJECTED, "dynAr": Status.PENDING,
                          "qmr": Status.REJECTED}
    assert batch.skipped == 1
    assert any("headword" in r.message for r in caplog.records)


def test_import_tei_empty_dictionary():
    xml = "<TEI><text><body/></text></TEI>"
    batch = import_tei_dictionary(io.StringIO(xml), Flag.CA)
    assert batch.candidates == []


def test_import_tei_rejects_malformed_xml():
    with pytest.raises(LexiconError, match="line 1"):
        import_tei_dictionary(io.StringIO("<TEI><entry>"), Flag.CA)


def test_import_tei_requires_flags():
    with pytest.raises(LexiconError, match="non-empty flag"):
        import_tei_dictionary(io.StringIO(TEI), Flag(0))
    with pytest.raises(LexiconError,
                       match="^import requires a non-empty flag set$"):
        import_wordlist(io.StringIO("جامد\tcool\tA\n"), Kind.STEM, Flag(0))


def test_import_wordlist_examples():
    stream = io.StringIO("اللي\tilli / relative pron\tPRON\n")
    batch = import_wordlist(stream, Kind.STEM, Flag.ICA)
    assert len(batch.candidates) == 1
    e = batch.candidates[0].entry
    assert e.surface == "Ally" and e.cat == "PRON" and e.flags == Flag.ICA
    assert batch.candidates[0].status is Status.PENDING

    stream = io.StringIO("اريزونا\tArizona\tNE\n")
    batch = import_wordlist(stream, Kind.STEM, Flag.FNE)
    assert batch.candidates[0].entry.surface == "AryzwnA"
    assert batch.candidates[0].entry.flags == Flag.FNE


def test_import_wordlist_empty_and_malformed():
    assert import_wordlist(io.StringIO(""), Kind.STEM, Flag.ICA).candidates == []
    with pytest.raises(LexiconError, match=":2"):
        import_wordlist(io.StringIO("جامد\tcool\tA\nbroken line\n"),
                        Kind.STEM, Flag.ICA)


def _through_review_file(batch):
    buf = io.StringIO()
    save_review(batch, buf)
    return load_review(io.StringIO(buf.getvalue()), "r.tsv")


def test_an_import_row_that_breaks_a_row_rule_is_refused():
    fatha = "\u064e"
    with pytest.raises(LexiconError) as exc:
        import_wordlist(io.StringIO(f"جامد\tcool\tA\n{fatha}\tfatha\tN\n"),
                        Kind.STEM, Flag.ICA, "w.tsv")
    assert str(exc.value) == \
        "w.tsv:2: stem entries require a non-empty surface"
    tei = (f"<TEI><entry><orth>{fatha}</orth><sense>fatha</sense></entry>"
           "<entry><orth>جامد</orth></entry></TEI>")
    batch = import_tei_dictionary(io.StringIO(tei), Flag.ICA)
    assert [c.entry.surface for c in batch.candidates] == ["jAmd"]
    assert batch.skipped == 1


# Arabic-block words, half of whose characters are harakat, so that
# words without a letter are common.
_ARABIC_WORDS = st.text(st.characters(min_codepoint=0x064B,
                                      max_codepoint=0x0652)
                        | st.characters(min_codepoint=0x0600,
                                        max_codepoint=0x06FF),
                        min_size=1, max_size=5)


def _assert_renders_in_arabic_script(batch):
    for c in batch.candidates:
        for value in (c.entry.surface, c.entry.voc):
            assert arabic_to_buck(buck_to_arabic(value)) == value


@given(st.sampled_from(list(Kind)), st.lists(_ARABIC_WORDS, max_size=6))
def test_every_imported_candidate_survives_the_review_file(kind, words):
    rows = "".join(f"{w}\tgloss\tN\n" for w in words)
    try:
        batch = import_wordlist(io.StringIO(rows), kind, Flag.ICA, "w.tsv")
    except LexiconError as exc:
        assert re.match(r"w\.tsv:[1-9][0-9]*: ", str(exc))
    else:
        reloaded = _through_review_file(batch)
        assert reloaded.kind is kind
        assert reloaded.candidates == batch.candidates
        _assert_renders_in_arabic_script(batch)
    tei = "<TEI>%s</TEI>" % "".join(
        f"<entry><orth>{escape(w)}</orth><sense>gloss</sense></entry>"
        for w in words)
    batch = import_tei_dictionary(io.StringIO(tei), Flag.ICA)
    assert len(batch.candidates) + batch.skipped == len(words)
    assert _through_review_file(batch).candidates == batch.candidates
    _assert_renders_in_arabic_script(batch)


# --- review and merge --------------------------------------------------------

def _reviewed_batch(statuses):
    rows = ["جامد\tcool (dialect)\tA", "معلش\tnever mind (dialect)\tPART"]
    batch = import_wordlist(io.StringIO("\n".join(rows)), Kind.STEM, Flag.ICA)
    for cand, status in zip(batch.candidates, statuses):
        cand.status = status
    return batch


def test_merge_rejects_pending(lexicon):
    batch = _reviewed_batch([Status.PENDING, Status.ACCEPTED])
    with pytest.raises(LexiconError, match="Pending"):
        merge_reviewed(lexicon, batch)


def test_merge_counts_and_idempotence(lexicon):
    batch = _reviewed_batch([Status.ACCEPTED, Status.REJECTED])
    merged = merge_reviewed(lexicon, batch)
    assert len(merged) == len(lexicon) + 1
    again = merge_reviewed(merged, batch)
    assert len(again) == len(merged)
    assert Counter(again.entries()) == Counter(merged.entries())


def test_merge_never_removes_entries(lexicon):
    batch = _reviewed_batch([Status.ACCEPTED, Status.ACCEPTED])
    merged = merge_reviewed(lexicon, batch)
    assert Counter(lexicon.entries()) - Counter(merged.entries()) == Counter()


_CATS = "abc"
_CAT_PAIRS = st.frozensets(st.tuples(st.sampled_from(_CATS),
                                     st.sampled_from(_CATS)), max_size=9)


def _three_branch_can_surface(compat, entry):
    """Whether an entry's category appears in a licensed triple, written
    per kind over the three pair tables."""
    ab, bc, ac = compat.ab, compat.bc, compat.ac
    c = entry.cat
    if entry.kind is Kind.STEM:
        return any((p, c) in ab and (c, u) in bc and (p, u) in ac
                   for p, _ in ab for _, u in bc)
    if entry.kind is Kind.PREFIX:
        return any((c, s) in ab and (s, u) in bc and (c, u) in ac
                   for _, s in ab for _, u in bc)
    return any((p, s) in ab and (s, c) in bc and (p, c) in ac
               for p, s in ab)


@given(_CAT_PAIRS, _CAT_PAIRS, _CAT_PAIRS)
def test_licensing_is_the_conjunction_of_the_three_pair_tables(ab, bc, ac):
    compat = CompatTables(ab, bc, ac)
    lex = Lexicon(compat)
    for p, s, u in product(_CATS, repeat=3):
        assert compatible(compat, p, s, u) == \
            ((p, s) in ab and (s, u) in bc and (p, u) in ac)
    for kind, cat in product(Kind, _CATS):
        entry = LexEntry(kind, "k", "k", cat, "", "", "", Flag.CA)
        assert _can_surface(lex, entry) == \
            _three_branch_can_surface(compat, entry)


def test_the_bundled_tables_license_142_category_triples(lexicon):
    t = lexicon.compat
    cats = t.categories()
    assert t.triples == {(p, s, u) for p, s, u in product(cats, repeat=3)
                         if (p, s) in t.ab and (s, u) in t.bc
                         and (p, u) in t.ac}
    assert len(t.triples) == 142


def test_merge_warns_on_unreachable_category(lexicon, caplog):
    rows = io.StringIO("يلا\tcome on\tINTERJ\n")
    batch = import_wordlist(rows, Kind.STEM, Flag.ICA)
    batch.candidates[0].status = Status.ACCEPTED
    with caplog.at_level(logging.WARNING, logger="arabmorph.lexicon"):
        merged = merge_reviewed(lexicon, batch)
    assert len(merged) == len(lexicon) + 1
    assert any("never appear" in r.message for r in caplog.records)


def test_review_file_round_trip():
    batch = _reviewed_batch([Status.ACCEPTED, Status.REJECTED])
    buf = io.StringIO()
    save_review(batch, buf)
    reloaded = load_review(io.StringIO(buf.getvalue()))
    assert reloaded.kind is Kind.STEM
    assert [c.status for c in reloaded.candidates] == \
        [Status.ACCEPTED, Status.REJECTED]
    assert [c.entry for c in reloaded.candidates] == \
        [c.entry for c in batch.candidates]


@given(st.sampled_from(list(Kind)), st.data())
def test_review_file_round_trip_over_generated_entries(kind, data):
    rows = data.draw(st.lists(st.tuples(_entries(kind),
                                        st.sampled_from(list(Status))),
                              max_size=8))
    batch = ReviewBatch([Candidate(e, status) for e, status in rows],
                        source="w.tsv", kind=kind)
    reloaded = _through_review_file(batch)
    assert (reloaded.kind, reloaded.source) == (kind, "w.tsv")
    assert reloaded.candidates == batch.candidates


def test_review_file_rejects_bad_status():
    with pytest.raises(LexiconError, match="bad status"):
        load_review(io.StringIO("X\tktAb\tkitAb\tN\tbook\tkitAb_1\tCA\n"))


def test_review_file_rejects_bad_kind():
    with pytest.raises(LexiconError, match="^r.tsv:2: bad kind 'bogus'"):
        load_review(io.StringIO("# comment\n#! kind=bogus\tsource=x\n"),
                    "r.tsv")


@pytest.mark.parametrize("part", ["knid=prefix", "prefix", "kind",
                                  "source"])
def test_a_review_header_field_other_than_kind_or_source_is_refused(part):
    buf = io.StringIO()
    save_review(ReviewBatch(source="w.tsv", kind=Kind.PREFIX), buf)
    assert load_review(io.StringIO(buf.getvalue())).kind is Kind.PREFIX
    text = buf.getvalue().replace("kind=prefix", part)
    with pytest.raises(LexiconError, match=f"^r.tsv:2: bad header field "
                       f"{re.escape(repr(part))}, expected kind=KIND or "
                       "source=NAME$"):
        load_review(io.StringIO(text), "r.tsv")


@pytest.mark.parametrize("source", ["a\tb.tsv", "a\nb.tsv", "a\rb.tsv"])
def test_a_review_source_that_would_not_read_back_is_refused(source):
    with pytest.raises(LexiconError, match="would not read back"):
        save_review(ReviewBatch(source=source), io.StringIO())


_REVIEW_PIECES = st.sampled_from(
    ["#!", "#! ", "kind=", "stem", "prefix", "suffix", "bogus", "source=",
     "\t", "\t", "\t", "\n", "\n", "A", "P", "R", "X", "#", " ", "0",
     "ktAb", "kitAb", "N", "kitAb_1", "MSA", "CA|MSA", "|", "<pos>",
     "</pos>", "\r", "\x85"])
_ANY_CHARS = st.text(st.characters(blacklist_categories=()), max_size=3)


@given(st.lists(st.one_of(_REVIEW_PIECES, _ANY_CHARS), max_size=40)
       .map("".join))
def test_any_text_loads_as_a_review_or_raises_lexicon_error(text):
    for source in (io.StringIO(text), text.splitlines(keepends=True)):
        try:
            batch = load_review(source)
        except LexiconError:
            continue
        assert isinstance(batch.kind, Kind)
        for cand in batch.candidates:
            assert isinstance(cand.status, Status)
            assert strip_diacritics(cand.entry.voc) == cand.entry.surface


# --- the import -> review -> merge -> lexicon loop ---------------------------

def test_an_import_gloss_that_a_row_cannot_carry_is_refused():
    for gloss in ("pen <pos>x/N</pos>", "pen\rquill"):
        with pytest.raises(LexiconError) as exc:
            import_wordlist(io.StringIO(f"جامد\tcool\tA\nقلم\t{gloss}\tN\n"),
                            Kind.STEM, Flag.ICA, "w.tsv")
        assert str(exc.value) == \
            f"w.tsv:2: gloss {gloss!r} would not read back from a row"


@pytest.mark.parametrize("line,name,value", [
    ("ktAb\tkitAb\tN\rX\tbook\tkitAb_1", "category", "N\rX"),
    ("ktAb\tkitAb\tN\nX\tbook\tkitAb_1", "category", "N\nX"),
    ("kt\rAb\tkit\rAb\tN\tbook\tkitAb_1", "surface", "kt\rAb"),
    ("ktAb\tkitAb\tN\tbook\tkit\rAb_1", "lemma", "kit\rAb_1"),
    ("ktAb\tkitAb\tN\tbo\nok\tkitAb_1", "gloss", "bo\nok")])
def test_a_row_field_holding_a_line_break_is_refused(line, name, value):
    with pytest.raises(LexiconError) as exc:
        parse_entry_line(line, Kind.STEM, 3, "s.tsv")
    assert str(exc.value) == \
        f"s.tsv:3: {name} {value!r} would not read back from a row"


def test_an_import_row_field_that_a_row_cannot_carry_is_refused():
    # In-memory streams keep a CR inside a line; such a category or word
    # would split the review file's row when it is read back.
    for row, name, value in [("قلم\tpen\tN\rX\n", "category", "N\rX"),
                             ("ق\rلم\tpen\tN\n", "surface", "q\rlm")]:
        with pytest.raises(LexiconError) as exc:
            import_wordlist(io.StringIO(row), Kind.STEM, Flag.CA, "w.tsv")
        assert str(exc.value) == \
            f"w.tsv:1: {name} {value!r} would not read back from a row"


@pytest.mark.parametrize("line,name,value", [
    ("qlm\tqalam\tN\tpen\tqa/lam_1\tMSA", "lemma", "qa/lam_1"),
    ("q/lm\tqa/lam\tN\tpen\tqalam_1\tMSA", "voc", "qa/lam")])
def test_a_voc_or_lemma_holding_a_slash_is_refused(line, name, value):
    # A reading is written voc/lemma/pos, so a slash in either would
    # give it four parts.
    message = (f"{name} {value!r} holds '/', which a voc/lemma/pos "
               "reading cannot carry")
    with pytest.raises(LexiconError) as exc:
        parse_entry_line(line, Kind.STEM, 3, "s.tsv")
    assert str(exc.value) == f"s.tsv:3: {message}"
    with pytest.raises(LexiconError) as exc:
        import_wordlist(io.StringIO("x/y\tpen\tN\n"), Kind.STEM, Flag.CA)
    assert str(exc.value) == ("wordlist:1: voc 'x/y' holds '/', which a "
                              "voc/lemma/pos reading cannot carry")


def test_an_import_word_that_reads_as_the_null_marker_is_refused():
    with pytest.raises(LexiconError,
                       match="^w.tsv:1: '0' reads as the null marker 0$"):
        import_wordlist(io.StringIO("0\tzero\tN\n"), Kind.PREFIX, Flag.ICA,
                        "w.tsv")
    tei = ("<TEI><entry><orth>0</orth><sense>zero</sense></entry>"
           "<entry><orth>0َ</orth><sense>zero</sense></entry></TEI>")
    batch = import_tei_dictionary(io.StringIO(tei), Flag.ICA)
    assert (batch.candidates, batch.skipped) == ([], 2)


def test_an_import_word_that_tokenize_would_not_read_is_refused():
    # Read as Buckwalter, "book" would give the stem bk: "o" is a sukun.
    with pytest.raises(LexiconError, match=(
            "^w.tsv:1: 'book' is not a word that tokenize would read$")):
        import_wordlist(io.StringIO("book\tbook\tN\n"), Kind.STEM,
                        Flag.ICA, "w.tsv")
    tei = ("<TEI><entry><orth>book</orth><sense>book</sense></entry>"
           "<entry><orth>قلم جاف</orth><sense>ballpoint</sense></entry>"
           "<entry><orth>\ufedb\ufe98\ufe90</orth><sense>wrote</sense>"
           "</entry></TEI>")
    batch = import_tei_dictionary(io.StringIO(tei), Flag.ICA)
    assert [c.entry.surface for c in batch.candidates] == ["ktb"]
    assert batch.skipped == 2


def test_an_import_word_with_a_letter_outside_the_table_is_refused():
    # Persian pe (U+067E) is a word letter that tokenize reads as itself,
    # but a row holding it could not be written back in Arabic script.
    (token,) = tokenize("\u067e\u0643")
    assert token.key == "\u067ek"
    with pytest.raises(LexiconError) as exc:
        import_wordlist(io.StringIO("قلم\tpen\tN\n\u067e\u0643\tx\tN\n"),
                        Kind.STEM, Flag.ICA, "w.tsv")
    assert str(exc.value) == ("w.tsv:2: '\u067e\u0643' holds U+067E, which "
                              "the transliteration table lacks")
    tei = ("<TEI><entry><orth>\u0643\u067e</orth><sense>x</sense></entry>"
           "<entry><orth>قلم</orth><sense>pen</sense></entry></TEI>")
    batch = import_tei_dictionary(io.StringIO(tei), Flag.ICA)
    assert [c.entry.surface for c in batch.candidates] == ["qlm"]
    assert batch.skipped == 1


@pytest.mark.parametrize("line,name,codepoint", [
    ("ktb\tkutub\tN\tbooks\tkitAb\x01_1", "lemma", "U+0001"),
    ("ktb\tkutub\tN\tbo\x0boks\tkitAb_1", "gloss", "U+000B"),
    ("ktb\tkutub\tN\tbooks <pos>kutub/N\ufffe</pos>\tkitAb_1", "pos",
     "U+FFFE")])
def test_a_row_field_holding_a_character_xml_cannot_carry_is_refused(
        line, name, codepoint):
    message = f"{name} holds {codepoint}, which XML 1.0 cannot carry"
    with pytest.raises(LexiconError) as exc:
        parse_entry_line(line, Kind.STEM, 9, "stems.tsv")
    assert str(exc.value) == f"stems.tsv:9: {message}"
    with pytest.raises(LexiconError, match="^w.tsv:1: gloss holds U\\+0001"):
        import_wordlist(io.StringIO("قلم\tp\x01en\tN\n"), Kind.STEM,
                        Flag.ICA, "w.tsv")


def test_tei_import_makes_whitespace_runs_one_space():
    tei = ("<TEI><entry><orth> قلم\n</orth><sense>pen,\n      reed\tpen"
           "</sense></entry><entry><orth>جامد</orth>"
           "<sense>cool &lt;pos&gt;x/N&lt;/pos&gt;</sense></entry></TEI>")
    batch = import_tei_dictionary(io.StringIO(tei), Flag.ICA)
    assert [(c.entry.surface, c.entry.gloss) for c in batch.candidates] == \
        [("qlm", "pen, reed pen")]
    assert batch.skipped == 1


def test_reject_known_rejects_what_the_lexicon_holds_whatever_the_source(
        lexicon):
    rows = io.StringIO("كِتاب\tbook\tN\nجامد\tcool\tA\n")
    batch = import_wordlist(rows, Kind.STEM, Flag.CA)
    reject_known(batch, lexicon)
    assert [c.status for c in batch.candidates] == \
        [Status.REJECTED, Status.PENDING]


def _xml_char(c):
    return (c in "\t\n\r" or " " <= c <= "\ud7ff"
            or "\ue000" <= c <= "\ufffd" or c >= "\U00010000")


# Glosses built from the pieces that break a row, and from any text.
_GLOSSES = (st.lists(st.sampled_from(
    ["pen", " ", "  ", "\t", "\n", "\r", "\r\n", "<pos>", "</pos>", "x/N",
     "#", "0", "|", "\x85", "\u2028", "&"]), max_size=8).map("".join)
    | st.text(st.characters(blacklist_categories=("Cs",)), max_size=12))


def _accept_merge_and_reload(batch):
    """The batch through a review file, every candidate accepted, merged
    into a small lexicon, serialized and loaded back."""
    reviewed = _through_review_file(batch)
    assert reviewed.candidates == batch.candidates
    for cand in reviewed.candidates:
        cand.status = Status.ACCEPTED
    base = _mini_lexicon(["ktAb\tkitAb\tN\tbook\tkitAb_1\tCA"])
    files = serialize_lexicon(merge_reviewed(base, reviewed))
    streams = [io.StringIO(files[name]) for name in LEXICON_FILES]
    return load_lexicon(*streams[:3], tuple(streams[3:]))


def _assert_each_candidate_reads_back(batch):
    reloaded = _accept_merge_and_reload(batch)
    seen = set()
    for cand in batch.candidates:
        e = cand.entry
        key = (e.kind, e.surface, e.voc, e.cat, e.lemma)
        if key in seen:
            continue    # a repeated row merges onto the first by design
        seen.add(key)
        assert e in reloaded.table(e.kind)[e.surface]


@given(st.sampled_from(list(Kind)),
       st.lists(st.tuples(_ARABIC_WORDS, _GLOSSES), max_size=5))
def test_every_import_reads_back_from_the_merged_lexicon(kind, rows):
    text = "".join(f"{word}\t{gloss}\tN\n" for word, gloss in rows)
    try:
        batch = import_wordlist(io.StringIO(text), kind, Flag.ICA, "w.tsv")
    except LexiconError as exc:
        assert re.match(r"w\.tsv:[1-9][0-9]*: ", str(exc))
    else:
        _assert_each_candidate_reads_back(batch)
    tei = "<TEI>%s</TEI>" % "".join(
        f"<entry><orth>{escape(word)}</orth>"
        f"<sense>{escape(''.join(filter(_xml_char, gloss)))}</sense></entry>"
        for word, gloss in rows)
    batch = import_tei_dictionary(io.StringIO(tei), Flag.ICA)
    assert len(batch.candidates) + batch.skipped == len(rows)
    _assert_each_candidate_reads_back(batch)
