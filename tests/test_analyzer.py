import inspect
import io
import random
import shutil
import time
from dataclasses import FrozenInstanceError, fields, replace

import pytest
from hypothesis import given, strategies as st

from arabmorph.analyzer import (Analysis, TokenReadings, TypeCache,
                                analyze_text, analyze_type, lookup_key,
                                token_lookup_key, tokenize)
from arabmorph.cli import default_lexicon_dir
from arabmorph.lexicon import (ALL_FLAGS, LEXICON_FILES, Flag, Kind,
                               compatible, load_lexicon, load_lexicon_dir,
                               parse_entry_line, parse_flagset)
from arabmorph.translit import (DEFAULT_TABLE, DIACRITICS, TATWEEL, BuckTable,
                                strip_diacritics)

from oracles import (MAX_PREFIX_LEN, MAX_SUFFIX_LEN, brute_force_analyses,
                     brute_force_segmentation_count,
                     licensed_surfaces, licensed_triples,
                     one_lookup_per_split_analyses, reference_lookup_key,
                     reference_to_buck, reference_tokenize, segmentations)

MSA = parse_flagset(["MSA"])


# --- tokenize ---------------------------------------------------------------

def test_tokenize_phrase_with_diacritics_and_punctuation():
    tokens = tokenize("مع كاتبٍ.")
    assert [(t.surface, t.offset) for t in tokens] == \
        [("مع", 0), ("كاتبٍ", 3)]


def test_tokenize_empty_and_non_arabic():
    assert tokenize("") == []
    assert tokenize("abc 123 -- !") == []


def test_tokenize_strips_latin_digits_punctuation_but_keeps_offsets():
    text = "قال: \"مع\" 123 كاتب!"
    tokens = tokenize(text)
    assert [t.surface for t in tokens] == ["قال", "مع", "كاتب"]
    for t in tokens:
        assert text[t.offset:t.offset + len(t.surface)] == t.surface
    offsets = [t.offset for t in tokens]
    assert offsets == sorted(offsets)


@given(st.text(max_size=40))
def test_tokenize_invariants(text):
    tokens = tokenize(text)
    last = -1
    for t in tokens:
        assert t.surface
        assert " " not in t.surface
        assert t.offset > last
        last = t.offset


ZWNJ = "\u200c"
PRESENTATION_FORMS = "\ufe8d\ufe8e\ufe91\ufefb\ufb50\ufdf2"
OTHER = "abzXY09٣ .,-\n" + ZWNJ + PRESENTATION_FORMS

# Keys an alternate table may map: Arabic letters and marks, and ASCII
# characters that a regex character class must escape.
ALT_KEYS = sorted(DEFAULT_TABLE.a2b) + list("]-^\\[.*a")
ALT_VALUES = sorted(set(DEFAULT_TABLE.b2a) | set(DIACRITICS) | {TATWEEL})


@st.composite
def alternate_tables(draw):
    """A one-to-one table over a subset of ``ALT_KEYS``, possibly empty;
    each value is one character, which may be a diacritic or tatweel."""
    keys = draw(st.lists(st.sampled_from(ALT_KEYS), max_size=30,
                         unique=True))
    values = draw(st.lists(st.text(ALT_VALUES, min_size=1, max_size=1),
                           min_size=len(keys), max_size=len(keys),
                           unique=True))
    return BuckTable(dict(zip(keys, values)))


def mixed_texts(table):
    """Text mixing the table's letters, runs of its bare marks (diacritics
    and tatweel), ZWNJ, presentation forms, Latin, digits and spaces."""
    letters = sorted(table.arabic_letters) or [" "]
    marks = sorted(set(table.a2b) - table.arabic_letters) or [" "]
    piece = st.one_of(st.text(letters, min_size=1, max_size=6),
                      st.text(marks, min_size=1, max_size=8),
                      st.text(sorted(table.a2b), min_size=1, max_size=6),
                      st.text(OTHER, min_size=1, max_size=4))
    return st.lists(piece, max_size=12).map("".join)


@given(st.data(), st.booleans())
def test_tokenize_and_to_buck_equal_the_references(data, alternate):
    table = data.draw(alternate_tables()) if alternate else DEFAULT_TABLE
    text = data.draw(mixed_texts(table))
    assert [(t.surface, t.offset) for t in tokenize(text, table)] \
        == reference_tokenize(text, table)
    assert table.to_buck(text) == reference_to_buck(table, text)


@given(st.data(), st.booleans())
def test_token_keys_are_the_lookup_keys_of_their_surfaces(data, alternate):
    table = data.draw(alternate_tables()) if alternate else DEFAULT_TABLE
    for t in tokenize(data.draw(mixed_texts(table)), table):
        assert t.key == token_lookup_key(t, table)


@given(st.data(), st.booleans())
def test_lookup_key_is_to_buck_then_normalize_then_strip(data, alternate):
    # Latin diacritics and tatweel pass through a table that lacks them,
    # and a table may map an Arabic character onto one (the default table
    # maps its harakat so).
    table = data.draw(alternate_tables()) if alternate else DEFAULT_TABLE
    pieces = st.one_of(mixed_texts(table),
                       st.text(DIACRITICS + TATWEEL, min_size=1, max_size=4))
    text = data.draw(st.lists(pieces, max_size=4).map("".join))
    assert lookup_key(text, table) == reference_lookup_key(table, text)


def test_tokens_of_one_run_share_its_surface_and_key():
    first, again, vocalized, last = tokenize("كتب، كتب كَتَب كتب")
    assert first.surface is again.surface is last.surface
    assert first.key is again.key is last.key
    assert vocalized.surface != first.surface
    assert vocalized.key == first.key == "ktb"


def test_presentation_forms_and_zwnj_stay_inside_a_word(lexicon):
    forms, zwnj = "\ufedb\ufe98\ufe90", "\u0643\u062a\u0628\u200c\u0628"
    (token,) = tokenize(f"({forms})")
    assert (token.surface, token.offset, token.key) == (forms, 1, "ktb")
    (plain,) = tokenize("\u0643\u062a\u0628")
    [read, expected] = analyze_text([token, plain], lexicon, ALL_FLAGS)
    assert read.analyses == expected.analyses != ()
    (token,) = tokenize(zwnj)
    assert (token.surface, token.key) == (zwnj, "ktbb")


def test_tokenize_is_linear_in_runs_of_bare_marks():
    text = "\u0640" * 200_000 + " كتب " + "\u064e" * 200_000
    start = time.perf_counter()
    tokens = tokenize(text)
    elapsed = time.perf_counter() - start
    assert [(t.surface, t.offset) for t in tokens] == [("كتب", 200_001)]
    assert elapsed < 1.0


# --- segmentations ----------------------------------------------------------

def test_segmentations_two_char_surface():
    assert segmentations("mE") == [("", "mE", ""), ("", "m", "E"),
                                   ("m", "E", "")]


def test_segmentations_single_char():
    assert segmentations("k") == [("", "k", "")]


def test_segmentations_count_matches_brute_force():
    for n in range(1, 14):
        surface = "b" * n
        segs = segmentations(surface)
        assert len(segs) == brute_force_segmentation_count(
            n, MAX_PREFIX_LEN, MAX_SUFFIX_LEN)
        assert len(set(segs)) == len(segs)


def test_segmentations_respect_caps_and_reassemble():
    surface = "AlktAbyn"
    for pre, stem, suf in segmentations(surface):
        assert pre + stem + suf == surface
        assert stem
        assert len(pre) <= MAX_PREFIX_LEN
        assert len(suf) <= MAX_SUFFIX_LEN


def test_segmentations_order_is_prefix_then_suffix_ascending():
    segs = segmentations("AlktAb")
    lengths = [(len(p), len(s)) for p, _, s in segs]
    assert lengths == sorted(lengths)
    assert len(segs) == 20


# --- analyze_type worked examples --------------------------------------------

def test_analyze_type_three_readings_of_the_definite_book(lexicon):
    out = analyze_type("AlktAb", lexicon, MSA)
    assert [(a.voc, a.lemma) for a in out] == [
        ("Al+kitAb", "kitAb_1"),
        ("Al+kut~Ab", "kut~Ab_1"),
        ("Al+kut~Ab", "kAtib_1"),
    ]
    assert all(a.tags == "DET+N" and a.pos == "N" for a in out)


def test_analyze_type_three_readings_of_katb(lexicon):
    out = analyze_type("kAtb", lexicon, MSA)
    assert [(a.voc, a.lemma, a.pos) for a in out] == [
        ("kAtab+a", "kAtab_1", "V"),
        ("kAtib", "kAtib_1", "N"),
        ("kAtib", "kAtib_2", "A"),
    ]


def test_analyze_type_single_reading_of_the_preposition(lexicon):
    out = analyze_type("mE", lexicon, MSA)
    assert [a.ana for a in out] == ["maEa/maEa_1/PREP"]


def test_analyze_type_unknown_surface(lexicon):
    assert analyze_type("qhwp", lexicon, ALL_FLAGS) == []


def test_analyses_are_slotted_frozen_and_still_replace(lexicon):
    reading = analyze_type("AlktAb", lexicon, MSA)[0]
    assert not hasattr(reading, "__dict__")
    with pytest.raises(FrozenInstanceError):
        reading.voc = "Al+kutub"
    names = [f.name for f in fields(Analysis)]
    assert names == ["voc", "lemma", "pos", "parts"]
    assert list(inspect.signature(Analysis).parameters) == names
    values = [getattr(reading, name) for name in names]
    keyword = Analysis(**dict(zip(names, values)))
    assert keyword == Analysis(*values) == reading
    assert hash(keyword) == hash(reading)
    assert repr(keyword) == repr(reading) == "Analysis(" + ", ".join(
        f"{name}={value!r}" for name, value in zip(names, values)) + ")"
    changed = replace(reading, voc="Al+kutub")
    assert (changed.voc, changed.ana, reading.ana) == (
        "Al+kutub", "Al+kutub/kitAb_1/N", "Al+kitAb/kitAb_1/N")
    assert replace(changed, voc=reading.voc) == reading


@pytest.mark.parametrize("fold_alif", [False, True])
def test_analyze_type_of_the_empty_surface_is_empty(lexicon, fold_alif):
    assert analyze_type("", lexicon, ALL_FLAGS, fold_alif) == []


# --- oracle agreement and invariants ------------------------------------------

def test_analyze_type_agrees_with_uncapped_brute_force(lexicon):
    for surface in ["AlktAb", "kAtb", "mE", "mlk", "wAlfDp", "llmryD",
                    "byktb", "syktb", "qr>nA", "ktAbA", "Erby", "yktb"]:
        fast = {(a.voc, a.lemma, a.pos) for a in
                analyze_type(surface, lexicon, ALL_FLAGS)}
        assert fast == brute_force_analyses(surface, lexicon, ALL_FLAGS)


def _agrees_with_one_lookup_per_split(surfaces, lex, active, fold_alif):
    """Against every split of each surface: the analyzer has no affix
    length cap of its own."""
    for surface in surfaces:
        fast = [(a.voc, a.lemma, a.pos, a.parts)
                for a in analyze_type(surface, lex, active, fold_alif)]
        assert fast == one_lookup_per_split_analyses(
            surface, lex, active, fold_alif, len(surface), len(surface))


@pytest.mark.parametrize("fold_alif", [False, True])
def test_analyze_type_lists_corpus_readings_in_reference_order(
        lexicon, corpus_text, fold_alif):
    types = sorted({token_lookup_key(t) for t in tokenize(corpus_text)})
    for active in (ALL_FLAGS, MSA):
        _agrees_with_one_lookup_per_split(types, lexicon, active, fold_alif)


@pytest.mark.parametrize("fold_alif", [False, True])
def test_analyze_type_lists_licensed_readings_in_reference_order(
        lexicon, fold_alif):
    surfaces = random.Random(5).sample(licensed_surfaces(lexicon), 1500)
    _agrees_with_one_lookup_per_split(surfaces, lexicon, ALL_FLAGS, fold_alif)


@pytest.fixture(scope="module")
def licensed(lexicon):
    return licensed_surfaces(lexicon)


@given(st.data())
def test_analyze_type_lists_readings_in_reference_order_under_any_flags(
        lexicon, licensed, data):
    # Each bare alif may become a variant, so that folding matters.
    surface = "".join(data.draw(st.sampled_from("A><|{")) if ch == "A" else ch
                      for ch in data.draw(st.sampled_from(licensed)))
    active = parse_flagset(data.draw(
        st.lists(st.sampled_from([f.name for f in Flag]), max_size=9)))
    _agrees_with_one_lookup_per_split([surface], lexicon, active,
                                      data.draw(st.booleans()))


def _triples_by_active_set(triples, seed, n):
    """All triples under ``ALL_FLAGS``, then each triple under ``n`` seeded
    active sets its three entries meet: each the union of one flag drawn
    from every entry's flags.  Maps active set -> triples."""
    rng = random.Random(seed)
    members = {mask: [f for f in Flag if f & mask]
               for mask in {e.flags for triple in triples for e in triple}}
    groups = {ALL_FLAGS: list(triples)}
    for triple in triples:
        for _ in range(n):
            active = Flag(0)
            for entry in triple:
                active |= rng.choice(members[entry.flags])
            groups.setdefault(active, []).append(triple)
    return groups


@pytest.mark.parametrize("fold_alif", [False, True])
def test_analyze_type_finds_the_reading_of_every_licensed_triple(
        lexicon, fold_alif):
    """A generative oracle: the joined surface of each licensed entry
    triple has the (voc, lemma, primary tag) built from the three entries
    among its readings, under active sets the three entries meet."""
    groups = _triples_by_active_set(licensed_triples(lexicon), seed=3, n=2)
    for active, triples in groups.items():
        readings: dict[str, set] = {}
        for a, b, c in triples:
            surface = a.surface + b.surface + c.surface
            if surface not in readings:
                readings[surface] = {
                    (x.voc, x.lemma, x.pos)
                    for x in analyze_type(surface, lexicon, active, fold_alif)}
            voc = "+".join(e.voc for e in (a, b, c) if e.voc)
            assert (voc, b.lemma, b.head_tag()) in readings[surface], \
                (surface, active)


@pytest.mark.parametrize("fold_alif", [False, True])
def test_analyze_type_sees_a_stem_added_after_it_ran(lexicon, fold_alif):
    lex = lexicon.copy()
    assert analyze_type("qhwp", lex, ALL_FLAGS, fold_alif) == []
    assert lex.add(parse_entry_line(
        "qhwp\tqahowap\tN\tcoffee\tqahowap_1\tMSA", Kind.STEM))
    assert [a.ana for a in analyze_type("qhwp", lex, ALL_FLAGS, fold_alif)
            ] == ["qahowap/qahowap_1/N"]


@pytest.mark.parametrize("kind,row,surface,reading", [
    (Kind.PREFIX, "q\tqa\tPref-Conj\tand <pos>qa/CONJ</pos>", "qktAb",
     "qa+kitAb/kitAb_1/N"),
    # The bundled suffixes are at most two characters long.
    (Kind.SUFFIX, "hmA\thumA\tSuff-POSS\ttheir (dual) <pos>humA/POSS</pos>",
     "ktAbhmA", "kitAb+humA/kitAb_1/N"),
])
@pytest.mark.parametrize("fold_alif", [False, True])
def test_analyze_type_sees_an_affix_added_after_it_ran(
        lexicon, kind, row, surface, reading, fold_alif):
    lex = lexicon.copy()
    before = [a.ana for a in analyze_type(surface, lex, ALL_FLAGS, fold_alif)]
    assert reading not in before
    assert lex.add(parse_entry_line(row, kind))
    assert reading in [a.ana for a in
                       analyze_type(surface, lex, ALL_FLAGS, fold_alif)]


# Letters that are no diacritic, with bare alif and two of its variants.
_GEN_LETTERS = "bkA>{"


# With ``shapes``, a prefix category that no prefix-stem row names, and a
# stem category that no stem-suffix row names; each of them is licensed
# with every category by the kind's other table.
_NO_AB, _NO_BC = "P-no-ab", "S-no-bc"


@st.composite
def generated_lexicons(draw, shapes=False):
    """A small lexicon with several entries per affix and stem surface,
    null affixes, affix surfaces longer than the bundled lexicon's
    longest clusters, alif variants, random flags and random subsets of
    the three compatibility tables; and the affix and stem surfaces it
    holds.

    With ``shapes`` the bundled lexicon's missing shapes are always there:
    both null affixes, the categories ``_NO_AB`` and ``_NO_BC``, and a
    prefix surface and a stem surface with a row of every category of
    their kind."""
    cats = {kind: [f"{kind.name[0]}{i}" for i in range(2)] for kind in Kind}
    if shapes:
        cats[Kind.PREFIX].append(_NO_AB)
        cats[Kind.STEM].append(_NO_BC)
    surfaces = {
        Kind.PREFIX: draw(st.lists(st.text(_GEN_LETTERS,
                                           max_size=MAX_PREFIX_LEN + 1),
                                   min_size=1, max_size=4, unique=True)),
        Kind.STEM: draw(st.lists(st.text(_GEN_LETTERS, min_size=1,
                                         max_size=3),
                                 min_size=1, max_size=4, unique=True)),
        Kind.SUFFIX: draw(st.lists(st.text(_GEN_LETTERS,
                                           max_size=MAX_SUFFIX_LEN + 1),
                                   min_size=1, max_size=4, unique=True)),
    }
    for kind in (Kind.PREFIX, Kind.SUFFIX):
        if "" not in surfaces[kind] and (shapes or draw(st.booleans())):
            surfaces[kind].insert(0, "")
    flag_texts = st.sampled_from(["", "", "CA", "MSA", "CA|MSA"])
    files = {}
    for kind in Kind:
        rows = []
        for surface in surfaces[kind]:
            every = (shapes and kind is not Kind.SUFFIX
                     and surface == surfaces[kind][-1])
            count = draw(st.integers(2, 4))
            for i in range(max(count, len(cats[kind])) if every else count):
                voc = surface + draw(st.sampled_from(["", "a", "u", "i"]))
                cat = (cats[kind][i % len(cats[kind])] if every
                       else draw(st.sampled_from(cats[kind])))
                glosspos, lemma = "g", ""
                if kind is Kind.STEM:
                    tag = draw(st.sampled_from(["N", "V", "NEG_PART"]))
                    glosspos = f"g <pos>{voc}/{tag}</pos>"
                    lemma = f"{voc}_{draw(st.integers(1, 2))}"
                rows.append("\t".join([surface or "0", voc or "0", cat,
                                       glosspos, lemma,
                                       draw(flag_texts)]) + "\n")
        files[kind] = io.StringIO("".join(rows))
    compat = []
    for one, other in ((Kind.PREFIX, Kind.STEM), (Kind.STEM, Kind.SUFFIX),
                       (Kind.PREFIX, Kind.SUFFIX)):
        pairs = [(x, y) for x in cats[one] for y in cats[other]
                 if (x, other) not in ((_NO_AB, Kind.STEM),
                                       (_NO_BC, Kind.SUFFIX))]
        keep = draw(st.lists(st.booleans(), min_size=len(pairs),
                             max_size=len(pairs)))
        compat.append(io.StringIO("".join(
            f"{x}\t{y}\n" for (x, y), k in zip(pairs, keep)
            if k or _NO_AB in (x, y) or _NO_BC in (x, y))))
    return load_lexicon(*files.values(), tuple(compat)), surfaces


@given(st.data())
def test_analyze_type_lists_readings_in_reference_order_over_generated_lexicons(
        data):
    lex, surfaces = data.draw(generated_lexicons())
    picked = [a + b + c for a in surfaces[Kind.PREFIX]
              for b in surfaces[Kind.STEM] for c in surfaces[Kind.SUFFIX]]
    picked += data.draw(st.lists(st.text(_GEN_LETTERS, min_size=1,
                                         max_size=8), max_size=4))
    # The alifs of some surfaces become other variants, so that folding
    # matters.
    types = ["".join(data.draw(st.sampled_from("A><|{")) if ch in "A><|{"
                     else ch for ch in surface)
             if data.draw(st.booleans()) else surface for surface in picked]
    active = parse_flagset(data.draw(
        st.lists(st.sampled_from(["CA", "MSA", "ICA", "NE"]), min_size=1,
                 max_size=3)))
    _agrees_with_one_lookup_per_split(types, lex, active,
                                      data.draw(st.booleans()))


@pytest.mark.parametrize("fold_alif", [False, True])
@given(data=st.data())
def test_analyze_type_lists_readings_in_reference_order_over_odd_shapes(
        fold_alif, data):
    """Shapes the bundled lexicon lacks, in every generated lexicon: null
    affixes, a prefix category without prefix-stem rows, a stem category
    without stem-suffix rows, a stem bucket and a prefix surface of
    several categories."""
    lex, surfaces = data.draw(generated_lexicons(shapes=True))
    types = [a + b + c for a in surfaces[Kind.PREFIX]
             for b in surfaces[Kind.STEM] for c in surfaces[Kind.SUFFIX]]
    active = parse_flagset(data.draw(
        st.lists(st.sampled_from([f.name for f in Flag]), min_size=1,
                 max_size=4)))
    _agrees_with_one_lookup_per_split(types, lex, active, fold_alif)


def test_analysis_invariants_hold_structurally(lexicon, corpus_text):
    seen = set()
    for token in tokenize(corpus_text):
        surface = token_lookup_key(token)
        if surface in seen:
            continue
        seen.add(surface)
        for a in analyze_type(surface, lexicon, ALL_FLAGS):
            pre, stem, suf = a.parts
            assert compatible(lexicon.compat, pre.cat, stem.cat, suf.cat)
            assert strip_diacritics(a.voc.replace("+", "")) == surface
            assert a.lemma == stem.lemma


def test_flag_monotonicity_lifts_to_analyses(lexicon):
    rng = random.Random(7)
    from arabmorph.lexicon import Flag
    all_names = [f.name for f in Flag]
    surfaces = ["AlktAb", "kAtb", "mlk", "dA", "byktb", ">$jAE", "Elm"]
    for _ in range(50):
        surface = rng.choice(surfaces)
        small = parse_flagset(rng.sample(all_names, rng.randint(0, 5)))
        big = small | parse_flagset(rng.sample(all_names, rng.randint(0, 5)))
        small_keys = [(a.voc, a.lemma, a.pos)
                      for a in analyze_type(surface, lexicon, small)]
        big_keys = [(a.voc, a.lemma, a.pos)
                    for a in analyze_type(surface, lexicon, big)]
        assert set(small_keys) <= set(big_keys)


# --- analyze_text and the type cache ------------------------------------------

def test_analyze_text_phrase_set_sizes(lexicon):
    sets = list(analyze_text(tokenize("مع كاتب"), lexicon, MSA))
    assert [len(s.analyses) for s in sets] == [1, 3]
    assert [s.unknown for s in sets] == [False, False]


def test_analyze_text_serves_repeats_from_cache(lexicon):
    cache = TypeCache()
    sets = list(analyze_text(tokenize("كاتب كاتب كاتب"), lexicon, MSA, cache))
    assert len(sets) == 3
    assert cache.misses == 1
    assert cache.hits == 2
    assert len(cache) == 1


def test_analyze_text_unknown_token_flagged(lexicon):
    sets = list(analyze_text(tokenize("قهوة"), lexicon, ALL_FLAGS))
    assert len(sets) == 1
    assert sets[0].unknown


def test_cache_transparency(lexicon, corpus_text):
    tokens = tokenize(corpus_text)
    cached = analyze_text(tokens, lexicon, ALL_FLAGS, TypeCache())
    uncached = [TokenReadings(t, analyze_type(token_lookup_key(t), lexicon,
                                            ALL_FLAGS)) for t in tokens]
    for a, b in zip(cached, uncached):
        assert [x.ana for x in a.analyses] == [x.ana for x in b.analyses]


def test_analyze_type_collapses_a_repeated_reading_onto_its_first_split():
    # Two null suffixes of different categories give the same (voc,
    # lemma, tag) twice; the reading keeps the first suffix's parts.
    lex = load_lexicon(
        io.StringIO("0\t0\tPref-0\n"),
        io.StringIO("ktAb\tkitAb\tN\tbook\tkitAb_1\n"),
        io.StringIO("0\t0\tSuff-0\n0\t0\tSuff-1\n"),
        (io.StringIO("Pref-0\tN\n"),
         io.StringIO("N\tSuff-0\nN\tSuff-1\n"),
         io.StringIO("Pref-0\tSuff-0\nPref-0\tSuff-1\n")))
    (reading,) = analyze_type("ktAb", lex, ALL_FLAGS)
    assert reading.ana == "kitAb/kitAb_1/N"
    assert [p.cat for p in reading.parts] == ["Pref-0", "N", "Suff-0"]


def test_an_affix_longer_than_the_bundled_clusters_is_found(tmp_path):
    """A five-character prefix cluster added to a copy of the bundled
    lexicon gives its readings: the lexicon's own affixes bound the
    splits."""
    for name in LEXICON_FILES:
        shutil.copy(default_lexicon_dir() / name, tmp_path / name)
    with open(tmp_path / "prefixes.tsv", "a", encoding="utf-8") as f:
        f.write(">wbAl\t>awabiAl\tPref-ConjPrepAl\tand by the? "
                "<pos>>a/INTERROG+wa/CONJ+bi/PREP+Al/DET</pos>\t\t"
                "CA|SPEC_GRAM\n")
    lex = load_lexicon_dir(tmp_path)
    assert [a.ana for a in analyze_type(">wbAlktAb", lex, ALL_FLAGS)] == [
        ">awabiAl+kitAb/kitAb_1/N", ">awabiAl+kut~Ab/kut~Ab_1/N",
        ">awabiAl+kut~Ab/kAtib_1/N"]
