import random

import pytest
from hypothesis import given, strategies as st

from arabmorph.analyzer import (MAX_PREFIX_LEN, MAX_SUFFIX_LEN, TokenReadings,
                                TypeCache, analyze_text, analyze_type,
                                segmentations, token_lookup_key, tokenize)
from arabmorph.lexicon import ALL_FLAGS, compatible, parse_flagset
from arabmorph.translit import strip_diacritics

from oracles import (brute_force_analyses, brute_force_segmentation_count,
                     licensed_surfaces, one_lookup_per_split_analyses)

MSA = parse_flagset(["MSA"])


# --- tokenize ---------------------------------------------------------------

def test_tokenize_phrase_with_diacritics_and_punctuation():
    tokens = tokenize("مع كاتبٍ.")
    assert [(t.surface, t.offset, t.index) for t in tokens] == \
        [("مع", 0, 0), ("كاتبٍ", 3, 1)]


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


# --- oracle agreement and invariants ------------------------------------------

def test_analyze_type_agrees_with_uncapped_brute_force(lexicon):
    for surface in ["AlktAb", "kAtb", "mE", "mlk", "wAlfDp", "llmryD",
                    "byktb", "syktb", "qr>nA", "ktAbA", "Erby", "yktb"]:
        fast = {(a.voc, a.lemma, a.pos) for a in
                analyze_type(surface, lexicon, ALL_FLAGS)}
        assert fast == brute_force_analyses(surface, lexicon, ALL_FLAGS)


def _agrees_with_one_lookup_per_split(surfaces, lex, active, fold_alif):
    for surface in surfaces:
        fast = [(a.voc, a.lemma, a.pos, a.parts)
                for a in analyze_type(surface, lex, active, fold_alif)]
        assert fast == one_lookup_per_split_analyses(
            surface, lex, active, fold_alif, MAX_PREFIX_LEN, MAX_SUFFIX_LEN)


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
    sets = analyze_text(tokenize("مع كاتب"), lexicon, MSA)
    assert [len(s.analyses) for s in sets] == [1, 3]
    assert [s.unknown for s in sets] == [False, False]


def test_analyze_text_serves_repeats_from_cache(lexicon):
    cache = TypeCache()
    sets = analyze_text(tokenize("كاتب كاتب كاتب"), lexicon, MSA, cache)
    assert len(sets) == 3
    assert cache.misses == 1
    assert cache.hits == 2
    assert len(cache) == 1


def test_analyze_text_unknown_token_flagged(lexicon):
    sets = analyze_text(tokenize("قهوة"), lexicon, ALL_FLAGS)
    assert len(sets) == 1
    assert sets[0].unknown


def test_cache_transparency(lexicon, corpus_text):
    tokens = tokenize(corpus_text)
    cached = analyze_text(tokens, lexicon, ALL_FLAGS, TypeCache())
    uncached = [TokenReadings(t, analyze_type(token_lookup_key(t), lexicon,
                                            ALL_FLAGS)) for t in tokens]
    for a, b in zip(cached, uncached):
        assert [x.ana for x in a.analyses] == [x.ana for x in b.analyses]


def test_cache_keys_include_flags(lexicon):
    cache = TypeCache()
    analyze_text(tokenize("دا"), lexicon, ALL_FLAGS, cache)
    analyze_text(tokenize("دا"), lexicon, MSA, cache)
    assert cache.misses == 2
    assert len(cache) == 2
