"""End-to-end acceptance suite.

One test per release criterion; each prints a PASS line after its
assertions hold, so ``pytest -s tests/test_acceptance.py`` reads as a
checklist.  Stated runtime bounds are asserted with a monotonic clock.
"""

import random
import time
from collections import Counter
from pathlib import Path

import pytest

from arabmorph.analyzer import (TypeCache, analyze_text, analyze_type,
                                token_lookup_key, tokenize)
from arabmorph.disambig import apply_rules, empty_lm, rank, train_lm
from arabmorph.evaluation import f1_score
from arabmorph.lexicon import (ALL_FLAGS, Flag, Kind, classical_preset,
                               parse_flagset)
from arabmorph.teixml import (Note, TeiWord, apply_corrections, doc_from_ranked,
                              emit_tei, parse_tei)
from arabmorph.translit import arabic_to_buck, buck_to_arabic, strip_diacritics

from oracles import brute_force_analyses

DATA = Path(__file__).parent / "data"
MSA = parse_flagset(["MSA"])


def _pass(number, message):
    print(f"ACCEPTANCE {number}: PASS - {message}")


def _pipeline(text, lexicon, rules, freq, flags=MSA, source="phrase.txt"):
    sets = list(analyze_text(tokenize(text), lexicon, flags, TypeCache()))
    return sets, rank(apply_rules(sets, rules), empty_lm(freq=freq))


def test_criterion_1_worked_example_fidelity(lexicon, rules, freq):
    start = time.perf_counter()
    sets, ranked = _pipeline("مع كاتب", lexicon, rules, freq)

    assert [a.ana for a in sets[0].analyses] == ["maEa/maEa_1/PREP"]
    assert [(a.lemma, a.pos) for a in sets[1].analyses] == \
        [("kAtab_1", "V"), ("kAtib_1", "N"), ("kAtib_2", "A")]

    assert [(a.lemma, a.pos) for a, _ in ranked[1].dropped] == [("kAtab_1", "V")]
    assert ranked[1].dropped[0][1].context_value == "maEa_1"
    assert [a.lemma for a, _ in ranked[1].ranked] == ["kAtib_1", "kAtib_2"]

    xml = emit_tei(doc_from_ranked(ranked, source="phrase.txt", flags="MSA"))
    golden = (DATA / "golden_ma_katib.xml").read_text(encoding="utf-8")
    assert xml == golden
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _pass(1, f"two-word worked example reproduced byte-for-byte "
             f"({elapsed:.3f}s)")


def test_criterion_2_ambiguity_example(lexicon):
    start = time.perf_counter()
    analyses = analyze_type("AlktAb", lexicon, MSA)
    assert [(a.voc, a.lemma) for a in analyses] == [
        ("Al+kitAb", "kitAb_1"),
        ("Al+kut~Ab", "kut~Ab_1"),
        ("Al+kut~Ab", "kAtib_1"),
    ]
    assert all(a.tags == "DET+N" for a in analyses)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _pass(2, f"definite-book surface yields exactly its three readings "
             f"({elapsed:.3f}s)")


def test_criterion_3_f1_arithmetic():
    assert f1_score(86.44, 95.25) == pytest.approx(90.63, abs=0.01)
    assert f1_score(96.43, 97.25) == pytest.approx(96.84, abs=0.01)
    _pass(3, "F1 equals the harmonic mean on both reference rows")


def test_criterion_4_oracle_equivalence(lexicon, corpus_text):
    start = time.perf_counter()
    types = []
    seen = set()
    for token in tokenize(corpus_text):
        surface = token_lookup_key(token)
        if surface not in seen:
            seen.add(surface)
            types.append(surface)
    assert len(types) >= 100
    for surface in types:
        fast = [(a.voc, a.lemma, a.pos)
                for a in analyze_type(surface, lexicon, ALL_FLAGS)]
        assert len(set(fast)) == len(fast)
        assert set(fast) == brute_force_analyses(surface, lexicon, ALL_FLAGS), \
            f"oracle mismatch for type {surface!r}"
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _pass(4, f"{len(types)} corpus types match the uncapped brute-force "
             f"oracle exactly ({elapsed:.3f}s)")


def test_criterion_5_flag_monotonicity_suite(lexicon, corpus_text):
    rng = random.Random(20140815)
    types = sorted({token_lookup_key(t) for t in tokenize(corpus_text)})
    names = [f.name for f in Flag]
    for _ in range(100):
        surface = rng.choice(types)
        small = parse_flagset(rng.sample(names, rng.randint(0, 6)))
        big = small | parse_flagset(rng.sample(names, rng.randint(0, 6)))
        small_keys = {(a.voc, a.lemma, a.pos)
                      for a in analyze_type(surface, lexicon, small)}
        big_keys = {(a.voc, a.lemma, a.pos)
                    for a in analyze_type(surface, lexicon, big)}
        assert small_keys <= big_keys

    preset = classical_preset()
    excluded = 0
    for kind in Kind:
        for surface, bucket in lexicon.table(kind).items():
            for entry in bucket:
                if entry.flags & preset:
                    continue
                assert entry not in lexicon.lookup(surface, kind, preset)
                excluded += 1
    assert excluded >= 10      # the fixtures include ICA-only entries
    _pass(5, f"100 randomized subset cases monotone; classical preset "
             f"excludes all {excluded} colloquial-only entries")


def test_criterion_6_filter_rank_conservation(lexicon, rules, freq,
                                              corpus_text):
    sets, ranked = _pipeline(corpus_text, lexicon, rules, freq,
                             flags=ALL_FLAGS, source="toy_corpus.txt")
    for before, after in zip(sets, ranked):
        kept = Counter((a.voc, a.lemma, a.pos) for a, _ in after.ranked)
        dropped = Counter((a.voc, a.lemma, a.pos) for a, _ in after.dropped)
        original = Counter((a.voc, a.lemma, a.pos) for a in before.analyses)
        assert kept + dropped == original
        if before.analyses:
            assert after.ranked, "a known token became unknown"

    emissions = set()
    for _ in range(10):
        _, again = _pipeline(corpus_text, lexicon, rules, freq,
                             flags=ALL_FLAGS)
        emissions.add(emit_tei(doc_from_ranked(again, source="toy_corpus.txt",
                                               flags="all")))
    assert len(emissions) == 1
    _pass(6, "filter/rank conserves every analysis multiset; 10 runs emit "
             "byte-identical XML")


def test_criterion_7_correction_round_trip(lexicon, rules, freq):
    _, ranked = _pipeline("مع كاتب", lexicon, rules, freq)
    doc = parse_tei(emit_tei(doc_from_ranked(ranked, source="phrase.txt",
                                             flags="MSA")))

    target = doc.words[1]
    marked_word = TeiWord(surface=target.surface, ana=target.ana,
                          notes=(Note(target.notes[0].ana, corrected=True),)
                          + target.notes[1:])
    marked = type(doc)(source=doc.source, flags=doc.flags,
                       version=doc.version,
                       words=(doc.words[0], marked_word))

    corrected = parse_tei(emit_tei(apply_corrections(marked)))
    word = corrected.words[1]
    assert word.ana == "kAtib/kAtib_2/A"
    assert word.notes == (Note("kAtib/kAtib_1/N"),)

    def multiset(w):
        return Counter([w.ana] + [n.ana for n in w.notes])

    assert multiset(word) == multiset(target)
    assert apply_corrections(corrected) == corrected
    _pass(7, "marked note promoted, multiset preserved, idempotent")


def test_criterion_8_lm_endpoints(lexicon, freq):
    sentences = [
        [("maEa_1", "PREP"), ("kAtib_1", "N")],
        [("maEa_1", "PREP"), ("kAtib_1", "N")],
        [("malik_1", "N"), ("kabiyr_1", "A")],
        [("malik_1", "N"), ("qAl_1", "V")],
        [("malak_1", "V"), ("kitAb_1", "N")],
    ]
    sets = list(analyze_text(tokenize("ملك"), lexicon, MSA))
    candidates = [a.lemma_pos for a in sets[0].analyses]

    freq_order = [c for _, c in sorted(
        ((-freq.get(c, 0), i), c) for i, c in enumerate(candidates))]
    assert freq_order == [("milok_1", "N"), ("malik_1", "N"),
                          ("malak_1", "V")]

    # independent trigram reference: counts straight off the fixture
    starts = Counter(s[0] for s in sentences)
    trigram_order = [c for _, c in sorted(
        ((-starts.get(c, 0), i), c) for i, c in enumerate(candidates))]
    assert trigram_order == [("malik_1", "N"), ("malak_1", "V"),
                             ("milok_1", "N")]
    assert trigram_order != freq_order

    lam0 = rank(apply_rules(sets, []), train_lm(sentences, freq, lam=0.0))
    assert [a.lemma_pos for a, _ in lam0[0].ranked] == freq_order

    lam1 = rank(apply_rules(sets, []), train_lm(sentences, freq, lam=1.0))
    assert [a.lemma_pos for a, _ in lam1[0].ranked] == trigram_order
    _pass(8, "lambda endpoints reduce to pure frequency and pure trigram "
             "orders")


def test_criterion_9_transliteration_round_trip(lexicon):
    checked = 0
    for entry in lexicon.entries():
        assert arabic_to_buck(buck_to_arabic(entry.voc)) == entry.voc
        arabic = buck_to_arabic(entry.voc)
        assert buck_to_arabic(arabic_to_buck(arabic)) == arabic
        assert strip_diacritics(entry.voc) == entry.surface
        checked += 1
    _pass(9, f"round trip and surface reduction hold for all {checked} "
             f"lexicon entries")
