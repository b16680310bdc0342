"""Each stage does its work once per distinct input of a call: the letter
check and lookup key per run, cache lookups per key, rule outcomes
per (readings, armed rules), rankings and their top tuples per (LM
backoff context, readings), scores per (LM backoff context, lemma/tag),
``<w>`` blocks per word.  Their output must
equal the per-token references, and the call counts pin that the work
is shared."""

import io
import logging

import pytest
from hypothesis import given, strategies as st

import arabmorph.analyzer as analyzer
import arabmorph.teixml as teixml
from arabmorph.analyzer import (Analysis, TokenReadings, TypeCache,
                                analyze_text, analyze_type, token_lookup_key,
                                tokenize)
from arabmorph.cli import default_lexicon_dir
from arabmorph.disambig import (BOS, UNK, LmModel, apply_rules, empty_lm,
                                parse_rules, rank, train_lm)
from arabmorph.lexicon import ALL_FLAGS, parse_flagset
from arabmorph.pipeline import Pipeline, PipelineConfig
from arabmorph.teixml import TeiDoc, doc_from_ranked, emit_tei
from arabmorph.translit import DEFAULT_TABLE, BuckTable

from oracles import (reference_apply_rules, reference_rank, reference_tei,
                     reference_tokenize)

RULES = default_lexicon_dir().parent / "rules.txt"

# Three spellings of one type: they share a lookup key, so their tokens
# share readings but not their surface.
KATIB = ["كاتب", "كَاتِب", "كاتبٌ"]


@pytest.fixture(scope="module")
def corpus_types(corpus_text):
    return sorted({t.surface for t in tokenize(corpus_text)})


@pytest.fixture(scope="module")
def models(freq, gold_sentences):
    """A trained model, the frequency-only model and the flat one."""
    return [train_lm([[t.lemma_pos for t in s] for s in gold_sentences], freq),
            empty_lm(freq=freq), empty_lm()]


def _pipeline(lexicon, flags, rules, model):
    config = PipelineConfig(lexicon_dir=default_lexicon_dir(), flags=flags)
    return Pipeline(config, DEFAULT_TABLE, lexicon, rules, model)


@st.composite
def _rule_lines(draw, lexicon, pool):
    """A rule whose target is a reading of a pool word, by preference of
    the three-way ambiguous كاتب, and whose context is the surface, lookup
    key, lemma or pos of a pool word, on either side."""
    def readings(surface):
        return analyze_type(token_lookup_key(tokenize(surface)[0]), lexicon,
                            ALL_FLAGS)

    aimed_at = draw(st.sampled_from(pool + KATIB[:1] * len(pool)))
    target = draw(st.sampled_from(readings(aimed_at) or [None]))
    keys = draw(st.sampled_from([("pos",), ("lemma",), ("pos", "lemma")]))
    values = {"pos": target.pos if target else "N",
              "lemma": target.lemma if target else "kAtib_1"}
    where = draw(st.sampled_from(["prev", "next"]))
    attr = draw(st.sampled_from(["surface", "lemma", "pos"]))
    neighbor = draw(st.sampled_from(pool))
    if attr == "surface":
        choices = [neighbor, token_lookup_key(tokenize(neighbor)[0])]
    else:
        choices = [getattr(a, attr) for a in readings(neighbor)] or ["N"]
    return (f"DROP {' '.join(f'{k}={values[k]}' for k in keys)} "
            f"WHEN {where}.{attr}={draw(st.sampled_from(choices))}")


class _Warnings(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.records = []

    def emit(self, record):
        self.records.append(record)


@given(data=st.data())
def test_shared_work_equals_the_per_token_references(lexicon, rules, models,
                                                     corpus_types, data):
    if data.draw(st.booleans(), label="repeating"):
        pool = data.draw(st.lists(st.sampled_from(corpus_types), min_size=1,
                                  max_size=8, unique=True)) + KATIB
        words = data.draw(st.lists(st.sampled_from(pool), max_size=60))
    else:
        words = data.draw(st.lists(st.sampled_from(corpus_types + KATIB),
                                   max_size=40, unique=True))
        pool = words or KATIB
    if data.draw(st.booleans(), label="bundled rules"):
        rule_set = rules
    else:
        lines = data.draw(st.lists(_rule_lines(lexicon, pool), max_size=8))
        rule_set = parse_rules(io.StringIO("\n".join(lines)))
    model = data.draw(st.sampled_from(models))
    flags = data.draw(st.sampled_from([ALL_FLAGS, parse_flagset(["MSA"])]))
    text = " ".join(words)

    logger = logging.getLogger("arabmorph.disambig")
    warnings = _Warnings()
    logger.addHandler(warnings)
    try:
        tokens, _cache, ranked = _pipeline(lexicon, flags, rule_set,
                                           model).run(text)
    finally:
        logger.removeHandler(warnings)

    # Every token analyzed afresh: no reading tuple is shared.
    unshared = [TokenReadings(t, tuple(analyze_type(token_lookup_key(t),
                                                    lexicon, flags)))
                for t in tokenize(text)]
    expected, skipped = reference_apply_rules(unshared, rule_set,
                                              DEFAULT_TABLE)
    expected_ranked = reference_rank([s for s, _ in expected], model)
    assert [(list(r.analyses), r.dropped) for r in ranked] == expected
    assert [r.ranked for r in ranked] == expected_ranked
    assert {r.args[:2]: r.args[2] for r in warnings.records} == skipped
    assert len(warnings.records) == len(skipped)
    assert emit_tei(doc_from_ranked(ranked, "in.txt", "MSA")) == \
        reference_tei([t.surface for t in tokens], expected_ranked,
                      "in.txt", "MSA")


def test_one_type_armed_by_different_rules_gets_each_outcome(lexicon):
    rules = parse_rules(io.StringIO("DROP pos=V WHEN prev.surface=مع\n"
                                    "DROP pos=A WHEN next.surface=مع\n"))
    _, _, ranked = _pipeline(lexicon, ALL_FLAGS, rules, empty_lm()).run(
        "مع كاتب مع كاتب كاتب مع كاتب مع")
    katib = [ranked[i] for i in (1, 3, 4, 6)]
    assert [[a.pos for a in r.analyses] for r in katib] == \
        [["N"], ["N", "A"], ["V", "N"], ["N"]]
    assert katib[0].analyses is katib[3].analyses


_TUPLES = [(lemma, pos) for lemma in ("a_1", "b_1", "c_2")
           for pos in ("N", "V")]


@given(st.lists(st.lists(st.sampled_from(_TUPLES), min_size=1, max_size=6),
                min_size=1, max_size=5),
       st.dictionaries(st.sampled_from(_TUPLES), st.integers(0, 9)),
       st.floats(0.0, 1.0), st.booleans())
def test_contexts_with_equal_backoff_score_equally(sents, freq, lam, trained):
    model = train_lm(sents, freq, lam) if trained else empty_lm(lam, freq)
    symbols = _TUPLES + [BOS, UNK, ("z_9", "N")]
    by_backoff: dict[tuple, list] = {}
    for t2 in symbols:
        for t1 in symbols:
            seen = model.backoff((t2, t1))
            assert seen in ((t2, t1), (t1,), ())
            by_backoff.setdefault(seen, []).append((t2, t1))
    if not trained:
        assert list(by_backoff) == [()]
    for contexts in by_backoff.values():
        for cand in symbols:
            assert len({model.score(ctx, cand) for ctx in contexts}) == 1


# --- call counts ---------------------------------------------------------------

def _counting(monkeypatch, owner, name):
    """Count the calls of ``owner.name`` while passing them through."""
    calls = []
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def test_each_surface_is_transliterated_once_per_run(corpus_text,
                                                     monkeypatch):
    pipeline = PipelineConfig(lexicon_dir=default_lexicon_dir(),
                              flags=ALL_FLAGS, rules_path=str(RULES)).load()
    text = corpus_text * 20
    # The key translation is the run's one transliteration.
    calls = _counting(monkeypatch, BuckTable, "to_key")
    buck_calls = _counting(monkeypatch, BuckTable, "to_buck")
    tokens, _, _ = pipeline.run(text)
    assert len(calls) == len({t.surface for t in tokens}) < len(tokens)
    assert buck_calls == []


class _CountingLetters(frozenset):
    """A letter set that records the text of each ``isdisjoint`` call."""

    def isdisjoint(self, other):
        self.calls.append(other)
        return super().isdisjoint(other)


def test_each_distinct_run_is_checked_for_a_letter_once(corpus_text):
    table = BuckTable(DEFAULT_TABLE.a2b)
    table.arabic_letters = _CountingLetters(table.arabic_letters)
    table.arabic_letters.calls = []
    # Bare diacritics and tatweel make runs that hold no letter.
    text = (corpus_text + " \u064e\u0640 ") * 20
    tokens = tokenize(text, table)
    assert [(t.surface, t.offset) for t in tokens] == \
        reference_tokenize(text, table)
    runs = table.runs.findall(text)
    assert sorted(table.arabic_letters.calls) == sorted(set(runs))
    assert len(set(runs)) < len(tokens)


def test_lookup_key_runs_once_per_surface_and_cache_counts_are_per_token(
        lexicon, corpus_text, monkeypatch):
    cache = TypeCache()
    list(analyze_text(tokenize("كاتب"), lexicon, ALL_FLAGS, cache))
    # The key is computed while tokenizing, once per distinct surface,
    # and analyze_text reads it from the tokens.
    calls = _counting(monkeypatch, analyzer, "lookup_key")
    tokens = tokenize(corpus_text * 20)
    surfaces = {t.surface for t in tokens}
    assert len(calls) == len(surfaces) < len(tokens)
    calls.clear()
    sets = list(analyze_text(tokens, lexicon, ALL_FLAGS, cache))
    assert calls == []
    keys = {token_lookup_key(t) for t in tokens}
    assert cache.misses == len(keys | {"kAtb"})
    assert cache.hits + cache.misses == len(tokens) + 1
    assert [r.analyses for r in sets] == [
        tuple(analyze_type(token_lookup_key(t), lexicon, ALL_FLAGS))
        for t in tokens]


def test_apply_rules_passes_records_without_armed_rules_through(lexicon,
                                                                rules):
    sets = list(analyze_text(tokenize("مع كاتب مع كاتب كاتب"), lexicon, ALL_FLAGS))
    out = list(apply_rules(sets, rules))
    # The verb reading after مع is dropped; no rule is armed elsewhere.
    assert [len(r.dropped) for r in out] == [0, 1, 0, 1, 0]
    assert [o is s for o, s in zip(out, sets)] == [True, False, True, False,
                                                   True]
    # Records that carry a ranking are rebuilt without it.
    again = list(apply_rules(rank(out, empty_lm()), []))
    assert all(r.ranked == () and r.dropped == () for r in again)
    assert [r.analyses for r in again] == [r.analyses for r in out]


def test_rank_reads_each_top_tuple_once_per_ranking(lexicon, rules, models,
                                                    corpus_text, monkeypatch):
    calls = []
    lemma_pos = Analysis.lemma_pos.fget

    def counting(analysis):
        calls.append(analysis)
        return lemma_pos(analysis)

    monkeypatch.setattr(Analysis, "lemma_pos", property(counting))
    for model in models:
        counts = []
        for copies in (2, 3):
            calls.clear()
            _pipeline(lexicon, ALL_FLAGS, rules, model).run(
                corpus_text * copies)
            counts.append(len(calls))
        # A third copy of the text adds tokens but no new ranking.
        assert counts[0] == counts[1]


def test_score_runs_once_per_backoff_and_readings(lexicon, rules, models,
                                                  corpus_text, monkeypatch):
    """``score`` runs once per distinct (backoff, lemma/tag) in a call."""
    for model in models:
        calls = _counting(monkeypatch, LmModel, "score")
        _, _, ranked = _pipeline(lexicon, ALL_FLAGS, rules,
                                 model).run(corpus_text * 20)
        distinct, rankings = set(), {}
        ctx = (BOS, BOS)
        for rec in ranked:
            seen = model.backoff(ctx)
            distinct.update((seen, a.lemma_pos) for a in rec.analyses)
            rankings[seen, id(rec.analyses)] = len(rec.analyses)
            ctx = ctx[1], rec.ranked[0][0].lemma_pos if rec.ranked else UNK
        assert len(calls) == len(distinct)
        # Rankings of different readings share the scores of their tuples.
        assert len(calls) < sum(rankings.values())
        # Ties, on score and on frequency, still break by reading order.
        assert [r.ranked for r in ranked] == reference_rank(
            [r.analyses for r in ranked], model)
        monkeypatch.undo()


def test_each_distinct_word_is_checked_and_rendered_once(lexicon, rules,
                                                         freq, corpus_text,
                                                         monkeypatch):
    _, _, ranked = _pipeline(lexicon, ALL_FLAGS, rules,
                             empty_lm(freq=freq)).run(corpus_text * 20)
    doc = doc_from_ranked(ranked)
    distinct = {id(w) for w in doc.words}
    assert len(distinct) == len({(r.token.surface, id(r.ranked))
                                 for r in ranked}) < len(doc.words)
    calls = _counting(monkeypatch, teixml, "_check_word")
    xml = emit_tei(doc)
    assert len(calls) == len(distinct)
    # The same words, each its own object, render to the same bytes.
    calls.clear()
    copies = TeiDoc(words=tuple(teixml.TeiWord(w.surface, w.ana, w.notes)
                                for w in doc.words))
    assert emit_tei(copies) == xml
    assert len(calls) == len(doc.words)
