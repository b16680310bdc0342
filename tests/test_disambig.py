import io
import logging
import random
import re
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from arabmorph.analyzer import analyze_text, token_lookup_key, tokenize
from arabmorph.disambig import (BOS, FilterRule, LmError, RuleError, apply_rules,
                                empty_lm, load_freq_table, load_lm, parse_rules,
                                UNK, rank, serialize_lm, train_lm)
from arabmorph.lexicon import ALL_FLAGS, parse_flagset
from arabmorph.translit import DEFAULT_TABLE, BuckTable

from oracles import (reference_apply_rules, reference_load_lm,
                     reference_rank, reference_vocab, resummed_score)

MSA = parse_flagset(["MSA"])

MAEA_RULE = "DROP pos=V WHEN prev.lemma=maEa_1"
PREP_RULE = "DROP pos=V WHEN prev.pos=PREP"


# --- rule parsing -------------------------------------------------------------

def test_parse_the_preposition_rule():
    rules = parse_rules(io.StringIO(MAEA_RULE + "\n"))
    assert rules == [FilterRule(target_pos="V", target_lemma=None, offset=-1,
                                context_attr="lemma", context_value="maEa_1",
                                text=MAEA_RULE)]


def test_parse_rules_empty_stream_and_comments():
    assert parse_rules(io.StringIO("")) == []
    assert parse_rules(io.StringIO("# comment\n\n")) == []


def test_parse_generalized_preposition_rule():
    (rule,) = parse_rules(io.StringIO(PREP_RULE))
    assert rule.context_attr == "pos" and rule.context_value == "PREP"
    assert rule.offset == -1


def test_parse_rules_next_context_and_lemma_target():
    (rule,) = parse_rules(io.StringIO("DROP lemma=man_1 WHEN next.pos=V"))
    assert rule.offset == 1 and rule.target_lemma == "man_1"
    assert rule.target_pos is None


def test_conjoined_target_predicates_must_both_match(lexicon):
    # pos=V lemma=kAtab_1 only drops the one reading matching both
    (rule,) = parse_rules(io.StringIO(
        "DROP pos=V lemma=kAtab_1 WHEN prev.surface=mE"))
    filtered = list(apply_rules(_phrase_sets(lexicon), [rule]))
    assert [a.lemma for a, _ in filtered[1].dropped] == ["kAtab_1"]
    (other,) = parse_rules(io.StringIO(
        "DROP pos=V lemma=other_1 WHEN prev.surface=mE"))
    filtered = list(apply_rules(_phrase_sets(lexicon), [other]))
    assert filtered[1].dropped == ()


def test_surface_context_matches_arabic_or_buckwalter(lexicon):
    for value in ("mE", "مع"):
        (rule,) = parse_rules(io.StringIO(
            f"DROP pos=V WHEN prev.surface={value}"))
        filtered = list(apply_rules(_phrase_sets(lexicon), [rule]))
        assert [a.lemma for a, _ in filtered[1].dropped] == ["kAtab_1"]


def test_parse_rules_syntax_errors_carry_line_numbers():
    with pytest.raises(RuleError, match="rules.txt:2.*WHEN"):
        parse_rules(io.StringIO("# ok\nDROP pos=V\n"), "rules.txt")
    with pytest.raises(RuleError, match="expected DROP"):
        parse_rules(io.StringIO("KEEP pos=V WHEN prev.pos=PREP"))
    with pytest.raises(RuleError, match="bad target"):
        parse_rules(io.StringIO("DROP tag=V WHEN prev.pos=PREP"))
    with pytest.raises(RuleError, match="bad context"):
        parse_rules(io.StringIO("DROP pos=V WHEN left.pos=PREP"))
    with pytest.raises(RuleError, match="^<rules>:1: expected pos=... or "
                                       "lemma=... before WHEN$"):
        parse_rules(io.StringIO("DROP WHEN prev.pos=PREP"))
    with pytest.raises(RuleError, match=r"^<rules>:1: expected a single "
                       r"\(prev\|next\)\.\(surface\|lemma\|pos\)=value "
                       "after WHEN$"):
        parse_rules(io.StringIO("DROP pos=V WHEN prev.pos=PREP next.pos=N"))


def test_parse_rules_rejects_a_repeated_target_key():
    for line, key in (("DROP pos=V pos=N WHEN prev.pos=P", "pos"),
                      ("DROP lemma=a_1 pos=V lemma=b_1 WHEN next.pos=N",
                       "lemma")):
        with pytest.raises(RuleError,
                           match=f"^rules.txt:2: repeated target key '{key}'"):
            parse_rules(io.StringIO(f"# ok\n{line}\n"), "rules.txt")


_RULE_PIECES = st.sampled_from(
    ["DROP", "WHEN", " DROP ", " WHEN ", "pos=", "lemma=", "prev.", "next.",
     "surface=", "lemma=", "pos=", "V", "kAtab_1", "مع", " ", "  ", "\t",
     "\n", "\n", "#", "=", ".", "\r", "\x0c", "\u2028", "\x85"])
_ANY_CHARS = st.text(st.characters(blacklist_categories=()), max_size=3)


@given(st.lists(st.one_of(_RULE_PIECES, _ANY_CHARS), max_size=30)
       .map("".join))
def test_any_text_parses_as_rules_or_raises_rule_error(text):
    for source in (io.StringIO(text), text.splitlines(keepends=True)):
        try:
            rules = parse_rules(source)
        except RuleError:
            continue
        for rule in rules:
            assert rule.offset in (-1, 1)
            assert rule.context_attr in ("surface", "lemma", "pos")
            assert rule.target_pos is not None or \
                rule.target_lemma is not None


# --- rule application ----------------------------------------------------------

def _phrase_sets(lexicon, text="مع كاتب", flags=MSA):
    return list(analyze_text(tokenize(text), lexicon, flags))


def test_maea_rule_drops_the_verb_reading(lexicon, rules):
    filtered = list(apply_rules(_phrase_sets(lexicon), rules))
    katib = filtered[1]
    assert [a.pos for a in katib.analyses] == ["N", "A"]
    assert [a.lemma for a, _ in katib.dropped] == ["kAtab_1"]
    assert katib.dropped[0][1].text == MAEA_RULE


def test_rules_do_not_fire_past_sequence_edges(lexicon, rules):
    filtered = list(apply_rules(_phrase_sets(lexicon, "كاتب"), rules))
    assert [a.pos for a in filtered[0].analyses] == ["V", "N", "A"]
    assert filtered[0].dropped == ()


def test_safeguard_skips_application_that_would_empty_a_set(lexicon, rules,
                                                            caplog):
    sets = _phrase_sets(lexicon, "مع شرب", flags=ALL_FLAGS)
    assert [a.pos for a in sets[1].analyses] == ["V"]
    with caplog.at_level(logging.WARNING, logger="arabmorph.disambig"):
        filtered = list(apply_rules(sets, rules))
    assert [a.pos for a in filtered[1].analyses] == ["V"]
    assert filtered[1].dropped == ()
    assert any("skipped" in r.message for r in caplog.records)


def test_safeguard_warns_once_per_rule_and_surface(lexicon, corpus_text,
                                                 caplog):
    sets = analyze_text(tokenize(corpus_text * 10), lexicon, ALL_FLAGS)
    rules = parse_rules(io.StringIO("DROP pos=N WHEN next.surface=ktAb\n"))
    with caplog.at_level(logging.WARNING, logger="arabmorph.disambig"):
        list(apply_rules(sets, rules))
    (record,) = caplog.records
    assert "would remove every analysis of 'الحكيم'" in record.message
    assert "skipped on 10 token(s)" in record.message


def test_rules_match_against_original_neighbor_sets(lexicon):
    # The context token's own dropped readings still count as context:
    # both orderings of the two rules below yield the same result.
    text = "مع كاتب"
    for rule_text in (MAEA_RULE + "\n" + PREP_RULE, PREP_RULE + "\n" + MAEA_RULE):
        filtered = list(apply_rules(_phrase_sets(lexicon, text),
                                    parse_rules(io.StringIO(rule_text))))
        assert [a.pos for a in filtered[1].analyses] == ["N", "A"]


def test_tokens_of_one_type_share_their_readings(lexicon, rules):
    sets = _phrase_sets(lexicon, "كاتب مع كاتب")
    assert sets[0].analyses is sets[2].analyses
    filtered = list(apply_rules(sets, rules))
    assert filtered[0].analyses is sets[0].analyses
    assert filtered[2].analyses is not sets[2].analyses
    assert [a.pos for a in filtered[2].analyses] == ["N", "A"]


def test_surface_rules_transliterate_each_token_at_most_once(
        lexicon, rules, corpus_text, monkeypatch):
    sets = list(analyze_text(tokenize(corpus_text * 10), lexicon, ALL_FLAGS))
    surface_rules = parse_rules(io.StringIO(
        "DROP pos=V WHEN prev.surface=mE\n"
        "DROP pos=N WHEN next.surface=ktAb\n"
        "DROP pos=A WHEN prev.surface=Al\n"))
    calls = []
    to_buck = BuckTable.to_buck

    def counting(self, *args, **kwargs):
        calls.append(1)
        return to_buck(self, *args, **kwargs)

    monkeypatch.setattr(BuckTable, "to_buck", counting)
    list(apply_rules(sets, rules))
    assert len(calls) == 0
    # A surface rule reads the key the tokenizer gave each token.
    list(apply_rules(sets, surface_rules))
    assert len(calls) == 0


def test_filter_conservation_over_the_corpus(lexicon, rules, corpus_text):
    sets = list(analyze_text(tokenize(corpus_text), lexicon, ALL_FLAGS))
    filtered = apply_rules(sets, rules)
    for before, after in zip(sets, filtered):
        kept = Counter(a.ana for a in after.analyses)
        dropped = Counter(a.ana for a, _ in after.dropped)
        assert kept + dropped == Counter(a.ana for a in before.analyses)
        if before.analyses:
            assert after.analyses, "rule filtering manufactured an unknown"


@pytest.fixture(scope="module")
def corpus_sets(lexicon, corpus_text):
    return list(analyze_text(tokenize(corpus_text), lexicon, ALL_FLAGS))


@st.composite
def _rule_lines(draw, window):
    """A rule aimed at one token of ``window``, by preference an ambiguous
    one: its target is one of that token's readings, its context the
    surface, lookup key, lemma or pos of the token at its offset (itself
    where that falls outside the window)."""
    ambiguous = [i for i, rec in enumerate(window) if len(rec.analyses) > 1]
    i = draw(st.sampled_from(ambiguous or range(len(window))))
    where, offset = draw(st.sampled_from([("prev", -1), ("next", 1)]))
    neighbor = window[min(max(i + offset, 0), len(window) - 1)]
    reading = draw(st.sampled_from(window[i].analyses or [None]))
    target = {"pos": reading.pos if reading else "N",
              "lemma": reading.lemma if reading else "kAtib_1"}
    keys = draw(st.sampled_from([("pos",), ("lemma",), ("pos", "lemma")]))
    attr = draw(st.sampled_from(["surface", "lemma", "pos"]))
    values = ([neighbor.token.surface, token_lookup_key(neighbor.token)]
              if attr == "surface" else
              [getattr(a, attr) for a in neighbor.analyses] or ["N"])
    return (f"DROP {' '.join(f'{k}={target[k]}' for k in keys)} "
            f"WHEN {where}.{attr}={draw(st.sampled_from(values))}")


class _Warnings(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.records = []

    def emit(self, record):
        self.records.append(record)


@pytest.fixture(scope="module")
def ranking_models(freq, gold_sentences):
    """A trained model, and untrained ones whose scores tie, leaving the
    order to the frequency count, or to analysis order alone."""
    return [train_lm([[t.lemma_pos for t in s] for s in gold_sentences], freq),
            empty_lm(freq=freq), empty_lm(lam=1.0, freq=freq),
            empty_lm(lam=1.0)]


@given(data=st.data())
def test_ranked_rule_output_equals_the_references(corpus_sets, ranking_models,
                                                  data):
    # A slice of up to 13 tokens around an ambiguous token of the corpus.
    ambiguous = [i for i, rec in enumerate(corpus_sets)
                 if len(rec.analyses) > 1]
    at = data.draw(st.sampled_from(ambiguous))
    window = corpus_sets[max(0, at - data.draw(st.integers(0, 6))):
                         at + data.draw(st.integers(1, 7))]
    lines = data.draw(st.lists(_rule_lines(window), max_size=8))
    rules = parse_rules(io.StringIO("\n".join(lines)))
    model = data.draw(st.sampled_from(ranking_models))

    logger = logging.getLogger("arabmorph.disambig")
    warnings = _Warnings()
    logger.addHandler(warnings)
    try:
        filtered = list(apply_rules(window, rules))
    finally:
        logger.removeHandler(warnings)
    ranked = rank(filtered, model)

    expected, skipped = reference_apply_rules(window, rules, DEFAULT_TABLE)
    assert [(list(r.analyses), r.dropped) for r in filtered] == expected
    for before, after in zip(window, filtered):
        assert (after.analyses is before.analyses) == (not after.dropped)
    assert {r.args[:2]: r.args[2] for r in warnings.records} == skipped
    assert len(warnings.records) == len(skipped)
    assert [r.ranked for r in ranked] == \
        reference_rank([survivors for survivors, _ in expected], model)


def test_preposition_rule_never_drops_a_gold_analysis(lexicon, rules,
                                                      corpus_text,
                                                      gold_sentences):
    sets = list(analyze_text(tokenize(corpus_text), lexicon, ALL_FLAGS))
    gold = [tok for sent in gold_sentences for tok in sent]
    # skip the corpus header noise tokens before aligning
    sets = sets[len(sets) - len(gold):]
    filtered = apply_rules(sets, rules)
    for fset, gtok in zip(filtered, gold):
        dropped_keys = {a.lemma_pos for a, _ in fset.dropped}
        assert gtok.lemma_pos not in dropped_keys


# --- language model -------------------------------------------------------------

def test_train_lm_counts_for_the_two_word_sentence():
    model = train_lm([[("maEa_1", "PREP"), ("kAtib_1", "N")]])
    assert model.trigram == {
        (BOS, BOS, ("maEa_1", "PREP")): 1,
        (BOS, ("maEa_1", "PREP"), ("kAtib_1", "N")): 1,
    }
    assert model.bigram[(BOS, BOS)] == 1
    assert model.bigram[(("maEa_1", "PREP"), ("kAtib_1", "N"))] == 1
    assert model.unigram[BOS] == 2
    assert model.total == 4
    assert model.vocab == {("maEa_1", "PREP"), ("kAtib_1", "N")}


def test_train_lm_rejects_empty_corpus_and_bad_lambda():
    with pytest.raises(LmError, match="empty"):
        train_lm([])
    with pytest.raises(LmError, match="empty"):
        train_lm([[]])
    with pytest.raises(LmError, match="lambda"):
        train_lm([[("a_1", "N")]], lam=1.5)


@pytest.mark.parametrize("lam", [-0.1, 1.5, float("nan")])
def test_every_lm_constructor_rejects_lambda_outside_the_unit_interval(lam):
    with pytest.raises(LmError, match="lambda must be in"):
        empty_lm(lam=lam)
    with pytest.raises(LmError, match="lambda must be in"):
        replace(train_lm([[("a_1", "N")]]), lam=lam)


def test_marginals_are_consistent_with_trigram_sums():
    sents = [[("a_1", "N"), ("b_1", "V"), ("c_1", "N")],
             [("a_1", "N"), ("c_1", "N")]]
    model = train_lm(sents)
    for (t2, t1), count in model.bigram.items():
        tri_sum = sum(c for (x, y, _z), c in model.trigram.items()
                      if (x, y) == (t2, t1))
        assert tri_sum <= count
    assert sum(model.trigram.values()) == sum(len(s) for s in sents)


def test_more_frequent_tuple_scores_higher_in_null_context():
    sents = [[("kAtib_1", "N")]] * 9 + [[("kAtib_2", "A")]]
    model = train_lm(sents, lam=1.0)
    n = model.score((BOS, BOS), ("kAtib_1", "N"))
    a = model.score((BOS, BOS), ("kAtib_2", "A"))
    assert n > a > 0


def test_unseen_tuple_gets_the_exact_smoothed_floor():
    freq = {("x_1", "N"): 3}
    model = train_lm([[("a_1", "N"), ("b_1", "V")]], freq=freq, lam=0.6)
    v1 = len(model.vocab) + 1
    cand = ("zzz_1", "N")
    ctx = (("a_1", "N"), ("b_1", "V"))       # seen bigram context, count 1
    expected = 0.6 * (1 / (1 + v1)) + 0.4 * (1 / (3 + v1))
    assert model.score(ctx, cand) == pytest.approx(expected, rel=1e-12)
    # context never seen at all: trigram and bigram levels unavailable
    floor = 0.6 * ((0 + 1) / (model.total + v1)) + 0.4 * (1 / (3 + v1))
    assert model.score((cand, cand), cand) == pytest.approx(floor, rel=1e-12)


def test_equal_statistics_give_equal_scores():
    model = train_lm([[("a_1", "N")], [("b_1", "N")]])
    assert model.score((BOS, BOS), ("a_1", "N")) == \
        model.score((BOS, BOS), ("b_1", "N"))


def test_scores_are_strictly_positive_everywhere():
    model = empty_lm()
    assert model.score((BOS, BOS), ("ghost_1", "N")) > 0
    trained = train_lm([[("a_1", "N")]], lam=0.0)
    assert trained.score((BOS, BOS), ("ghost_1", "N")) > 0


def test_lambda_endpoints_reduce_to_pure_components(freq):
    sents = [[("malik_1", "N")], [("malik_1", "N")], [("malak_1", "V")]]
    cands = [("malik_1", "N"), ("milok_1", "N"), ("malak_1", "V")]
    lam0 = train_lm(sents, freq=freq, lam=0.0)
    v1 = len(lam0.vocab) + 1
    for cand in cands:
        expected = (freq.get(cand, 0) + 1) / (lam0.freq_total + v1)
        assert lam0.score((BOS, BOS), cand) == pytest.approx(expected)
    lam1 = train_lm(sents, freq=freq, lam=1.0)
    no_freq = train_lm(sents, freq=None, lam=1.0)
    for cand in cands:
        # with lam=1 the frequency table contributes nothing beyond vocab size
        assert lam1.score((BOS, BOS), cand) == pytest.approx(
            (lam1.trigram.get((BOS, BOS, cand), 0) + 1)
            / (lam1.bigram[(BOS, BOS)] + v1))
    assert no_freq.score((BOS, BOS), cands[0]) > \
        no_freq.score((BOS, BOS), cands[1])


_TUPLES = st.tuples(st.sampled_from(["a_1", "b_1", "c_2", "d_1"]),
                   st.sampled_from(["N", "V", "A"]))
_CONTEXT_TUPLES = _TUPLES | st.sampled_from([BOS, UNK])


@st.composite
def _models(draw):
    """A model from every way one is built: training, a serialization
    round trip, the empty model, and a lambda replaced afterwards."""
    sents = draw(st.lists(st.lists(_TUPLES, min_size=1, max_size=6),
                          min_size=1, max_size=5))
    freq = draw(st.dictionaries(_TUPLES, st.integers(0, 10**6), max_size=8))
    lam = draw(st.floats(0.0, 1.0))
    how = draw(st.sampled_from(["train", "reload", "empty", "replace",
                                "replace-empty"]))
    if how == "train":
        return train_lm(sents, freq, lam)
    if how == "reload":
        return load_lm(io.StringIO(serialize_lm(train_lm(sents, freq, lam))))
    if how == "empty":
        return empty_lm(lam, freq)
    if how == "replace":
        return replace(train_lm(sents, freq, 0.7), lam=lam)
    return replace(empty_lm(0.7, freq), lam=lam)


@given(_models(), st.lists(st.tuples(_CONTEXT_TUPLES, _CONTEXT_TUPLES,
                                     _TUPLES), min_size=1, max_size=10))
def test_score_equals_a_score_that_recounts_its_normalisers(model, queries):
    assert model.freq_total == sum(model.freq.values())
    for t2, t1, cand in queries:
        assert model.score((t2, t1), cand) == \
            resummed_score(model, (t2, t1), cand)


@given(_models())
def test_a_model_derives_its_total_and_vocabulary_from_its_counts(model):
    assert model.total == sum(model.unigram.values())
    assert model.vocab == reference_vocab(model)
    assert model.v1 == len(model.vocab) + 1


# --- model serialization ---------------------------------------------------------

def test_lm_serialization_round_trips_bit_exactly(freq, gold_sentences):
    tuples = [[t.lemma_pos for t in sent] for sent in gold_sentences]
    model = train_lm(tuples, freq=freq, lam=0.7)
    text = serialize_lm(model)
    reloaded = load_lm(io.StringIO(text))
    assert reloaded == model
    assert serialize_lm(reloaded) == text

    rng = random.Random(13)
    vocab = sorted(model.vocab)
    for _ in range(20):
        ctx = (rng.choice(vocab + [BOS]), rng.choice(vocab + [BOS]))
        cand = rng.choice(vocab)
        assert model.score(ctx, cand) == reloaded.score(ctx, cand)


def test_load_lm_rejects_corrupt_input():
    with pytest.raises(LmError, match="expected arabmorph-lm"):
        load_lm(io.StringIO("not a model\n"))
    model = train_lm([[("a_1", "N")]])
    lines = serialize_lm(model).splitlines(keepends=True)
    with pytest.raises(LmError, match="truncated"):
        load_lm(io.StringIO("".join(lines[:-2])))


def _one_shot(text):
    """``text`` as a generator of lines, which can be read only once."""
    return (line for line in text.splitlines(keepends=True))


def test_load_lm_reports_positions_when_read_once_line_by_line():
    model = train_lm([[("a_1", "N"), ("b_1", "V")], [("a_1", "N")]],
                     freq={("c_1", "A"): 4, ("d_1", "N"): 1}, lam=0.25)
    text = serialize_lm(model)
    lines = text.splitlines(keepends=True)
    assert load_lm(_one_shot(text), "m.lm") == model
    assert load_lm(_one_shot(text + "\n \n"), "m.lm") == model
    headers = {what: next(i for i, line in enumerate(lines, 1)
                          if line.startswith(prefix))
               for what, prefix in (("unigram", "ngrams\t1"),
                                    ("bigram", "ngrams\t2"),
                                    ("trigram", "ngrams\t3"),
                                    ("freq", "freq\t"))}
    bigram_record = lines[headers["bigram"]].rpartition("\t")[0] + "\n"
    cases = [
        (lines[:headers["bigram"] - 1],
         f"m.lm: truncated at line {headers['bigram']}, expected ngrams"),
        (lines[:headers["freq"] - 1],
         f"m.lm: truncated at line {headers['freq']}, expected freq"),
        (lines[:headers["bigram"]] + [bigram_record]
         + lines[headers["bigram"] + 1:],
         f"m.lm:{headers['bigram'] + 1}: expected 5 fields in bigram record"),
        (lines[:headers["bigram"] - 1] + ["ngrams\t3\t3\n"]
         + lines[headers["bigram"]:],
         f"m.lm:{headers['bigram']}: expected bigram section"),
        (lines + ["\n", "junk\n"],
         f"m.lm:{len(lines) + 1}: trailing content"),
    ]
    for what, line in headers.items():
        cases.append((lines[:line + 1],
                      f"m.lm: truncated {what} section at line {line + 2}"))
    for kept, message in cases:
        with pytest.raises(LmError, match=f"^{re.escape(message)}$"):
            load_lm(_one_shot("".join(kept)), "m.lm")


def test_a_loaded_model_keeps_one_tuple_per_lemma_and_tag(freq,
                                                          gold_sentences):
    tuples = [[t.lemma_pos for t in sent] for sent in gold_sentences]
    text = serialize_lm(train_lm(tuples, freq=freq, lam=0.7))
    model = load_lm(io.StringIO(text))
    keys = [*model.unigram, *model.freq, *model.vocab,
            *(t for key in [*model.bigram, *model.trigram] for t in key)]
    assert len({id(t) for t in keys}) == len(set(keys))
    assert serialize_lm(model) == text


def _with_last_field(text, lineno, value):
    """``text`` with the last tab-separated field of line ``lineno``
    (1-based) replaced by ``value``."""
    lines = text.splitlines(keepends=True)
    head = lines[lineno - 1].rstrip("\n").rpartition("\t")[0]
    lines[lineno - 1] = f"{head}\t{value}\n"
    return "".join(lines)


def test_load_lm_reports_bad_numbers_with_file_and_line():
    model = train_lm([[("a_1", "N"), ("b_1", "V")]], freq={("a_1", "N"): 2})
    text = serialize_lm(model)
    lines = text.splitlines()

    def line_of(prefix):
        return next(i for i, line in enumerate(lines, 1)
                    if line.startswith(prefix))

    cases = [
        (line_of("lambda"), "X", "bad lambda value"),
        (line_of("lambda"), "1.5", "bad lambda value"),
        (line_of("lambda"), "nan", "bad lambda value"),
        (line_of("vocab"), "X", "bad vocab size"),
        (line_of("total"), "-1", "bad total"),
        (line_of("ngrams\t1"), "X", "bad unigram section size"),
        (line_of("ngrams\t1") + 1, "X", "bad unigram count"),
        (line_of("ngrams\t2"), "-2", "bad bigram section size"),
        (line_of("ngrams\t2") + 1, "1.5", "bad bigram count"),
        (line_of("ngrams\t3"), "", "bad trigram section size"),
        (line_of("ngrams\t3") + 1, "-1", "bad trigram count"),
        (line_of("freq"), "X", "bad freq section size"),
        (line_of("freq") + 1, "two", "bad freq count"),
    ]
    for lineno, value, what in cases:
        with pytest.raises(LmError, match=f"^m.lm:{lineno}: {what}"):
            load_lm(io.StringIO(_with_last_field(text, lineno, value)),
                    "m.lm")


@pytest.mark.parametrize("header,value,message", [
    ("total", "5", "total mismatch: header says 5, counted 7"),
    ("vocab", "7", "vocab size mismatch: header says 7, counted 3"),
])
def test_load_lm_rejects_a_header_its_counts_do_not_give(header, value,
                                                          message):
    model = train_lm([[("a_1", "N"), ("b_1", "V")], [("a_1", "N")]],
                     freq={("c_1", "A"): 4}, lam=0.25)
    text = serialize_lm(model)
    lineno = next(i for i, line in enumerate(text.splitlines(), 1)
                  if line.startswith(header + "\t"))
    with pytest.raises(LmError, match=f"^m.lm: {message}$"):
        load_lm(io.StringIO(_with_last_field(text, lineno, value)), "m.lm")


@pytest.mark.parametrize("section,prefix", [
    ("unigram", "ngrams\t1"), ("bigram", "ngrams\t2"),
    ("trigram", "ngrams\t3"), ("freq", "freq\t")])
def test_load_lm_refuses_a_section_that_repeats_a_key(section, prefix):
    model = train_lm([[("a_1", "N"), ("b_1", "V")], [("a_1", "N")]],
                     freq={("c_1", "A"): 4, ("d_1", "N"): 1}, lam=0.25)
    lines = serialize_lm(model).splitlines(keepends=True)
    header = next(i for i, line in enumerate(lines, 1)
                  if line.startswith(prefix))
    n = int(lines[header - 1].rpartition("\t")[2])
    # The second record becomes the first with another count.
    lines[header + 1] = lines[header].rpartition("\t")[0] + "\t9\n"
    message = (f"m.lm:{header}: {section} section repeats a key: "
               f"{n} records, {n - 1} distinct")
    with pytest.raises(LmError, match=f"^{re.escape(message)}$"):
        load_lm(io.StringIO("".join(lines)), "m.lm")


@given(st.integers(min_value=0), st.text(max_size=12))
def test_load_lm_with_one_line_replaced_parses_or_raises_lm_error(index,
                                                                  line):
    model = train_lm([[("a_1", "N"), ("b_1", "V")], [("a_1", "N")]],
                     freq={("c_1", "A"): 4}, lam=0.25)
    lines = serialize_lm(model).splitlines(keepends=True)
    lines[index % len(lines)] = line + "\n"
    try:
        load_lm(io.StringIO("".join(lines)))
    except LmError:
        pass


def _loaded(load, text):
    """The model ``load`` reads from ``text`` line by line, or its error."""
    try:
        return load(_one_shot(text), "m.lm")
    except LmError as exc:
        return f"LmError: {exc}"


@st.composite
def _damaged_lm_texts(draw):
    """A trained model's text with one line kept, dropped, duplicated,
    truncated or replaced, or with content after its end."""
    model = train_lm(
        draw(st.lists(st.lists(_TUPLES, min_size=1, max_size=5), min_size=1,
                      max_size=4)),
        draw(st.dictionaries(_TUPLES, st.integers(0, 99), max_size=4)),
        draw(st.sampled_from([0.0, 0.25, 1.0])))
    lines = serialize_lm(model).splitlines(keepends=True)
    i = draw(st.integers(0, len(lines) - 1))
    line = lines[i]
    head = line.rstrip("\n").rpartition("\t")[0]
    how = draw(st.sampled_from(["keep", "drop", "duplicate", "truncate",
                                "count", "fields", "repeat", "order",
                                "trailing", "text"]))
    if how == "drop":
        del lines[i]
    elif how == "duplicate":
        lines.insert(i, line)
    elif how == "truncate":
        lines[i] = line[:draw(st.integers(0, len(line) - 1))]
    elif how == "count":
        lines[i] = head + "\t" + draw(st.sampled_from(
            ["-1", "\u0663", "5 ", "", "x", "07"])) + "\n"
    elif how == "fields":
        lines[i] = draw(st.sampled_from([head + "\n",
                                         line.rstrip("\n") + "\t1\n"]))
    elif how == "repeat":
        # The key of a neighbour, with another count.
        other = lines[i - 1] if i else lines[1]
        lines[i] = other.rstrip("\n").rpartition("\t")[0] + "\t9\n"
    elif how == "order":
        if line.startswith("ngrams\t"):
            order = draw(st.sampled_from("1234"))
            lines[i] = f"ngrams\t{order}\t" + line.rpartition("\t")[2]
        elif i + 1 < len(lines):
            lines[i], lines[i + 1] = lines[i + 1], line
    elif how == "trailing":
        lines.append(draw(st.sampled_from(["junk\n", "\n", " \n", "0"])))
    elif how == "text":
        lines[i] = draw(st.text(max_size=12)) + "\n"
    return "".join(lines)


@settings(max_examples=300)
@given(_damaged_lm_texts())
def test_load_lm_reads_or_refuses_as_the_reference_loader(text):
    """The same model, or the same message at the same position."""
    assert _loaded(load_lm, text) == _loaded(reference_load_lm, text)


def test_load_freq_table_accumulates_and_validates():
    table = load_freq_table(io.StringIO("a_1\tN\t3\na_1\tN\t2\n"))
    assert table == {("a_1", "N"): 5}
    with pytest.raises(LmError, match=":1"):
        load_freq_table(io.StringIO("missing fields\n"))
    with pytest.raises(LmError, match="bad count"):
        load_freq_table(io.StringIO("a_1\tN\tmany\n"))
    with pytest.raises(LmError, match="^f.tsv:2: bad count '-1', "
                       "expected a non-negative integer$"):
        load_freq_table(io.StringIO("a_1\tN\t3\na_1\tN\t-1\n"), "f.tsv")


@pytest.mark.parametrize("count", ["\u0661\u0662", "1_000", "+5"])
def test_load_freq_table_reads_counts_as_the_lm_does(count):
    with pytest.raises(LmError, match=(
            f"^f.tsv:1: bad count {re.escape(repr(count))}, "
            "expected a non-negative integer$")):
        load_freq_table(io.StringIO(f"a_1\tN\t{count}\n"), "f.tsv")


def test_load_freq_table_strips_its_fields():
    assert load_freq_table(io.StringIO("a_1\tN\t 7\na_1\tN\t7\r\n")) == \
        {("a_1", "N"): 14}
    assert load_freq_table(["kitAb_1 \t N\t3\n", "kitAb_1\tN\t2\n"]) == \
        {("kitAb_1", "N"): 5}


# --- ranking ---------------------------------------------------------------------

def test_rank_worked_phrase_orders_noun_over_adjective(lexicon, rules, freq):
    sets = analyze_text(tokenize("مع كاتب"), lexicon, MSA)
    ranked = rank(apply_rules(sets, rules), empty_lm(freq=freq))
    assert [a.ana for a, _ in ranked[0].ranked] == ["maEa/maEa_1/PREP"]
    assert [a.lemma for a, _ in ranked[1].ranked] == ["kAtib_1", "kAtib_2"]
    scores = [s for _, s in ranked[1].ranked]
    assert scores == sorted(scores, reverse=True)
    assert [a.lemma for a, _ in ranked[1].dropped] == ["kAtab_1"]


def test_rank_unknown_token_keeps_successors_scored(lexicon, rules, freq):
    sets = analyze_text(tokenize("قهوة كاتب"), lexicon, ALL_FLAGS)
    ranked = rank(apply_rules(sets, rules), empty_lm(freq=freq))
    assert ranked[0].ranked == [] and ranked[0].unknown
    assert ranked[1].ranked
    assert ranked[1].ranked[0][0].lemma == "kAtib_1"


def test_rank_total_tie_preserves_load_order(lexicon):
    sets = analyze_text(tokenize("الكتاب"), lexicon, MSA)
    ranked = rank(apply_rules(sets, []), empty_lm())
    assert [a.lemma for a, _ in ranked[0].ranked] == \
        ["kitAb_1", "kut~Ab_1", "kAtib_1"]


def test_rank_tie_break_prefers_higher_frequency_count(lexicon, freq):
    # with lam=1 and no training data every candidate gets the same floor
    # score, so the frequency-count tie-break decides the order
    sets = analyze_text(tokenize("ملك"), lexicon, MSA)
    ranked = rank(apply_rules(sets, []), empty_lm(lam=1.0, freq=freq))
    scores = [s for _, s in ranked[0].ranked]
    assert len(set(scores)) == 1
    assert [a.lemma for a, _ in ranked[0].ranked] == \
        ["milok_1", "malik_1", "malak_1"]


def test_rank_is_deterministic(lexicon, rules, freq, corpus_text):
    sets = list(analyze_text(tokenize(corpus_text), lexicon, ALL_FLAGS))
    model = empty_lm(freq=freq)
    first = rank(apply_rules(sets, rules), model)
    second = rank(apply_rules(sets, rules), model)
    assert [[(a.ana, s) for a, s in r.ranked] for r in first] == \
        [[(a.ana, s) for a, s in r.ranked] for r in second]
