"""The analyze and rules stages are lazy: each yields a token's record as
soon as it has read what that record needs, so a record can be freed once
the next stage has read it.  Memos keyed by ``id`` must then hold their
keys, or a freed readings tuple's id could be reused and hit a memo it
does not belong to.  A model with no positive bigram or unigram ranks
without building or backing off any context."""

import io

import pytest

from arabmorph.analyzer import (TokenReadings, analyze_text, analyze_type,
                                token_lookup_key, tokenize)
from arabmorph.disambig import (BOS, LmModel, apply_rules, empty_lm, load_lm,
                                parse_rules, rank, serialize_lm, train_lm)
from arabmorph.lexicon import ALL_FLAGS
from arabmorph.translit import DEFAULT_TABLE

from oracles import reference_apply_rules, reference_rank

# Rules on both sides, on every context attribute, aimed at readings that
# the corpus has in varying subsets.
RULE_TEXT = """\
DROP pos=V WHEN prev.lemma=maEa_1
DROP pos=V WHEN prev.pos=PREP
DROP pos=A WHEN next.pos=N
DROP pos=N WHEN prev.pos=N
DROP lemma=kAtib_2 WHEN next.surface=ktAb
DROP pos=V WHEN prev.surface=Al
"""


def _pulled(items, log):
    """Yield ``items`` one by one, appending each to ``log`` as it goes."""
    for item in items:
        log.append(item)
        yield item


def test_analyze_text_yields_before_its_input_runs_out(lexicon):
    tokens = tokenize("مع كاتب مع كاتب كاتب")
    pulled = []
    first = next(iter(analyze_text(_pulled(tokens, pulled), lexicon,
                                   ALL_FLAGS)))
    assert first.token is tokens[0]
    assert pulled == tokens[:1]


def test_apply_rules_yields_after_reading_one_record_ahead(lexicon, rules):
    sets = list(analyze_text(tokenize("مع كاتب مع كاتب كاتب"), lexicon,
                             ALL_FLAGS))
    pulled = []
    stage = iter(apply_rules(_pulled(sets, pulled), rules))
    assert next(stage) is sets[0]
    assert pulled == sets[:2]
    # The second token's armed bits need the third's context bits.
    assert [a.pos for a in next(stage).analyses] == ["N", "A"]
    assert pulled == sets[:3]


def _fresh_records(tokens, lexicon):
    """One record per token whose readings tuple is built afresh and held
    by nothing else.  Token i of a word with n readings leaves out reading
    i % (n + 1), if there is one, so tokens of one surface get readings
    of one length but different content: a freed tuple's id is reused by
    the next tuple of its length, which then differs from the one that
    id was keyed for."""
    for i, token in enumerate(tokens):
        readings = analyze_type(token_lookup_key(token), lexicon, ALL_FLAGS)
        j = i % (len(readings) + 1)
        yield TokenReadings(token, tuple(readings[:j] + readings[j + 1:]))


@pytest.fixture(scope="module")
def lazy_models(freq, gold_sentences):
    return [train_lm([[t.lemma_pos for t in s] for s in gold_sentences], freq),
            empty_lm(freq=freq)]


def test_stages_fed_fresh_records_equal_the_references(lexicon, corpus_text,
                                                       lazy_models):
    rules = parse_rules(io.StringIO(RULE_TEXT))
    # The repeated phrase arms every كاتب alike, with readings that vary.
    for tokens in (tokenize(corpus_text * 5), tokenize("مع كاتب كاتب " * 40)):
        listed = list(_fresh_records(tokens, lexicon))
        expected, _ = reference_apply_rules(listed, rules, DEFAULT_TABLE)
        assert any(dropped for _, dropped in expected)
        # Each record is read and let go, so freed tuples' ids come back.
        lazy = [(list(r.analyses), r.dropped)
                for r in apply_rules(_fresh_records(tokens, lexicon), rules)]
        assert lazy == expected
        assert [(list(r.analyses), r.dropped)
                for r in apply_rules(listed, rules)] == expected

        survivors = [s for s, _ in expected]
        for model in lazy_models:
            want = reference_rank(survivors, model)
            ranked = rank((TokenReadings(t, tuple(s))
                           for t, s in zip(tokens, survivors)), model)
            assert [r.ranked for r in ranked] == want
            assert [r.ranked for r in rank(listed, model)] == \
                reference_rank([r.analyses for r in listed], model)
            chained = rank(apply_rules(_fresh_records(tokens, lexicon),
                                       rules), model)
            assert [r.ranked for r in chained] == want


def _counting_backoff(monkeypatch):
    calls = []
    backoff = LmModel.backoff

    def counting(self, ctx):
        calls.append(ctx)
        return backoff(self, ctx)

    monkeypatch.setattr(LmModel, "backoff", counting)
    return calls


def test_a_frequency_only_model_never_backs_off(lexicon, rules, freq,
                                                corpus_text, monkeypatch):
    sets = list(apply_rules(analyze_text(tokenize(corpus_text), lexicon,
                                         ALL_FLAGS), rules))
    calls = _counting_backoff(monkeypatch)
    for model in (empty_lm(freq=freq), empty_lm(),
                  # counts of zero are seen as nothing
                  LmModel(trigram={}, bigram={(BOS, BOS): 0},
                          unigram={BOS: 0}, freq=dict(freq), lam=0.7)):
        assert not model.contextual
        ranked = rank(sets, model)
        assert [r.ranked for r in ranked] == \
            reference_rank([r.analyses for r in sets], model)
    assert calls == []


def test_a_model_with_bigrams_but_no_unigrams_backs_off(lexicon, rules, freq,
                                                        corpus_text,
                                                        monkeypatch):
    # The corpus opens with an unknown word; this text opens ambiguous.
    sets = list(apply_rules(analyze_text(tokenize("ملك " + corpus_text),
                                         lexicon, ALL_FLAGS), rules))
    first = rank(sets[:1], empty_lm(freq=freq))[0].ranked[-1][0].lemma_pos
    model = load_lm(io.StringIO(serialize_lm(LmModel(
        trigram={(BOS, BOS, first): 4}, bigram={(BOS, BOS): 4}, unigram={},
        freq=dict(freq), lam=0.7))))
    assert model.unigram == {} and model.contextual
    calls = _counting_backoff(monkeypatch)
    ranked = rank(sets, model)
    assert len(calls) >= len(sets)
    want = reference_rank([r.analyses for r in sets], model)
    assert [r.ranked for r in ranked] == want
    # The seen trigram lifts the first token's last reading to the top.
    assert want[0][0][0].lemma_pos == first
