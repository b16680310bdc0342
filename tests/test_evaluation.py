import io
import re

import pytest

from arabmorph.analyzer import analyze_text, tokenize
from arabmorph.disambig import apply_rules, empty_lm, rank
from arabmorph.evaluation import (EvalReport, GoldToken, Mode, evaluate,
                                  f1_score, load_gold, prf, readings_from_doc,
                                  report_table, report_tsv, unknown_rates)
from arabmorph.lexicon import (ALL_FLAGS, Kind, LexiconError, Status,
                               import_wordlist, load_review, merge_reviewed,
                               save_review)
from arabmorph.teixml import UNKNOWN_ANA, Note, TeiDoc, TeiWord
from arabmorph.translit import buck_to_arabic

from oracles import readings_from_ranked


def _gold(n, genre="CA", lemma="kitAb_1", pos="N"):
    return [GoldToken("x", f"x/{lemma}/{pos}", genre) for _ in range(n)]


# --- gold corpus loading ------------------------------------------------------

def test_load_gold_splits_sentences_and_parses_rows():
    text = "س\tvoc/lemma_1/N\tCA\n\nس\tvoc/lemma_2/V\tMSA\n"
    sents = load_gold(io.StringIO(text))
    assert [len(s) for s in sents] == [1, 1]
    assert sents[0][0].lemma_pos == ("lemma_1", "N")
    assert sents[1][0].genre == "MSA"


def test_load_gold_rejects_bad_rows():
    with pytest.raises(LexiconError, match=":1"):
        load_gold(io.StringIO("only two\tfields\n"))
    with pytest.raises(LexiconError, match="bad analysis"):
        load_gold(io.StringIO("س\tnoslashes\tCA\n"))
    with pytest.raises(LexiconError, match="unknown genre"):
        load_gold(io.StringIO("س\tv/l_1/N\tPOETRY\n"))


def test_gold_genres_take_every_flag_spelling_and_keep_the_canonical_name():
    text = "".join(f"س\tv/l_1/N\t{genre}\n"
                   for genre in ("CA", "ca", "XRAM_CA", "xram_Ca", "MSA"))
    (sentence,) = load_gold(io.StringIO(text))
    assert [t.genre for t in sentence] == ["CA"] * 4 + ["MSA"]
    system = [[], [("l_1", "N")], [], [("l_1", "N")], []]
    assert unknown_rates(system, sentence) == {"CA": 50.0, "MSA": 100.0}
    for genre in ("POETRY", "CA|MSA", "CA,MSA", "XRAM_"):
        with pytest.raises(LexiconError, match=(
                f"^<gold>:1: unknown genre {re.escape(repr(genre))}$")):
            load_gold(io.StringIO(f"س\tv/l_1/N\t{genre}\n"))


def test_bundled_gold_file_loads(gold_sentences):
    tokens = [t for s in gold_sentences for t in s]
    assert len(tokens) == 204
    genres = {t.genre for t in tokens}
    assert genres == {"CA", "MSA", "ICA", "SPEC_MED", "SPEC_ALCH",
                      "SPEC_GRAM", "NE", "FNE", "CAP"}


# --- unknown rates --------------------------------------------------------------

def test_unknown_rate_arithmetic():
    gold = _gold(10)
    system = [[] if i < 3 else [("kitAb_1", "N")] for i in range(10)]
    assert unknown_rates(system, gold) == {"CA": 30.0}


def test_unknown_rate_zero_when_everything_analyzed():
    gold = _gold(4)
    system = [[("kitAb_1", "N")]] * 4
    assert unknown_rates(system, gold) == {"CA": 0.0}


def test_unknown_rate_omits_absent_genres():
    gold = _gold(2, genre="CA") + _gold(1, genre="FNE")
    system = [[("kitAb_1", "N")], [], []]
    rates = unknown_rates(system, gold)
    assert set(rates) == {"CA", "FNE"}
    assert rates["CA"] == 50.0 and rates["FNE"] == 100.0


def test_unknown_rate_is_invariant_under_reranking():
    gold = _gold(2)
    a = [[("x_1", "N"), ("y_1", "V")], []]
    b = [[("y_1", "V"), ("x_1", "N")], []]
    assert unknown_rates(a, gold) == unknown_rates(b, gold)


def test_misaligned_lengths_raise():
    with pytest.raises(LexiconError, match="misaligned"):
        unknown_rates([[]], _gold(2))
    with pytest.raises(LexiconError, match="misaligned"):
        prf([[]], _gold(2), Mode.ANY, covered=frozenset())


# --- precision / recall / F1 -----------------------------------------------------

def test_f1_is_the_harmonic_mean_of_reported_rows():
    assert f1_score(86.44, 95.25) == pytest.approx(90.63, abs=0.01)
    assert f1_score(96.43, 97.25) == pytest.approx(96.84, abs=0.01)
    assert f1_score(0.0, 0.0) == 0.0
    assert f1_score(100.0, 100.0) == 100.0


def test_prf_perfect_run(lexicon):
    gold = [GoldToken("كتاب", "kitAb/kitAb_1/N", "MSA"),
            GoldToken("مع", "maEa/maEa_1/PREP", "MSA")]
    system = [[("kitAb_1", "N")], [("maEa_1", "PREP")]]
    for mode in Mode:
        scores = prf(system, gold, mode, lexicon.known_lemma_pos())
        assert scores.precision == 100.0
        assert scores.recall == 100.0
        assert scores.f1 == 100.0
        assert scores.error_rate == 0.0


def test_prf_modes_and_denominators(lexicon):
    gold = [
        GoldToken("a", "v/kitAb_1/N", "MSA"),      # top-ranked match
        GoldToken("b", "v/kAtib_2/A", "MSA"),      # match only in Any mode
        GoldToken("c", "v/maEa_1/PREP", "MSA"),    # analyzed, no match
        GoldToken("d", "v/ghost_1/N", "MSA"),      # unknown, gold uncovered
    ]
    system = [
        [("kitAb_1", "N"), ("kut~Ab_1", "N")],
        [("kAtib_1", "N"), ("kAtib_2", "A")],
        [("min_1", "PREP")],
        [],
    ]
    covered = lexicon.known_lemma_pos()
    top = prf(system, gold, Mode.TOP_RANKED, covered)
    any_ = prf(system, gold, Mode.ANY, covered)
    # three analyzed tokens; gold coverage excludes the ghost lemma
    assert top.precision == pytest.approx(100 * 1 / 3)
    assert any_.precision == pytest.approx(100 * 2 / 3)
    assert top.recall == pytest.approx(100 * 1 / 3)
    assert any_.recall == pytest.approx(100 * 2 / 3)
    assert top.error_rate == pytest.approx(100 * 3 / 4)
    assert any_.error_rate == pytest.approx(100 * 2 / 4)
    assert any_.precision >= top.precision
    assert any_.recall >= top.recall


def test_any_mode_dominates_top_mode_on_the_corpus(lexicon, rules, freq,
                                                   corpus_text, gold_sentences):
    gold = [t for s in gold_sentences for t in s]
    sets = list(analyze_text(tokenize(corpus_text), lexicon, ALL_FLAGS))
    ranked = rank(apply_rules(sets[len(sets) - len(gold):], rules),
                  empty_lm(freq=freq))
    system = readings_from_ranked(ranked)
    report = evaluate(system, gold, lexicon)
    top, any_ = report.modes[Mode.TOP_RANKED], report.modes[Mode.ANY]
    assert any_.precision >= top.precision
    assert any_.recall >= top.recall
    assert any_.error_rate <= top.error_rate
    assert 0 < top.precision <= 100
    for rate in report.unknown_rates.values():
        assert 0 <= rate <= 100
    for scores in report.modes.values():
        assert scores.f1 == pytest.approx(
            f1_score(scores.precision, scores.recall))


def test_report_rendering_smoke():
    report = EvalReport(
        unknown_rates={"CA": 3.4},
        modes={Mode.TOP_RANKED: prf([[("kitAb_1", "N")]], _gold(1),
                                    Mode.TOP_RANKED,
                                    _FakeLex().known_lemma_pos()),
               Mode.ANY: prf([[("kitAb_1", "N")]], _gold(1), Mode.ANY,
                             _FakeLex().known_lemma_pos())},
    )
    table = report_table(report)
    assert "CA" in table and "Top-ranked" in table
    tsv = report_tsv(report)
    assert "unknown\tCA\t3.40" in tsv
    assert "top-ranked\tf1\t100.00" in tsv


def test_report_table_of_no_tokens():
    assert report_table(evaluate([], [], _FakeLex())) == (
        "Unknown-word rate by genre\n"
        "  (no tokens)\n"
        "\n"
        "              Top-ranked         Any\n"
        "Error rate          0.00        0.00\n"
        "Precision           0.00        0.00\n"
        "Recall              0.00        0.00\n"
        "F1                  0.00        0.00\n")


def test_readings_from_doc_gives_an_unknown_word_no_readings():
    doc = TeiDoc(words=(TeiWord("x", UNKNOWN_ANA),
                        TeiWord("y", "v/a_1/N", (Note("w/b_1/A"),))))
    assert readings_from_doc(doc) == [[], [("a_1", "N"), ("b_1", "A")]]


class _FakeLex:
    def known_lemma_pos(self):
        return {("kitAb_1", "N")}


class _CountingLex(_FakeLex):
    def __init__(self):
        self.calls = 0

    def known_lemma_pos(self):
        self.calls += 1
        return super().known_lemma_pos()


def test_evaluate_collects_the_covered_pairs_once(lexicon):
    gold = _gold(2) + _gold(1, lemma="ghost_1")
    system = [[("kitAb_1", "N")], [], [("ghost_1", "N")]]
    counting = _CountingLex()
    report = evaluate(system, gold, counting)
    assert counting.calls == 1
    assert report.modes == {
        mode: prf(system, gold, mode, _FakeLex().known_lemma_pos())
        for mode in Mode}


def test_imported_gold_stems_close_every_gold_unknown(lexicon,
                                                     gold_sentences):
    # The paper's mechanism (iii), lexicon increments, over the gold:
    # each unknown gold word gets a wordlist row built from its gold stem
    # voc and tag, which runs through import, review and merge.
    gold = [t for sentence in gold_sentences for t in sentence]
    unknown = list({t.surface: t for t in gold if next(iter(analyze_text(
        tokenize(t.surface), lexicon, ALL_FLAGS))).unknown}.values())
    assert [t.surface for t in unknown] == [
        "التلفزيون", "والكمبيوتر", "قهوة", "سيارة", "جريدة", "البنك", "طائرة"]
    rows = "".join(
        f"{buck_to_arabic(t.ana.split('/')[0].split('+')[-1])}\tgloss\t"
        f"{t.lemma_pos[1]}\n" for t in unknown)
    review = io.StringIO()
    save_review(import_wordlist(io.StringIO(rows), Kind.STEM, ALL_FLAGS),
                review)
    accepted = re.sub(r"(?m)^P\t", "A\t", review.getvalue())
    batch = load_review(io.StringIO(accepted))
    assert [c.status for c in batch.candidates] == [Status.ACCEPTED] * 7
    merged = merge_reviewed(lexicon, batch)
    for t in unknown:
        [record] = analyze_text(tokenize(t.surface), merged, ALL_FLAGS)
        assert [a.ana for a in record.analyses] == [t.ana]
