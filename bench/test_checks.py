"""Smoke tests for the benchmark's output checks: each passes on real
pipeline output and fails once that output is deliberately corrupted.

    python3 -m pytest -q bench/test_checks.py
"""

import io
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
from arabmorph.analyzer import analyze_type, token_lookup_key  # noqa: E402
from arabmorph.cli import PipelineConfig, default_lexicon_dir  # noqa: E402
from arabmorph.evaluation import evaluate, load_gold  # noqa: E402
from arabmorph.lexicon import (ALL_FLAGS, LEXICON_FILES, Flag,  # noqa: E402
                               load_lexicon, serialize_lexicon)
from arabmorph.teixml import (apply_corrections, doc_from_ranked,  # noqa: E402
                              parse_tei)
from arabmorph.translit import buck_to_arabic  # noqa: E402

LEXICON = default_lexicon_dir()


@pytest.fixture(scope="module")
def pipeline():
    return PipelineConfig(lexicon_dir=LEXICON, flags=ALL_FLAGS,
                          rules_path=str(LEXICON.parent / "rules.txt"),
                          freq_path=str(ROOT / "tests/data/freq.tsv")).load()


@pytest.fixture(scope="module")
def analyzed(pipeline):
    """Generated words (every 97th licensed triple) through the pipeline,
    with their source triples and analyze_type's readings."""
    triples = gen._triples(pipeline.lexicon)[::97]
    text = " ".join(buck_to_arabic(s) for s, _, _ in triples)
    tokens, _cache, ranked = pipeline.run(text)
    reference = [[(a.voc, a.lemma, a.pos) for a in analyze_type(
        token_lookup_key(t), pipeline.lexicon, ALL_FLAGS)] for t in tokens]
    return ranked, [t for _, t, _ in triples], reference


def _corrupt(sets, i, **change):
    """A copy of the ranked sets with token ``i``'s fields replaced."""
    sets = list(sets)
    sets[i] = replace(sets[i], **change)
    return sets


def _ambiguous(ranked):
    return next(i for i, r in enumerate(ranked) if len(r.ranked) > 1)


def test_checks_pass_on_real_output(analyzed):
    ranked, truth, reference = analyzed
    assert checks.check_truth(ranked, truth) == []
    assert checks.check_scores(ranked) == []
    assert checks.check_permutation(ranked, reference) == []


def test_truth_check_catches_a_lost_reading(analyzed):
    ranked, truth, _ = analyzed
    i = _ambiguous(ranked)
    lost = [(a, s) for a, s in ranked[i].ranked
            if (a.voc, a.lemma, a.pos) != truth[i]]
    assert checks.check_truth(_corrupt(ranked, i, ranked=lost, dropped=[]),
                              truth)


def test_score_check_catches_zero_and_disorder(analyzed):
    ranked, _, _ = analyzed
    i = _ambiguous(ranked)
    (a, s), (b, t) = ranked[i].ranked[:2]
    assert checks.check_scores(_corrupt(ranked, i, ranked=[(a, s), (b, 0.0)]))
    assert checks.check_scores(_corrupt(ranked, i, ranked=[(a, s), (b, s + 1)]))


def test_permutation_check_catches_a_duplicate(analyzed):
    ranked, _, reference = analyzed
    i = _ambiguous(ranked)
    twice = ranked[i].ranked + ranked[i].ranked[:1]
    assert checks.check_permutation(_corrupt(ranked, i, ranked=twice),
                                    reference)


def _review_doc(pipeline):
    gold = load_gold(io.StringIO(
        (ROOT / "tests/data/gold.tsv").read_text(encoding="utf-8")))
    tokens = [t for sent in gold for t in sent]
    _t, _c, ranked = pipeline.run(" ".join(t.surface for t in tokens))
    doc = doc_from_ranked(ranked)
    i = next(i for i, w in enumerate(doc.words) if w.notes)
    words = list(doc.words)
    words[i] = replace(words[i], notes=(replace(words[i].notes[0],
                                                corrected=True),)
                       + words[i].notes[1:])
    return replace(doc, words=tuple(words)), tokens, i


def test_correction_check_catches_a_wrong_or_unstable_transform(pipeline):
    doc, _, i = _review_doc(pipeline)
    fixed = apply_corrections(doc)
    assert checks.check_corrections(doc, fixed, apply_corrections(fixed)) == []
    words = list(fixed.words)
    words[i] = doc.words[i]                  # the mark was not applied
    broken = replace(fixed, words=tuple(words))
    assert checks.check_corrections(doc, broken, broken)
    assert checks.check_corrections(doc, fixed, broken)


def test_evaluation_check_catches_a_wrong_figure(pipeline):
    doc, gold, _ = _review_doc(pipeline)
    readings = checks.readings_from_doc(apply_corrections(doc))
    covered = pipeline.lexicon.known_lemma_pos()
    report = evaluate(readings, gold, pipeline.lexicon)
    assert checks.check_evaluation(report, readings, gold, covered) == []
    modes = dict(report.modes)
    mode = next(iter(modes))
    modes[mode] = replace(modes[mode], recall=modes[mode].recall + 1)
    assert checks.check_evaluation(replace(report, modes=modes), readings,
                                   gold, covered)


def test_merge_check_catches_a_lost_entry(pipeline, tmp_path):
    gen._candidates(gen.random.Random(0), tmp_path)
    manifest = {"wordlist": "candidates.tsv", "marks": "A" * gen.CANDIDATES,
                "import_flags": "MSA"}
    w = run.Workload.__new__(run.Workload)
    w.m, w.workdir, w.pipeline = manifest, tmp_path, pipeline
    files, _reviewed, batch = w.merge_once()
    base = {(e.kind, e.surface, e.voc, e.cat, e.lemma)
            for e in pipeline.lexicon.entries()}

    def reload(files):
        s = [io.StringIO(files[n]) for n in LEXICON_FILES]
        return load_lexicon(s[0], s[1], s[2], tuple(s[3:]))

    assert checks.check_merge(reload(files), base, batch, manifest["marks"],
                              Flag.MSA) == []
    stems = files["stems.tsv"].splitlines(keepends=True)
    lost = dict(files, **{"stems.tsv": "".join(stems[:-1])})
    assert checks.check_merge(reload(lost), base, batch, manifest["marks"],
                              Flag.MSA)
    assert serialize_lexicon(reload(files)) == files


def test_equality_check_catches_one_changed_byte(pipeline):
    doc, _, _ = _review_doc(pipeline)
    from arabmorph.teixml import emit_tei
    out = emit_tei(doc)
    assert checks.check_equal("xml", emit_tei(parse_tei(out)), out) == []
    assert checks.check_equal("xml", out.replace("</w>", "</w >", 1), out)


def test_timed_pass_counts_an_output_that_changed():
    class Fake:
        docs = [run.Doc("a", "x", digest=run.sha("out")),
                run.Doc("b", "y", digest=run.sha("out"))]

        @staticmethod
        def op(doc):
            return ("out" if doc.name == "a" else "corrupted"), 1, {}

    tally = run.Tally()
    run.one_pass(Fake, tally)
    assert (tally.attempted, tally.failed) == (2, 1)


def test_digest_mismatch_is_reported_as_a_behaviour_change(tmp_path):
    path = tmp_path / "digests.json"
    assert run.report_digest("long-doc", 1, "a" * 64, True, path) == "recorded"
    assert run.report_digest("long-doc", 1, "a" * 64, False, path) \
        == "matches the recorded digest"
    assert run.report_digest("long-doc", 1, "b" * 64, False, path) \
        .startswith("BEHAVIOUR CHANGE")
    assert run.report_digest("long-doc", 2, "a" * 64, False, path) \
        == "no recorded digest for this seed"
