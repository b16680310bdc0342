"""Output checks for the benchmark.

Each check returns a list of problems, empty when the output is right.
The truth they compare against comes from the workload generator or is
recomputed here, never from the output under test.
"""

from __future__ import annotations

from collections import Counter

from arabmorph.teixml import UNKNOWN_ANA

Triple = tuple[str, str, str]          # (voc, lemma, pos)


def _key(analysis) -> Triple:
    return (analysis.voc, analysis.lemma, analysis.pos)


def _readings(rset) -> list[Triple]:
    return [_key(a) for a, _ in rset.ranked] + [_key(a) for a, _ in rset.dropped]


def check_truth(ranked, truth: list[Triple]) -> list[str]:
    """Every token's source triple is among its ranked or dropped readings."""
    if len(ranked) != len(truth):
        return [f"{len(ranked)} tokens for {len(truth)} generated words"]
    return [f"token {i} ({rset.token.surface}): source reading {t} missing"
            for i, (rset, t) in enumerate(zip(ranked, truth))
            if t not in _readings(rset)]


def check_scores(ranked) -> list[str]:
    """Every score is positive, and each token's readings are in
    descending score order."""
    problems = []
    for i, rset in enumerate(ranked):
        scores = [s for _, s in rset.ranked]
        if not all(s > 0 for s in scores):
            problems.append(f"token {i}: non-positive score in {scores}")
        if scores != sorted(scores, reverse=True):
            problems.append(f"token {i}: scores out of order {scores}")
    return problems


def check_permutation(ranked, reference: list[list[Triple]]) -> list[str]:
    """Ranked plus dropped readings are a permutation of the readings
    ``analyze_type`` gives for the token's type."""
    if len(ranked) != len(reference):
        return [f"{len(ranked)} ranked tokens for {len(reference)} analyzed"]
    return [f"token {i} ({rset.token.surface}): readings {sorted(_readings(rset))}"
            f" are not a permutation of {sorted(ref)}"
            for i, (rset, ref) in enumerate(zip(ranked, reference))
            if Counter(_readings(rset)) != Counter(ref)]


def readings_from_doc(doc) -> list[list[tuple[str, str]]]:
    """(lemma, pos) readings per word in rank order, as ``arabmorph eval``
    reads them from annotated XML; an unknown word has none."""
    out = []
    for word in doc.words:
        if word.ana == UNKNOWN_ANA:
            out.append([])
        else:
            out.append([tuple(a.split("/")[1:3])
                        for a in [word.ana] + [n.ana for n in word.notes]])
    return out


def check_corrections(before, after, again) -> list[str]:
    """``after`` is ``before`` with each marked note promoted to the
    default reading and the old default demoted to the first note;
    ``again`` (the transform applied to ``after``) equals ``after``."""
    problems = []
    if again != after:
        problems.append("apply_corrections is not idempotent")
    if len(after.words) != len(before.words):
        return problems + ["apply_corrections changed the word count"]
    for i, (old, new) in enumerate(zip(before.words, after.words)):
        marked = [n for n in old.notes if n.corrected]
        if not marked:
            want = (old.ana, [n.ana for n in old.notes])
        else:
            rest = [n.ana for n in old.notes if n is not marked[0]]
            want = (marked[0].ana, [old.ana] + rest)
        got = (new.ana, [n.ana for n in new.notes])
        if got != want or any(n.corrected for n in new.notes) \
                or new.surface != old.surface:
            problems.append(f"word {i} ({old.surface}): corrected to {got}, "
                            f"expected {want}")
    return problems


def recount(readings, gold, covered) -> dict:
    """Unknown rates per genre and error rate, precision, recall and F1 in
    both matching modes, counted from scratch."""
    totals, unknown = Counter(), Counter()
    for r, g in zip(readings, gold):
        totals[g.genre] += 1
        unknown[g.genre] += not r
    out = {"unknown": {k: 100.0 * unknown[k] / n for k, n in totals.items()}}
    for mode in ("top-ranked", "any"):
        analyzed = hits = in_lex = in_lex_hits = 0
        for r, g in zip(readings, gold):
            target = tuple(g.ana.split("/")[1:3])
            hit = (r[:1] == [target]) if mode == "top-ranked" else target in r
            analyzed += bool(r)
            hits += hit
            if target in covered:
                in_lex += 1
                in_lex_hits += hit
        p = 100.0 * hits / analyzed if analyzed else 0.0
        r_ = 100.0 * in_lex_hits / in_lex if in_lex else 0.0
        out[mode] = {
            "error_rate": 100.0 * (1 - hits / len(gold)) if gold else 0.0,
            "precision": p, "recall": r_,
            "f1": 2 * p * r_ / (p + r_) if p + r_ > 0 else 0.0}
    return out


def check_evaluation(report, readings, gold, covered) -> list[str]:
    """``evaluate``'s report equals the recount, to 1e-9."""
    if len(readings) != len(gold):
        return [f"{len(readings)} system tokens for {len(gold)} gold tokens"]
    want = recount(readings, gold, covered)
    got = {"unknown": report.unknown_rates}
    for mode, scores in report.modes.items():
        got[mode.value] = {"error_rate": scores.error_rate,
                           "precision": scores.precision,
                           "recall": scores.recall, "f1": scores.f1}
    problems = []
    for section, values in want.items():
        have = got.get(section, {})
        if set(have) != set(values) or any(
                abs(have[k] - v) > 1e-9 for k, v in values.items()):
            problems.append(f"evaluation {section}: {have} != recount {values}")
    return problems


def check_merge(reloaded, base_keys: set, batch, marks: str,
                assign) -> list[str]:
    """The merged lexicon, serialized and loaded back, holds every entry it
    had plus exactly the accepted candidates, each with the assigned flags."""
    problems = []
    accepted = [c.entry for c, m in zip(batch.candidates, marks) if m == "A"]
    keys = {(e.kind, e.surface, e.voc, e.cat, e.lemma): e
            for e in reloaded.entries()}
    want = base_keys | {(e.kind, e.surface, e.voc, e.cat, e.lemma)
                        for e in accepted}
    if set(keys) != want:
        problems.append(f"merged lexicon has {len(keys)} entries, expected "
                        f"{len(want)}")
    for e in accepted:
        got = keys.get((e.kind, e.surface, e.voc, e.cat, e.lemma))
        if got is None or not got.flags & assign:
            problems.append(f"accepted candidate {e.surface}/{e.lemma} "
                            "missing or without its flags")
    return problems


def check_equal(what: str, got: str, want: str) -> list[str]:
    if got == want:
        return []
    at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
              min(len(got), len(want)))
    return [f"{what}: outputs differ at character {at} "
            f"({len(got)} vs {len(want)} characters)"]
