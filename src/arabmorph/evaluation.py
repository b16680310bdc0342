"""Unknown-word rates per genre and precision/recall/F1 against a gold
standard.

System output is reduced to one list of (lemma, primary tag) readings per
token, in rank order; an empty list marks an unanalyzed token.  Matching
ignores vocalization: a token counts as correct when the gold (lemma, tag)
equals the top reading (TopRanked mode) or appears anywhere in the list
(Any mode).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import IO, Iterable, Sequence

from .analyzer import TokenReadings
from .lexicon import Flag, Lexicon, LexiconError

Reading = tuple[str, str]


@dataclass(frozen=True)
class GoldToken:
    surface: str
    ana: str          # voc/lemma/pos
    genre: str        # one of the nine flag names

    @property
    def lemma_pos(self) -> Reading:
        parts = self.ana.split("/")
        return (parts[1], parts[2])


def load_gold(stream: IO[str] | Iterable[str],
              filename: str = "<gold>") -> list[list[GoldToken]]:
    """Sentences of gold tokens; rows are surface<TAB>voc/lemma/pos<TAB>genre,
    sentences separated by blank lines."""
    sentences: list[list[GoldToken]] = []
    current: list[GoldToken] = []
    for lineno, line in enumerate(stream, 1):
        line = line.rstrip("\n")
        if line.startswith("#"):
            continue
        if not line.strip():
            if current:
                sentences.append(current)
                current = []
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise LexiconError(f"{filename}:{lineno}: expected "
                               "surface<TAB>voc/lemma/pos<TAB>genre")
        surface, ana, genre = (f.strip() for f in fields)
        if ana.count("/") != 2 or not ana.split("/")[1]:
            raise LexiconError(f"{filename}:{lineno}: bad analysis {ana!r}")
        try:
            Flag[genre]
        except KeyError:
            raise LexiconError(f"{filename}:{lineno}: unknown genre "
                               f"{genre!r}") from None
        current.append(GoldToken(surface, ana, genre))
    if current:
        sentences.append(current)
    return sentences


def readings_from_ranked(sets: Sequence[TokenReadings]) -> list[list[Reading]]:
    return [[a.lemma_pos for a, _ in rec.ranked] for rec in sets]


class Mode(enum.Enum):
    TOP_RANKED = "top-ranked"
    ANY = "any"


@dataclass(frozen=True)
class ModeScores:
    error_rate: float
    precision: float
    recall: float
    f1: float


@dataclass(frozen=True)
class EvalReport:
    unknown_rates: dict[str, float]        # genre -> percentage
    modes: dict[Mode, ModeScores]


def f1_score(precision: float, recall: float) -> float:
    if precision + recall <= 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def _check_aligned(system: Sequence, gold: Sequence) -> None:
    if len(system) != len(gold):
        raise LexiconError(f"system and gold are misaligned: {len(system)} "
                           f"system tokens vs {len(gold)} gold tokens")


def unknown_rates(system: Sequence[Sequence[Reading]],
                  gold: Sequence[GoldToken]) -> dict[str, float]:
    """Percentage of tokens with no analysis, per genre; genres without
    tokens are omitted.  Depends only on analysis-set emptiness, so it is
    invariant under re-ranking."""
    _check_aligned(system, gold)
    totals: dict[str, int] = {}
    unknown: dict[str, int] = {}
    for readings, gtok in zip(system, gold):
        totals[gtok.genre] = totals.get(gtok.genre, 0) + 1
        if not readings:
            unknown[gtok.genre] = unknown.get(gtok.genre, 0) + 1
    return {genre: 100.0 * unknown.get(genre, 0) / total
            for genre, total in totals.items()}


def prf(system: Sequence[Sequence[Reading]], gold: Sequence[GoldToken],
        mode: Mode, lexicon: Lexicon) -> ModeScores:
    """Error rate, precision, recall and F1 for one matching mode.

    Precision is over analyzed (non-unknown) tokens; recall is over
    gold-covered tokens, i.e. those whose gold (lemma, tag) exists anywhere
    in the lexicon; the error rate is over all tokens.
    """
    _check_aligned(system, gold)
    covered = lexicon.known_lemma_pos()
    total = len(gold)
    analyzed = matches = gold_covered = covered_matches = 0
    for readings, gtok in zip(system, gold):
        target = gtok.lemma_pos
        if readings:
            analyzed += 1
        if mode is Mode.TOP_RANKED:
            hit = bool(readings) and readings[0] == target
        else:
            hit = target in readings
        matches += hit
        if target in covered:
            gold_covered += 1
            covered_matches += hit
    precision = 100.0 * matches / analyzed if analyzed else 0.0
    recall = 100.0 * covered_matches / gold_covered if gold_covered else 0.0
    error_rate = 100.0 * (1.0 - matches / total) if total else 0.0
    return ModeScores(error_rate=error_rate, precision=precision,
                      recall=recall, f1=f1_score(precision, recall))


def evaluate(system: Sequence[Sequence[Reading]], gold: Sequence[GoldToken],
             lexicon: Lexicon) -> EvalReport:
    return EvalReport(
        unknown_rates=unknown_rates(system, gold),
        modes={mode: prf(system, gold, mode, lexicon) for mode in Mode},
    )


def report_tsv(report: EvalReport) -> str:
    lines = ["section\tkey\tvalue"]
    for genre in sorted(report.unknown_rates):
        lines.append(f"unknown\t{genre}\t{report.unknown_rates[genre]:.2f}")
    for mode, scores in report.modes.items():
        lines.append(f"{mode.value}\terror-rate\t{scores.error_rate:.2f}")
        lines.append(f"{mode.value}\tprecision\t{scores.precision:.2f}")
        lines.append(f"{mode.value}\trecall\t{scores.recall:.2f}")
        lines.append(f"{mode.value}\tf1\t{scores.f1:.2f}")
    return "".join(line + "\n" for line in lines)


def report_table(report: EvalReport) -> str:
    lines = ["Unknown-word rate by genre"]
    if report.unknown_rates:
        for genre in sorted(report.unknown_rates):
            lines.append(f"  {genre:<10} {report.unknown_rates[genre]:6.2f}%")
    else:
        lines.append("  (no tokens)")
    lines.append("")
    lines.append(f"{'':<12}{'Top-ranked':>12}{'Any':>12}")
    top = report.modes[Mode.TOP_RANKED]
    any_ = report.modes[Mode.ANY]
    for label, attr in (("Error rate", "error_rate"), ("Precision", "precision"),
                        ("Recall", "recall"), ("F1", "f1")):
        lines.append(f"{label:<12}{getattr(top, attr):>12.2f}"
                     f"{getattr(any_, attr):>12.2f}")
    return "".join(line + "\n" for line in lines)
