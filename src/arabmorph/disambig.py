"""Candidate reduction and ranking: contextual drop rules, then a trigram
language model over (lemma, primary tag) tuples blended with an external
unigram frequency table.

Rules look one token left or right and drop matching analyses of the
current token; a safeguard never lets a rule empty a non-empty set, since
manufacturing unknown words would corrupt the unknown-rate measure.
Ranking is greedy left to right: the context for a token is the top-ranked
choice at the two preceding positions.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass, field
from typing import IO, Iterable, Sequence

from .analyzer import Analysis, TokenReadings, token_lookup_key
from .translit import BuckTable, DEFAULT_TABLE

log = logging.getLogger(__name__)

Tuple = tuple[str, str]            # (lemma, primary tag)

BOS: Tuple = ("<s>", "<s>")        # sequence-initial boundary symbol
UNK: Tuple = ("<unk>", "<unk>")    # stand-in for an unanalyzable neighbor


class RuleError(ValueError):
    """Syntax error in the rule DSL."""


class LmError(ValueError):
    """Malformed language-model input or serialization."""


@dataclass(frozen=True)
class FilterRule:
    """DROP <target> WHEN (prev|next).<attr>=<value>"""

    target_pos: str | None
    target_lemma: str | None
    offset: int                    # -1 = previous token, +1 = next token
    context_attr: str              # surface | lemma | pos
    context_value: str
    text: str                      # original rule line, for logs

    def matches_target(self, analysis: Analysis) -> bool:
        if self.target_pos is not None and analysis.pos != self.target_pos:
            return False
        if self.target_lemma is not None and analysis.lemma != self.target_lemma:
            return False
        return True

    def matches_context(self, neighbor: TokenReadings,
                        table: BuckTable = DEFAULT_TABLE) -> bool:
        if self.context_attr == "surface":
            return (self.context_value == neighbor.token.surface
                    or self.context_value
                    == token_lookup_key(neighbor.token, table))
        if self.context_attr == "lemma":
            return any(a.lemma == self.context_value for a in neighbor.analyses)
        return any(a.pos == self.context_value for a in neighbor.analyses)


_CTX_RE = re.compile(r"^(prev|next)\.(surface|lemma|pos)=(\S+)$")
_TARGET_RE = re.compile(r"^(pos|lemma)=(\S+)$")


def parse_rules(stream: IO[str] | Iterable[str],
                filename: str = "<rules>") -> list[FilterRule]:
    """One rule per non-comment line:
    ``DROP pos=<TAG>|lemma=<ID> WHEN (prev|next).(surface|lemma|pos)=<value>``
    """
    rules = []
    for lineno, raw in enumerate(stream, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        where = f"{filename}:{lineno}"
        tokens = line.split()
        if tokens[0] != "DROP":
            raise RuleError(f"{where}: expected DROP, got {tokens[0]!r}")
        try:
            when = tokens.index("WHEN")
        except ValueError:
            raise RuleError(f"{where}: missing WHEN clause") from None
        target_tokens = tokens[1:when]
        ctx_tokens = tokens[when + 1:]
        if not target_tokens:
            raise RuleError(f"{where}: expected pos=... or lemma=... before WHEN")
        if len(ctx_tokens) != 1:
            raise RuleError(f"{where}: expected a single "
                            "(prev|next).(surface|lemma|pos)=value after WHEN")
        target_pos = target_lemma = None
        for t in target_tokens:
            m = _TARGET_RE.match(t)
            if not m:
                raise RuleError(f"{where}: bad target {t!r}, "
                                "expected pos=<TAG> or lemma=<ID>")
            if m.group(1) == "pos":
                target_pos = m.group(2)
            else:
                target_lemma = m.group(2)
        m = _CTX_RE.match(ctx_tokens[0])
        if not m:
            raise RuleError(f"{where}: bad context {ctx_tokens[0]!r}, expected "
                            "(prev|next).(surface|lemma|pos)=<value>")
        rules.append(FilterRule(
            target_pos=target_pos,
            target_lemma=target_lemma,
            offset=-1 if m.group(1) == "prev" else 1,
            context_attr=m.group(2),
            context_value=m.group(3),
            text=line,
        ))
    return rules


def apply_rules(sets: Sequence[TokenReadings], rules: Sequence[FilterRule],
                table: BuckTable = DEFAULT_TABLE) -> list[TokenReadings]:
    """Move rule-matched analyses to the drop list, per token.

    All rules are matched against the original analysis sets (of both the
    current token and its neighbors), so the outcome does not depend on
    rule-file order except through the safeguard: a rule application that
    would leave a non-empty set empty is skipped and logged, in file order.
    Tokens at the sequence edges never match rules whose context offset
    falls outside the sequence.  ``surface`` contexts compare against the
    neighbor's surface as written and as its lookup key under ``table``.
    """
    out = []
    for i, rec in enumerate(sets):
        original = rec.analyses
        matches: list[tuple[FilterRule, set[int]]] = []
        for rule in rules:
            j = i + rule.offset
            if not 0 <= j < len(sets):
                continue
            if not rule.matches_context(sets[j], table):
                continue
            hit = {k for k, a in enumerate(original) if rule.matches_target(a)}
            if hit:
                matches.append((rule, hit))
        remaining = set(range(len(original)))
        dropped: list[tuple[Analysis, FilterRule]] = []
        for rule, hit in matches:
            drop = hit & remaining
            if not drop:
                continue
            if drop == remaining:
                log.warning("rule %r would remove every analysis of %r; "
                            "application skipped", rule.text, rec.token.surface)
                continue
            for k in sorted(drop):
                dropped.append((original[k], rule))
            remaining -= drop
        out.append(TokenReadings(
            rec.token,
            [a for k, a in enumerate(original) if k in remaining],
            dropped))
    return out


# ---------------------------------------------------------------------------
# Language model

@dataclass(frozen=True)
class LmModel:
    """Trigram counts over (lemma, tag) tuples with add-one smoothed backoff,
    interpolated with an add-one smoothed external frequency table.

    ``lam`` weighs the trigram side; 1 - lam weighs the frequency side.
    Smoothing guarantees a strictly positive score for any tuple.
    """

    trigram: dict[tuple[Tuple, Tuple, Tuple], int]
    bigram: dict[tuple[Tuple, Tuple], int]
    unigram: dict[Tuple, int]
    total: int                      # unigram mass, boundary symbols included
    freq: dict[Tuple, int]
    lam: float
    vocab: frozenset[Tuple]
    # Normalisers of the smoothed distributions, constant per model.
    freq_total: int = field(init=False, repr=False, compare=False)
    v1: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise LmError(f"lambda must be in [0, 1], got {self.lam}")
        object.__setattr__(self, "freq_total", sum(self.freq.values()))
        object.__setattr__(self, "v1", len(self.vocab) + 1)

    def score(self, ctx: tuple[Tuple, Tuple], cand: Tuple) -> float:
        """lam * P(cand | ctx) + (1 - lam) * Pfreq(cand), both > 0.

        The conditional backs off trigram -> bigram -> unigram: a level is
        used only when its context was observed; each level applies add-one
        smoothing over |vocab| + 1 outcomes.
        """
        t2, t1 = ctx
        v1 = self.v1
        ctx_count = self.bigram.get((t2, t1), 0)
        if ctx_count > 0:
            p = (self.trigram.get((t2, t1, cand), 0) + 1) / (ctx_count + v1)
        elif self.unigram.get(t1, 0) > 0:
            p = (self.bigram.get((t1, cand), 0) + 1) / (self.unigram[t1] + v1)
        else:
            p = (self.unigram.get(cand, 0) + 1) / (self.total + v1)
        pf = (self.freq.get(cand, 0) + 1) / (self.freq_total + v1)
        return self.lam * p + (1.0 - self.lam) * pf


def train_lm(sentences: Sequence[Sequence[Tuple]],
             freq: dict[Tuple, int] | None = None,
             lam: float = 0.7) -> LmModel:
    """Count n-grams over gold (lemma, tag) sequences, two boundary symbols
    prepended per sentence."""
    sentences = [list(s) for s in sentences if s]
    if not sentences:
        raise LmError("empty training corpus")
    trigram: dict = {}
    bigram: dict = {}
    unigram: dict = {}
    total = 0
    for sent in sentences:
        seq = [BOS, BOS] + sent
        for t in seq:
            unigram[t] = unigram.get(t, 0) + 1
            total += 1
        for i in range(1, len(seq)):
            pair = (seq[i - 1], seq[i])
            bigram[pair] = bigram.get(pair, 0) + 1
        for i in range(2, len(seq)):
            tri = (seq[i - 2], seq[i - 1], seq[i])
            trigram[tri] = trigram.get(tri, 0) + 1
    freq = dict(freq or {})
    vocab = frozenset(t for t in unigram if t != BOS) | frozenset(freq)
    return LmModel(trigram=trigram, bigram=bigram, unigram=unigram,
                   total=total, freq=freq, lam=lam, vocab=vocab)


def load_freq_table(stream: IO[str] | Iterable[str],
                    filename: str = "<freq>") -> dict[Tuple, int]:
    """TSV rows lemma<TAB>pos<TAB>count."""
    freq: dict[Tuple, int] = {}
    for lineno, line in enumerate(stream, 1):
        line = line.rstrip("\n")
        if not line.strip() or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise LmError(f"{filename}:{lineno}: expected lemma<TAB>pos<TAB>count")
        try:
            count = int(fields[2])
        except ValueError:
            raise LmError(f"{filename}:{lineno}: bad count {fields[2]!r}") from None
        if count < 0:
            raise LmError(f"{filename}:{lineno}: negative count")
        key = (fields[0], fields[1])
        freq[key] = freq.get(key, 0) + count
    return freq


_LM_MAGIC = "arabmorph-lm"
_LM_VERSION = "1"


def _write_tuple(t: Tuple) -> str:
    return f"{t[0]}\t{t[1]}"


def serialize_lm(model: LmModel) -> str:
    """Versioned, length-prefixed text form; canonical ordering makes the
    round trip byte-exact."""
    lines = [f"{_LM_MAGIC}\t{_LM_VERSION}",
             f"lambda\t{model.lam!r}",
             f"vocab\t{len(model.vocab)}",
             f"total\t{model.total}"]
    lines.append(f"ngrams\t1\t{len(model.unigram)}")
    for t in sorted(model.unigram):
        lines.append(f"{_write_tuple(t)}\t{model.unigram[t]}")
    lines.append(f"ngrams\t2\t{len(model.bigram)}")
    for pair in sorted(model.bigram):
        lines.append(f"{_write_tuple(pair[0])}\t{_write_tuple(pair[1])}"
                     f"\t{model.bigram[pair]}")
    lines.append(f"ngrams\t3\t{len(model.trigram)}")
    for tri in sorted(model.trigram):
        lines.append("\t".join(_write_tuple(t) for t in tri)
                     + f"\t{model.trigram[tri]}")
    lines.append(f"freq\t{len(model.freq)}")
    for t in sorted(model.freq):
        lines.append(f"{_write_tuple(t)}\t{model.freq[t]}")
    return "".join(line + "\n" for line in lines)


def load_lm(stream: IO[str] | Iterable[str], filename: str = "<lm>") -> LmModel:
    lines = [line.rstrip("\n") for line in stream]
    pos = 0

    def take(expect: str, n_fields: int) -> list[str]:
        nonlocal pos
        if pos >= len(lines):
            raise LmError(f"{filename}: truncated at line {pos + 1}, "
                          f"expected {expect}")
        fields = lines[pos].split("\t")
        if fields[0] != expect or len(fields) != n_fields:
            raise LmError(f"{filename}:{pos + 1}: expected {expect} "
                          f"with {n_fields} fields, got {lines[pos]!r}")
        pos += 1
        return fields

    def count(text: str, lineno: int, what: str) -> int:
        if not (text.isascii() and text.isdigit()):
            raise LmError(f"{filename}:{lineno}: bad {what} {text!r}, "
                          "expected a non-negative integer")
        return int(text)

    def header_count(expect: str, what: str) -> int:
        return count(take(expect, 2)[1], pos, what)

    def records(n: int, n_fields: int, what: str):
        """``n`` lines of ``n_fields`` fields; each is yielded with its
        last field, a count, parsed to an int."""
        nonlocal pos
        label = f"{what} count"
        for _ in range(n):
            if pos >= len(lines):
                raise LmError(f"{filename}: truncated {what} section "
                              f"at line {pos + 1}")
            fields = lines[pos].split("\t")
            if len(fields) != n_fields:
                raise LmError(f"{filename}:{pos + 1}: expected {n_fields} "
                              f"fields in {what} record")
            pos += 1
            fields[-1] = count(fields[-1], pos, label)
            yield fields

    def section(order: int, n_fields: int, what: str):
        header = take("ngrams", 3)
        if header[1] != str(order):
            raise LmError(f"{filename}:{pos}: expected {what} section")
        return records(count(header[2], pos, f"{what} section size"),
                       n_fields, what)

    magic = take(_LM_MAGIC, 2)
    if magic[1] != _LM_VERSION:
        raise LmError(f"{filename}:{pos}: unsupported model version "
                      f"{magic[1]!r}")
    text = take("lambda", 2)[1]
    try:
        lam = float(text)
    except ValueError:
        lam = -1.0
    if not 0.0 <= lam <= 1.0:
        raise LmError(f"{filename}:{pos}: bad lambda value {text!r}, "
                      "expected a number in [0, 1]")
    vocab_size = header_count("vocab", "vocab size")
    total = header_count("total", "total")

    unigram = {(f[0], f[1]): f[2] for f in section(1, 3, "unigram")}
    bigram = {((f[0], f[1]), (f[2], f[3])): f[4]
              for f in section(2, 5, "bigram")}
    trigram = {((f[0], f[1]), (f[2], f[3]), (f[4], f[5])): f[6]
               for f in section(3, 7, "trigram")}
    n_freq = header_count("freq", "freq section size")
    freq = {(f[0], f[1]): f[2] for f in records(n_freq, 3, "freq")}
    if pos != len(lines) and any(l.strip() for l in lines[pos:]):
        raise LmError(f"{filename}:{pos + 1}: trailing content")

    vocab = frozenset(t for t in unigram if t != BOS) | frozenset(freq)
    if len(vocab) != vocab_size:
        raise LmError(f"{filename}: vocab size mismatch: header says "
                      f"{vocab_size}, counted {len(vocab)}")
    return LmModel(trigram=trigram, bigram=bigram, unigram=unigram,
                   total=total, freq=freq, lam=lam, vocab=vocab)


def empty_lm(lam: float = 0.7, freq: dict[Tuple, int] | None = None) -> LmModel:
    """Degenerate model: every candidate scores the same smoothed floor,
    modulated only by the frequency table when one is given."""
    freq = dict(freq or {})
    return LmModel(trigram={}, bigram={}, unigram={}, total=0,
                   freq=freq, lam=lam, vocab=frozenset(freq))


# ---------------------------------------------------------------------------
# Ranking

def rank(sets: Sequence[TokenReadings],
         model: LmModel) -> list[TokenReadings]:
    """Greedy left-to-right ranking.

    The context for token t is the pair of top-ranked tuples chosen at
    t-2 and t-1 (boundary symbols at the edges).  An unknown neighbor
    contributes an out-of-vocabulary placeholder, so scoring backs off to
    the unigram/frequency floor.  Ties break on the higher frequency-table
    count, then on lexicon load order, making the order total.
    """
    history: list[Tuple] = [BOS, BOS]
    out = []
    for rec in sets:
        ctx = (history[-2], history[-1])
        scored = [(model.score(ctx, a.lemma_pos), a) for a in rec.analyses]
        order = sorted(
            range(len(scored)),
            key=lambda i: (-scored[i][0],
                           -model.freq.get(scored[i][1].lemma_pos, 0),
                           i))
        ranked = [(scored[i][1], scored[i][0]) for i in order]
        out.append(TokenReadings(rec.token, rec.analyses, rec.dropped, ranked))
        history.append(ranked[0][0].lemma_pos if ranked else UNK)
    return out
