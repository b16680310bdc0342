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
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from itertools import chain
from typing import IO, Iterable, Iterator, Sequence

from .analyzer import Analysis, TokenReadings
from .textio import data_lines

log = logging.getLogger(__name__)

Tuple = tuple[str, str]            # (lemma, primary tag)

BOS: Tuple = ("<s>", "<s>")        # sequence-initial boundary symbol
UNK: Tuple = ("<unk>", "<unk>")    # stand-in for an unanalyzable neighbor

DEFAULT_LAMBDA = 0.7               # trigram weight when none is given


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
        target: dict[str, str] = {}
        for t in target_tokens:
            m = _TARGET_RE.match(t)
            if not m:
                raise RuleError(f"{where}: bad target {t!r}, "
                                "expected pos=<TAG> or lemma=<ID>")
            if m.group(1) in target:
                raise RuleError(f"{where}: repeated target key "
                                f"{m.group(1)!r}")
            target[m.group(1)] = m.group(2)
        m = _CTX_RE.match(ctx_tokens[0])
        if not m:
            raise RuleError(f"{where}: bad context {ctx_tokens[0]!r}, expected "
                            "(prev|next).(surface|lemma|pos)=<value>")
        rules.append(FilterRule(
            target_pos=target.get("pos"),
            target_lemma=target.get("lemma"),
            offset=-1 if m.group(1) == "prev" else 1,
            context_attr=m.group(2),
            context_value=m.group(3),
            text=line,
        ))
    return rules


def apply_rules(sets: Iterable[TokenReadings],
                rules: Sequence[FilterRule]) -> Iterator[TokenReadings]:
    """Move rule-matched analyses to the drop list, per token; yield each
    token's record once its right neighbor has been read.

    Rules act in file order, each a filter over the readings that earlier
    rules left: it drops its matching survivors unless that would empty a
    non-empty set, in which case it is skipped for that token.  A reading
    matches a target by its own fields alone, so this equals matching each
    rule against the original set and dropping what earlier rules had not.
    Context always reads the neighbor's original set.  Tokens at the
    sequence edges never match rules whose context offset falls outside
    the sequence.  ``surface`` contexts compare against the neighbor's
    surface as written and its lookup key, ``token.key``.  A token that
    loses nothing keeps its ``analyses`` and the empty ``dropped``.
    A token with no armed rule gets its input record itself back when
    that record has no ``dropped`` and no ``ranked``, as ``analyze_text``'s
    records have; any other record is rebuilt.
    Once the input runs out, each skipped (rule, surface) pair is logged
    once, with its token count.

    Bit ``k`` stands for ``rules[k]``.  A record's context bits, the
    rules whose context it satisfies, are read per record from an index
    of the rules by context value: its surface, its key, and its
    readings' lemmas and tags.  A token's armed rules are the ``prev.``
    rules its left neighbor satisfies and the ``next.`` rules its right
    neighbor satisfies, so the input is read one record ahead.
    A token with none armed enters no rule loop.  An armed token's
    survivors, drops and skipped rules depend only on its analyses and
    its armed rules, so they are computed once per (analyses object,
    armed bits) and shared as tuples.  That memo keys by ``id`` and holds
    the keyed analyses, as ``TokenReadings`` asks.
    """
    index = {attr: defaultdict(int) for attr in ("surface", "lemma", "pos")}
    for k, rule in enumerate(rules):
        index[rule.context_attr][rule.context_value] |= 1 << k
    surfaces, lemmas, tags = index["surface"], index["lemma"], index["pos"]
    prev_rules = sum(1 << k for k, rule in enumerate(rules) if rule.offset < 0)
    next_rules = (1 << len(rules)) - 1 - prev_rules
    outcomes: dict[tuple[int, int], tuple] = {}
    skipped: Counter[tuple[FilterRule, str]] = Counter()
    # rec waits for its right neighbor; left and here are the context
    # bits of its left neighbor and of itself.  None ends the input.
    rec = None
    left = here = 0
    for nxt in chain(sets, (None,)):
        right = 0
        if nxt is not None:
            if surfaces:
                right = (surfaces.get(nxt.token.surface, 0)
                         | surfaces.get(nxt.token.key, 0))
            for a in nxt.analyses:
                right |= lemmas.get(a.lemma, 0) | tags.get(a.pos, 0)
        if rec is not None:
            armed = (left & prev_rules) | (right & next_rules)
            if not armed:
                yield (rec if not (rec.dropped or rec.ranked)
                       else TokenReadings(rec.token, rec.analyses))
            else:
                outcome = outcomes.get((id(rec.analyses), armed))
                if outcome is None:
                    outcome = outcomes[id(rec.analyses), armed] = (
                        *_filter(rec.analyses, rules, armed), rec.analyses)
                survivors, dropped, skips, _ = outcome
                for rule in skips:
                    skipped[rule, rec.token.surface] += 1
                yield TokenReadings(rec.token, survivors, dropped)
        rec, left, here = nxt, here, right
    for (rule, surface), count in skipped.items():
        log.warning("rule %r would remove every analysis of %r; "
                    "application skipped on %d token(s)",
                    rule.text, surface, count)


def _filter(analyses: Sequence[Analysis], rules: Sequence[FilterRule],
            armed: int) -> tuple[Sequence[Analysis], tuple, list]:
    """The survivors, drops and skipped rules of ``analyses`` under the
    rules whose bits are set in ``armed``, in file order."""
    survivors = analyses
    dropped: list[tuple[Analysis, FilterRule]] = []
    skips = []
    for k, rule in enumerate(rules):
        if not armed >> k & 1:
            continue
        hit = [a for a in survivors if rule.matches_target(a)]
        if not hit:
            continue
        if len(hit) == len(survivors):
            skips.append(rule)
            continue
        dropped.extend((a, rule) for a in hit)
        survivors = tuple(a for a in survivors if not rule.matches_target(a))
    return survivors, tuple(dropped), skips


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
    freq: dict[Tuple, int]
    lam: float
    # Derived from the counts, once per model: the unigram mass (boundary
    # symbols included), the vocabulary, the smoothing normalisers, and
    # whether any context can be seen (a positive bigram or unigram).
    total: int = field(init=False, repr=False, compare=False)
    vocab: frozenset[Tuple] = field(init=False, repr=False, compare=False)
    freq_total: int = field(init=False, repr=False, compare=False)
    v1: int = field(init=False, repr=False, compare=False)
    contextual: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check_lambda(self.lam)
        tables = (self.trigram, self.bigram, self.unigram, self.freq)
        if any(type(table) is not dict for table in tables):
            raise LmError("n-gram and freq tables must be dicts")
        vocab = frozenset(t for t in self.unigram if t != BOS) \
            | frozenset(self.freq)
        object.__setattr__(self, "total", sum(self.unigram.values()))
        object.__setattr__(self, "vocab", vocab)
        object.__setattr__(self, "freq_total", sum(self.freq.values()))
        object.__setattr__(self, "v1", len(vocab) + 1)
        object.__setattr__(self, "contextual", any(
            c > 0 for table in (self.bigram, self.unigram)
            for c in table.values()))

    def backoff(self, ctx: tuple[Tuple, Tuple]) -> tuple[Tuple, ...]:
        """The part of ``ctx`` that ``score`` reads: the pair (t2, t1) if
        it was observed as a bigram, else (t1,) if t1 was observed, else
        (); so contexts with equal backoff score every candidate equally.
        A model that is not ``contextual`` maps every context to ()."""
        if self.bigram.get(ctx, 0) > 0:
            return ctx
        t1 = ctx[1]
        return (t1,) if self.unigram.get(t1, 0) > 0 else ()

    def score(self, ctx: tuple[Tuple, Tuple], cand: Tuple) -> float:
        """lam * P(cand | ctx) + (1 - lam) * Pfreq(cand), both > 0.

        The conditional backs off trigram -> bigram -> unigram: a level is
        used only when its context was observed (``backoff``); each level
        applies add-one smoothing over |vocab| + 1 outcomes.
        """
        seen = self.backoff(ctx) if self.contextual else ()
        if len(seen) == 2:
            count, total = (self.trigram.get(seen + (cand,), 0),
                            self.bigram[seen])
        elif seen:
            count, total = (self.bigram.get(seen + (cand,), 0),
                            self.unigram[seen[0]])
        else:
            count, total = self.unigram.get(cand, 0), self.total
        v1 = self.v1
        p = (count + 1) / (total + v1)
        pf = (self.freq.get(cand, 0) + 1) / (self.freq_total + v1)
        return self.lam * p + (1.0 - self.lam) * pf


def check_lambda(lam: float) -> None:
    """Raise ``LmError`` unless ``lam`` is a weight in [0, 1]."""
    if not 0.0 <= lam <= 1.0:
        raise LmError(f"lambda must be in [0, 1], got {lam}")


def train_lm(sentences: Sequence[Sequence[Tuple]],
             freq: dict[Tuple, int] | None = None,
             lam: float = DEFAULT_LAMBDA) -> LmModel:
    """Count n-grams over gold (lemma, tag) sequences, two boundary symbols
    prepended per sentence."""
    sentences = [s for s in sentences if s]
    if not sentences:
        raise LmError("empty training corpus")
    unigram, bigram, trigram = Counter(), Counter(), Counter()
    for sent in sentences:
        seq = [BOS, BOS, *sent]
        unigram.update(seq)
        bigram.update(zip(seq, seq[1:]))
        trigram.update(zip(seq, seq[1:], seq[2:]))
    return LmModel(trigram=dict(trigram), bigram=dict(bigram),
                   unigram=dict(unigram), freq=dict(freq or {}), lam=lam)


def _count(text: str, filename: str, lineno: int, what: str) -> int:
    """``text`` read as a count: ASCII digits only, else an ``LmError``
    naming ``what`` at ``filename:lineno``."""
    if not (text.isascii() and text.isdigit()):
        raise LmError(f"{filename}:{lineno}: bad {what} {text!r}, "
                      "expected a non-negative integer")
    return int(text)


def load_freq_table(stream: IO[str] | Iterable[str],
                    filename: str = "<freq>") -> dict[Tuple, int]:
    """TSV rows lemma<TAB>pos<TAB>count, each field stripped; the rows of
    one (lemma, pos) add up."""
    freq: dict[Tuple, int] = {}
    for lineno, line in data_lines(stream):
        fields = [f.strip() for f in line.split("\t")]
        if len(fields) != 3:
            raise LmError(f"{filename}:{lineno}: expected lemma<TAB>pos<TAB>count")
        key = (fields[0], fields[1])
        freq[key] = freq.get(key, 0) + _count(fields[2], filename, lineno,
                                              "count")
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
    for order, table in enumerate((model.unigram, model.bigram,
                                   model.trigram), 1):
        lines.append(f"ngrams\t{order}\t{len(table)}")
        for key in sorted(table):
            grams = (key,) if order == 1 else key
            lines.append("\t".join(map(_write_tuple, grams))
                         + f"\t{table[key]}")
    lines.append(f"freq\t{len(model.freq)}")
    for t in sorted(model.freq):
        lines.append(f"{_write_tuple(t)}\t{model.freq[t]}")
    return "".join(line + "\n" for line in lines)


def load_lm(stream: IO[str] | Iterable[str], filename: str = "<lm>") -> LmModel:
    """Parse ``serialize_lm``'s form, reading the stream line by line.
    Every n-gram, freq and vocab key is built from one shared tuple per
    distinct (lemma, tag)."""
    lines = iter(stream)
    pos = 0                         # lines read so far
    sections: list[tuple[int, int, str]] = []   # header line, size, name
    shared: dict[Tuple, Tuple] = {}
    one = shared.setdefault         # one(t, t): the shared tuple equal to t

    def take(expect: str, n_fields: int) -> list[str]:
        """The fields of the next line, a header labelled ``expect`` with
        ``n_fields`` fields."""
        nonlocal pos
        line = next(lines, None)
        if line is None:
            raise LmError(f"{filename}: truncated at line {pos + 1}, "
                          f"expected {expect}")
        pos += 1
        line = line.rstrip("\n")
        fields = line.split("\t")
        if fields[0] != expect or len(fields) != n_fields:
            raise LmError(f"{filename}:{pos}: expected {expect} "
                          f"with {n_fields} fields, got {line!r}")
        return fields

    def fill(n: int, n_fields: int, what: str) -> dict:
        """The next ``n`` lines, each of ``n_fields`` fields: one, two or
        three (lemma, tag) pairs, then a count.  Each line's pairs, a
        single pair for a unigram or freq line, key its count."""
        nonlocal pos
        sections.append((pos, n, what))
        table = {}
        end = pos + n
        # range first: zip stops on it without reading a line too many.
        for _, line in zip(range(n), lines):
            pos += 1
            f = line.rstrip("\n").split("\t")
            if len(f) != n_fields:
                raise LmError(f"{filename}:{pos}: expected {n_fields} "
                              f"fields in {what} record")
            count = f[-1]
            if not (count.isascii() and count.isdigit()):   # as _count tests
                _count(count, filename, pos, f"{what} count")   # raises
            a = (f[0], f[1])
            a = one(a, a)
            if n_fields == 3:
                key = a
            else:
                b = (f[2], f[3])
                b = one(b, b)
                if n_fields == 5:
                    key = (a, b)
                else:
                    c = (f[4], f[5])
                    key = (a, b, one(c, c))
            table[key] = int(count)
        if pos < end:
            raise LmError(f"{filename}: truncated {what} section "
                          f"at line {pos + 1}")
        return table

    def section(order: int, n_fields: int, what: str) -> dict:
        header = take("ngrams", 3)
        if header[1] != str(order):
            raise LmError(f"{filename}:{pos}: expected {what} section")
        n = _count(header[2], filename, pos, f"{what} section size")
        return fill(n, n_fields, what)

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
    vocab_size = _count(take("vocab", 2)[1], filename, pos, "vocab size")
    total = _count(take("total", 2)[1], filename, pos, "total")

    unigram = section(1, 3, "unigram")
    bigram = section(2, 5, "bigram")
    trigram = section(3, 7, "trigram")
    n_freq = _count(take("freq", 2)[1], filename, pos, "freq section size")
    freq = fill(n_freq, 3, "freq")
    if any(line.strip() for line in lines):
        raise LmError(f"{filename}:{pos + 1}: trailing content")
    # A repeated key leaves its table smaller than its section.
    tables = (unigram, bigram, trigram, freq)
    for (lineno, n, what), table in zip(sections, tables):
        if len(table) != n:
            raise LmError(f"{filename}:{lineno}: {what} section repeats a "
                          f"key: {n} records, {len(table)} distinct")

    model = LmModel(trigram=trigram, bigram=bigram, unigram=unigram,
                    freq=freq, lam=lam)
    if len(model.vocab) != vocab_size:
        raise LmError(f"{filename}: vocab size mismatch: header says "
                      f"{vocab_size}, counted {len(model.vocab)}")
    if model.total != total:
        raise LmError(f"{filename}: total mismatch: header says {total}, "
                      f"counted {model.total}")
    return model


def empty_lm(lam: float = DEFAULT_LAMBDA,
             freq: dict[Tuple, int] | None = None) -> LmModel:
    """Degenerate model: every candidate scores the same smoothed floor,
    modulated only by the frequency table when one is given."""
    return LmModel(trigram={}, bigram={}, unigram={}, freq=dict(freq or {}),
                   lam=lam)


# ---------------------------------------------------------------------------
# Ranking

def rank(sets: Iterable[TokenReadings],
         model: LmModel) -> list[TokenReadings]:
    """Greedy left-to-right ranking; the one stage whose records the
    caller keeps, so it returns a list.

    The context for token t is the pair of top-ranked tuples chosen at
    t-2 and t-1 (boundary symbols at the edges).  An unknown neighbor
    contributes an out-of-vocabulary placeholder, so scoring backs off to
    the unigram/frequency floor.  One stable sort by descending score,
    then descending frequency-table count, ranks the readings; since the
    sort is stable, readings tied on both keep their analysis order (the
    lexicon load order), which makes the order total.

    A ranking depends only on the context's ``model.backoff`` and the
    readings, so it is computed once per (backoff, analyses object) in
    one call and the list is shared, kept with its top tuple (``UNK`` for
    an empty list) that the next contexts take.  A reading's score depends
    only on the backoff and its (lemma, tag), and the readings of
    different types share such pairs, so each score is computed once per
    pair in one call.  A model that is not
    ``contextual`` backs every context off to (), so its rankings are
    keyed by the analyses object alone, its scores by the (lemma, tag)
    alone, and no context is built.  The ranking memo keys by ``id`` and
    holds the keyed analyses, as ``TokenReadings`` asks.
    """
    contextual, backoff, freq = model.contextual, model.backoff, model.freq
    ctx, seen = (BOS, BOS), ()
    memo: dict[object, tuple[list[tuple[Analysis, float]], Tuple,
                             Sequence[Analysis]]] = {}
    scores: dict[object, float] = {}
    out = []
    for rec in sets:
        analyses = rec.analyses
        if contextual:
            seen = backoff(ctx)
            key = (seen, id(analyses))
        else:
            key = id(analyses)
        entry = memo.get(key)
        if entry is None:
            ranked = []
            for a in analyses:
                cand = a.lemma_pos
                skey = (seen, cand) if contextual else cand
                score = scores.get(skey)
                if score is None:
                    score = scores[skey] = model.score(ctx, cand)
                ranked.append((a, score))
            if len(ranked) > 1:
                ranked.sort(key=lambda pair: (
                    -pair[1], -freq.get(pair[0].lemma_pos, 0)))
            entry = memo[key] = (ranked,
                                 ranked[0][0].lemma_pos if ranked else UNK,
                                 analyses)
        ranked, top, _ = entry
        out.append(TokenReadings(rec.token, analyses, rec.dropped, ranked))
        if contextual:
            ctx = (ctx[1], top)
    return out
