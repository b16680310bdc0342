"""Tokenization and exhaustive prefix/stem/suffix analysis of word types.

A token's unvocalized Buckwalter surface is cut at every licensed split
point (prefix up to 4 characters, suffix up to 6, stem never empty); the
cross product of matching lexicon entries survives when the three
categories are pairwise compatible.  Distinct tokens of one type share
their analyses through a cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import TYPE_CHECKING, Callable, Sequence

from .lexicon import Flag, Kind, LexEntry, Lexicon, compatible
from .translit import BuckTable, DEFAULT_TABLE, normalize, strip_diacritics

if TYPE_CHECKING:
    from .disambig import FilterRule

MAX_PREFIX_LEN = 4
MAX_SUFFIX_LEN = 6


@dataclass(frozen=True)
class Token:
    surface: str    # Arabic script, possibly with diacritics
    offset: int     # character index into the source text
    index: int      # ordinal position in the token stream


def tokenize(text: str, table: BuckTable | None = None) -> list[Token]:
    """Maximal runs of Arabic script become tokens; everything else
    (punctuation, digits, Latin, whitespace) is skipped.  Offsets point
    into the original text so output can be realigned with the source."""
    table = table or DEFAULT_TABLE
    tokens = []
    i, n = 0, len(text)
    while i < n:
        if text[i] not in table.arabic_chars:
            i += 1
            continue
        j = i
        while j < n and text[j] in table.arabic_chars:
            j += 1
        run = text[i:j]
        # A run of bare diacritics or tatweel is not a word.
        if any(ch in table.arabic_letters for ch in run):
            tokens.append(Token(run, i, len(tokens)))
        i = j
    return tokens


@dataclass(frozen=True)
class Analysis:
    """One reading of a word type.

    ``voc`` joins the non-empty vocalized segments with "+"; ``pos`` is the
    primary tag (the stem's head category folded onto the closed tag set);
    ``tags`` is the full tag sequence contributed by all three parts.
    """

    voc: str
    lemma: str
    pos: str
    tags: str
    parts: tuple[LexEntry, LexEntry, LexEntry]

    @property
    def ana(self) -> str:
        return f"{self.voc}/{self.lemma}/{self.pos}"

    @property
    def lemma_pos(self) -> tuple[str, str]:
        return (self.lemma, self.pos)


def _make_analysis(pre: LexEntry, stem: LexEntry, suf: LexEntry) -> Analysis:
    parts = (pre, stem, suf)
    return Analysis(
        voc="+".join(p.voc for p in parts if p.voc),
        lemma=stem.lemma,
        pos=stem.head_tag(),
        tags="+".join(t for p in parts for t in p.tag_units()),
        parts=parts,
    )


@dataclass(slots=True)
class TokenReadings:
    """One token's readings.  ``apply_rules`` keeps the survivors in
    ``analyses`` and moves the rest to ``dropped`` with their rules;
    ``rank`` adds ``ranked``, the survivors by descending score.  The
    tuple defaults allocate nothing per token."""

    token: Token
    analyses: list[Analysis]
    dropped: Sequence[tuple[Analysis, FilterRule]] = ()
    ranked: Sequence[tuple[Analysis, float]] = ()

    @property
    def unknown(self) -> bool:
        # Holds at every stage: the safeguard never empties a set.
        return not self.analyses


def segmentations(surface: str) -> list[tuple[str, str, str]]:
    """All (prefix, stem, suffix) cuts of a surface under the length caps,
    stem non-empty; ordered by prefix length, then suffix length."""
    out = []
    n = len(surface)
    for p in range(0, min(MAX_PREFIX_LEN, n - 1) + 1):
        for s in range(0, min(MAX_SUFFIX_LEN, n - p - 1) + 1):
            out.append((surface[:p], surface[p:n - s], surface[n - s:]))
    return out


def analyze_type(surface: str, lex: Lexicon, active: Flag,
                 fold_alif: bool = False) -> list[Analysis]:
    """All compatible readings of one unvocalized Buckwalter surface.

    Splits are tried in ``segmentations`` order.  Each prefix and suffix
    length is looked up once per surface, and a stem only where both
    affix lookups found entries.  Duplicates (same voc, lemma, primary
    tag) collapse onto the first occurrence, so order is deterministic:
    segmentation order, then lexicon load order.
    """
    seen: set[tuple[str, str, str]] = set()
    out: list[Analysis] = []
    n = len(surface)
    if not n:
        return out
    sufs_by_len = [lex.lookup(surface[n - s:], Kind.SUFFIX, active, fold_alif)
                   for s in range(min(MAX_SUFFIX_LEN, n - 1) + 1)]
    for p in range(min(MAX_PREFIX_LEN, n - 1) + 1):
        pres = lex.lookup(surface[:p], Kind.PREFIX, active, fold_alif)
        if not pres:
            continue
        for s in range(min(MAX_SUFFIX_LEN, n - p - 1) + 1):
            sufs = sufs_by_len[s]
            if not sufs:
                continue
            stems = lex.lookup(surface[p:n - s], Kind.STEM, active, fold_alif)
            if not stems:
                continue
            for a, b, c in product(pres, stems, sufs):
                if not compatible(lex.compat, a.cat, b.cat, c.cat):
                    continue
                analysis = _make_analysis(a, b, c)
                key = (analysis.voc, analysis.lemma, analysis.pos)
                if key not in seen:
                    seen.add(key)
                    out.append(analysis)
    return out


class TypeCache:
    """Per-type analysis cache keyed by (surface, active flag bits, alif
    folding), with hit and miss counts."""

    def __init__(self):
        self._map: dict[tuple, list[Analysis]] = {}
        self.hits = 0
        self.misses = 0

    def get_or_compute(self, key: tuple,
                       compute: Callable[[], list[Analysis]]) -> list[Analysis]:
        try:
            value = self._map[key]
        except KeyError:
            value = compute()
            self._map[key] = value
            self.misses += 1
            return value
        self.hits += 1
        return value

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __len__(self) -> int:
        return len(self._map)


def token_lookup_key(token: Token, table: BuckTable | None = None) -> str:
    """Unvocalized normalized Buckwalter surface used for lexicon lookup.

    Alif folding is not applied here; when enabled it happens inside
    Lexicon.lookup, which folds both the query and its index.
    """
    buck = (table or DEFAULT_TABLE).to_buck(token.surface)
    return strip_diacritics(normalize(buck))


def had_diacritics(token: Token, table: BuckTable | None = None) -> bool:
    table = table or DEFAULT_TABLE
    return any(ch in table.arabic_diacritics for ch in token.surface)


def analyze_text(tokens: list[Token], lex: Lexicon, active: Flag,
                 cache: TypeCache | None = None,
                 table: BuckTable | None = None,
                 fold_alif: bool = False) -> list[TokenReadings]:
    """One record per token, in token order; repeated types are served
    from the cache."""
    cache = cache if cache is not None else TypeCache()
    out = []
    for token in tokens:
        surface = token_lookup_key(token, table)
        key = (surface, int(active), fold_alif)
        analyses = cache.get_or_compute(
            key, lambda: analyze_type(surface, lex, active, fold_alif))
        out.append(TokenReadings(token, list(analyses)))
    return out
