"""Tokenization and exhaustive prefix/stem/suffix analysis of word types.

A token's unvocalized Buckwalter surface is cut at every licensed split
point (an affix as long as the lexicon's affixes, stem never empty); the
cross product of matching lexicon entries survives when the three
categories are pairwise compatible.  The lexicon's view precompiles the
affix side: which (prefix, suffix) surfaces can pair, and with which
entries, so only those splits read a stem.  Distinct tokens of one type
share their analyses through a cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from .lexicon import Flag, LexEntry, Lexicon, frozen_record
from .translit import BuckTable, DEFAULT_TABLE, normalize

if TYPE_CHECKING:
    from .disambig import FilterRule


@dataclass(slots=True)
class Token:
    surface: str    # Arabic script, possibly with diacritics
    offset: int     # character index into the source text
    key: str        # lookup key of the surface (``lookup_key``)


def tokenize(text: str, table: BuckTable = DEFAULT_TABLE) -> list[Token]:
    """Maximal runs of Arabic script become tokens; everything else
    (punctuation, digits, Latin, whitespace) is skipped.  Offsets point
    into the original text so output can be realigned with the source.

    Each distinct run is checked for a letter and keyed once; its tokens
    share one surface string and one key string."""
    letters = table.arabic_letters
    # Per distinct run: its (surface, key), or () if it is no word.
    words: dict[str, tuple[str, str] | tuple[()]] = {}
    tokens: list[Token] = []
    for m in table.runs.finditer(text):
        run = m.group()
        word = words.get(run)
        if word is None:
            # A run of bare diacritics or tatweel is not a word.
            word = words[run] = (() if letters.isdisjoint(run)
                                 else (run, lookup_key(run, table)))
        if word:
            tokens.append(Token(word[0], m.start(), word[1]))
    return tokens


@frozen_record
class Analysis:
    """One reading of a word type.

    ``voc`` joins the non-empty vocalized segments with "+"; ``pos`` is the
    primary tag (the stem's head category folded onto the closed tag set).
    """

    voc: str
    lemma: str
    pos: str
    parts: tuple[LexEntry, LexEntry, LexEntry]

    @property
    def tags(self) -> str:
        """The full tag sequence contributed by all three parts."""
        a, b, c = self.parts
        return "+".join(a.tag_units() + b.tag_units() + c.tag_units())

    @property
    def ana(self) -> str:
        return f"{self.voc}/{self.lemma}/{self.pos}"

    @property
    def lemma_pos(self) -> tuple[str, str]:
        return (self.lemma, self.pos)


@dataclass(slots=True)
class TokenReadings:
    """One token's readings.  ``apply_rules`` keeps the survivors in
    ``analyses`` and moves the rest to ``dropped`` with their rules;
    ``rank`` adds ``ranked``, the survivors by descending score.  The
    tuple defaults allocate nothing per token.

    Records of one word type share their ``analyses``, ``dropped`` and
    ``ranked`` objects, so treat them as read-only.  A stage may key its
    per-call work by the ``id`` of such an object, or of one it builds
    per such object, if the memo holds the keyed object in its value:
    a stage's input may be lazy and free each record once read, and the
    held object keeps its id from being reused while the memo lives.
    The sharing makes the ids repeat."""

    token: Token
    analyses: Sequence[Analysis]
    dropped: tuple[tuple[Analysis, FilterRule], ...] = ()
    ranked: Sequence[tuple[Analysis, float]] = ()

    @property
    def unknown(self) -> bool:
        # Holds at every stage: the safeguard never empties a set.
        return not self.analyses


def analyze_type(surface: str, lex: Lexicon, active: Flag,
                 fold_alif: bool = False) -> list[Analysis]:
    """All compatible readings of one unvocalized Buckwalter surface.

    ``surface`` is a lookup key as ``lookup_key`` returns it: it has
    no tatweel, so alif folding maps one character to one, and a slice of
    the folded surface is the folded slice.  Splits are tried by prefix
    length, then by suffix length, over the lengths the lexicon's view
    holds (``view.prefix_lens``, ``view.suffix_lens``), the stem never
    empty.  The view is fetched once.  A split's stem is read first, as
    few splits have one, then its (prefix, suffix) pair in the view's
    pair table (``LexView``), which holds only the surface pairs with a
    prefix-suffix licensed entry pair.  Each of the pair's prefix entries
    carries the stem categories it licenses, and ``view.bc_of`` the suffix
    categories of each stem category, so the prefix-stem and stem-suffix
    checks are set reads.  A stem key's entries are fetched, built if the
    lexicon has not built them yet, and filtered by ``active`` on its
    first read (``LexView.read``).  Duplicates (same voc, lemma, primary
    tag) collapse onto the first occurrence, so order is deterministic:
    segmentation order, then lexicon load order.
    """
    out: dict[tuple[str, str, str], Analysis] = {}
    n = len(surface)
    view = lex.view(active, fold_alif)
    if fold_alif:
        surface = normalize(surface, fold_alif=True)
    pairs, stems, head_tags = view.pairs, view.stems, view.head_tags
    suffix_lens, bc_of = view.suffix_lens, view.bc_of
    for p in view.prefix_lens:
        if p >= n:
            break
        by_suffix = pairs.get(surface[:p])
        if by_suffix is None:
            continue
        for s in suffix_lens:
            if p + s >= n:
                break
            stem = surface[p:n - s]
            stem_entries = stems.get(stem)
            if stem_entries is None:
                continue
            entries = by_suffix.get(surface[n - s:])
            if entries is None:
                continue
            if stem_entries.__class__ is not list:   # not yet read
                stem_entries = view.read(stem)
            for a, pre, stem_cats, sufs in entries:
                for b in stem_entries:
                    if b.cat not in stem_cats:
                        continue
                    tag = head_tags.get(id(b))
                    if tag is None:
                        tag = head_tags[id(b)] = b.head_tag()
                    suffix_cats = bc_of[b.cat]
                    for c, suf in sufs:
                        if c.cat not in suffix_cats:
                            continue
                        key = (f"{pre}{b.voc}{suf}", b.lemma, tag)
                        if key not in out:
                            out[key] = Analysis(*key, (a, b, c))
    return list(out.values())


class TypeCache(dict):
    """Per-type analyses keyed by ``Token.key``; tuple values, shared by
    tokens.  ``analyze_text`` fills it and counts its hits and misses per
    token (see there).

    One cache serves the single (flags, alif folding) setting of the run
    that fills it: the key holds neither.  ``Pipeline.run`` makes one per
    run, and ``analyze_text`` called without one makes its own."""

    hits = 0
    misses = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


def lookup_key(surface: str, table: BuckTable = DEFAULT_TABLE) -> str:
    """Unvocalized normalized Buckwalter surface used for lexicon lookup.

    It is ``to_buck``, then ``normalize`` and ``strip_diacritics``, in one
    ``str.translate`` (``BuckTable.to_key``).  Alif folding is not applied
    here; when enabled, ``analyze_type`` and ``Lexicon.lookup`` fold the
    query, and the lexicon's view its keys.
    """
    return table.to_key(surface)


def token_lookup_key(token: Token, table: BuckTable = DEFAULT_TABLE) -> str:
    """``lookup_key`` of the token's surface under ``table``."""
    return lookup_key(token.surface, table)


def had_diacritics(token: Token, table: BuckTable = DEFAULT_TABLE) -> bool:
    return not table.arabic_diacritics.isdisjoint(token.surface)


def analyze_text(tokens: Iterable[Token], lex: Lexicon, active: Flag,
                 cache: TypeCache | None = None,
                 fold_alif: bool = False) -> Iterator[TokenReadings]:
    """Yield one record per token, in token order, as the tokens are read;
    repeated types are served from the cache and share its tuple of
    analyses.  ``cache`` must hold analyses under ``active`` and
    ``fold_alif`` only (see ``TypeCache``).

    Each miss adds one key to the cache and every other token is a hit,
    so once the input runs out the cache's miss count grows by the keys
    this call added and its hit count by the remaining tokens: both stay
    per token.
    """
    cache = cache if cache is not None else TypeCache()
    size = len(cache)
    n = 0
    for token in tokens:
        n += 1
        analyses = cache.get(token.key)
        if analyses is None:
            analyses = cache[token.key] = tuple(
                analyze_type(token.key, lex, active, fold_alif))
        yield TokenReadings(token, analyses)
    cache.misses += len(cache) - size
    cache.hits += n - (len(cache) - size)
