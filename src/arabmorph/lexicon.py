"""Lexicons, genre flags, compatibility tables, and the import/review workflow.

Three lexicons (prefixes, stems, suffixes) are keyed by unvocalized
Buckwalter surface.  Every entry carries a bitmask of genre/variety flags;
analysis-time filtering keeps an entry when its mask intersects the active
set.  Three pairwise tables license prefix-stem, stem-suffix and
prefix-suffix category combinations.
"""

from __future__ import annotations

import enum
import functools
import logging
import re
from collections import defaultdict
from dataclasses import MISSING, dataclass, field, fields, replace
from itertools import compress
from operator import ne
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator

from .snapshot import load_cached, snapshot_path
from .textio import data_lines, not_xml_char, utf8_lines
from .translit import (DEFAULT_TABLE, arabic_to_buck, normalize,
                       strip_diacritics)

log = logging.getLogger(__name__)


class LexiconError(ValueError):
    """Malformed lexicon, rule or review input."""


class Flag(enum.IntFlag):
    """Genre/variety usage markers, one bit each."""

    CA = enum.auto()          # Classical Arabic
    MSA = enum.auto()         # Modern Standard Arabic
    ICA = enum.auto()         # Informal Colloquial Arabic
    SPEC_MED = enum.auto()    # medical sublanguage
    SPEC_ALCH = enum.auto()   # alchemic sublanguage
    SPEC_GRAM = enum.auto()   # grammatical sublanguage
    NE = enum.auto()          # named entities
    FNE = enum.auto()         # foreign named entities
    CAP = enum.auto()         # colloquial aspectual preverbs


# The members are distinct bits, so their sum is their union.
ALL_FLAGS = Flag(sum(Flag))
# (name, bit) per flag: flag_names tests plain ints, not IntFlag members.
_FLAG_BITS = tuple((f.name, int(f)) for f in Flag)

# Historical spelling of the flag names carries this prefix; accept both.
_FLAG_PREFIX = "XRAM_"


def parse_flagset(names: Iterable[str]) -> Flag:
    """Union of the named flag bits; names are case-insensitive."""
    mask = Flag(0)
    for raw in names:
        key = raw.strip().upper()
        if key.startswith(_FLAG_PREFIX):
            key = key[len(_FLAG_PREFIX):]
        try:
            mask |= Flag[key]
        except KeyError:
            valid = ", ".join(f.name for f in Flag)
            raise LexiconError(
                f"unknown flag {raw!r}; valid flags: {valid}"
            ) from None
    return mask


def classical_preset() -> Flag:
    """Active set for classical texts: modern, colloquial, medical and
    foreign-name material is deselected."""
    return ALL_FLAGS & ~(Flag.MSA | Flag.ICA | Flag.SPEC_MED | Flag.FNE | Flag.CAP)


def flag_names(mask: Flag) -> list[str]:
    bits = int(mask)
    return [name for name, bit in _FLAG_BITS if bits & bit]


class Kind(enum.Enum):
    PREFIX = "prefix"
    STEM = "stem"
    SUFFIX = "suffix"


# Each kind's place in a (prefix, stem, suffix) category triple.
_KIND_PLACES = tuple(Kind)

# Closed primary-tag inventory; morphotactic subtypes fold onto it by
# longest-prefix match (Ndu -> N).  Verb stem categories and AraMorph's
# compound tags, which a prefix match would fold wrongly (NEG_PART would
# give NE, NOUN_PROP N) or not at all, are looked up first: by name, then
# by a ``PV_``, ``IV_`` or ``CV_`` head (AraMorph's verb stem categories,
# as PV_V or IV_yu), then by the marked part of a ``*_PRON*`` or
# ``*_PART`` tag.
PRIMARY_TAGS = ("PREP", "PRON", "CONJ", "PART", "DET", "NUM", "ADV", "NE",
                "N", "V", "A")
_TAG_TABLE = {"PV": "V", "IV": "V", "CV": "V", "PV_PASS": "V",
              "IV_PASS": "V", "NEG_PART": "PART", "NOUN_PROP": "NE",
              "SUB_CONJ": "CONJ"}


def fold_tag(tag: str) -> str:
    """Fold a category/tag label onto the closed primary-tag set.  Any
    other label, one that matches no rule (``FOO``, ``IVSUFF_DO:3MS``),
    is returned unchanged, so it shows in the output as written."""
    if tag in _TAG_TABLE:
        return _TAG_TABLE[tag]
    if tag.startswith(("PV_", "IV_", "CV_")):
        return "V"
    if "_PRON" in tag:
        return "PRON"
    if tag.endswith("_PART"):
        return "PART"
    for t in PRIMARY_TAGS:
        if tag.startswith(t):
            return t
    return tag


_LEMMA_RE = re.compile(r"^.+_[1-9][0-9]*$")
# The annotation is the last ``<pos>...</pos>`` of a gloss column, ending it.
_POS_FIELD_RE = re.compile(r"(.*)<pos>(.*)</pos>\s*$")
_ROW_BREAK_RE = re.compile("[\t\r\n]")


def frozen_record(cls: type) -> type:
    """``cls`` as a frozen, slotted dataclass whose ``__init__`` sets each
    field through its slot's setter.  The ``__init__`` that a frozen
    dataclass writes calls ``object.__setattr__`` per field, which makes a
    record cost about 1.5 to 1.7 times as much to build; the records built
    this way are made once per lexicon row, per reading of a cold word type
    and per TEI word and note.  The signature is the fields in order, with
    their defaults."""
    cls = dataclass(frozen=True, slots=True, init=False)(cls)
    scope, params, body = {}, [], ""
    for f in fields(cls):
        scope[f"set_{f.name}"] = getattr(cls, f.name).__set__
        scope[f"default_{f.name}"] = f.default
        params.append(f.name if f.default is MISSING
                      else f"{f.name}=default_{f.name}")
        body += f"\n    set_{f.name}(self, {f.name})"
    exec(f"def __init__(self, {', '.join(params)}):{body}", scope)
    cls.__init__ = scope["__init__"]
    cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"
    return cls


@frozen_record
class LexEntry:
    kind: Kind
    surface: str          # unvocalized Buckwalter key; "" for null affixes
    voc: str              # vocalized Buckwalter form
    cat: str              # morphotactic category, e.g. "Pref-Al", "N"
    gloss: str
    pos: str              # POS annotation, e.g. "Al/DET" or "kitAb/N+..."
    lemma: str            # "base_N" identifier; "" for most affixes
    flags: Flag

    def tag_units(self) -> list[str]:
        """Tag components of the POS annotation: "wa/CONJ+Al/DET" -> [CONJ, DET]."""
        return [unit.rsplit("/", 1)[-1] for unit in self.pos.split("+") if unit]

    def head_tag(self) -> str:
        """Primary tag: first annotation unit folded to the closed set."""
        tag = _first_tag(self.pos)
        return "" if tag is None else fold_tag(tag)


def _first_tag(pos: str) -> str | None:
    """The tag of the first unit of the annotation ``pos``, unfolded; None
    if it has no unit."""
    first = pos.lstrip("+").partition("+")[0]
    return first.rpartition("/")[2] if first else None


def _default_pos(voc: str, cat: str) -> str:
    return f"{voc}/{cat}" if voc else ""


# The names of a row's fields in LexiconError messages, in LexEntry order.
_FIELD_NAMES = ("surface", "voc", "category", "gloss", "pos", "lemma")


def _check_row(kind: Kind, surface: str, voc: str, cat: str, gloss: str,
               pos: str, lemma: str) -> None:
    """The rules every lexicon row keeps, checked where a row is read and
    where an import builds one; the caller puts the row's place in front
    of the message.  A field that a row could not carry back, one holding
    a tab or line break, a gloss ending in ``<pos>...</pos>`` or a pos
    holding ``<pos>`` or ``</pos>``, comes only from an import or an
    in-memory stream.  A voc or lemma may not hold ``/``, which splits a
    ``voc/lemma/pos`` reading.  No field may hold a character that XML 1.0
    cannot carry."""
    if not cat:
        raise LexiconError("empty category")
    if kind is Kind.STEM and not surface:
        raise LexiconError("stem entries require a non-empty surface")
    if strip_diacritics(voc) != surface:
        raise LexiconError(
            f"vocalized form {voc!r} does not reduce to surface "
            f"{surface!r} when diacritics are stripped")
    if lemma and not _LEMMA_RE.match(lemma):
        raise LexiconError(f"lemma {lemma!r} is not of the form base_N")
    if "/" in voc or "/" in lemma:
        name, value = ("voc", voc) if "/" in voc else ("lemma", lemma)
        raise LexiconError(f"{name} {value!r} holds '/', which a "
                           "voc/lemma/pos reading cannot carry")
    # One scan of all the fields, since every row at load passes here:
    # tab, CR, LF and every character XML 1.0 cannot carry are unprintable.
    joined = f"{surface}{voc}{cat}{gloss}{pos}{lemma}"
    bad = not joined.isprintable() and (_ROW_BREAK_RE.search(joined)
                                        or not_xml_char().search(joined))
    if bad:
        ch = bad.group()
        fields = dict(zip(_FIELD_NAMES, (surface, voc, cat, gloss, pos,
                                         lemma)))
        name = next(n for n, v in fields.items() if ch in v)
        if ch in "\t\r\n":
            raise LexiconError(f"{name} {fields[name]!r} would not "
                               "read back from a row")
        raise LexiconError(f"{name} holds U+{ord(ch):04X}, which "
                           "XML 1.0 cannot carry")
    if "</pos>" in gloss and _POS_FIELD_RE.match(gloss):
        raise LexiconError(f"gloss {gloss!r} would not read back from a row")
    if "<pos>" in pos or "</pos>" in pos:
        raise LexiconError(f"pos {pos!r} would not read back from a row")


@functools.lru_cache(maxsize=1024)
def _parse_flag_text(text: str) -> Flag:
    """``parse_flagset`` of a row's flag column.  A lexicon repeats a few
    dozen flag texts over all its rows; a text that raises is not cached,
    so its error reads the same each time."""
    return parse_flagset(text.split("|"))


@functools.lru_cache(maxsize=1024)
def _flag_text(flags: Flag) -> str:
    """A row's flag column for ``flags``, "" for none: the write side of
    ``_parse_flag_text``, so ``flag_names`` runs once per distinct mask."""
    return "|".join(flag_names(flags))


def _annotation(gloss: str, voc: str, cat: str) -> tuple[str, str]:
    """The gloss and the pos annotation of a row's stripped gloss column:
    around its last ``<pos>``, when the column ends in ``</pos>``, else the
    column and the default ``voc/cat``.  This is ``_POS_FIELD_RE``'s match
    by string operations: the column holds no line feed, which the
    pattern's "." stops at."""
    if (gloss.endswith("</pos>") and "\n" not in gloss
            and (i := gloss.rfind("<pos>")) >= 0):
        return gloss[:i].strip(), gloss[i + 5:-6].strip()
    return gloss, _default_pos(voc, cat)


def _split_row(line: str) -> tuple[str, str, str, str, str, str, str]:
    """The surface, voc, category, gloss, pos, lemma and flag column of a
    lexicon row, before any check of their values (``parse_entry_line``)."""
    fields = line.split("\t")
    if len(fields) != 6:
        if not 3 <= len(fields) <= 6:
            raise LexiconError(f"expected 3 to 6 tab-separated fields, "
                               f"got {len(fields)}")
        fields += [""] * (6 - len(fields))
    surface, voc, cat, gloss, lemma, flagtext = map(str.strip, fields)
    surface = "" if surface == "0" else surface
    voc = "" if voc == "0" else voc
    gloss, pos = _annotation(gloss, voc, cat)
    return surface, voc, cat, gloss, pos, lemma, flagtext


def parse_entry_line(line: str, kind: Kind, lineno: int = 0,
                     filename: str = "<lexicon>") -> LexEntry:
    """Parse one TSV lexicon row.

    Columns: surface, voc, cat, gloss (optionally with a trailing
    ``<pos>...</pos>`` annotation, the last one of the column), lemma, and
    a pipe-separated flag list, each stripped of surrounding whitespace.
    A literal ``0`` denotes the empty surface/voc of a null affix;
    trailing columns may be omitted, and an entry without flags belongs to
    every variety.  An error names ``filename:lineno``.
    """
    try:
        surface, voc, cat, gloss, pos, lemma, flagtext = _split_row(line)
        _check_row(kind, surface, voc, cat, gloss, pos, lemma)
        flags = _parse_flag_text(flagtext) if flagtext else ALL_FLAGS
    except LexiconError as exc:
        raise LexiconError(f"{filename}:{lineno}: {exc}") from None
    return LexEntry(kind, surface, voc, cat, gloss, pos, lemma, flags)


def format_entry_line(e: LexEntry) -> str:
    """The TSV row that ``parse_entry_line`` reads back as ``e``.  An entry
    with no flags, whose row would read back with every flag, a field with
    leading or trailing whitespace, which the reader strips, and an
    annotation holding ``<pos>`` or ``</pos>`` are refused."""
    surface, voc, cat, gloss, pos, lemma = values = (
        e.surface, e.voc, e.cat, e.gloss, e.pos, e.lemma)
    flagtext = _flag_text(e.flags)
    if not flagtext:
        raise LexiconError(f"entry {surface or '0'}/{lemma or '-'} has "
                           "no flags; its row would read back with every flag")
    if tuple(map(str.strip, values)) != values:
        name, value = next((name, value) for name, value in zip(
            _FIELD_NAMES, values) if value != value.strip())
        raise LexiconError(f"entry {surface or '0'}/{lemma or '-'}: {name} "
                           f"{value!r} has leading or trailing whitespace, "
                           "which its row would not read back")
    if pos != _default_pos(voc, cat):
        if "<pos>" in pos or "</pos>" in pos:
            raise LexiconError(f"entry {surface or '0'}/{lemma or '-'}: "
                               f"pos {pos!r} would not read back from a row")
        gloss = f"{gloss} <pos>{pos}</pos>" if gloss else f"<pos>{pos}</pos>"
    return (f"{surface or '0'}\t{voc or '0'}\t{cat}\t{gloss}\t"
            f"{lemma}\t{flagtext}")


@dataclass(frozen=True)
class CompatTables:
    """Licensed category pairs: prefix-stem (ab), stem-suffix (bc),
    prefix-suffix (ac), and the category triples they license together."""

    ab: frozenset[tuple[str, str]]
    bc: frozenset[tuple[str, str]]
    ac: frozenset[tuple[str, str]]

    @functools.cached_property
    def triples(self) -> frozenset[tuple[str, str, str]]:
        """The (prefix, stem, suffix) category triples whose three pairs
        are all licensed, BAMA's rule for a reading; worked out on first
        use."""
        return frozenset((p, s, u) for p, s in self.ab for s2, u in self.bc
                         if s2 == s and (p, u) in self.ac)

    def categories(self) -> set[str]:
        cats = set()
        for pair_set in (self.ab, self.bc, self.ac):
            for a, b in pair_set:
                cats.add(a)
                cats.add(b)
        return cats


def compatible(tables: CompatTables, pcat: str, scat: str, sucat: str) -> bool:
    """True iff all three pairwise combinations are licensed."""
    return (pcat, scat, sucat) in tables.triples


def _parse_pairs(stream: IO[str] | Iterable[str],
                 filename: str = "<compat>") -> frozenset[tuple[str, str]]:
    pairs = set()
    for lineno, line in data_lines(stream):
        fields = line.split("\t")
        if len(fields) != 2 or not fields[0].strip() or not fields[1].strip():
            raise LexiconError(f"{filename}:{lineno}: expected catA<TAB>catB")
        pairs.add((fields[0].strip(), fields[1].strip()))
    return frozenset(pairs)


def _build(kind: Kind, text: str) -> list[LexEntry]:
    """The entries of a bucket stored as text: its rows as
    ``format_entry_line`` writes them, joined by line feeds, which no row
    holds (``_check_row``).  A row is split as ``parse_entry_line`` splits
    it, without its checks, which the text parse behind the snapshot
    passed."""
    return [LexEntry(kind, s, v, c, g, p, lemma, _parse_flag_text(f))
            for s, v, c, g, p, lemma, f in map(_split_row, text.split("\n"))]


def _read(table: dict[str, list[LexEntry] | str], kind: Kind,
          key: str) -> list[LexEntry] | None:
    """``table``'s bucket for ``key``, built from its text and kept in
    ``table`` on its first read; None if ``table`` lacks ``key``."""
    bucket = table.get(key)
    if bucket.__class__ is str:
        bucket = table[key] = _build(kind, bucket)
    return bucket


def _bucket_texts(table: dict[str, list[LexEntry] | str]) -> list[str]:
    """The rows of each bucket of ``table`` joined by line feeds, in table
    order: a bucket not yet built as it is stored."""
    return [bucket if bucket.__class__ is str
            else "\n".join(map(format_entry_line, bucket))
            for bucket in table.values()]


def _fold_keys(keys: list[str]) -> list[str]:
    """``normalize(key, fold_alif=True)`` of each key, in one call over the
    keys joined by line feeds, which no key holds (``_check_row``)."""
    folded = normalize("\n".join(keys), fold_alif=True).split("\n")
    if len(folded) != len(keys):        # an entry added with a line feed
        folded = [normalize(key, fold_alif=True) for key in keys]
    return folded


def _affix_view(table: dict[str, list[LexEntry]], mask: int,
                fold_alif: bool) -> dict[str, list[LexEntry]]:
    """The entries of ``table`` whose flags intersect ``mask``, keyed by
    surface, alif-folded under ``fold_alif``, in table order; a key with
    none is absent."""
    index: dict[str, list[LexEntry]] = {}
    for surface, bucket in table.items():
        if rows := [e for e in bucket if int(e.flags) & mask]:
            key = normalize(surface, fold_alif=True) if fold_alif else surface
            index.setdefault(key, []).extend(rows)
    return index


class LexView:
    """The entries of one (active flags, alif folding) pair, as
    ``Lexicon.view`` builds them, and the affix side of analysis
    precompiled from them.

    ``tables`` maps each kind to its entries whose flags intersect the
    active set, keyed by surface, alif-folded under folding; table, then
    load order.  Its affix tables hold lists, a key none of whose entries
    intersects the active set being absent.  Its stem table, ``stems``,
    holds every stem key: until ``read`` first asks for a key, it holds
    the surface that folds onto the key, or a tuple of such surfaces in
    table order, and ``read`` fetches their buckets through
    ``read_stem``, which builds a bucket the lexicon still holds as text
    (see ``Lexicon``), keeps the entries that intersect the active set and
    puts the list in their place, empty if none does: the lexicon's own
    bucket when one surface folds onto the key and all of its entries
    do, since ``add`` replaces a bucket rather than changes it.  Read a
    stem key through ``read``.  The view holds the lexicon's stem table
    through ``read_stem``, never the lexicon itself.

    ``pairs`` maps a prefix surface to a suffix surface to the prefix
    entries ``a`` of that surface, in load order, each as the tuple
    (``a``, its voc and "+" or "" for a null voc, the stem categories
    that ``compat.ab`` licenses for ``a`` and ``compat.bc`` names, the
    suffix entries ``c`` of that surface, in load order, that
    ``compat.ac`` licenses for ``a``, each as (``c``, "+" and its voc or
    "")); a pair without such an (a, c) is absent.  ``bc_of`` maps each
    stem category that ``compat.bc`` names to its suffix categories.
    ``prefix_lens`` and ``suffix_lens`` are the sorted lengths of the
    pair keys, so the lexicon's own affixes bound the splits tried.
    ``head_tags`` memoizes ``LexEntry.head_tag`` by the ``id`` of an entry
    of ``tables``, which the view keeps alive, so the ids stay its own.
    Callers change only ``head_tags``."""

    __slots__ = ("tables", "stems", "pairs", "bc_of", "prefix_lens",
                 "suffix_lens", "head_tags", "_mask", "_read")

    def __init__(self, prefixes: dict[str, list[LexEntry]],
                 suffixes: dict[str, list[LexEntry]], stem_keys: list[str],
                 read_stem: Callable[[str], list[LexEntry]],
                 compat: CompatTables, mask: int, fold_alif: bool):
        self._mask, self._read = mask, read_stem
        keys = _fold_keys(stem_keys) if fold_alif else stem_keys
        self.stems: dict[str, object] = dict(zip(keys, stem_keys))
        if len(self.stems) < len(stem_keys):    # surfaces folded together
            # Each such key has a surface that folding changed.
            moved = set(compress(keys, map(ne, keys, stem_keys)))
            shared: dict[str, list[str]] = {}
            for key, surface in compress(zip(keys, stem_keys),
                                         map(moved.__contains__, keys)):
                shared.setdefault(key, []).append(surface)
            self.stems.update((key, tuple(surfaces))
                              for key, surfaces in shared.items()
                              if len(surfaces) > 1)
        prefixes = _affix_view(prefixes, mask, fold_alif)
        suffixes = _affix_view(suffixes, mask, fold_alif)
        self.tables = {Kind.PREFIX: prefixes, Kind.STEM: self.stems,
                       Kind.SUFFIX: suffixes}
        self.bc_of: dict[str, set[str]] = defaultdict(set)
        for scat, ucat in compat.bc:
            self.bc_of[scat].add(ucat)
        stem_cats: dict[str, set[str]] = defaultdict(set)
        for pcat, scat in compat.ab:
            if scat in self.bc_of:
                stem_cats[pcat].add(scat)
        # The licensed suffixes depend on the prefix's category alone, and
        # there are far fewer categories than prefix entries.
        suffix_rows = {skey: [(c, f"+{c.voc}" if c.voc else "")
                              for c in sbucket]
                       for skey, sbucket in suffixes.items()}
        by_cat: dict[str, dict[str, list[tuple[LexEntry, str]]]] = {}
        ac = compat.ac
        self.pairs: dict[str, dict[str, list[tuple[
            LexEntry, str, set[str], list[tuple[LexEntry, str]]]]]] = {}
        for key, bucket in prefixes.items():
            row = {}
            for a in bucket:
                licensed = by_cat.get(a.cat)
                if licensed is None:
                    licensed = by_cat[a.cat] = {
                        skey: cs for skey, cands in suffix_rows.items()
                        if (cs := [c for c in cands
                                   if (a.cat, c[0].cat) in ac])}
                pre = f"{a.voc}+" if a.voc else ""
                cats = stem_cats[a.cat]
                for skey, cs in licensed.items():
                    row.setdefault(skey, []).append((a, pre, cats, cs))
            if row:
                self.pairs[key] = row
        self.prefix_lens = sorted({len(key) for key in self.pairs})
        self.suffix_lens = sorted({len(skey) for row in self.pairs.values()
                                   for skey in row})
        self.head_tags: dict[int, str] = {}

    def read(self, key: str) -> list[LexEntry]:
        """The stem entries under ``key``, a key of ``stems``, whose flags
        intersect the active set; fetched on the key's first read and kept
        in ``stems``."""
        held = self.stems[key]
        if held.__class__ is list:
            return held
        mask, read = self._mask, self._read
        if held.__class__ is str:
            bucket = read(held)
            rows = [e for e in bucket if int(e.flags) & mask]
            # A list per read gives the collector one more object per key.
            if len(rows) == len(bucket):
                rows = bucket
        else:
            rows = [e for surface in held for e in read(surface)
                    if int(e.flags) & mask]
        self.stems[key] = rows
        return rows


class Lexicon:
    """The surface-keyed entry tables of the three kinds, one ``tables``
    store, plus their compatibility tables.  Lookups read one ``view`` per
    (flags, alif folding), with its affix pair table, and evaluation the
    ``known_lemma_pos`` set, each built on first use; ``add``, the only
    mutator (merges return a new Lexicon), drops both.

    A lexicon restored from a snapshot holds each stem bucket in its stem
    table as the snapshot stores it, its rows' text, until the bucket's
    first read builds its entries (``_read``).  Analysis (``view``,
    ``lookup``), ``add`` and ``reject_known`` build only the buckets they
    read; ``len``, ``copy`` and ``serialize_lexicon`` build none, and
    ``known_lemma_pos`` reads four columns of each text bucket.
    ``tables``, ``stems``, ``table`` and ``entries`` build every remaining
    bucket first, walking the stem table only until one walk has built
    them all.  Every reader gives what it gives on the text parse: the
    same entries, in the same table order."""

    def __init__(self, compat: CompatTables):
        self._tables: dict[Kind, dict[str, list[LexEntry] | str]] = {
            k: {} for k in Kind}
        # Every affix bucket is built; the stems go through ``stems``.
        self.prefixes, _, self.suffixes = self._tables.values()
        self.compat = compat
        self._view_key: tuple[int, bool] | None = None
        self._view: LexView | None = None
        self._known: frozenset[tuple[str, str]] | None = None
        # Whether every stem bucket is built: no text is put in the stem
        # table after the restore, so this stays true once set.
        self._built = False

    @property
    def tables(self) -> dict[Kind, dict[str, list[LexEntry]]]:
        """Each kind's buckets by surface, in table order; the stem
        buckets not yet built are built first."""
        if not self._built:
            table = self._tables[Kind.STEM]
            for key, bucket in table.items():
                if bucket.__class__ is str:
                    table[key] = _build(Kind.STEM, bucket)
            self._built = True
        return self._tables

    @property
    def stems(self) -> dict[str, list[LexEntry]]:
        return self.tables[Kind.STEM]

    def table(self, kind: Kind) -> dict[str, list[LexEntry]]:
        return self.tables[kind]

    def entries(self) -> Iterator[LexEntry]:
        for table in self.tables.values():
            for bucket in table.values():
                yield from bucket

    def __len__(self) -> int:
        return sum(len(bucket) if bucket.__class__ is list
                   else bucket.count("\n") + 1
                   for table in self._tables.values()
                   for bucket in table.values())

    def add(self, entry: LexEntry) -> bool:
        """Insert an entry, collapsing duplicates by flag union: a row of
        the entry's bucket with the same voc, cat and lemma is one.  The
        bucket is replaced, never changed in place, so copies can share
        the buckets that neither changes.

        Returns True when a new row was created, False when an existing
        row absorbed the entry's flags.
        """
        self._view_key = self._view = self._known = None
        table = self._tables[entry.kind]
        bucket = _read(table, entry.kind, entry.surface)
        if bucket is None:
            table[entry.surface] = [entry]
            return True
        for i, row in enumerate(bucket):
            if (row.voc == entry.voc and row.cat == entry.cat
                    and row.lemma == entry.lemma):
                if row.flags | entry.flags != row.flags:
                    merged = replace(row, flags=row.flags | entry.flags)
                    table[entry.surface] = [*bucket[:i], merged,
                                            *bucket[i + 1:]]
                return False
        table[entry.surface] = [*bucket, entry]
        return True

    def lookup(self, surface: str, kind: Kind, active: Flag,
               fold_alif: bool = False) -> list[LexEntry]:
        """Entries whose surface matches, alif-folded under ``fold_alif``,
        and whose flags intersect ``active``; table, then load order."""
        view = self.view(active, fold_alif)
        if fold_alif:
            surface = normalize(surface, fold_alif=True)
        if surface not in view.tables[kind]:
            return []
        return list(view.read(surface) if kind is Kind.STEM
                    else view.tables[kind][surface])

    def view(self, active: Flag, fold_alif: bool = False) -> LexView:
        """The entries whose flags intersect ``active``, with surfaces
        alif-folded under ``fold_alif``, and the affix pair table built
        from them (see ``LexView``).  One view is kept, built on first use
        for its (flags, folding) pair and dropped by ``add``."""
        mask = int(active)
        if (mask, fold_alif) != self._view_key:
            table = self._tables[Kind.STEM]
            self._view = LexView(
                self.prefixes, self.suffixes, list(table),
                functools.partial(_read, table, Kind.STEM), self.compat,
                mask, fold_alif)
            self._view_key = (mask, fold_alif)
        return self._view

    def known_lemma_pos(self) -> frozenset[tuple[str, str]]:
        """(lemma, primary tag) pairs of every stem entry, collected on
        first use and kept until ``add``.  A bucket not yet built is read
        from the voc, category, gloss and lemma columns of its text; a
        stem's voc is never the null marker ``0``."""
        if self._known is None:
            # A lexicon has a few distinct tags: fold each once.
            heads: dict[str | None, str] = {None: ""}
            known = set()
            for bucket in self._tables[Kind.STEM].values():
                if bucket.__class__ is list:
                    known.update((e.lemma, e.head_tag())
                                 for e in bucket if e.lemma)
                    continue
                for row in bucket.split("\n"):
                    _, voc, cat, gloss, lemma, _ = row.split("\t")
                    if lemma:
                        tag = _first_tag(_annotation(gloss, voc, cat)[1])
                        head = heads.get(tag)
                        if head is None:
                            head = heads[tag] = fold_tag(tag)
                        known.add((lemma, head))
            self._known = frozenset(known)
        return self._known

    def copy(self) -> "Lexicon":
        """An independent lexicon with the same rows.  It shares the
        buckets, which ``add`` replaces rather than changes, and the text
        of those not yet built."""
        clone = Lexicon(self.compat)
        clone.prefixes.update(self.prefixes)
        clone.suffixes.update(self.suffixes)
        clone._tables[Kind.STEM] = self._tables[Kind.STEM].copy()
        clone._built = self._built
        return clone


LEXICON_FILES = ("prefixes.tsv", "stems.tsv", "suffixes.tsv",
                 "compat_ab.tsv", "compat_bc.tsv", "compat_ac.tsv")


def load_lexicon(prefix_stream, stem_stream, suffix_stream,
                 compat_streams: tuple, filenames: tuple | None = None) -> Lexicon:
    """Build a Lexicon from the three entry streams and the (ab, bc, ac)
    compatibility streams, reading each to its end before the next."""
    names = filenames or [n.removesuffix(".tsv") for n in LEXICON_FILES]
    lex = Lexicon(CompatTables(*map(_parse_pairs, compat_streams, names[3:])))
    used = set()
    for stream, kind, name in zip((prefix_stream, stem_stream, suffix_stream),
                                  Kind, names):
        for lineno, line in data_lines(stream):
            entry = parse_entry_line(line, kind, lineno, name)
            used.add(entry.cat)
            lex.add(entry)
    if not lex.stems:
        raise LexiconError(f"{names[1]}: stem file contains no entries")
    _warn_unused(lex.compat, used)
    return lex


def _warn_unused(compat: CompatTables, used: Iterable[str]) -> None:
    for cat in sorted(compat.categories().difference(used)):
        log.warning("compatibility tables name category %r, which no loaded "
                    "entry carries", cat)


def load_lexicon_dir(path) -> Lexicon:
    """``load_lexicon`` of the six files in ``path``, restored from their
    snapshot (``snapshot.load_cached``) where it stands for them."""
    names = tuple(str(Path(path) / n) for n in LEXICON_FILES)

    def parse() -> Lexicon:
        lines = [utf8_lines(name) for name in names]
        return load_lexicon(*lines[:3], tuple(lines[3:]), filenames=names)

    return load_cached(names, snapshot_path(path, "lexicon"), parse,
                       _dump_store, _restore_store)


def _dump_store(lex: Lexicon) -> tuple:
    """The lexicon as marshal data: its compat pair sets, the sorted
    categories its rows carry, then per kind a dict of each bucket key to
    the bucket's rows as ``format_entry_line`` writes them, joined by line
    feeds (``_build``), in table order, which marshal keeps."""
    kinds = [dict(zip(table, _bucket_texts(table)))
             for table in lex._tables.values()]
    cats = sorted({e.cat for e in lex.entries()})
    return lex.compat.ab, lex.compat.bc, lex.compat.ac, cats, kinds


def _restore_store(payload: tuple) -> Lexicon:
    """The lexicon that ``_dump_store`` gave ``payload`` for, with the text
    load's warnings.  Its affix buckets are built in stored order; the
    stored stem dict is its stem table as it is, each bucket built on its
    first read (``Lexicon``).  A kind stored as anything but a dict is a
    ``LexiconError``, which ``load_cached`` passes over as a ValueError."""
    ab, bc, ac, cats, kinds = payload
    if any(type(table) is not dict for table in kinds):
        raise LexiconError("snapshot tables are not dicts")
    lex = Lexicon(CompatTables(ab, bc, ac))
    prefixes, lex._tables[Kind.STEM], suffixes = kinds
    for kind, table in ((Kind.PREFIX, prefixes), (Kind.SUFFIX, suffixes)):
        lex._tables[kind].update((key, _build(kind, text))
                                 for key, text in table.items())
    _warn_unused(lex.compat, cats)
    return lex


def serialize_lexicon(lex: Lexicon) -> dict[str, str]:
    """Render the lexicon back to its six-file TSV form (file name -> text).
    A stem bucket not yet built is written as it is stored."""
    out = {}
    for name, table in zip(LEXICON_FILES, lex._tables.values()):
        texts = _bucket_texts(table)
        texts.append("")            # each row ends in a line feed
        out[name] = "\n".join(texts)
    for name, pairs in zip(LEXICON_FILES[3:],
                           (lex.compat.ab, lex.compat.bc, lex.compat.ac)):
        out[name] = "".join(f"{a}\t{b}\n" for a, b in sorted(pairs))
    return out


# ---------------------------------------------------------------------------
# Semi-automatic lexicon increments: import candidates, review, merge.

class Status(enum.Enum):
    PENDING = "P"
    ACCEPTED = "A"
    REJECTED = "R"


@dataclass
class Candidate:
    entry: LexEntry
    status: Status = Status.PENDING


@dataclass
class ReviewBatch:
    candidates: list[Candidate] = field(default_factory=list)
    source: str = ""
    kind: Kind = Kind.STEM
    skipped: int = 0      # import records that give no row


def _localname(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def _first_text(elem, names: tuple[str, ...]) -> str:
    """The text of the first element in ``elem`` whose local name is one
    of ``names``, each whitespace run made one space; "" without one."""
    texts = ("".join(c.itertext()) for c in elem.iter()
             if _localname(c.tag) in names)
    return " ".join(next(texts, "").split())


def _candidate(word: str, kind: Kind, cat: str, gloss: str, assign: Flag,
               where: str) -> LexEntry:
    """The entry an import proposes for an Arabic-script ``word``; a stem
    gets the lemma ``<voc>_1``.  A row that breaks a row rule, whose
    surface or voc is the row format's null marker ``0``, whose word is
    not one run of characters that ``tokenize`` reads as a word (such as
    ``book``, whose ``o`` is Buckwalter's sukun), or whose word holds an
    Arabic letter outside the table, which would stay in the row as itself
    and could not be written back in Arabic script, is a ``LexiconError``
    at ``where``."""
    voc = normalize(arabic_to_buck(word))
    surface = strip_diacritics(voc)
    if "0" in (surface, voc):
        raise LexiconError(f"{where}: {word!r} reads as the null marker 0")
    lemma = f"{voc}_1" if kind is Kind.STEM else ""
    pos = _default_pos(voc, cat)
    try:
        _check_row(kind, surface, voc, cat, gloss, pos, lemma)
    except LexiconError as exc:
        raise LexiconError(f"{where}: {exc}") from None
    if not DEFAULT_TABLE.runs.fullmatch(word):
        raise LexiconError(f"{where}: {word!r} is not a word that tokenize "
                           "would read")
    letters = DEFAULT_TABLE.arabic_letters
    if not letters.isdisjoint(voc):
        other = next(c for c in voc if c in letters)
        raise LexiconError(f"{where}: {word!r} holds U+{ord(other):04X}, "
                           "which the transliteration table lacks")
    return LexEntry(kind=kind, surface=surface, voc=voc, cat=cat, gloss=gloss,
                    pos=pos, lemma=lemma, flags=assign)


def import_tei_dictionary(stream, assign: Flag,
                          source: str = "tei-dictionary") -> ReviewBatch:
    """Extract stem candidates from a TEI-encoded dictionary.

    One Pending candidate per entry headword, glossed from the first sense,
    whitespace runs of both made one space; the category is a placeholder
    pending human review.  An entry that gives no row is skipped, with a
    warning naming its ordinal, its headword and why.
    """
    import xml.etree.ElementTree as ET

    if not assign:
        raise LexiconError("import requires a non-empty flag set")
    try:
        tree = ET.parse(stream)
    except ET.ParseError as exc:
        raise LexiconError(f"{source}: not well-formed XML at "
                           f"line {exc.position[0]}, column {exc.position[1]}") from exc
    batch = ReviewBatch(source=source, kind=Kind.STEM)
    entries = (elem for elem in tree.getroot().iter()
               if _localname(elem.tag) == "entry")
    for n, elem in enumerate(entries, 1):
        headword = _first_text(elem, ("orth",))
        gloss = _first_text(elem, ("sense", "def"))
        where = f"{source}: entry {n} {headword!r}"
        try:
            entry = _candidate(headword, Kind.STEM, "N", gloss, assign, where)
        except LexiconError as exc:
            log.warning("%s; skipped", exc)
            batch.skipped += 1
            continue
        batch.candidates.append(Candidate(entry))
    if batch.skipped:
        log.warning("%s: skipped %d entries without a usable headword "
                    "or gloss", source, batch.skipped)
    return batch


def import_wordlist(stream, kind: Kind, assign: Flag,
                    source: str = "wordlist") -> ReviewBatch:
    """Candidates from a hand-maintained wordlist: surface, gloss, tag."""
    if not assign:
        raise LexiconError("import requires a non-empty flag set")
    batch = ReviewBatch(source=source, kind=kind)
    for lineno, line in data_lines(stream):
        fields = line.split("\t")
        if len(fields) != 3 or not fields[0].strip() or not fields[2].strip():
            raise LexiconError(f"{source}:{lineno}: expected "
                               "surface<TAB>gloss<TAB>pos")
        word, gloss, tag = (f.strip() for f in fields)
        batch.candidates.append(Candidate(_candidate(
            word, kind, tag, gloss, assign, f"{source}:{lineno}")))
    return batch


def reject_known(batch: ReviewBatch, lex: Lexicon) -> None:
    """Mark Rejected each candidate whose surface and lemma ``lex``
    already holds for the candidate's kind."""
    for cand in batch.candidates:
        e = cand.entry
        if any(row.lemma == e.lemma for row in _read(
                lex._tables[e.kind], e.kind, e.surface) or ()):
            cand.status = Status.REJECTED


def _can_surface(lex: Lexicon, entry: LexEntry) -> bool:
    """Whether some licensed category triple holds the entry's category
    at its kind's place (prefix, stem, suffix)."""
    i = _KIND_PLACES.index(entry.kind)
    return any(t[i] == entry.cat for t in lex.compat.triples)


def merge_reviewed(lex: Lexicon, batch: ReviewBatch) -> Lexicon:
    """New lexicon with the batch's Accepted candidates inserted.

    Re-merging the same batch is a no-op (duplicate rows collapse by flag
    union).  Pending candidates are an error: review must be finished.
    """
    pending = [c.entry.surface or "0" for c in batch.candidates
               if c.status is Status.PENDING]
    if pending:
        raise LexiconError("batch still has Pending candidates: "
                           + ", ".join(pending))
    merged = lex.copy()
    for cand in batch.candidates:
        if cand.status is not Status.ACCEPTED:
            continue
        merged.add(cand.entry)
        if not _can_surface(merged, cand.entry):
            log.warning("entry %s/%s has category %r with no compatible "
                        "combination; it can never appear in an analysis",
                        cand.entry.surface or "0", cand.entry.lemma or "-",
                        cand.entry.cat)
    return merged


def save_review(batch: ReviewBatch, stream: IO[str]) -> None:
    if _ROW_BREAK_RE.search(batch.source):
        raise LexiconError(f"source {batch.source!r} would not read back "
                           "from a review header")
    stream.write("# review file: set the first column to A(ccept) or "
                 "R(eject); P rows block merging\n")
    stream.write(f"#! kind={batch.kind.value}\tsource={batch.source}\n")
    for cand in batch.candidates:
        stream.write(f"{cand.status.value}\t{format_entry_line(cand.entry)}\n")


def load_review(stream, filename: str = "<review>") -> ReviewBatch:
    batch = ReviewBatch()
    for lineno, line in enumerate(stream, 1):
        line = line.rstrip("\n")
        if line.startswith("#!"):
            for part in line[2:].strip().split("\t"):
                key, eq, value = part.partition("=")
                if key == "kind" and eq:
                    try:
                        batch.kind = Kind(value)
                    except ValueError:
                        raise LexiconError(
                            f"{filename}:{lineno}: bad kind {value!r}, "
                            "expected prefix, stem or suffix") from None
                elif key == "source" and eq:
                    batch.source = value
                else:
                    raise LexiconError(
                        f"{filename}:{lineno}: bad header field {part!r}, "
                        "expected kind=KIND or source=NAME")
            continue
        if not line.strip() or line.startswith("#"):
            continue
        status_field, _, rest = line.partition("\t")
        try:
            status = Status(status_field.strip())
        except ValueError:
            raise LexiconError(f"{filename}:{lineno}: bad status "
                               f"{status_field!r}, expected P, A or R") from None
        entry = parse_entry_line(rest, batch.kind, lineno, filename)
        batch.candidates.append(Candidate(entry, status))
    return batch
