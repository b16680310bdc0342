"""Buckwalter transliteration and orthographic normalization.

The mapping ships as a data file (``data/buckwalter.tsv``) so an alternate
romanization can be swapped in without touching code.  All internal
processing works on Buckwalter strings; Arabic script appears only at the
input and output edges.
"""

from __future__ import annotations

import re
from importlib import resources
from typing import IO, Iterable

# Characters removed when reducing a vocalized form to its written surface:
# short vowels, sukun, shadda and the three tanwin signs.
DIACRITICS = "auioFNK~"
TATWEEL = "_"
ALIF_VARIANTS = "><|{"

_CODEPOINT_RE = re.compile(r"^U\+([0-9A-Fa-f]{4,6})$")


class TranslitError(ValueError):
    """Raised for characters outside the Buckwalter alphabet."""


class BuckTable:
    """Bidirectional Arabic-script <-> Buckwalter character table."""

    def __init__(self, arabic_to_buck: dict[str, str]):
        self.a2b = dict(arabic_to_buck)
        self.b2a: dict[str, str] = {}
        for ar, bw in self.a2b.items():
            if bw in self.b2a:
                raise TranslitError(f"duplicate Buckwalter character {bw!r} in table")
            self.b2a[bw] = ar
        self.arabic_chars = frozenset(self.a2b)
        self.arabic_diacritics = frozenset(
            ar for ar, bw in self.a2b.items() if bw in DIACRITICS
        )
        self.arabic_letters = frozenset(
            ar for ar, bw in self.a2b.items()
            if bw not in DIACRITICS and bw != TATWEEL
        )

    @classmethod
    def from_stream(cls, stream: IO[str] | Iterable[str]) -> "BuckTable":
        mapping = {}
        for lineno, line in enumerate(stream, 1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) != 2 or not fields[1]:
                raise TranslitError(f"line {lineno}: expected codepoint<TAB>char")
            m = _CODEPOINT_RE.match(fields[0])
            if not m:
                raise TranslitError(f"line {lineno}: bad codepoint {fields[0]!r}")
            mapping[chr(int(m.group(1), 16))] = fields[1]
        return cls(mapping)

    @classmethod
    def from_file(cls, path) -> "BuckTable":
        with open(path, encoding="utf-8") as f:
            return cls.from_stream(f)

    def to_buck(self, text: str, unmapped: list | None = None) -> str:
        """Transliterate Arabic script to Buckwalter.

        Characters outside the table pass through verbatim; their positions
        are appended to ``unmapped`` when a collector list is given.
        """
        out = []
        for i, ch in enumerate(text):
            bw = self.a2b.get(ch)
            if bw is None:
                if unmapped is not None:
                    unmapped.append((i, ch))
                out.append(ch)
            else:
                out.append(bw)
        return "".join(out)

    def to_arabic(self, text: str) -> str:
        out = []
        for i, ch in enumerate(text):
            ar = self.b2a.get(ch)
            if ar is None:
                raise TranslitError(
                    f"invalid Buckwalter character {ch!r} at position {i}"
                )
            out.append(ar)
        return "".join(out)


def _load_default() -> BuckTable:
    data = resources.files("arabmorph").joinpath("data/buckwalter.tsv")
    with data.open(encoding="utf-8") as f:
        return BuckTable.from_stream(f)


DEFAULT_TABLE = _load_default()

_STRIP = {ord(c): None for c in DIACRITICS}


def arabic_to_buck(text: str, table: BuckTable | None = None,
                   unmapped: list | None = None) -> str:
    return (table or DEFAULT_TABLE).to_buck(text, unmapped)


def buck_to_arabic(text: str, table: BuckTable | None = None) -> str:
    return (table or DEFAULT_TABLE).to_arabic(text)


def strip_diacritics(text: str) -> str:
    """Remove short vowels, sukun, shadda and tanwin from a Buckwalter string."""
    return text.translate(_STRIP)


def normalize(text: str, fold_alif: bool = False) -> str:
    """Normalize a Buckwalter string before lexicon lookup.

    Tatweel is always dropped.  With ``fold_alif`` the hamza/madda/wasla
    alif variants collapse to bare alif; this recovers nonstandard
    spellings at the cost of extra ambiguity, so it is opt-in.
    """
    text = text.replace(TATWEEL, "")
    if fold_alif:
        for v in ALIF_VARIANTS:
            text = text.replace(v, "A")
    return text
