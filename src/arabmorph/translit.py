"""Buckwalter transliteration and orthographic normalization.

The mapping ships as a data file (``data/buckwalter.tsv``) so an alternate
romanization can be swapped in without touching code.  All internal
processing works on Buckwalter strings; Arabic script appears only at the
input and output edges.
"""

from __future__ import annotations

import re
import unicodedata
from pathlib import Path
from typing import IO, Iterable

from .textio import data_lines, read_with

# Characters removed when reducing a vocalized form to its written surface:
# short vowels, sukun, shadda and the three tanwin signs.
DIACRITICS = "auioFNK~"
TATWEEL = "_"
ALIF_VARIANTS = "><|{"

_CODEPOINT_RE = re.compile(r"^U\+([0-9A-Fa-f]{4,6})$")

# Read inside a word although outside the table: ZWNJ and ZWJ, which map
# to nothing, the Arabic presentation forms, and the Arabic block's other
# letters (Persian pe, U+067E), which pass through.
_JOINERS = "\u200c\u200d"
_PRESENTATION_FORMS = "".join(map(chr, [*range(0xFB50, 0xFE00),
                                       *range(0xFE70, 0xFF00)]))


class TranslitError(ValueError):
    """Raised for characters outside the Buckwalter alphabet."""


class BuckTable:
    """Bidirectional Arabic-script <-> Buckwalter character table."""

    def __init__(self, arabic_to_buck: dict[str, str]):
        """``arabic_to_buck`` must map one character to one character,
        one to one; ``from_stream`` names the row that does not."""
        self.a2b = dict(arabic_to_buck)
        for ar, bw in self.a2b.items():
            if len(ar) != 1 or len(bw) != 1:
                raise TranslitError(f"table pair {ar!r} -> {bw!r}: each "
                                    "side must be one character")
        self.b2a = {bw: ar for ar, bw in self.a2b.items()}
        if len(self.b2a) != len(self.a2b):
            raise TranslitError("duplicate Buckwalter character in table")
        self.arabic_diacritics = frozenset(
            ar for ar, bw in self.a2b.items() if bw in DIACRITICS
        )
        letters = frozenset(
            ar for ar, bw in self.a2b.items()
            if bw not in DIACRITICS and bw != TATWEEL
        )
        # A presentation form outside the table reads as the table letters
        # of its NFKC form (Unicode UAX #15), if it has only those.
        forms = {}
        for ch in _PRESENTATION_FORMS:
            folded = unicodedata.normalize("NFKC", ch)
            if ch not in self.a2b and letters.issuperset(folded):
                forms[ch] = "".join(map(self.a2b.get, folded))
        # An Arabic-block letter outside the table maps to itself, so a
        # word holding it matches no Buckwalter row.
        others = {ch: ch for ch in map(chr, range(0x0600, 0x0700))
                  if ch not in self.a2b and unicodedata.category(ch) == "Lo"}
        self.arabic_letters = letters.union(forms, others)
        word_chars = {**dict.fromkeys(_JOINERS, ""), **others, **forms,
                      **self.a2b}
        self._translation = str.maketrans(word_chars)
        # ``to_key``'s table: ``to_buck``, then tatweel and the diacritics
        # dropped.  Each pass maps one character at a time, so they compose
        # exactly; only a table value can be such a character.
        dropped = DIACRITICS + TATWEEL
        self._key_translation = str.maketrans({
            **dict.fromkeys(dropped, ""), **word_chars,
            **{ar: "" for ar, bw in self.a2b.items() if bw in dropped}})
        # Maximal runs of word characters.  A letter-anchored pattern would
        # backtrack quadratically over long runs of bare diacritics.
        self.runs = re.compile("[%s]+" % "".join(map(re.escape, word_chars)))

    @classmethod
    def from_stream(cls, stream: IO[str] | Iterable[str],
                    filename: str = "<translit>") -> "BuckTable":
        """Rows ``U+XXXX<TAB>character``, each field stripped, the TSV
        rule skipping blank and comment lines.  Each code point and each
        Buckwalter character is used once, so text maps back; a bad row is
        reported at ``filename:line``, a repeat naming the earlier line."""
        mapping = {}
        lines: dict[tuple[int, str], int] = {}   # (side, character) -> line
        for lineno, line in data_lines(stream):
            where = f"{filename}:{lineno}"
            fields = [f.strip() for f in line.split("\t")]
            if len(fields) != 2 or len(fields[1]) != 1:
                raise TranslitError(f"{where}: expected codepoint<TAB>char")
            m = _CODEPOINT_RE.match(fields[0])
            if not m or int(m.group(1), 16) > 0x10FFFF:
                raise TranslitError(f"{where}: bad codepoint {fields[0]!r}")
            ar, bw = chr(int(m.group(1), 16)), fields[1]
            for side, ch, what in ((0, ar, f"codepoint {fields[0]}"),
                                   (1, bw, f"Buckwalter character {bw!r}")):
                first = lines.setdefault((side, ch), lineno)
                if first != lineno:
                    raise TranslitError(f"{where}: duplicate {what}, "
                                        f"first used at line {first}")
            mapping[ar] = bw
        return cls(mapping)

    def to_buck(self, text: str) -> str:
        """Transliterate Arabic script to Buckwalter; a presentation form
        becomes its letters' characters, ZWNJ and ZWJ vanish, and other
        characters outside the table pass through verbatim."""
        return text.translate(self._translation)

    def to_key(self, text: str) -> str:
        """``to_buck`` of ``text`` without tatweel and diacritics, in one
        pass: the lookup key of ``analyzer.lookup_key``."""
        return text.translate(self._key_translation)

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


DEFAULT_TABLE = read_with(BuckTable.from_stream,
                          Path(__file__).parent / "data" / "buckwalter.tsv")

_STRIP = {ord(c): None for c in DIACRITICS}


def arabic_to_buck(text: str, table: BuckTable = DEFAULT_TABLE) -> str:
    return table.to_buck(text)


def buck_to_arabic(text: str, table: BuckTable = DEFAULT_TABLE) -> str:
    return table.to_arabic(text)


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
