"""TEI-style XML output and the reviewer-correction transform.

Each word is a ``<w>`` element whose ``ana`` attribute carries the default
reading as ``voc/lemma/pos``; lower-ranked readings are ``<note>`` children.
A reviewer marks a note with ``ed="correct"`` to override the default; the
correction transform swaps that note with the word's analysis.

Serialization is canonical (fixed attribute order, two-space indentation,
LF line endings) so byte-level golden comparisons are stable.
"""

from __future__ import annotations

import io
import xml.etree.ElementTree as ET
from dataclasses import dataclass, replace
from typing import IO, Sequence
from xml.sax.saxutils import escape, quoteattr

from . import __version__
from .analyzer import TokenReadings

UNKNOWN_ANA = "UNK//UNK"


class TeiError(ValueError):
    """Malformed or invalid annotated XML."""


@dataclass(frozen=True)
class Note:
    ana: str
    corrected: bool = False


@dataclass(frozen=True)
class TeiWord:
    surface: str
    ana: str
    notes: tuple[Note, ...] = ()


@dataclass(frozen=True)
class TeiDoc:
    source: str = ""
    flags: str = ""                  # pipe-joined active flag names
    version: str = __version__
    words: tuple[TeiWord, ...] = ()


def _check_word(word: TeiWord, where: str = "") -> None:
    label = f" ({where})" if where else ""
    if not word.ana:
        raise TeiError(f"word {word.surface!r}{label} has an empty analysis")
    if word.ana.count("/") != 2:
        raise TeiError(f"word {word.surface!r}{label} has unrecognized "
                       f"analysis format {word.ana!r}")
    for note in word.notes:
        if note.ana.count("/") != 2:
            raise TeiError(f"word {word.surface!r}{label} has unrecognized "
                           f"note format {note.ana!r}")
    if sum(1 for n in word.notes if n.corrected) > 1:
        raise TeiError(f"word {word.surface!r}{label} marks more than one "
                       "note as correct")
    if word.ana == UNKNOWN_ANA and word.notes:
        raise TeiError(f"unknown word {word.surface!r}{label} carries notes")


def doc_from_ranked(ranked: Sequence[TokenReadings], source: str = "",
                    flags: str = "") -> TeiDoc:
    words = []
    for rec in ranked:
        if not rec.ranked:
            words.append(TeiWord(surface=rec.token.surface, ana=UNKNOWN_ANA))
            continue
        top = rec.ranked[0][0]
        notes = tuple(Note(a.ana) for a, _ in rec.ranked[1:])
        words.append(TeiWord(surface=rec.token.surface, ana=top.ana,
                             notes=notes))
    return TeiDoc(source=source, flags=flags, words=tuple(words))


def emit_tei(doc: TeiDoc) -> str:
    """Canonical serialization; the inverse of parse_tei on its image."""
    out = ['<?xml version="1.0" encoding="UTF-8"?>']
    out.append(f"<text source={quoteattr(doc.source)} "
               f"flags={quoteattr(doc.flags)} "
               f"version={quoteattr(doc.version)}>")
    if not doc.words:
        out.append("  <body/>")
    else:
        out.append("  <body>")
        for word in doc.words:
            _check_word(word)
            out.append(f"    <w ana={quoteattr(word.ana)}>")
            for note in word.notes:
                ed = ' ed="correct"' if note.corrected else ""
                out.append(f"      <note ana={quoteattr(note.ana)}{ed}/>")
            out.append(f"      {escape(word.surface)}")
            out.append("    </w>")
        out.append("  </body>")
    out.append("</text>")
    return "".join(line + "\n" for line in out)


def parse_tei(xml: str | IO[str]) -> TeiDoc:
    """Read an annotated document back; preserves ``ed="correct"`` markers."""
    if hasattr(xml, "read"):
        xml = xml.read()
    try:
        root = ET.fromstring(xml)
    except ET.ParseError as exc:
        raise TeiError(f"not well-formed XML at line {exc.position[0]}, "
                       f"column {exc.position[1]}") from exc
    if root.tag != "text":
        raise TeiError(f"expected <text> root, got <{root.tag}>")
    words = []
    for w in root.iter("w"):
        # iter("w") includes the element itself; more than one hit means
        # a <w> nested inside a <w>, which the format forbids.
        if sum(1 for _ in w.iter("w")) > 1:
            raise TeiError("nested <w> elements are not allowed")
        ana = w.get("ana")
        if ana is None:
            raise TeiError(f"<w> without ana attribute near {w.text!r}")
        notes = []
        surface_parts = [w.text or ""]
        for child in w:
            if child.tag == "note":
                note_ana = child.get("ana")
                if note_ana is None:
                    raise TeiError(f"<note> without ana attribute in word "
                                   f"with ana {ana!r}")
                notes.append(Note(ana=note_ana,
                                  corrected=child.get("ed") == "correct"))
            else:
                raise TeiError(f"unexpected <{child.tag}> inside <w>")
            surface_parts.append(child.tail or "")
        word = TeiWord(surface="".join(surface_parts).strip(), ana=ana,
                       notes=tuple(notes))
        _check_word(word, where=f"word #{len(words) + 1}")
        words.append(word)
    return TeiDoc(source=root.get("source", ""),
                  flags=root.get("flags", ""),
                  version=root.get("version", ""),
                  words=tuple(words))


def apply_corrections(doc: TeiDoc) -> TeiDoc:
    """Promote each ``ed="correct"`` note to the default analysis and demote
    the former default to the first note; markers are cleared, so applying
    the transform twice equals applying it once."""
    words = []
    for i, word in enumerate(doc.words):
        _check_word(word, where=f"word #{i + 1}")
        marked = [n for n in word.notes if n.corrected]
        if not marked:
            words.append(word)
            continue
        chosen = marked[0]
        rest = tuple(Note(n.ana) for n in word.notes if n is not chosen)
        words.append(TeiWord(surface=word.surface, ana=chosen.ana,
                             notes=(Note(word.ana),) + rest))
    return replace(doc, words=tuple(words))
