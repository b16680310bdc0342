"""TEI-style XML output and the reviewer-correction transform.

Each word is a ``<w>`` element whose ``ana`` attribute carries the default
reading as ``voc/lemma/pos``; lower-ranked readings are ``<note>`` children.
A reviewer marks a note with ``ed="correct"`` to override the default; the
correction transform swaps that note with the word's analysis.

Serialization is canonical (fixed attribute order, two-space indentation,
LF line endings) so byte-level golden comparisons are stable.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from . import __version__
from .analyzer import TokenReadings
from .lexicon import frozen_record
from .textio import not_xml_char

UNKNOWN_ANA = "UNK//UNK"


class TeiError(ValueError):
    """Malformed or invalid annotated XML."""


@frozen_record
class Note:
    ana: str
    corrected: bool = False


@frozen_record
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


def escape(text: str) -> str:
    """``text`` as XML character data, as ``xml.sax.saxutils.escape``
    writes it: ``&``, ``<`` and ``>`` become entities."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def quoteattr(value: str) -> str:
    """``value`` as a quoted XML attribute value, as
    ``xml.sax.saxutils.quoteattr`` writes it: escaped, with tab, LF and CR
    as character references, in double quotes unless it holds ``"`` and
    no ``'``; holding both, its ``"`` become ``&quot;``."""
    value = (escape(value).replace("\n", "&#10;").replace("\r", "&#13;")
             .replace("\t", "&#9;"))
    if '"' not in value:
        return f'"{value}"'
    if "'" not in value:
        return f"'{value}'"
    return '"%s"' % value.replace('"', "&quot;")


def _check_word(word: TeiWord, where: str = "") -> None:
    if not word.notes and word.ana.count("/") == 2:
        return                         # passes every check below
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
    """One word per token.  Tokens with the same surface and the same
    ranked list share one ``TeiWord``, built once per call (keyed by
    ``id`` as ``TokenReadings`` allows)."""
    built: dict[tuple[str, int], TeiWord] = {}
    words = []
    for rec in ranked:
        key = (rec.token.surface, id(rec.ranked))
        word = built.get(key)
        if word is None:
            readings = rec.ranked
            ana = readings[0][0].ana if readings else UNKNOWN_ANA
            notes = (tuple([Note(a.ana) for a, _ in readings[1:]])
                     if len(readings) > 1 else ())
            word = built[key] = TeiWord(key[0], ana, notes)
        words.append(word)
    return TeiDoc(source=source, flags=flags, words=tuple(words))


def emit_tei(doc: TeiDoc) -> str:
    """Canonical serialization; the inverse of parse_tei on its image.

    Each distinct word object is checked and rendered once per call, and
    its ``<w>`` block repeated for every later occurrence (keyed by
    ``id`` as ``TokenReadings`` allows).  A header field holding a
    character that XML 1.0 cannot carry is a ``TeiError``."""
    for name in ("source", "flags", "version"):
        value = getattr(doc, name)
        bad = not value.isprintable() and not_xml_char().search(value)
        if bad:
            raise TeiError(f"{name} holds U+{ord(bad.group()):04X}, which "
                           "XML 1.0 cannot carry")
    head = (f'<?xml version="1.0" encoding="UTF-8"?>\n'
            f"<text source={quoteattr(doc.source)} "
            f"flags={quoteattr(doc.flags)} "
            f"version={quoteattr(doc.version)}>\n")
    if not doc.words:
        return head + "  <body/>\n</text>\n"
    blocks: dict[int, str] = {}
    out = [head, "  <body>\n"]
    for word in doc.words:
        key = id(word)
        block = blocks.get(key)
        if block is None:
            _check_word(word)
            block = f"    <w ana={quoteattr(word.ana)}>\n"
            for note in word.notes:
                ed = ' ed="correct"' if note.corrected else ""
                block += f"      <note ana={quoteattr(note.ana)}{ed}/>\n"
            block = blocks[key] = (
                f"{block}      {escape(word.surface)}\n    </w>\n")
        out.append(block)
    out.append("  </body>\n</text>\n")
    return "".join(out)


def parse_tei(xml: str) -> TeiDoc:
    """Read an annotated document back; preserves ``ed="correct"`` markers.

    Every ``<w>`` passes its element checks in document order; equal raw
    content (``ana``, text, each note's ``ana``, mark and tail) then gives
    one shared ``TeiWord``, built and checked at its first occurrence, so
    an invalid word is reported with its own ``word #N``."""
    import xml.etree.ElementTree as ET

    try:
        root = ET.fromstring(xml)
    except ET.ParseError as exc:
        raise TeiError(f"not well-formed XML at line {exc.position[0]}, "
                       f"column {exc.position[1]}") from exc
    except UnicodeEncodeError as exc:
        raise TeiError(f"not encodable as UTF-8 at character "
                       f"{exc.start + 1} ({exc.reason})") from None
    if root.tag != "text":
        raise TeiError(f"expected <text> root, got <{root.tag}>")
    built: dict[tuple, TeiWord] = {}
    words = []
    for w in root.iter("w"):
        # iter("w") yields the element itself first; a second hit is a
        # <w> nested inside it, which the format forbids.  The walk stops
        # at that hit.
        below = w.iter("w")
        next(below)
        if next(below, None) is not None:
            raise TeiError("nested <w> elements are not allowed")
        ana = w.get("ana")
        if ana is None:
            raise TeiError(f"<w> without ana attribute near {w.text!r}")
        key = [ana, w.text]            # then (ana, marked, tail) per note
        for child in w:
            if child.tag != "note":
                raise TeiError(f"unexpected <{child.tag}> inside <w>")
            note_ana = child.get("ana")
            if note_ana is None:
                raise TeiError(f"<note> without ana attribute in word "
                               f"with ana {ana!r}")
            key += (note_ana, child.get("ed") == "correct", child.tail)
        key = tuple(key)
        word = built.get(key)
        if word is None:
            # built from the key alone, so equal keys give equal words
            notes, marks, tails = key[2::3], key[3::3], key[4::3]
            word = built[key] = TeiWord(
                surface="".join([w.text or ""]
                                + [t or "" for t in tails]).strip(),
                ana=ana,
                notes=tuple([Note(a, c) for a, c in zip(notes, marks)]))
            _check_word(word, where=f"word #{len(words) + 1}")
        words.append(word)
    return TeiDoc(source=root.get("source", ""),
                  flags=root.get("flags", ""),
                  version=root.get("version", ""),
                  words=tuple(words))


def apply_corrections(doc: TeiDoc) -> TeiDoc:
    """Promote each ``ed="correct"`` note to the default analysis and demote
    the former default to the first note; markers are cleared, so applying
    the transform twice equals applying it once.

    Each distinct word object is checked at its first occurrence and
    transformed once per call (keyed by ``id`` as ``TokenReadings``
    allows); its later occurrences share the result."""
    done: dict[int, TeiWord] = {}
    words = []
    for i, word in enumerate(doc.words):
        fixed = done.get(id(word))
        if fixed is None:
            _check_word(word, where=f"word #{i + 1}")
            marked = [n for n in word.notes if n.corrected]
            if marked:
                chosen = marked[0]
                rest = tuple(Note(n.ana) for n in word.notes
                             if n is not chosen)
                fixed = TeiWord(surface=word.surface, ana=chosen.ana,
                                notes=(Note(word.ana),) + rest)
            else:
                fixed = word
            done[id(word)] = fixed
        words.append(fixed)
    return replace(doc, words=tuple(words))
