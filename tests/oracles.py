"""Independent brute-force references the fast paths are checked against."""

import unicodedata
from dataclasses import replace
from typing import IO, Iterable
from xml.sax.saxutils import escape, quoteattr

from arabmorph import __version__
from arabmorph.analyzer import token_lookup_key
from arabmorph.disambig import (_LM_MAGIC, _LM_VERSION, BOS, UNK, LmError,
                                LmModel, Tuple, _count)
from arabmorph.lexicon import (_POS_FIELD_RE, ALL_FLAGS, Kind, LexEntry,
                               LexiconError, _check_row, _default_pos,
                               _parse_flag_text, compatible, flag_names)
from arabmorph.translit import (DIACRITICS, TATWEEL, normalize,
                                strip_diacritics)

# Bounds on the bundled lexicon's prefix and suffix clusters, within
# which ``segmentations`` cuts; the analyzer itself takes its affix
# lengths from the lexicon it reads.
MAX_PREFIX_LEN = 4
MAX_SUFFIX_LEN = 6


def brute_force_analyses(surface, lex, active):
    """Every reading of a surface by direct substring enumeration.

    No length caps and no shared code with the analyzer's segmentation:
    all (i, j) cut points with a non-empty stem are tried, the cross
    product filtered by lexicon membership and compatibility, and
    duplicate (voc, lemma, primary tag) readings collapsed.
    Returns the deduplicated key set.
    """
    seen = set()
    n = len(surface)
    for i in range(0, n):
        for j in range(i + 1, n + 1):
            pre, stem, suf = surface[:i], surface[i:j], surface[j:]
            for a in lex.lookup(pre, Kind.PREFIX, active):
                for b in lex.lookup(stem, Kind.STEM, active):
                    for c in lex.lookup(suf, Kind.SUFFIX, active):
                        if compatible(lex.compat, a.cat, b.cat, c.cat):
                            voc = "+".join(p.voc for p in (a, b, c) if p.voc)
                            seen.add((voc, b.lemma, b.head_tag()))
    return seen


def brute_force_segmentation_count(n, max_pre, max_suf):
    """Number of (pre, stem, suf) splits of an n-character string with a
    non-empty stem, counted by direct enumeration over cut points."""
    count = 0
    for i in range(0, n + 1):
        for j in range(i, n + 1):
            if i <= max_pre and (n - j) <= max_suf and j > i:
                count += 1
    return count


def segmentations(surface):
    """All (prefix, stem, suffix) cuts of a surface with a prefix of at
    most ``MAX_PREFIX_LEN`` and a suffix of at most ``MAX_SUFFIX_LEN``
    characters, stem non-empty; ordered by prefix length, then suffix
    length, the order in which ``analyze_type`` tries them."""
    out = []
    n = len(surface)
    for p in range(0, min(MAX_PREFIX_LEN, n - 1) + 1):
        for s in range(0, min(MAX_SUFFIX_LEN, n - p - 1) + 1):
            out.append((surface[:p], surface[p:n - s], surface[n - s:]))
    return out


def readings_from_ranked(sets):
    """The (lemma, primary tag) of each record's ranked readings, in rank
    order: the system side ``evaluate`` takes."""
    return [[a.lemma_pos for a, _ in rec.ranked] for rec in sets]


def one_lookup_per_split_analyses(surface, lex, active, fold_alif,
                                  max_pre, max_suf):
    """Every reading of a surface, in the analyzer's order, by looking up
    the prefix, stem and suffix afresh for each split whose prefix is at
    most ``max_pre`` and suffix at most ``max_suf`` characters.

    Splits go by prefix length, then suffix length; within a split the
    readings go in lexicon load order; a repeated (voc, lemma, primary tag)
    keeps its first occurrence.  Returns (voc, lemma, pos, parts) tuples.
    """
    out, seen = [], set()
    n = len(surface)
    for p in range(0, min(max_pre, n - 1) + 1):
        for s in range(0, min(max_suf, n - p - 1) + 1):
            pres = lex.lookup(surface[:p], Kind.PREFIX, active, fold_alif)
            stems = lex.lookup(surface[p:n - s], Kind.STEM, active, fold_alif)
            sufs = lex.lookup(surface[n - s:], Kind.SUFFIX, active, fold_alif)
            for a in pres:
                for b in stems:
                    for c in sufs:
                        if not compatible(lex.compat, a.cat, b.cat, c.cat):
                            continue
                        voc = "+".join(x.voc for x in (a, b, c) if x.voc)
                        key = (voc, b.lemma, b.head_tag())
                        if key not in seen:
                            seen.add(key)
                            out.append(key + ((a, b, c),))
    return out


def licensed_triples(lex):
    """Every prefix+stem+suffix entry triple whose three categories are
    pairwise compatible, by direct enumeration of the three tables."""
    triples = []
    for pres in lex.prefixes.values():
        for a in pres:
            for stems in lex.stems.values():
                for b in stems:
                    if (a.cat, b.cat) not in lex.compat.ab:
                        continue
                    for sufs in lex.suffixes.values():
                        for c in sufs:
                            if compatible(lex.compat, a.cat, b.cat, c.cat):
                                triples.append((a, b, c))
    return triples


def licensed_surfaces(lex):
    """The surface of every licensed entry triple, sorted and
    deduplicated."""
    return sorted({a.surface + b.surface + c.surface
                   for a, b, c in licensed_triples(lex)})


def reference_adds(entries):
    """What adding ``entries`` in turn to an empty ``Lexicon`` gives, from
    one dict keyed by (kind, surface, voc, cat, lemma): each ``add``'s
    return value (True for a new row) and the rows in ``entries()``
    order, that is by kind, then by surface in order of first addition,
    then in order of addition.  A repeated key keeps its first row's
    place and fields and unions the flags."""
    rows, returns = {}, []
    for e in entries:
        key = (e.kind, e.surface, e.voc, e.cat, e.lemma)
        old = rows.get(key)
        returns.append(old is None)
        rows[key] = e if old is None else replace(old,
                                                  flags=old.flags | e.flags)
    first = {}
    for kind, surface, *_ in rows:
        first.setdefault((kind, surface), len(first))
    kinds = list(Kind)
    order = sorted(rows, key=lambda k: (kinds.index(k[0]), first[k[:2]]))
    return returns, [rows[k] for k in order]


def reference_format_entry_line(e):
    """A lexicon row as a tab join of its six columns, the flag column
    joined from ``flag_names`` on every row."""
    glosspos = e.gloss
    if e.pos != _default_pos(e.voc, e.cat):
        glosspos = f"{e.gloss} <pos>{e.pos}</pos>" if e.gloss else f"<pos>{e.pos}</pos>"
    return "\t".join([
        e.surface or "0",
        e.voc or "0",
        e.cat,
        glosspos,
        e.lemma,
        "|".join(flag_names(e.flags)),
    ])


# The row reader with the annotation regex on every gloss column holding
# ``<pos>``, kept as the reference that ``parse_entry_line``'s string split
# is checked against, messages included.
def reference_parse_entry_line(line: str, kind: Kind, lineno: int = 0,
                     filename: str = "<lexicon>") -> LexEntry:
    """Parse one TSV lexicon row.

    Columns: surface, voc, cat, gloss (optionally with a trailing
    ``<pos>...</pos>`` annotation, the last one of the column), lemma, and
    a pipe-separated flag list.  A literal ``0`` denotes the empty
    surface/voc of a null affix; trailing columns may be omitted, and an
    entry without flags belongs to every variety.  An error names
    ``filename:lineno``.
    """
    fields = line.split("\t")
    if not 3 <= len(fields) <= 6:
        raise LexiconError(f"{filename}:{lineno}: expected 3 to 6 "
                           f"tab-separated fields, got {len(fields)}")
    fields += [""] * (6 - len(fields))
    surface, voc, cat, gloss, lemma, flagtext = map(str.strip, fields)
    surface = "" if surface == "0" else surface
    voc = "" if voc == "0" else voc
    if "<pos>" in gloss and (m := _POS_FIELD_RE.match(gloss)):
        gloss, pos = m.group(1).strip(), m.group(2).strip()
    else:
        pos = _default_pos(voc, cat)
    try:
        _check_row(kind, surface, voc, cat, gloss, pos, lemma)
        flags = _parse_flag_text(flagtext) if flagtext else ALL_FLAGS
    except LexiconError as exc:
        raise LexiconError(f"{filename}:{lineno}: {exc}") from None
    return LexEntry(kind, surface, voc, cat, gloss, pos, lemma, flags)


# The model reader with a record generator and a ``pair`` call per
# (lemma, tag), kept as the reference that ``load_lm``'s one loop per
# section is checked against, messages and positions included.
def reference_load_lm(stream: IO[str] | Iterable[str], filename: str = "<lm>") -> LmModel:
    """Parse ``serialize_lm``'s form, reading the stream line by line.
    Every n-gram, freq and vocab key is built from one shared tuple per
    distinct (lemma, tag)."""
    lines = iter(stream)
    pos = 0                         # lines read so far
    sections: list[tuple[int, int, str]] = []   # header line, size, name
    shared: dict[Tuple, Tuple] = {}

    def pair(lemma: str, tag: str) -> Tuple:
        t = (lemma, tag)
        return shared.setdefault(t, t)

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

    def records(n: int, n_fields: int, what: str):
        """The next ``n`` lines of ``n_fields`` fields; each is yielded
        with its last field, a count, parsed to an int."""
        nonlocal pos
        sections.append((pos, n, what))
        label = f"{what} count"
        end = pos + n
        # range first: zip stops on it without reading a line too many.
        for _, line in zip(range(n), lines):
            pos += 1
            fields = line.rstrip("\n").split("\t")
            if len(fields) != n_fields:
                raise LmError(f"{filename}:{pos}: expected {n_fields} "
                              f"fields in {what} record")
            fields[-1] = _count(fields[-1], filename, pos, label)
            yield fields
        if pos < end:
            raise LmError(f"{filename}: truncated {what} section "
                          f"at line {pos + 1}")

    def section(order: int, n_fields: int, what: str):
        header = take("ngrams", 3)
        if header[1] != str(order):
            raise LmError(f"{filename}:{pos}: expected {what} section")
        n = _count(header[2], filename, pos, f"{what} section size")
        return records(n, n_fields, what)

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

    unigram = {pair(f[0], f[1]): f[2] for f in section(1, 3, "unigram")}
    bigram = {(pair(f[0], f[1]), pair(f[2], f[3])): f[4]
              for f in section(2, 5, "bigram")}
    trigram = {(pair(f[0], f[1]), pair(f[2], f[3]), pair(f[4], f[5])):
               f[6] for f in section(3, 7, "trigram")}
    n_freq = _count(take("freq", 2)[1], filename, pos, "freq section size")
    freq = {pair(f[0], f[1]): f[2] for f in records(n_freq, 3, "freq")}
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


def reference_vocab(model):
    """The (lemma, tag) tuples a model's unigram counts or frequency table
    name, the boundary symbol of the counts left out."""
    return set(model.freq) | (set(model.unigram) - {BOS})


def resummed_score(model, ctx, cand):
    """``LmModel.score`` with the unigram mass, the frequency mass and the
    vocabulary size counted again from the model's tables on every
    call."""
    t2, t1 = ctx
    v1 = len(reference_vocab(model)) + 1
    freq_total = sum(model.freq.values())
    ctx_count = model.bigram.get((t2, t1), 0)
    if ctx_count > 0:
        p = (model.trigram.get((t2, t1, cand), 0) + 1) / (ctx_count + v1)
    elif model.unigram.get(t1, 0) > 0:
        p = (model.bigram.get((t1, cand), 0) + 1) / (model.unigram[t1] + v1)
    else:
        p = ((model.unigram.get(cand, 0) + 1)
             / (sum(model.unigram.values()) + v1))
    pf = (model.freq.get(cand, 0) + 1) / (freq_total + v1)
    return model.lam * p + (1.0 - model.lam) * pf


def _reference_word_char(table, ch):
    """The Buckwalter text of a character that a word may hold, or None:
    a table character by the table, ZWNJ and ZWJ as nothing, a letter
    (category Lo) of the Arabic block U+0600-U+06FF outside the table as
    itself, and an Arabic presentation form outside the table as its NFKC
    letters, if the table maps each of them to a letter."""
    if ch in table.a2b:
        return table.a2b[ch]
    if ch in "\u200c\u200d":
        return ""
    if "\u0600" <= ch <= "\u06ff" and unicodedata.category(ch) == "Lo":
        return ch
    if 0xFB50 <= ord(ch) <= 0xFDFF or 0xFE70 <= ord(ch) <= 0xFEFF:
        letters = [table.a2b.get(c) for c in unicodedata.normalize("NFKC", ch)]
        if all(bw is not None and bw not in DIACRITICS + TATWEEL
               for bw in letters):
            return "".join(letters)
    return None


def _reference_is_letter(table, ch):
    bw = _reference_word_char(table, ch)
    return bool(bw) and not any(c in DIACRITICS + TATWEEL for c in bw)


def reference_to_buck(table, text):
    """``BuckTable.to_buck`` one character at a time."""
    out = []
    for ch in text:
        bw = _reference_word_char(table, ch)
        out.append(ch if bw is None else bw)
    return "".join(out)


def reference_lookup_key(table, text):
    """``lookup_key`` as three passes: ``reference_to_buck``, then
    ``normalize`` and ``strip_diacritics``."""
    return strip_diacritics(normalize(reference_to_buck(table, text)))


def reference_tokenize(text, table):
    """``tokenize`` by scanning for maximal runs of word characters and
    keeping those that hold a letter.  Returns (surface, offset)."""
    tokens = []
    i, n = 0, len(text)
    while i < n:
        if _reference_word_char(table, text[i]) is None:
            i += 1
            continue
        j = i
        while j < n and _reference_word_char(table, text[j]) is not None:
            j += 1
        run = text[i:j]
        if any(_reference_is_letter(table, ch) for ch in run):
            tokens.append((run, i))
        i = j
    return tokens


def reference_apply_rules(sets, rules, table):
    """``apply_rules`` by matching every rule against the original sets,
    then dropping per rule in file order what earlier rules left.

    Returns one (survivors list, dropped tuple) pair per token and, for each
    (rule text, surface) pair the safeguard skipped, its token count.
    """
    keys = [token_lookup_key(rec.token, table) for rec in sets]
    out, skipped = [], {}
    for i, rec in enumerate(sets):
        original = rec.analyses
        matches = []
        for rule in rules:
            j = i + rule.offset
            if not 0 <= j < len(sets):
                continue
            if not _matches_context(rule, sets[j], keys[j]):
                continue
            hit = {k for k, a in enumerate(original) if rule.matches_target(a)}
            if hit:
                matches.append((rule, hit))
        remaining = set(range(len(original)))
        dropped = []
        for rule, hit in matches:
            drop = hit & remaining
            if not drop:
                continue
            if drop == remaining:
                pair = (rule.text, rec.token.surface)
                skipped[pair] = skipped.get(pair, 0) + 1
                continue
            for k in sorted(drop):
                dropped.append((original[k], rule))
            remaining -= drop
        survivors = [a for k, a in enumerate(original) if k in remaining]
        out.append((survivors, tuple(dropped)))
    return out, skipped


def _matches_context(rule, neighbor, neighbor_key):
    """Whether ``neighbor``, with lookup key ``neighbor_key``, satisfies
    the context of ``rule``, by scanning its readings."""
    if rule.context_attr == "surface":
        return rule.context_value in (neighbor.token.surface, neighbor_key)
    if rule.context_attr == "lemma":
        return any(a.lemma == rule.context_value for a in neighbor.analyses)
    return any(a.pos == rule.context_value for a in neighbor.analyses)


def reference_rank(survivor_lists, model):
    """Greedy left-to-right ranking over lists of readings, ties broken by
    an explicit (score, frequency count, position) key.  Returns one list
    of (analysis, score) pairs per token."""
    history = [BOS, BOS]
    out = []
    for analyses in survivor_lists:
        ctx = (history[-2], history[-1])
        scored = [(model.score(ctx, a.lemma_pos), a) for a in analyses]
        order = sorted(
            range(len(scored)),
            key=lambda i: (-scored[i][0],
                           -model.freq.get(scored[i][1].lemma_pos, 0),
                           i))
        ranked = [(scored[i][1], scored[i][0]) for i in order]
        out.append(ranked)
        history.append(ranked[0][0].lemma_pos if ranked else UNK)
    return out


def reference_tei(surfaces, ranked_lists, source="", flags="",
                  version=__version__):
    """The TEI document ``emit_tei(doc_from_ranked(...))`` writes, built
    line by line, one ``<w>`` per token: ``surfaces`` and
    ``ranked_lists`` give each token's surface and (analysis, score)
    pairs in rank order."""
    words = [(surface, ranked[0][0].ana if ranked else "UNK//UNK",
              [(a.ana, False) for a, _ in ranked[1:]])
             for surface, ranked in zip(surfaces, ranked_lists)]
    return _reference_document(source, flags, version, words)


def reference_emit_tei(doc):
    """What ``emit_tei(doc)`` writes for a ``TeiDoc`` whose words pass
    the word checks, built line by line, one ``<w>`` per word."""
    words = [(w.surface, w.ana, [(n.ana, n.corrected) for n in w.notes])
             for w in doc.words]
    return _reference_document(doc.source, doc.flags, doc.version, words)


def _reference_document(source, flags, version, words):
    """The document's lines, every value through ``quoteattr`` or
    ``escape``: ``words`` holds (surface, ana, [(note ana, marked)])."""
    lines = ['<?xml version="1.0" encoding="UTF-8"?>',
             f"<text source={quoteattr(source)} flags={quoteattr(flags)} "
             f"version={quoteattr(version)}>"]
    if not words:
        lines.append("  <body/>")
    else:
        lines.append("  <body>")
        for surface, ana, notes in words:
            lines.append(f"    <w ana={quoteattr(ana)}>")
            for note_ana, marked in notes:
                ed = ' ed="correct"' if marked else ""
                lines.append(f"      <note ana={quoteattr(note_ana)}{ed}/>")
            lines.append(f"      {escape(surface)}")
            lines.append("    </w>")
        lines.append("  </body>")
    lines.append("</text>")
    return "\n".join(lines) + "\n"
