"""Seeded workload generators for the arabmorph benchmark.

Run as ``python3 bench/gen.py --workload NAME --seed N --out DIR``.  Writes
every input file the benchmark feeds to the program, plus the truth the
output checks need, into DIR and describes them in ``DIR/manifest.json``.
The same seed gives byte-identical files.  Nothing is downloaded: every
workload is derived from the bundled lexicon, rules and test corpora.

This runs in its own process so that the memory it uses stays out of the
benchmark's ``peak_rss_mb``.
"""

from __future__ import annotations

import argparse
import json
import random
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from arabmorph.analyzer import tokenize  # noqa: E402
from arabmorph.cli import default_lexicon_dir  # noqa: E402
from arabmorph.disambig import serialize_lm, train_lm  # noqa: E402
from arabmorph.evaluation import load_gold  # noqa: E402
from arabmorph.lexicon import (LEXICON_FILES, Flag, compatible,  # noqa: E402
                               flag_names, load_lexicon_dir)
from arabmorph.translit import buck_to_arabic  # noqa: E402

DATA = ROOT / "tests" / "data"
BUNDLED_LEXICON = default_lexicon_dir()
BUNDLED_RULES = BUNDLED_LEXICON.parent / "rules.txt"

WORKLOADS = ("long-doc", "many-docs", "big-lexicon", "review-cycle")

LONG_DOC_COPIES = 500            # 500 x 204 tokens = 102,000 tokens
DOC_TOKENS = 100                 # many-docs and big-lexicon document size
BIG_STEMS = 30_000               # generated stems on top of the bundled ones
BIG_DOCS = 20                    # big-lexicon documents per pass
LM_GOLD_TOKENS = 40_000          # generated gold corpus the LM is trained on
REVIEW_DOCS = 100                # review-cycle documents per pass
REVIEW_DOC_TOKENS = 200
REVIEW_MARK_P = 0.9              # chance the reviewer fixes a wrong token
CANDIDATES = 200                 # rows in the merge batch's wordlist
ACCEPT_P = 0.7                   # chance the reviewer accepts a candidate

# Consonants a generated stem may substitute into a bundled template.
# Alif variants, long vowels and ta marbuta stay as the template has them,
# so generated stems keep realistic shapes and exercise alif folding.
CONSONANTS = "btvjHxd*rzs$SDTZEgfqklmnh"


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def _gold_text(sentences) -> str:
    """Gold-corpus TSV: surface, voc/lemma/pos, genre; blank line between
    sentences."""
    return "".join("".join(f"{s}\t{a}\t{g}\n" for s, a, g in sent) + "\n"
                   for sent in sentences)


def _truth_text(triples) -> str:
    return "".join(f"{voc}\t{lemma}\t{pos}\n" for voc, lemma, pos in triples)


def _genre(flags: Flag) -> str:
    return flag_names(flags)[0]


def _gold_sentences() -> list[list[tuple[str, str, str]]]:
    """``tests/data/gold.tsv`` as sentences of (surface, ana, genre)."""
    with open(DATA / "gold.tsv", encoding="utf-8") as f:
        return [[(t.surface, t.ana, t.genre) for t in sent]
                for sent in load_gold(f)]


def _triples(lex):
    """(surface, (voc, lemma, pos), genre) for every licensed
    prefix+stem+suffix combination, in lexicon load order.  Computed from
    the lexicon tables and compatibility pairs alone, not by the analyzer."""
    pres = [e for bucket in lex.prefixes.values() for e in bucket]
    sufs = [e for bucket in lex.suffixes.values() for e in bucket]
    stems = [e for bucket in lex.stems.values() for e in bucket]
    out = []
    for a in pres:
        for b in stems:
            for c in sufs:
                if compatible(lex.compat, a.cat, b.cat, c.cat):
                    parts = (a, b, c)
                    out.append((a.surface + b.surface + c.surface,
                                ("+".join(p.voc for p in parts if p.voc),
                                 b.lemma, b.head_tag()),
                                _genre(a.flags & b.flags & c.flags
                                       or b.flags)))
    return out


def _affixes_by_stem_cat(lex):
    """Stem category -> licensed (prefix, suffix) entry pairs."""
    pres = [e for bucket in lex.prefixes.values() for e in bucket]
    sufs = [e for bucket in lex.suffixes.values() for e in bucket]
    cats = sorted({e.cat for bucket in lex.stems.values() for e in bucket})
    return {cat: [(a, c) for a in pres for c in sufs
                  if compatible(lex.compat, a.cat, cat, c.cat)]
            for cat in cats}


def _candidates(rng: random.Random, out: Path) -> dict:
    """A wordlist of new stems for the import/merge batch, plus the
    reviewer's accept/reject decision for each row."""
    rows, marks = [], []
    for i in range(CANDIDATES):
        buck = "".join(rng.choice(CONSONANTS) for _ in range(rng.randint(3, 5)))
        rows.append(f"{buck_to_arabic(buck)}\tcandidate {i}\t"
                    f"{rng.choice('NA')}\n")
        marks.append("A" if rng.random() < ACCEPT_P else "R")
    _write(out / "candidates.tsv", "".join(rows))
    return {"wordlist": "candidates.tsv", "marks": "".join(marks),
            "import_flags": "MSA"}


def _docs_from_tokens(tokens, size, out: Path, prefix: str):
    """Split (arabic, truth, genre) tokens into documents of ``size``
    tokens; write each as text plus a truth file and a gold file."""
    docs = []
    for n, start in enumerate(range(0, len(tokens), size)):
        chunk = tokens[start:start + size]
        name = f"{prefix}-{n:04d}"
        lines = [" ".join(t[0] for t in chunk[i:i + 12])
                 for i in range(0, len(chunk), 12)]
        _write(out / f"{name}.txt", "\n".join(lines) + "\n")
        _write(out / f"{name}.truth", _truth_text(t[1] for t in chunk))
        _write(out / f"{name}.gold", _gold_text(
            [[(t[0], "/".join(t[1]), t[2]) for t in chunk]]))
        docs.append(name)
    return docs


def gen_long_doc(rng: random.Random, out: Path) -> dict:
    """The toy corpus, its lines seed-shuffled within each of 500 copies,
    as one document, with gold aligned token by token."""
    gold = [t for sent in _gold_sentences() for t in sent]
    lines = []
    pos = 0
    for line in (DATA / "toy_corpus.txt").read_text(encoding="utf-8").splitlines():
        toks = [t.surface for t in tokenize(line)]
        if not toks or (not lines and toks[0] != gold[0][0]):
            continue                 # blank lines and the title line
        sent = gold[pos:pos + len(toks)]
        if [g[0] for g in sent] != toks:
            raise SystemExit(f"toy corpus line {line!r} does not align "
                             "with tests/data/gold.tsv")
        lines.append((line, sent))
        pos += len(toks)
    text_lines, sentences = [], []
    for _ in range(LONG_DOC_COPIES):
        order = lines[:]
        rng.shuffle(order)
        for line, sent in order:
            text_lines.append(line)
            sentences.append(sent)
    _write(out / "long-0000.txt", "\n".join(text_lines) + "\n")
    _write(out / "long-0000.gold", _gold_text(sentences))
    return {"docs": ["long-0000"], "truth": False,
            "lexicon": str(BUNDLED_LEXICON), "flags": "MSA,CA",
            "rules": str(BUNDLED_RULES), "freq": str(DATA / "freq.tsv"),
            "lm": None, "normalize_alif": False}


def gen_many_docs(rng: random.Random, out: Path) -> dict:
    """Every licensed prefix+stem+suffix surface of the bundled lexicon,
    seed-shuffled into documents of 100 tokens."""
    lex = load_lexicon_dir(BUNDLED_LEXICON)
    tokens = [(buck_to_arabic(s), truth, genre)
              for s, truth, genre in _triples(lex)]
    rng.shuffle(tokens)
    return {"docs": _docs_from_tokens(tokens, DOC_TOKENS, out, "many"),
            "truth": True, "lexicon": str(BUNDLED_LEXICON), "flags": "all",
            "rules": str(BUNDLED_RULES), "freq": str(DATA / "freq.tsv"),
            "lm": None, "normalize_alif": False}


def _expand_stems(rng: random.Random, lex) -> list[str]:
    """Stem rows made by substituting seeded consonants into the bundled
    stems of three letters or more, taken in turn, each with a fresh lemma
    id and all nine flags.  Taking templates in turn (not at random) keeps
    the mix of categories and ambiguity the same for every seed."""
    templates = [e for bucket in lex.stems.values() for e in bucket
                 if len(e.surface) >= 3
                 and any(ch in CONSONANTS for ch in e.surface)]
    rows = []
    for i in range(BIG_STEMS):
        t = templates[i % len(templates)]
        mapping = {ch: rng.choice(CONSONANTS) for ch in CONSONANTS}
        surface = "".join(mapping.get(ch, ch) for ch in t.surface)
        voc = "".join(mapping.get(ch, ch) for ch in t.voc)
        # Keep the template's POS annotation shape but rewrite its voc.
        pos = voc + t.pos[len(t.voc):] if t.pos.startswith(t.voc) else t.pos
        rows.append("\t".join([surface, voc, t.cat,
                               f"generated {i} <pos>{pos}</pos>",
                               f"g{i}_1", ""]))
    return rows


def gen_big_lexicon(rng: random.Random, out: Path) -> dict:
    """A 30k-stem seeded expansion of the bundled lexicon, a frequency
    table with a row per generated lemma, an LM trained on a generated gold
    corpus, and documents drawn Zipf-wise from the expanded lexicon."""
    lexdir = out / "lexicon"
    lexdir.mkdir(parents=True)
    for name in LEXICON_FILES:
        if name != "stems.tsv":
            shutil.copyfile(BUNDLED_LEXICON / name, lexdir / name)
    base = load_lexicon_dir(BUNDLED_LEXICON)
    stems_text = ((BUNDLED_LEXICON / "stems.tsv").read_text(encoding="utf-8")
                  + "".join(r + "\n" for r in _expand_stems(rng, base)))
    _write(lexdir / "stems.tsv", stems_text)
    lex = load_lexicon_dir(lexdir)

    affixes = _affixes_by_stem_cat(lex)
    by_lemma = {e.lemma: e for bucket in lex.stems.values() for e in bucket}
    stems = [by_lemma[f"g{i}_1"] for i in range(BIG_STEMS)]
    stems = [e for e in stems if affixes[e.cat]]
    weights, acc = [], 0.0
    for r in range(len(stems)):
        # Zipf-Mandelbrot: rank r has weight 1/(r + 10), so no single
        # generated stem holds more than about 1% of the tokens.
        acc += 1.0 / (r + 10)
        weights.append(acc)

    def draw(n):
        out_tokens = []
        for b in rng.choices(stems, cum_weights=weights, k=n):
            a, c = rng.choice(affixes[b.cat])
            parts = (a, b, c)
            out_tokens.append((
                buck_to_arabic(a.surface + b.surface + c.surface),
                ("+".join(p.voc for p in parts if p.voc), b.lemma,
                 b.head_tag()),
                _genre(b.flags)))
        return out_tokens

    freq = {}
    for r, s in enumerate(stems):
        key = (s.lemma, s.head_tag())
        freq[key] = freq.get(key, 0) + max(1, 100_000 // (r + 1))
    gold = draw(LM_GOLD_TOKENS)
    sentences = [[t[1][1:] for t in gold[i:i + 10]]
                 for i in range(0, len(gold), 10)]
    _write(out / "model.lm", serialize_lm(train_lm(sentences, freq, 0.7)))
    return {"docs": _docs_from_tokens(draw(BIG_DOCS * DOC_TOKENS), DOC_TOKENS,
                                      out, "big"),
            "truth": True, "lexicon": str(lexdir), "flags": "all",
            "rules": str(BUNDLED_RULES), "freq": None,
            "lm": str(out / "model.lm"), "normalize_alif": True}


def gen_review_cycle(rng: random.Random, out: Path) -> dict:
    """Gold sentences resampled into documents of about 200 tokens, with
    the tokens a reviewer will fix: when such a token's default reading is
    wrong and a note holds the gold reading, the reviewer marks that note
    ed="correct".  The benchmark analyzes these texts once, untimed, to
    make the annotated XML the review cycle starts from."""
    sentences = _gold_sentences()
    docs = []
    for n in range(REVIEW_DOCS):
        doc_sents, count = [], 0
        while count < REVIEW_DOC_TOKENS:
            sent = rng.choice(sentences)
            doc_sents.append(sent)
            count += len(sent)
        name = f"review-{n:04d}"
        _write(out / f"{name}.txt",
               "\n".join(" ".join(t[0] for t in s) for s in doc_sents) + "\n")
        _write(out / f"{name}.gold", _gold_text(doc_sents))
        _write(out / f"{name}.fix", "".join(
            "1" if rng.random() < REVIEW_MARK_P else "0"
            for _ in range(count)) + "\n")
        docs.append(name)
    return {"docs": docs, "truth": False, "lexicon": str(BUNDLED_LEXICON),
            "flags": "all", "rules": str(BUNDLED_RULES),
            "freq": str(DATA / "freq.tsv"), "lm": None,
            "normalize_alif": False}


GENERATORS = {"long-doc": gen_long_doc, "many-docs": gen_many_docs,
              "big-lexicon": gen_big_lexicon, "review-cycle": gen_review_cycle}


def generate(workload: str, seed: int, out: Path) -> dict:
    """Write one workload's inputs into ``out`` and return its manifest."""
    out.mkdir(parents=True, exist_ok=True)
    # One stream per purpose, so resizing one input leaves the others as
    # they were for the same seed.
    manifest = GENERATORS[workload](random.Random(f"{workload}/{seed}"), out)
    manifest.update(_candidates(random.Random(f"candidates/{seed}"), out))
    manifest.update(workload=workload, seed=seed)
    _write(out / "manifest.json", json.dumps(manifest, indent=1))
    return manifest


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    generate(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
