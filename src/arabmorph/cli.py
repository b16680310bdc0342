"""Command-line entry point: argument parsing and output over the library.

``analyze`` resolves its options (and ``$ARABMORPH_LEXICON``) into a
``pipeline.PipelineConfig``, runs the pipeline and writes TEI or TSV;
``correct`` applies reviewer corrections to annotated XML; ``train-lm``,
``eval``, ``import`` and ``merge`` wrap the corresponding module
operations.  Every produced artifact is written atomically (temp file,
then rename), since review files and lexicons are hand-edited downstream.
"""

from __future__ import annotations

import argparse
import io
import os
import sys
from pathlib import Path

from . import __version__
from .analyzer import had_diacritics
from .disambig import (DEFAULT_LAMBDA, LmError, RuleError, load_freq_table,
                       serialize_lm, train_lm)
from .lexicon import (ALL_FLAGS, Flag, Kind, LexiconError, classical_preset,
                      flag_names, load_lexicon_dir, load_review,
                      import_tei_dictionary, import_wordlist, merge_reviewed,
                      parse_flagset, reject_known, save_review,
                      serialize_lexicon)
from .pipeline import Pipeline, PipelineConfig
from .teixml import (UNKNOWN_ANA, TeiError, apply_corrections, doc_from_ranked,
                     emit_tei, parse_tei)
from .textio import (EncodingError, atomic_write, decoding, open_utf8,
                     read_with)
from .translit import TranslitError

ENV_LEXICON = "ARABMORPH_LEXICON"

_ERRORS = (LexiconError, RuleError, LmError, TeiError, TranslitError,
           EncodingError)


def default_lexicon_dir() -> Path:
    return Path(__file__).parent / "data" / "lexicon"


def _resolve_lexicon_dir(arg: str | None) -> Path:
    if arg:
        return Path(arg)
    env = os.environ.get(ENV_LEXICON)
    if env:
        return Path(env)
    return default_lexicon_dir()


_FLAG_PRESETS = {"ALL": ALL_FLAGS, "CLASSICAL": classical_preset()}


def _parse_cli_flags(value: str) -> Flag:
    """Comma-separated flag names and presets (``_FLAG_PRESETS``), any
    case; empty names are skipped."""
    mask = Flag(0)
    for token in filter(None, map(str.strip, value.split(","))):
        mask |= _FLAG_PRESETS.get(token.upper()) or parse_flagset([token])
    return mask


def _read_text(path: str) -> str:
    if path == "-":
        # Strict UTF-8 whatever the locale, with a file's newline handling.
        with io.TextIOWrapper(sys.stdin.buffer, encoding="utf-8") as f, \
                decoding("<stdin>"):
            return f.read()
    with open_utf8(path) as f:
        return f.read()


def _write_stdout(text: str) -> None:
    """Write ``text`` to stdout as UTF-8 whatever the locale; a stdout
    without a byte buffer, such as an ``io.StringIO``, takes the text."""
    buffer = getattr(sys.stdout, "buffer", None)
    if buffer is None:
        sys.stdout.write(text)
    else:
        sys.stdout.flush()
        buffer.write(text.encode("utf-8"))


def _add_lexicon_opts(p: argparse.ArgumentParser) -> None:
    p.add_argument("--lexicon", metavar="DIR",
                   help="lexicon directory (default: $%s or the bundled "
                        "toy lexicon)" % ENV_LEXICON)


def _load_pipeline(args) -> Pipeline:
    """The pipeline that ``analyze``'s options and the environment name."""
    return PipelineConfig(lexicon_dir=_resolve_lexicon_dir(args.lexicon),
                          flags=_parse_cli_flags(args.flags),
                          rules_path=args.rules, lm_path=args.lm,
                          freq_path=args.freq, lam=args.lam,
                          normalize_alif=args.normalize_alif,
                          translit_table=args.translit_table).load()


def cmd_analyze(args) -> int:
    pipeline = _load_pipeline(args)
    table = pipeline.table
    text = _read_text(args.input)
    tokens, cache, ranked = pipeline.run(text)

    if args.format == "tei":
        source = "-" if args.input == "-" else Path(args.input).name
        doc = doc_from_ranked(ranked, source=source,
                              flags="|".join(flag_names(pipeline.config.flags)))
        _write_stdout(emit_tei(doc))
    else:
        lines = []
        for rec in ranked:
            if had_diacritics(rec.token, table):
                lines.append(f"# diacritics stripped: {rec.token.surface}")
            if rec.unknown:
                lines.append(f"{rec.token.surface}\t{UNKNOWN_ANA}")
            else:
                for analysis, _score in rec.ranked:
                    lines.append(f"{rec.token.surface}\t{analysis.ana}")
        _write_stdout("".join(line + "\n" for line in lines))

    unknown = sum(1 for r in ranked if r.unknown)
    print(f"{len(tokens)} tokens, {len(cache)} types, {unknown} unknown, "
          f"cache hit rate {cache.hit_rate:.1%}", file=sys.stderr)
    return 0


def cmd_correct(args) -> int:
    doc = apply_corrections(parse_tei(_read_text(args.input)))
    _write_stdout(emit_tei(doc))
    return 0


def cmd_train_lm(args) -> int:
    from .evaluation import load_gold

    sentences = read_with(load_gold, args.gold)
    freq = read_with(load_freq_table, args.freq) if args.freq else None
    tuples = [[tok.lemma_pos for tok in sent] for sent in sentences]
    model = train_lm(tuples, freq, args.lam)
    atomic_write(args.output, serialize_lm(model))
    print(f"trained on {sum(len(s) for s in tuples)} tokens in "
          f"{len(tuples)} sentences -> {args.output}", file=sys.stderr)
    return 0


def cmd_eval(args) -> int:
    from .evaluation import (evaluate, load_gold, readings_from_doc,
                             report_table, report_tsv)

    lex = load_lexicon_dir(_resolve_lexicon_dir(args.lexicon))
    doc = parse_tei(_read_text(args.system))
    gold = [tok for sent in read_with(load_gold, args.gold) for tok in sent]
    report = evaluate(readings_from_doc(doc), gold, lex)
    _write_stdout(report_table(report))
    if args.tsv:
        atomic_write(args.tsv, report_tsv(report))
    return 0


def cmd_import(args) -> int:
    # An option that would change nothing is refused, not ignored.
    if args.tei and args.kind:
        raise LexiconError("a TEI dictionary import makes stems; --kind is "
                           "used only with --wordlist")
    if args.lexicon and not args.dedup:
        raise LexiconError("import reads a lexicon only to reject the "
                           "candidates it holds; --lexicon needs --dedup")
    assign = _parse_cli_flags(args.flags)
    if args.tei:
        with open_utf8(args.tei) as f:
            batch = import_tei_dictionary(f, assign,
                                          source=Path(args.tei).name)
    else:
        with open_utf8(args.wordlist) as f:
            batch = import_wordlist(f, Kind(args.kind or "stem"), assign,
                                    source=Path(args.wordlist).name)
    if args.dedup:
        lexdir = _resolve_lexicon_dir(args.lexicon)
        reject_known(batch, load_lexicon_dir(lexdir))
    buf = io.StringIO()
    save_review(batch, buf)
    atomic_write(args.output, buf.getvalue())
    print(f"{len(batch.candidates)} candidates ({batch.skipped} skipped) "
          f"-> {args.output}", file=sys.stderr)
    return 0


def cmd_merge(args) -> int:
    lexdir = _resolve_lexicon_dir(args.lexicon)
    lex = load_lexicon_dir(lexdir)
    batch = read_with(load_review, args.review)
    merged = merge_reviewed(lex, batch)
    outdir = Path(args.output) if args.output else lexdir
    for name, text in serialize_lexicon(merged).items():
        atomic_write(outdir / name, text)
    print(f"lexicon now has {len(merged)} entries -> {outdir}",
          file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arabmorph",
        description="Genre-aware Arabic morphological analyzer and "
                    "TEI annotation toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="analyze a text file")
    p.add_argument("input", help="UTF-8 text file, or - for stdin")
    _add_lexicon_opts(p)
    p.add_argument("--flags", required=True, metavar="LIST",
                   help="comma-separated genre flags (also: all, classical)")
    p.add_argument("--rules", metavar="FILE", help="contextual drop rules")
    p.add_argument("--lm", metavar="FILE", help="trained language model")
    p.add_argument("--freq", metavar="FILE",
                   help="lemma/pos frequency table (used without --lm)")
    p.add_argument("--lambda", dest="lam", type=float, default=None,
                   metavar="X",
                   help="trigram interpolation weight in [0,1] (with --lm)")
    p.add_argument("--format", choices=("tei", "tsv"), default="tei")
    p.add_argument("--normalize-alif", action="store_true",
                   help="fold alif variants to bare alif before lookup")
    p.add_argument("--translit-table", metavar="FILE",
                   help="alternate transliteration table")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("correct", help="apply reviewer corrections to XML")
    p.add_argument("input", help="annotated XML file, or - for stdin")
    p.set_defaults(func=cmd_correct)

    p = sub.add_parser("train-lm", help="train the ranking model")
    p.add_argument("gold", help="gold corpus TSV")
    p.add_argument("--freq", metavar="FILE", help="frequency table TSV")
    p.add_argument("--lambda", dest="lam", type=float, default=DEFAULT_LAMBDA,
                   metavar="X")
    p.add_argument("--output", required=True, metavar="FILE")
    p.set_defaults(func=cmd_train_lm)

    p = sub.add_parser("eval", help="score a system run against gold")
    p.add_argument("system", help="annotated XML produced by analyze")
    p.add_argument("gold", help="gold corpus TSV")
    _add_lexicon_opts(p)
    p.add_argument("--tsv", metavar="FILE", help="also write the report as TSV")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("import", help="extract lexicon candidates for review")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--tei", metavar="FILE", help="TEI dictionary")
    src.add_argument("--wordlist", metavar="FILE",
                     help="surface<TAB>gloss<TAB>pos wordlist")
    p.add_argument("--kind", choices=[k.value for k in Kind],
                   help="entry kind for --wordlist (default: stem)")
    p.add_argument("--flags", required=True, metavar="LIST",
                   help="flags to assign to the candidates")
    p.add_argument("--dedup", action="store_true",
                   help="auto-reject candidates already in the lexicon")
    _add_lexicon_opts(p)
    p.add_argument("--output", required=True, metavar="FILE",
                   help="review file to write")
    p.set_defaults(func=cmd_import)

    p = sub.add_parser("merge", help="merge a reviewed candidate file")
    p.add_argument("review", help="review file with A/R statuses")
    _add_lexicon_opts(p)
    p.add_argument("--output", metavar="DIR",
                   help="write the merged lexicon here instead of in place")
    p.set_defaults(func=cmd_merge)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (*_ERRORS, OSError) as exc:
        print(f"arabmorph: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
