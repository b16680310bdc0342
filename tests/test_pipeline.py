import io
from pathlib import Path

from arabmorph.analyzer import analyze_text, tokenize
from arabmorph.cli import default_lexicon_dir, main
from arabmorph.disambig import apply_rules, empty_lm, parse_rules, rank
from arabmorph.lexicon import ALL_FLAGS, flag_names
from arabmorph.pipeline import PipelineConfig
from arabmorph.teixml import doc_from_ranked, emit_tei

DATA = Path(__file__).parent / "data"
RULES = default_lexicon_dir().parent / "rules.txt"


def test_library_run_emits_what_the_cli_prints(capsys):
    corpus = DATA / "toy_corpus.txt"
    config = PipelineConfig(lexicon_dir=default_lexicon_dir(),
                            flags=ALL_FLAGS, rules_path=str(RULES),
                            freq_path=str(DATA / "freq.tsv"))
    tokens, cache, ranked = config.load().run(
        corpus.read_text(encoding="utf-8"))
    xml = emit_tei(doc_from_ranked(ranked, source=corpus.name,
                                   flags="|".join(flag_names(ALL_FLAGS))))
    assert main(["analyze", str(corpus), "--flags", "all",
                 "--rules", str(RULES),
                 "--freq", str(DATA / "freq.tsv")]) == 0
    out = capsys.readouterr()
    assert out.out == xml
    assert f"{len(tokens)} tokens, {len(cache)} types," in out.err


def test_unknown_agrees_across_the_stages(lexicon, rules):
    # The extra rules would drop every reading of كاتب after قهوة; the
    # safeguard skips the last of them, so كاتب stays known.
    rules = rules + parse_rules(io.StringIO(
        "".join(f"DROP pos={pos} WHEN prev.surface=قهوة\n"
                for pos in ("V", "N", "A"))))
    analyzed = analyze_text(tokenize("قهوة كاتب"), lexicon, ALL_FLAGS)
    filtered = apply_rules(analyzed, rules)
    ranked = rank(filtered, empty_lm())
    assert len(filtered[1].analyses) == 1 and len(filtered[1].dropped) == 2
    for stage in (analyzed, filtered, ranked):
        assert [r.unknown for r in stage] == [True, False]
