import random
from pathlib import Path

import pytest

from arabmorph.cli import main
from arabmorph.disambig import BOS, load_lm, train_lm, load_freq_table
from arabmorph.evaluation import load_gold
from arabmorph.lexicon import load_lexicon_dir, load_review, Status

DATA = Path(__file__).parent / "data"
RULES = str(DATA.parent.parent / "src" / "arabmorph" / "data" / "rules.txt")
GOLDEN = (DATA / "golden_ma_katib.xml").read_text(encoding="utf-8")


def _write_phrase(tmp_path, text="مع كاتب", name="phrase.txt"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def _analyze_args(input_path, **extra):
    args = ["analyze", input_path, "--flags", "MSA",
            "--rules", RULES, "--freq", str(DATA / "freq.tsv")]
    for key, value in extra.items():
        args += [f"--{key.replace('_', '-')}", value]
    return args


def test_analyze_emits_the_golden_xml(tmp_path, capsys):
    assert main(_analyze_args(_write_phrase(tmp_path))) == 0
    out = capsys.readouterr()
    assert out.out == GOLDEN
    assert "2 tokens, 2 types, 0 unknown" in out.err


def test_analyze_empty_file(tmp_path, capsys):
    assert main(_analyze_args(_write_phrase(tmp_path, ""))) == 0
    out = capsys.readouterr()
    assert "<body/>" in out.out
    assert "0 tokens" in out.err


def test_analyze_tsv_format(tmp_path, capsys):
    path = _write_phrase(tmp_path, "مع كاتبٍ قهوة")
    assert main(_analyze_args(path, format="tsv")) == 0
    out = capsys.readouterr()
    lines = out.out.splitlines()
    assert lines[0] == "مع\tmaEa/maEa_1/PREP"
    assert "# diacritics stripped: كاتبٍ" in lines
    assert "كاتبٍ\tkAtib/kAtib_1/N" in lines
    assert "قهوة\tUNK//UNK" in lines
    assert "1 unknown" in out.err


def test_analyze_rejects_unknown_flag(tmp_path, capsys):
    path = _write_phrase(tmp_path)
    code = main(["analyze", path, "--flags", "NOPE"])
    assert code == 2
    err = capsys.readouterr().err
    assert "NOPE" in err and "CA" in err and "FNE" in err


def test_analyze_missing_input_fails_cleanly(tmp_path, capsys):
    code = main(_analyze_args(str(tmp_path / "absent.txt")))
    assert code == 2
    assert "absent.txt" in capsys.readouterr().err


def test_analyze_classical_preset_excludes_msa_only_vocabulary(tmp_path, capsys):
    # jadiyd is MSA-only, so the classical preset cannot analyze it
    path = _write_phrase(tmp_path, "جديد")
    assert main(["analyze", path, "--flags", "classical",
                 "--format", "tsv"]) == 0
    out = capsys.readouterr()
    assert "UNK//UNK" in out.out
    assert "1 unknown" in out.err


def test_correct_promotes_marked_note(tmp_path, capsys):
    marked = GOLDEN.replace('<note ana="kAtib/kAtib_2/A"/>',
                            '<note ana="kAtib/kAtib_2/A" ed="correct"/>')
    path = tmp_path / "marked.xml"
    path.write_text(marked, encoding="utf-8")
    assert main(["correct", str(path)]) == 0
    out = capsys.readouterr().out
    assert '<w ana="kAtib/kAtib_2/A">' in out
    assert '<note ana="kAtib/kAtib_1/N"/>' in out
    assert 'ed="correct"' not in out

    # applying the transform again is the identity
    path.write_text(out, encoding="utf-8")
    assert main(["correct", str(path)]) == 0
    assert capsys.readouterr().out == out


def test_correct_without_marks_is_identity(tmp_path, capsys):
    path = tmp_path / "plain.xml"
    path.write_text(GOLDEN, encoding="utf-8")
    assert main(["correct", str(path)]) == 0
    assert capsys.readouterr().out == GOLDEN


def test_train_lm_writes_a_model_that_reloads_to_equal_scores(tmp_path, capsys):
    model_path = tmp_path / "toy.lm"
    assert main(["train-lm", str(DATA / "gold.tsv"),
                 "--freq", str(DATA / "freq.tsv"),
                 "--lambda", "0.7", "--output", str(model_path)]) == 0
    with open(DATA / "gold.tsv", encoding="utf-8") as f:
        sentences = load_gold(f)
    with open(DATA / "freq.tsv", encoding="utf-8") as f:
        freq = load_freq_table(f)
    reference = train_lm([[t.lemma_pos for t in s] for s in sentences],
                         freq, 0.7)
    with open(model_path, encoding="utf-8") as f:
        reloaded = load_lm(f)
    assert reloaded == reference
    rng = random.Random(99)
    vocab = sorted(reference.vocab)
    for _ in range(20):
        ctx = (rng.choice(vocab + [BOS]), rng.choice(vocab + [BOS]))
        cand = rng.choice(vocab)
        assert reloaded.score(ctx, cand) == reference.score(ctx, cand)


def test_analyze_with_trained_lm(tmp_path, capsys):
    model_path = tmp_path / "toy.lm"
    main(["train-lm", str(DATA / "gold.tsv"), "--freq", str(DATA / "freq.tsv"),
          "--output", str(model_path)])
    capsys.readouterr()
    path = _write_phrase(tmp_path)
    assert main(["analyze", path, "--flags", "MSA", "--rules", RULES,
                 "--lm", str(model_path)]) == 0
    out = capsys.readouterr().out
    assert '<w ana="kAtib/kAtib_1/N">' in out
    assert '<note ana="kAtib/kAtib_2/A"/>' in out


def test_eval_perfect_run_scores_hundred(tmp_path, capsys):
    phrase = _write_phrase(tmp_path)
    assert main(_analyze_args(phrase)) == 0
    system_xml = capsys.readouterr().out
    system_path = tmp_path / "system.xml"
    system_path.write_text(system_xml, encoding="utf-8")
    gold_path = tmp_path / "gold.tsv"
    gold_path.write_text("مع\tmaEa/maEa_1/PREP\tMSA\n"
                         "كاتب\tkAtib/kAtib_1/N\tMSA\n", encoding="utf-8")
    tsv_path = tmp_path / "report.tsv"
    assert main(["eval", str(system_path), str(gold_path),
                 "--tsv", str(tsv_path)]) == 0
    out = capsys.readouterr().out
    assert "100.00" in out
    tsv = tsv_path.read_text(encoding="utf-8")
    assert "top-ranked\tprecision\t100.00" in tsv
    assert "top-ranked\terror-rate\t0.00" in tsv
    assert "unknown\tMSA\t0.00" in tsv


def test_import_tei_fixture_produces_three_review_rows(tmp_path, capsys):
    review = tmp_path / "review.tsv"
    assert main(["import", "--tei", str(DATA / "tei_dict.xml"),
                 "--flags", "CA", "--dedup", "--output", str(review)]) == 0
    err = capsys.readouterr().err
    assert "3 candidates (1 skipped)" in err
    with open(review, encoding="utf-8") as f:
        batch = load_review(f, str(review))
    assert [c.status for c in batch.candidates] == \
        [Status.REJECTED, Status.PENDING, Status.REJECTED]
    assert [c.entry.surface for c in batch.candidates] == \
        ["ktAb", "dynAr", "qmr"]


def test_import_wordlist_then_merge_roundtrip(tmp_path, capsys):
    review = tmp_path / "review.tsv"
    assert main(["import", "--wordlist", str(DATA / "wordlist.tsv"),
                 "--flags", "ICA", "--kind", "stem",
                 "--output", str(review)]) == 0
    capsys.readouterr()

    # reviewer accepts the first two candidates, rejects the third
    text = review.read_text(encoding="utf-8")
    lines = text.splitlines()
    statuses = iter(["A", "A", "R"])
    edited = [("%s\t" % next(statuses)) + line.partition("\t")[2]
              if not line.startswith("#") else line for line in lines]
    review.write_text("\n".join(edited) + "\n", encoding="utf-8")

    outdir = tmp_path / "merged"
    assert main(["merge", str(review), "--output", str(outdir)]) == 0
    capsys.readouterr()
    merged = load_lexicon_dir(outdir)
    base = load_lexicon_dir(Path(__file__).parents[1] / "src" / "arabmorph"
                            / "data" / "lexicon")
    assert len(merged) == len(base) + 2
    assert merged.stems["jAmd"][0].gloss.startswith("cool")

    # merging the same review again changes nothing
    assert main(["merge", str(review), "--lexicon", str(outdir),
                 "--output", str(outdir)]) == 0
    capsys.readouterr()
    assert len(load_lexicon_dir(outdir)) == len(merged)


def test_merge_refuses_pending_rows(tmp_path, capsys):
    review = tmp_path / "review.tsv"
    assert main(["import", "--wordlist", str(DATA / "wordlist.tsv"),
                 "--flags", "ICA", "--output", str(review)]) == 0
    capsys.readouterr()
    assert main(["merge", str(review), "--output", str(tmp_path / "out")]) == 2
    assert "Pending" in capsys.readouterr().err


def test_analyze_classical_unknown_count_matches_brute_force(capsys, lexicon):
    from arabmorph.analyzer import token_lookup_key, tokenize
    from arabmorph.lexicon import classical_preset
    from oracles import brute_force_analyses

    corpus = DATA / "toy_corpus.txt"
    assert main(["analyze", str(corpus), "--flags", "classical",
                 "--rules", RULES, "--format", "tsv"]) == 0
    err = capsys.readouterr().err
    reported = int(err.split(" unknown")[0].rsplit(", ", 1)[1])

    preset = classical_preset()
    text = corpus.read_text(encoding="utf-8")
    expected = sum(
        1 for t in tokenize(text)
        if not brute_force_analyses(token_lookup_key(t), lexicon, preset))
    assert reported == expected
    assert reported > 0


def test_lexicon_env_var_is_used_and_cli_flag_wins(tmp_path, capsys,
                                                   monkeypatch):
    phrase = _write_phrase(tmp_path)
    monkeypatch.setenv("ARABMORPH_LEXICON", str(tmp_path / "no-such-dir"))
    assert main(_analyze_args(phrase)) == 2
    assert "no-such-dir" in capsys.readouterr().err

    bundled = str(Path(__file__).parents[1] / "src" / "arabmorph"
                  / "data" / "lexicon")
    assert main(_analyze_args(phrase, lexicon=bundled)) == 0
    assert capsys.readouterr().out == GOLDEN


def test_analyze_with_a_malformed_lm_exits_2(tmp_path, capsys):
    model_path = tmp_path / "bad.lm"
    assert main(["train-lm", str(DATA / "gold.tsv"),
                 "--output", str(model_path)]) == 0
    text = model_path.read_text(encoding="utf-8")
    lines = text.splitlines(keepends=True)
    assert lines[2].startswith("vocab\t")
    lines[2] = "vocab\tX\n"
    model_path.write_text("".join(lines), encoding="utf-8")
    capsys.readouterr()
    assert main(["analyze", _write_phrase(tmp_path), "--flags", "MSA",
                 "--lm", str(model_path)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert f"{model_path}:3: bad vocab size 'X'" in out.err
    assert "Traceback" not in out.err


@pytest.mark.parametrize("lam", ["3", "nan"])
def test_analyze_with_a_lambda_outside_the_unit_interval_exits_2(
        tmp_path, capsys, lam):
    assert main(_analyze_args(_write_phrase(tmp_path), **{"lambda": lam})) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("arabmorph: error: lambda must be in [0, 1]")


def test_surface_rules_match_the_key_under_the_pipeline_table(tmp_path,
                                                              capsys):
    """With ع mapped to c, مع has the lookup key mc, not the default mE."""
    default = (DATA.parent.parent / "src" / "arabmorph" / "data"
               / "buckwalter.tsv").read_text(encoding="utf-8")
    assert "U+0639\tE\n" in default
    table = tmp_path / "c.tsv"
    table.write_text(default.replace("U+0639\tE\n", "U+0639\tc\n"),
                     encoding="utf-8")
    phrase = _write_phrase(tmp_path)
    for key, verb_kept in (("mc", False), ("mE", True)):
        rules = tmp_path / f"{key}.txt"
        rules.write_text(f"DROP pos=V WHEN prev.surface={key}\n",
                         encoding="utf-8")
        assert main(["analyze", phrase, "--flags", "MSA", "--format", "tsv",
                     "--translit-table", str(table),
                     "--rules", str(rules)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "كاتب\tkAtib/kAtib_1/N" in lines
        assert ("كاتب\tkAtab+a/kAtab_1/V" in lines) == verb_kept


def test_merge_with_a_bad_review_kind_exits_2(tmp_path, capsys):
    review = tmp_path / "review.tsv"
    review.write_text("#! kind=bogus\tsource=x\n"
                      "A\tjAmd\tjAmid\tN\tcool\tjAmid_1\tICA\n",
                      encoding="utf-8")
    outdir = tmp_path / "out"
    assert main(["merge", str(review), "--output", str(outdir)]) == 2
    err = capsys.readouterr().err
    assert f"{review}:1: bad kind 'bogus'" in err
    assert "Traceback" not in err
    assert not outdir.exists()
