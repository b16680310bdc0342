import io
import os
import random
import shutil
import stat
import subprocess
import sys
from pathlib import Path

import pytest

from arabmorph.cli import _parse_cli_flags, _read_text, main
from arabmorph.disambig import BOS, load_lm, train_lm, load_freq_table
from arabmorph.evaluation import load_gold
from arabmorph.lexicon import (ALL_FLAGS, Flag, classical_preset,
                               load_lexicon_dir, load_review, Status)
from arabmorph.textio import atomic_write

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


def test_analyze_with_a_lambda_but_no_model_exits_2(tmp_path, capsys):
    assert main(_analyze_args(_write_phrase(tmp_path),
                              **{"lambda": "0.3"})) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == ("arabmorph: error: lambda weighs a language model's "
                       "trigram side and is used only with one (--lm)\n")


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


def test_a_translit_codepoint_past_the_unicode_range_exits_2(tmp_path,
                                                             capsys):
    table = tmp_path / "t.tsv"
    table.write_text("U+110000\tx\n", encoding="utf-8")
    assert main(["analyze", _write_phrase(tmp_path), "--flags", "all",
                 "--translit-table", str(table)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == (f"arabmorph: error: {table}:1: bad codepoint "
                       "'U+110000'\n")


@pytest.mark.parametrize("name,codepoint", [("a\x1fb.txt", "U+001F"),
                                            ("a\udcffb.txt", "U+DCFF")])
def test_analyze_of_a_file_name_xml_cannot_carry_exits_2(tmp_path, capsys,
                                                         name, codepoint):
    """A file name with a control character, or with the byte 0xFF,
    which the file system's encoding gives as a lone surrogate."""
    path = _write_phrase(tmp_path, name=name)
    assert main(["analyze", path, "--flags", "all"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == (f"arabmorph: error: source holds {codepoint}, which "
                       "XML 1.0 cannot carry\n")


def test_a_lexicon_row_xml_cannot_carry_exits_2_at_load(tmp_path, capsys):
    lexdir = tmp_path / "lexicon"
    shutil.copytree(DATA.parent.parent / "src" / "arabmorph" / "data"
                    / "lexicon", lexdir)
    stems = lexdir / "stems.tsv"
    lines = stems.read_text(encoding="utf-8").splitlines(keepends=True)
    lineno = next(i for i, line in enumerate(lines, 1)
                  if line.startswith("ktb\tkutub\t"))
    lines[lineno - 1] = lines[lineno - 1].replace("kitAb_1", "kitAb\x01_1")
    stems.write_text("".join(lines), encoding="utf-8")
    path = _write_phrase(tmp_path)
    assert main(["analyze", path, "--flags", "all",
                 "--lexicon", str(lexdir)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == (f"arabmorph: error: {stems}:{lineno}: lemma holds "
                       "U+0001, which XML 1.0 cannot carry\n")


def test_analyze_reads_presentation_forms_and_zwnj_inside_words(tmp_path,
                                                                capsys):
    path = _write_phrase(tmp_path, "\ufedb\ufe98\ufe90 \u0643\u062a\u0628"
                         " \u0643\u062a\u0628\u200c\u0628")
    assert main(["analyze", path, "--flags", "all", "--format", "tsv"]) == 0
    out = capsys.readouterr()
    rows = [line.split("\t") for line in out.out.splitlines()]
    forms = [ana for word, ana in rows if word == "\ufedb\ufe98\ufe90"]
    assert forms == [ana for word, ana in rows if word == "\u0643\u062a\u0628"]
    assert forms
    assert "3 tokens, 2 types, 1 unknown" in out.err


def test_an_arabic_letter_outside_the_table_stays_inside_one_unknown_word(
        tmp_path, capsys):
    # Persian pe (U+067E) between beh and kaf
    path = _write_phrase(tmp_path, "\u0628\u067e\u0643")
    assert main(["analyze", path, "--flags", "all", "--format", "tsv"]) == 0
    out = capsys.readouterr()
    assert out.out == "\u0628\u067e\u0643\tUNK//UNK\n"
    assert "1 tokens, 1 types, 1 unknown" in out.err


def test_analyze_writes_text_to_a_stdout_without_a_byte_buffer(
        tmp_path, capsys, monkeypatch):
    stdout = io.StringIO()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(_analyze_args(_write_phrase(tmp_path))) == 0
    assert stdout.getvalue() == GOLDEN


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


def test_analyze_with_an_empty_flag_set_exits_2(tmp_path, capsys):
    path = _write_phrase(tmp_path)
    assert main(["analyze", path, "--flags", ",", "--format", "tsv"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == ("arabmorph: error: analysis requires a non-empty "
                       "flag set\n")


def test_analyze_rejects_freq_with_lm_before_reading_either(tmp_path, capsys):
    missing = str(tmp_path / "absent")
    path = _write_phrase(tmp_path)
    assert main(["analyze", path, "--flags", "MSA", "--lm", missing + ".lm",
                 "--freq", missing + ".tsv"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("arabmorph: error: a frequency table is used "
                              "only without a language model")
    assert "Traceback" not in out.err


# --- the exit code on bad input -------------------------------------------------

NOT_UTF8 = b"\xff\xfe"
LEXICON = Path(__file__).parents[1] / "src" / "arabmorph" / "data" / "lexicon"
TABLE = LEXICON.parent / "buckwalter.tsv"


def _error_lines(err):
    return [line for line in err.splitlines()
            if line.startswith("arabmorph: error:")]


def test_analyze_non_utf8_input_exits_2_naming_it(tmp_path, capsys,
                                                  monkeypatch):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(NOT_UTF8)
    assert main(["analyze", str(bad), "--flags", "all"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == (f"arabmorph: error: {bad}: not UTF-8 text "
                       "(invalid start byte)\n")

    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(NOT_UTF8),
                                                      encoding="utf-8"))
    assert main(["analyze", "-", "--flags", "all"]) == 2
    assert capsys.readouterr().err == ("arabmorph: error: <stdin>: not UTF-8 "
                                       "text (invalid start byte)\n")


@pytest.mark.parametrize("option", ["--lm", "--rules"])
def test_analyze_non_utf8_resource_exits_2_naming_it(tmp_path, capsys,
                                                     option):
    bad = tmp_path / "bad.res"
    bad.write_bytes(b"# a comment\n" + NOT_UTF8 + b"\n")
    assert main(["analyze", _write_phrase(tmp_path), "--flags", "all",
                 option, str(bad)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert _error_lines(out.err) == [
        f"arabmorph: error: {bad}: not UTF-8 text (invalid start byte)"]


def test_the_command_line_reports_non_utf8_input_without_a_traceback(
        tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(NOT_UTF8)
    src = Path(__file__).parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "arabmorph.cli", "analyze", str(bad),
         "--flags", "all"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert _error_lines(proc.stderr) == proc.stderr.splitlines()
    assert len(proc.stderr.splitlines()) == 1


def test_stdin_is_strict_utf8_under_a_c_locale(tmp_path):
    src = Path(__file__).parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src), "LC_ALL": "C"}
    env.pop("PYTHONIOENCODING", None)
    env.pop("PYTHONUTF8", None)

    def analyze(source, stdin=b""):
        return subprocess.run(
            [sys.executable, "-m", "arabmorph.cli", "analyze", source,
             "--flags", "all", "--format", "tsv"],
            input=stdin, capture_output=True, timeout=60, env=env)

    proc = analyze("-", NOT_UTF8)
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert proc.stderr.decode().splitlines() == [
        "arabmorph: error: <stdin>: not UTF-8 text (invalid start byte)"]

    crlf = "مع كاتب\r\nكتاب.\rمع\r\n".encode("utf-8")
    path = tmp_path / "crlf.txt"
    path.write_bytes(crlf)
    from_stdin, from_file = analyze("-", crlf), analyze(str(path))
    assert from_stdin.returncode == from_file.returncode == 0
    assert from_stdin.stdout == from_file.stdout != b""
    assert from_stdin.stderr == from_file.stderr


@pytest.mark.parametrize("command", [
    ["analyze", "{text}", "--flags", "all", "--format", "tsv"],
    ["analyze", "{text}", "--flags", "all"],
    ["correct", "{xml}"],
])
def test_output_is_utf8_whatever_the_locale(tmp_path, command):
    src = Path(__file__).parents[1] / "src"
    xml = tmp_path / "in.xml"
    xml.write_text(GOLDEN, encoding="utf-8")
    argv = [arg.format(text=_write_phrase(tmp_path), xml=xml)
            for arg in command]

    def run(encoding):
        return subprocess.run(
            [sys.executable, "-m", "arabmorph.cli", *argv],
            capture_output=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(src),
                 "PYTHONIOENCODING": encoding})

    latin, utf8 = run("latin-1"), run("utf-8")
    assert latin.returncode == utf8.returncode == 0
    assert b"Traceback" not in latin.stderr
    assert latin.stdout == utf8.stdout
    assert "كاتب" in utf8.stdout.decode("utf-8")


def test_atomic_write_leaves_no_temp_file_when_the_write_fails(tmp_path):
    target = tmp_path / "out.tsv"
    with pytest.raises(UnicodeEncodeError):
        atomic_write(target, "ok\n\ud800\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002], ids=oct)
def test_atomic_write_gives_a_new_file_the_mode_open_would(tmp_path, umask):
    old = os.umask(umask)
    try:
        atomic_write(tmp_path / "new.tsv", "text\n")
        atomic_write(tmp_path / "sub" / "new.marshal", b"bytes")
        with open(tmp_path / "opened.tsv", "w", encoding="utf-8"):
            pass
    finally:
        os.umask(old)
    modes = {stat.S_IMODE(os.stat(path).st_mode)
             for path in (tmp_path / "new.tsv", tmp_path / "sub" / "new.marshal",
                          tmp_path / "opened.tsv")}
    assert modes == {0o666 & ~umask}


@pytest.mark.parametrize("mode", [0o640, 0o604, 0o755], ids=oct)
def test_atomic_write_keeps_the_mode_of_the_file_it_replaces(tmp_path, mode):
    target = tmp_path / "out.tsv"
    target.write_text("old\n", encoding="utf-8")
    target.chmod(mode)
    atomic_write(target, "new\n")
    assert target.read_text(encoding="utf-8") == "new\n"
    assert stat.S_IMODE(os.stat(target).st_mode) == mode


def test_atomic_write_keeps_only_the_permission_bits_of_a_replaced_file(
        tmp_path):
    target = tmp_path / "out.tsv"
    target.write_text("old\n", encoding="utf-8")
    target.chmod(0o4755)
    if not stat.S_IMODE(os.stat(target).st_mode) & stat.S_ISUID:
        pytest.skip("this file system keeps no set-user-ID bit")
    atomic_write(target, "new\n")
    assert stat.S_IMODE(os.stat(target).st_mode) == 0o755


def test_python_dash_m_arabmorph_runs_the_command_line():
    def run(*argv):
        return subprocess.run(
            [sys.executable, "-m", "arabmorph", *argv], capture_output=True,
            timeout=60, env={**os.environ, "PYTHONPATH": str(
                Path(__file__).parents[1] / "src")})

    helped = run("--help")
    assert helped.returncode == 0
    assert b"usage: arabmorph" in helped.stdout
    for bad in (["--no-such-option"], ["analyze", "--flags", "NOPE", "-"]):
        proc = run(*bad)
        assert proc.returncode == 2
        assert b"Traceback" not in proc.stderr
        assert proc.stderr.startswith(b"usage: arabmorph") or \
            proc.stderr.startswith(b"arabmorph: error:")


def test_stdin_text_equals_a_files_whatever_stdin_was_set_up_with(
        tmp_path, monkeypatch):
    crlf = "مع كاتب\r\nكتاب.\rمع\r\n".encode("utf-8")
    path = tmp_path / "crlf.txt"
    path.write_bytes(crlf)
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(
        io.BytesIO(crlf), encoding="latin-1", newline=""))
    assert _read_text("-") == _read_text(str(path)) == \
        "مع كاتب\nكتاب.\nمع\n"


# Each command's arguments with a well-formed input in every file slot.
COMMANDS = {
    "analyze": ["analyze", "{text}", "--flags", "MSA", "--lexicon",
                "{lexicon}", "--rules", "{rules}", "--freq", "{freq}",
                "--translit-table", "{table}"],
    "analyze --lm": ["analyze", "{text}", "--flags", "MSA", "--lm", "{lm}"],
    "correct": ["correct", "{xml}"],
    "train-lm": ["train-lm", "{gold}", "--freq", "{freq}",
                 "--output", "{out}/model.lm"],
    "eval": ["eval", "{xml}", "{eval_gold}", "--lexicon", "{lexicon}"],
    "import --tei": ["import", "--tei", "{tei}", "--flags", "CA", "--dedup",
                     "--lexicon", "{lexicon}", "--output", "{out}/r.tsv"],
    "import --wordlist": ["import", "--wordlist", "{wordlist}", "--flags",
                          "ICA", "--output", "{out}/r.tsv"],
    "merge": ["merge", "{review}", "--lexicon", "{lexicon}",
              "--output", "{out}/merged"],
}

# One malformed input of each kind a slot reads; a lexicon directory gets
# the text as one more line of the named file.
MALFORMED = {
    "text": {},
    "lexicon": {"lexicon row": ("stems.tsv", "ktb\n"),
                "compat pair": ("compat_ab.tsv", "N\n")},
    "rules": {"rule": "DROP pos=V\n"},
    "freq": {"freq row": "kitAb_1\tN\n"},
    "lm": {"LM": "arabmorph-lm\t9\n"},
    "table": {"translit row": "U+0639\n"},
    "xml": {"TEI": '<text><w ana="x">'},
    "gold": {"gold row": "مع\tmaEa\tMSA\n"},
    "eval_gold": {"gold row": "مع\tmaEa\tMSA\n"},
    "tei": {"TEI": "<TEI><entry>"},
    "wordlist": {"wordlist row": "ktb\n"},
    "review": {"review file": "X\tjAmd\tjAmid\tN\n"},
}


def _inputs(tmp_path):
    """A well-formed file for every slot, and the output directory."""
    d = tmp_path / "in"
    d.mkdir()
    lm = d / "model.lm"
    main(["train-lm", str(DATA / "gold.tsv"), "--output", str(lm)])
    eval_gold = d / "eval_gold.tsv"      # aligned with the golden XML
    eval_gold.write_text("مع\tmaEa/maEa_1/PREP\tMSA\n"
                         "كاتب\tkAtib/kAtib_1/N\tMSA\n", encoding="utf-8")
    xml = d / "system.xml"
    xml.write_text(GOLDEN, encoding="utf-8")
    review = d / "review.tsv"
    review.write_text("#! kind=stem\tsource=x\n"
                      "A\tjAmd\tjAmid\tN\tcool\tjAmid_1\tICA\n",
                      encoding="utf-8")
    return {"text": _write_phrase(d), "lexicon": LEXICON,
            "rules": RULES, "freq": DATA / "freq.tsv", "lm": lm,
            "table": TABLE, "xml": xml, "gold": DATA / "gold.tsv",
            "eval_gold": eval_gold, "tei": DATA / "tei_dict.xml",
            "wordlist": DATA / "wordlist.tsv", "review": review,
            "out": tmp_path / "out"}


def _argv(command, inputs):
    return [arg.format(**{k: str(v) for k, v in inputs.items()})
            for arg in COMMANDS[command]]


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_every_command_succeeds_on_well_formed_inputs(tmp_path, capsys,
                                                      command):
    assert main(_argv(command, _inputs(tmp_path))) == 0
    assert _error_lines(capsys.readouterr().err) == []


_BAD_INPUTS = [(command, slot, kind)
               for command, args in sorted(COMMANDS.items())
               for slot in MALFORMED if "{%s}" % slot in " ".join(args)
               for kind in [*MALFORMED[slot], "non-UTF-8", "missing file"]]


@pytest.mark.parametrize("command,slot,kind", _BAD_INPUTS)
def test_every_command_exits_2_with_one_error_line_on_bad_input(
        tmp_path, capsys, command, slot, kind):
    inputs = _inputs(tmp_path)
    capsys.readouterr()
    inputs[slot] = named = bad = tmp_path / f"bad-{slot}"
    if slot == "lexicon" and kind != "missing file":
        shutil.copytree(LEXICON, bad)
        name, line = MALFORMED[slot].get(kind, ("stems.tsv", None))
        named = bad / name
        if line is None:
            named.write_bytes(NOT_UTF8)
        else:
            with open(named, "a", encoding="utf-8") as f:
                f.write(line)
    elif kind == "non-UTF-8":
        bad.write_bytes(NOT_UTF8)
    elif kind != "missing file":
        bad.write_text(MALFORMED[slot][kind], encoding="utf-8")
    assert main(_argv(command, inputs)) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = _error_lines(err)
    assert len(lines) == 1
    if kind in ("non-UTF-8", "missing file"):
        assert str(named) in lines[0]


# Every command as the fresh-process test runs it: analyze in both
# formats, and eval writing its TSV report too.
FRESH_COMMANDS = {
    **COMMANDS, "analyze --format tsv": COMMANDS["analyze"] + ["--format",
                                                               "tsv"],
    "eval": COMMANDS["eval"] + ["--tsv", "{out}/report.tsv"]}


def _outputs(out):
    """The bytes of every file under ``out``, by relative path."""
    return {p.relative_to(out): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("command", sorted(FRESH_COMMANDS))
def test_every_command_in_a_fresh_process_writes_what_main_writes(
        tmp_path, capsysbinary, command):
    # A module that a command imports inside its function fails to load
    # only in a process that has not imported it yet.
    inputs = _inputs(tmp_path)
    in_process, fresh = ([arg.format(**{**inputs, "out": tmp_path / out})
                          for arg in FRESH_COMMANDS[command]]
                         for out in ("a", "b"))
    capsysbinary.readouterr()
    assert main(in_process) == 0
    expected = capsysbinary.readouterr().out
    proc = subprocess.run(
        [sys.executable, "-m", "arabmorph", *fresh],
        capture_output=True, timeout=60, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).parents[1]
                                             / "src")})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected
    assert _outputs(tmp_path / "b") == _outputs(tmp_path / "a")
    assert expected or _outputs(tmp_path / "a")


@pytest.mark.parametrize("value,flags", [
    ("msa", Flag.MSA), ("Msa,,ca, ", Flag.MSA | Flag.CA),
    ("all,classical", ALL_FLAGS), ("ClAsSiCaL", classical_preset()),
    ("classical,msa", classical_preset() | Flag.MSA),
    ("xram_ne, All", ALL_FLAGS), (" , ,", Flag(0))])
def test_cli_flags_mix_presets_and_names_in_any_case(value, flags):
    assert _parse_cli_flags(value) == flags


def test_an_unknown_lexicon_flag_names_its_row(tmp_path, capsys):
    lexdir = tmp_path / "lex"
    shutil.copytree(LEXICON, lexdir)
    stems = lexdir / "stems.tsv"
    rows = stems.read_text(encoding="utf-8").count("\n")
    with open(stems, "a", encoding="utf-8") as f:
        f.write("ktAb\tkitAb\tN\tbook\tkitAb_1\tMSA|BOGUS\n")
    code = main(["analyze", _write_phrase(tmp_path), "--flags", "MSA",
                 "--lexicon", str(lexdir)])
    assert code == 2
    assert f"stems.tsv:{rows + 1}: unknown flag 'BOGUS'" in \
        capsys.readouterr().err


def test_an_unknown_review_flag_names_its_line(tmp_path, capsys):
    review = tmp_path / "review.tsv"
    review.write_text("#! kind=stem\tsource=x\n"
                      "A\tjAmd\tjAmid\tN\tcool\tjAmid_1\tICA|BOGUS\n",
                      encoding="utf-8")
    assert main(["merge", str(review), "--output", str(tmp_path / "out")]) == 2
    assert "review.tsv:2: unknown flag 'BOGUS'" in capsys.readouterr().err


@pytest.mark.parametrize("source,text", [
    ("--tei", "<TEI><entry><orth>كِتاب</orth><sense>book</sense></entry>"
              "<entry><orth>جامد</orth><sense>cool</sense></entry></TEI>"),
    ("--wordlist", "كِتاب\tbook\tN\nجامد\tcool\tN\n")],
    ids=["tei", "wordlist"])
def test_import_dedup_rejects_what_the_lexicon_holds_from_either_source(
        tmp_path, capsys, source, text):
    infile = tmp_path / "in"
    infile.write_text(text, encoding="utf-8")
    review = tmp_path / "review.tsv"
    for dedup, statuses in (([], [Status.PENDING] * 2),
                            (["--dedup"], [Status.REJECTED, Status.PENDING])):
        assert main(["import", source, str(infile), "--flags", "CA",
                     "--output", str(review), *dedup]) == 0
        batch = load_review(io.StringIO(review.read_text(encoding="utf-8")))
        assert [c.entry.voc for c in batch.candidates] == ["kitAb", "jAmd"]
        assert [c.status for c in batch.candidates] == statuses
    capsys.readouterr()


@pytest.mark.parametrize("source,extra,message", [
    ("--tei", ["--kind", "prefix"],
     "a TEI dictionary import makes stems; --kind is used only with "
     "--wordlist"),
    ("--wordlist", ["--lexicon", "/nonexistent"],
     "import reads a lexicon only to reject the candidates it holds; "
     "--lexicon needs --dedup")], ids=["kind", "lexicon"])
def test_an_import_option_that_would_change_nothing_exits_2(
        tmp_path, capsys, source, extra, message):
    infile = DATA / ("tei_dict.xml" if source == "--tei" else "wordlist.tsv")
    review = tmp_path / "review.tsv"
    argv = ["import", source, str(infile), "--flags", "CA",
            "--output", str(review)]
    assert main(argv + extra) == 2
    assert capsys.readouterr().err == f"arabmorph: error: {message}\n"
    assert not review.exists()
    # Without the option, either source makes stems.
    assert main(argv) == 0
    assert "#! kind=stem\t" in review.read_text(encoding="utf-8")
    capsys.readouterr()


def _accept_all(review):
    text = review.read_text(encoding="utf-8")
    review.write_text(text.replace("\nP\t", "\nA\t"), encoding="utf-8")


def test_a_tei_sense_over_two_lines_merges_and_reads_back(tmp_path, capsys):
    tei = tmp_path / "dict.xml"
    tei.write_text("<TEI><entry><orth>قلم</orth><sense>pen,\n"
                   "      reed pen</sense></entry></TEI>", encoding="utf-8")
    review = tmp_path / "review.tsv"
    assert main(["import", "--tei", str(tei), "--flags", "CA",
                 "--output", str(review)]) == 0
    _accept_all(review)
    outdir = tmp_path / "merged"
    assert main(["merge", str(review), "--output", str(outdir)]) == 0
    capsys.readouterr()
    [entry] = [e for e in load_lexicon_dir(outdir).stems["qlm"]
               if e.lemma == "qlm_1"]
    assert entry.gloss == "pen, reed pen"


def test_a_wordlist_gloss_ending_in_a_pos_annotation_is_refused(tmp_path,
                                                                capsys):
    wordlist = tmp_path / "w.tsv"
    wordlist.write_text("# new words\nقلم\tpen <pos>x/N</pos>\tN\n",
                        encoding="utf-8")
    review = tmp_path / "review.tsv"
    assert main(["import", "--wordlist", str(wordlist), "--flags", "CA",
                 "--output", str(review)]) == 2
    assert "w.tsv:2: gloss 'pen <pos>x/N</pos>'" in capsys.readouterr().err
    assert not review.exists()


def test_an_import_word_with_a_letter_outside_the_table_is_reported(
        tmp_path, capsys):
    # Persian pe (U+067E) would stay in the row as itself, which could not
    # be written back in Arabic script.  A wordlist row is refused; a TEI
    # entry that gives no row is skipped, as every such entry is, with a
    # warning that names it and why.
    review = tmp_path / "review.tsv"

    def arabmorph_import(*args):
        return subprocess.run(
            [sys.executable, "-m", "arabmorph", "import", *args, "--flags",
             "CA", "--output", str(review)],
            capture_output=True, timeout=60, encoding="utf-8",
            env={**os.environ, "PYTHONPATH": str(Path(__file__).parents[1]
                                                 / "src")})

    wordlist = tmp_path / "w.tsv"
    wordlist.write_text("قلم\tpen\tN\nپك\tx\tN\n", encoding="utf-8")
    proc = arabmorph_import("--wordlist", str(wordlist))
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [
        "arabmorph: error: w.tsv:2: 'پك' holds U+067E, which the "
        "transliteration table lacks"]
    assert not review.exists()
    tei = tmp_path / "dict.xml"
    tei.write_text("<TEI><entry><orth>پك</orth><sense>x</sense>"
                   "</entry><entry><orth>قلم</orth><sense>pen</sense>"
                   "</entry></TEI>", encoding="utf-8")
    assert main(["import", "--tei", str(tei), "--flags", "CA",
                 "--output", str(review)]) == 0
    assert "1 candidates (1 skipped)" in capsys.readouterr().err
    proc = arabmorph_import("--tei", str(tei))
    assert proc.returncode == 0
    assert proc.stderr.splitlines() == [
        "dict.xml: entry 1 'پك': 'پك' holds U+067E, which the "
        "transliteration table lacks; skipped",
        "dict.xml: skipped 1 entries without a usable headword or gloss",
        f"1 candidates (1 skipped) -> {review}"]
    with open(review, encoding="utf-8") as f:
        assert [c.entry.surface for c in load_review(f).candidates] == ["qlm"]
