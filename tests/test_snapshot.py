"""The marshal snapshot behind ``load_lexicon_dir`` and the language-model
load of ``PipelineConfig.load``: a hit gives exactly what the text parse
gives, and a changed source, a damaged snapshot or a directory that cannot
hold one falls back to the text parse."""

import gc
import io
import logging
import marshal
import os
import shutil
import subprocess
import sys
import tempfile
import weakref
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from arabmorph.analyzer import analyze_type
from arabmorph.cli import default_lexicon_dir
from arabmorph.disambig import LmError, load_lm, serialize_lm, train_lm
from arabmorph.lexicon import (ALL_FLAGS, LEXICON_FILES, Candidate,
                               CompatTables, Flag, Kind, LexEntry, Lexicon,
                               LexiconError, ReviewBatch, Status,
                               import_wordlist, load_lexicon,
                               classical_preset, load_lexicon_dir,
                               merge_reviewed, serialize_lexicon)
from arabmorph.pipeline import PipelineConfig
from arabmorph import lexicon, snapshot
from arabmorph.snapshot import snapshot_path
from arabmorph.textio import read_with, utf8_lines
from arabmorph.translit import buck_to_arabic, normalize

from test_lexicon import _entries

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).parents[1] / "src"

HIT, WRITTEN, NOT_WRITTEN = ("snapshot hit", "snapshot miss, written",
                             "snapshot miss, not written")


def _logged(caplog, load):
    """``load()``, the snapshot outcomes it logged and its warnings."""
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="arabmorph"):
        result = load()
    outcomes = [r.getMessage().partition(":")[0] for r in caplog.records
                if r.name == "arabmorph.snapshot"]
    warnings = [r.getMessage() for r in caplog.records
                if r.levelno == logging.WARNING]
    return result, outcomes, warnings


def _text_lexicon(path):
    """The text parse of the lexicon in ``path``, with no snapshot."""
    names = [str(Path(path) / n) for n in LEXICON_FILES]
    lines = [utf8_lines(n) for n in names]
    return load_lexicon(*lines[:3], tuple(lines[3:]), filenames=names)


def _store(lex):
    """Every bucket key and every entry's fields, in order, with the type
    of its flags."""
    return [[(key, [(*(getattr(e, f) for f in e.__slots__), type(e.flags))
                    for e in bucket]) for key, bucket in table.items()]
            for table in lex.tables.values()]


def _assert_same_lexicon(restored, text):
    assert _store(restored) == _store(text)
    assert restored.compat == text.compat
    assert {type(pairs) for pairs in (restored.compat.ab, restored.compat.bc,
                                      restored.compat.ac)} == {frozenset}
    assert serialize_lexicon(restored) == serialize_lexicon(text)


def _bundled_copy(path):
    shutil.copytree(default_lexicon_dir(), path,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return path


def test_a_hit_gives_the_bundled_lexicon_the_text_parse_gives(tmp_path,
                                                             caplog):
    lexdir = _bundled_copy(tmp_path / "lex")
    text, outcomes, warned = _logged(caplog, lambda: load_lexicon_dir(lexdir))
    assert outcomes == [WRITTEN]
    restored, outcomes, warned_again = _logged(
        caplog, lambda: load_lexicon_dir(lexdir))
    assert outcomes == [HIT]
    assert warned_again == warned
    _assert_same_lexicon(restored, text)
    _assert_same_lexicon(restored, _text_lexicon(lexdir))


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_entries(Kind.STEM), st.lists(_entries(), max_size=12))
def test_a_hit_gives_a_generated_lexicon_the_text_parse_gives(caplog, stem,
                                                             entries):
    lex = Lexicon(CompatTables(
        ab=frozenset({("Pref-Al", "N"), ("Pref-Unused", "N")}),
        bc=frozenset({("N", "Suff-0")}), ac=frozenset()))
    for entry in [stem] + entries:
        lex.add(entry)
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in serialize_lexicon(lex).items():
            Path(tmp, name).write_text(text, encoding="utf-8")
        text, outcomes, warned = _logged(caplog, lambda: load_lexicon_dir(tmp))
        assert outcomes == [WRITTEN]
        restored, outcomes, warned_again = _logged(
            caplog, lambda: load_lexicon_dir(tmp))
    assert outcomes == [HIT]
    assert any("'Pref-Unused'" in w for w in warned)
    assert warned_again == warned
    _assert_same_lexicon(restored, text)
    assert list(restored.entries()) == list(lex.entries())


def _unbuilt_stems(lex):
    """The stem keys of a restored lexicon whose buckets no reader has
    built yet: those whose value is still the bucket's text."""
    return [key for key, bucket in lex._tables[Kind.STEM].items()
            if type(bucket) is str]


def _assert_partly_read_lexicon_agrees(restored, text, batch):
    """A restored lexicon that analysis has read in part gives what the
    text parse gives: its rows, written before any reader builds them all;
    its size and (lemma, tag) pairs; a merge; an add of a new key, then an
    add that collapses into a bucket not yet built, after which its table
    order, size, pairs and rows agree; and at the end every bucket."""
    unbuilt = _unbuilt_stems(restored)
    assert unbuilt                      # the run read only some buckets
    assert serialize_lexicon(restored) == serialize_lexicon(text)
    assert len(restored) == len(text)
    assert restored.known_lemma_pos() == text.known_lemma_pos()
    assert _unbuilt_stems(restored) == unbuilt
    assert serialize_lexicon(merge_reviewed(restored, batch)) == \
        serialize_lexicon(merge_reviewed(text, batch))
    assert _unbuilt_stems(restored) == unbuilt   # the merge read a copy
    surface = "Z" * (1 + max(map(len, text.stems)))     # no stem key yet
    new = LexEntry(Kind.STEM, surface, surface, "N", "new", f"{surface}/N",
                   f"{surface}_1", Flag.CA)
    assert restored.add(new) is text.add(new) is True
    key = unbuilt[-1]
    wider = replace(text.stems[key][0], flags=ALL_FLAGS)
    assert restored.add(wider) is text.add(wider) is False
    assert key not in _unbuilt_stems(restored)
    assert len(restored) == len(text)
    assert restored.known_lemma_pos() == text.known_lemma_pos()
    assert serialize_lexicon(restored) == serialize_lexicon(text)
    assert list(restored.stems) == list(text.stems)
    _assert_same_lexicon(restored, text)


def _assert_hidden_stems_read_as_the_text_parse(hit, text):
    """Every stem surface and its alif-folded form looks up in ``hit``, a
    lexicon restored from a snapshot, as in the text parse, under three
    flag sets with folding on and off, and analyzes the same under
    ``classical_preset()`` with folding.  The flag sets hide stem rows,
    and some stem keys whole, as the view reads them."""
    surfaces = list(text.stems)
    queries = surfaces + [normalize(s, fold_alif=True) for s in surfaces]
    for active in (ALL_FLAGS, classical_preset(), Flag.MSA):
        for fold_alif in (False, True):
            for query in queries:
                assert hit.lookup(query, Kind.STEM, active, fold_alif) == \
                    text.lookup(query, Kind.STEM, active, fold_alif)
    assert [analyze_type(q, hit, classical_preset(), True)
            for q in queries] == \
        [analyze_type(q, text, classical_preset(), True) for q in queries]


def _collapsing(text, key):
    """An accepted candidate that a merge collapses by flag union into the
    first row of ``key``'s bucket."""
    return Candidate(replace(text.stems[key][0], flags=ALL_FLAGS),
                     Status.ACCEPTED)


def test_a_partly_read_bundled_lexicon_gives_what_the_text_parse_gives(
        tmp_path, caplog):
    lexdir = _bundled_copy(tmp_path / "lex")
    load_lexicon_dir(lexdir)
    pipeline, outcomes, _ = _logged(caplog, lambda: PipelineConfig(
        lexicon_dir=lexdir, flags=ALL_FLAGS).load())
    assert outcomes == [HIT]
    pipeline.run("مع كاتب جامد والكتاب")
    text = _text_lexicon(lexdir)
    with open(DATA / "wordlist.tsv", encoding="utf-8") as f:
        batch = import_wordlist(f, Kind.STEM, Flag.ICA)
    for cand in batch.candidates:
        cand.status = Status.ACCEPTED
    batch.candidates.append(_collapsing(text, _unbuilt_stems(
        pipeline.lexicon)[0]))
    _assert_hidden_stems_read_as_the_text_parse(load_lexicon_dir(lexdir),
                                                text)
    _assert_partly_read_lexicon_agrees(pipeline.lexicon, text, batch)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(_entries(Kind.STEM), min_size=2, max_size=8),
       st.lists(_entries(), max_size=8),
       st.lists(_entries(Kind.STEM), max_size=3), st.data())
def test_a_partly_read_generated_lexicon_gives_what_the_text_parse_gives(
        caplog, stems, entries, accepted, data):
    lex = Lexicon(CompatTables(
        ab=frozenset({("Pref-Al", "N"), ("Pref-Al", "PV")}),
        bc=frozenset({("N", "Suff-0"), ("PV", "NSuff-ap")}),
        ac=frozenset({("Pref-Al", "Suff-0"), ("Pref-Al", "NSuff-ap")})))
    for entry in stems + entries:
        lex.add(entry)
    keys = list(lex.stems)
    read = data.draw(st.lists(st.sampled_from(keys), max_size=3))
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in serialize_lexicon(lex).items():
            Path(tmp, name).write_text(text, encoding="utf-8")
        load_lexicon_dir(tmp)
        pipeline, outcomes, _ = _logged(caplog, lambda: PipelineConfig(
            lexicon_dir=Path(tmp), flags=ALL_FLAGS).load())
        text = _text_lexicon(tmp)
        again, again_outcomes, _ = _logged(caplog,
                                           lambda: load_lexicon_dir(tmp))
    assert outcomes == again_outcomes == [HIT]
    _assert_hidden_stems_read_as_the_text_parse(again, text)
    pipeline.run(" ".join(map(buck_to_arabic, read)))
    unbuilt = _unbuilt_stems(pipeline.lexicon)
    if not unbuilt:
        return                  # the run read every bucket
    batch = ReviewBatch([Candidate(e, Status.ACCEPTED) for e in accepted]
                        + [_collapsing(text, unbuilt[0])])
    _assert_partly_read_lexicon_agrees(pipeline.lexicon, text, batch)


def test_a_hit_builds_the_entries_of_only_the_stems_a_run_reads(tmp_path):
    lexdir = _bundled_copy(tmp_path / "lex")
    load_lexicon_dir(lexdir)                  # writes the snapshot
    config = PipelineConfig(lexicon_dir=lexdir, flags=ALL_FLAGS)

    def alive():
        gc.collect()
        return sum(type(obj) is LexEntry for obj in gc.get_objects())

    before = alive()
    pipeline = config.load()
    pipeline.run("كاتب")
    assert alive() - before < len(pipeline.lexicon)


class _CountingWalks(dict):
    """A stem table that counts the walks over its items."""

    walks = 0

    def items(self):
        self.walks += 1
        return super().items()


def test_the_stem_table_is_walked_until_every_bucket_is_built(tmp_path):
    lexdir = _bundled_copy(tmp_path / "lex")
    load_lexicon_dir(lexdir)                  # writes the snapshot

    def counting(lex):
        lex._tables[Kind.STEM] = _CountingWalks(lex._tables[Kind.STEM])
        return lex._tables[Kind.STEM]

    lex = load_lexicon_dir(lexdir)
    assert _unbuilt_stems(lex)
    table = counting(lex)
    for _ in range(3):
        assert lex.stems is lex.table(Kind.STEM) is lex.tables[Kind.STEM]
        assert sum(1 for _ in lex.entries()) == len(lex)
    assert table.walks == 1
    assert not _unbuilt_stems(lex)
    rows = [(key, list(bucket)) for key, bucket in lex.stems.items()]
    # A copy of a lexicon with every bucket built has them all built too;
    # a copy taken before the walk builds its own on its first.
    clone = lex.copy()
    table = counting(clone)
    assert [(key, list(bucket)) for key, bucket in clone.stems.items()
            ] == rows
    assert table.walks == 1             # the comparison's own
    unread = load_lexicon_dir(lexdir).copy()
    assert _unbuilt_stems(unread)
    table = counting(unread)
    assert [(key, list(bucket)) for key, bucket in unread.stems.items()
            ] == rows
    assert table.walks == 2 and not _unbuilt_stems(unread)


def test_a_dropped_pipeline_frees_its_lexicon_without_the_collector(
        tmp_path):
    lexdir = _bundled_copy(tmp_path / "lex")
    load_lexicon_dir(lexdir)                  # writes the snapshot
    pipeline = PipelineConfig(lexicon_dir=lexdir, flags=ALL_FLAGS,
                              normalize_alif=True).load()
    pipeline.run("مع كاتب جامد والكتاب")
    lexicon = weakref.ref(pipeline.lexicon)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del pipeline
        assert lexicon() is None
    finally:
        if enabled:
            gc.enable()


def _write_lm(path, freq, gold_sentences):
    tuples = [[t.lemma_pos for t in sent] for sent in gold_sentences]
    path.write_text(serialize_lm(train_lm(tuples, freq=freq, lam=0.7)),
                    encoding="utf-8")
    return path


def _config(lexdir, lm, **kw):
    return PipelineConfig(lexicon_dir=lexdir, flags=ALL_FLAGS,
                          lm_path=str(lm), **kw)


def test_a_hit_gives_the_model_the_text_parse_gives(tmp_path, caplog, freq,
                                                    gold_sentences):
    lexdir = _bundled_copy(tmp_path / "lex")
    lm = _write_lm(tmp_path / "model.lm", freq, gold_sentences)
    first, outcomes, _ = _logged(caplog, lambda: _config(lexdir, lm).load())
    assert outcomes == [WRITTEN, WRITTEN]
    again, outcomes, _ = _logged(caplog, lambda: _config(lexdir, lm).load())
    assert outcomes == [HIT, HIT]
    text = read_with(load_lm, lm)
    for model in (first.model, again.model):
        assert model == text
        assert [list(t) for t in (model.trigram, model.bigram, model.unigram,
                                  model.freq)] == \
            [list(t) for t in (text.trigram, text.bigram, text.unigram,
                               text.freq)]
        assert (model.total, model.vocab, model.freq_total, model.v1,
                model.contextual) == (text.total, text.vocab, text.freq_total,
                                      text.v1, text.contextual)
        assert serialize_lm(model) == lm.read_text(encoding="utf-8")
        keys = [*model.unigram, *model.freq, *model.vocab,
                *(t for key in [*model.bigram, *model.trigram] for t in key)]
        assert len({id(t) for t in keys}) == len(set(keys))
    assert _config(lexdir, lm, lam=0.25).load().model == \
        replace(text, lam=0.25)


def _edit_one_byte(path):
    """Change the last character of the category in the first data row of
    a lexicon or compat file, or the last digit of an LM's last line."""
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    if path.suffix == ".lm":
        i, col = len(lines) - 1, -1
    else:
        i = next(i for i, line in enumerate(lines)
                 if line.strip() and not line.startswith("#"))
        col = 0 if path.name.startswith("compat") else 2
    fields = lines[i].rstrip("\n").split("\t")
    last = fields[col][-1]
    fields[col] = fields[col][:-1] + ("Z" if last.isalpha() and last != "Z"
                                      else "Y" if last == "Z"
                                      else "8" if last == "9" else "9")
    lines[i] = "\t".join(fields) + "\n"
    path.write_text("".join(lines), encoding="utf-8")


@pytest.mark.parametrize("name", LEXICON_FILES)
def test_a_one_byte_edit_to_a_lexicon_file_gives_the_text_result(
        tmp_path, caplog, name):
    lexdir = _bundled_copy(tmp_path / "lex")
    before = load_lexicon_dir(lexdir)
    _edit_one_byte(lexdir / name)
    after, outcomes, _ = _logged(caplog, lambda: load_lexicon_dir(lexdir))
    assert outcomes == [WRITTEN]
    _assert_same_lexicon(after, _text_lexicon(lexdir))
    assert (serialize_lexicon(after), after.compat) != \
        (serialize_lexicon(before), before.compat)
    _, outcomes, _ = _logged(caplog, lambda: load_lexicon_dir(lexdir))
    assert outcomes == [HIT]


def test_a_one_byte_edit_to_the_model_gives_the_text_result(
        tmp_path, caplog, freq, gold_sentences):
    lexdir = _bundled_copy(tmp_path / "lex")
    lm = _write_lm(tmp_path / "model.lm", freq, gold_sentences)
    before = _config(lexdir, lm).load().model
    _edit_one_byte(lm)
    after, outcomes, _ = _logged(caplog, lambda: _config(lexdir, lm).load())
    assert outcomes == [HIT, WRITTEN]
    assert after.model == read_with(load_lm, lm) != before


def test_a_snapshot_written_by_other_code_is_passed_over(tmp_path, caplog,
                                                        monkeypatch):
    lexdir = _bundled_copy(tmp_path / "lex")
    load_lexicon_dir(lexdir)
    code_digest = snapshot._code_digest()
    monkeypatch.setattr(snapshot, "_code_digest", lambda: b"other code")
    _, outcomes, _ = _logged(caplog, lambda: load_lexicon_dir(lexdir))
    assert outcomes == [WRITTEN]
    monkeypatch.setattr(snapshot, "_code_digest", lambda: code_digest)
    for outcome in (WRITTEN, HIT):
        _, outcomes, _ = _logged(caplog, lambda: load_lexicon_dir(lexdir))
        assert outcomes == [outcome]


def test_a_source_that_no_longer_parses_raises_with_its_place(
        tmp_path, freq, gold_sentences):
    lexdir = _bundled_copy(tmp_path / "lex")
    lm = _write_lm(tmp_path / "model.lm", freq, gold_sentences)
    _config(lexdir, lm).load()
    stems = lexdir / "stems.tsv"
    n_lines = len(stems.read_text(encoding="utf-8").splitlines())
    with stems.open("a", encoding="utf-8") as f:
        f.write("broken\n")
    with pytest.raises(LexiconError, match=f"^{stems}:{n_lines + 1}: "):
        load_lexicon_dir(lexdir)
    stems.write_text(stems.read_text(encoding="utf-8").replace("broken\n", ""),
                     encoding="utf-8")
    lines = lm.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[-1] = lines[-1].rsplit("\t", 1)[0] + "\tx\n"
    lm.write_text("".join(lines), encoding="utf-8")
    with pytest.raises(LmError, match=f"^{lm}:{len(lines)}: bad freq count"):
        _config(lexdir, lm).load()


def _garbage(data):
    return b"\x00 not a snapshot"


def _truncated(data):
    return data[:len(data) // 2]


def _other_digest(data):
    key, payload = marshal.loads(data)
    return marshal.dumps((bytes(len(key)), payload))


def _wrong_shape(data):
    key, _ = marshal.loads(data)
    return marshal.dumps((key, (1, 2)))


def _tables_as_tuples(data):
    """The payload with its tables as tuples, under the right key: a
    lexicon's bucket dicts as the (keys, sizes, rows) columns that earlier
    code stored, a model's count dicts as tuples of their items."""
    key, payload = marshal.loads(data)
    *head, last = payload
    if type(last) is list:                      # a lexicon's kinds
        payload = (*head, [(list(table), [text.count("\n") + 1
                                          for text in table.values()],
                            "\n".join(table.values()).split("\n"))
                           for table in last])
    else:
        payload = tuple(tuple(part.items()) if type(part) is dict else part
                        for part in payload)
    return marshal.dumps((key, payload))


@pytest.mark.parametrize("damage", [_garbage, _truncated, _other_digest,
                                    _wrong_shape, _tables_as_tuples])
def test_a_damaged_snapshot_falls_back_to_the_text_load_and_is_rewritten(
        tmp_path, caplog, freq, gold_sentences, damage):
    lexdir = _bundled_copy(tmp_path / "lex")
    lm = _write_lm(tmp_path / "model.lm", freq, gold_sentences)
    _config(lexdir, lm).load()
    for snap in (snapshot_path(lexdir, "lexicon"),
                 snapshot_path(tmp_path, "model.lm")):
        snap.write_bytes(damage(snap.read_bytes()))
    loaded, outcomes, _ = _logged(caplog, lambda: _config(lexdir, lm).load())
    assert outcomes == [WRITTEN, WRITTEN]
    _assert_same_lexicon(loaded.lexicon, _text_lexicon(lexdir))
    assert loaded.model == read_with(load_lm, lm)
    _, outcomes, _ = _logged(caplog, lambda: _config(lexdir, lm).load())
    assert outcomes == [HIT, HIT]


def test_a_source_that_changes_during_the_parse_leaves_no_snapshot(
        tmp_path, caplog, monkeypatch):
    lexdir = _bundled_copy(tmp_path / "lex")
    parse = lexicon.load_lexicon

    def parse_then_edit(*args, **kwargs):
        lex = parse(*args, **kwargs)
        with (lexdir / "stems.tsv").open("a", encoding="utf-8") as f:
            f.write("# added during the parse\n")
        return lex

    monkeypatch.setattr(lexicon, "load_lexicon", parse_then_edit)
    lex, outcomes, _ = _logged(caplog, lambda: load_lexicon_dir(lexdir))
    assert outcomes == [NOT_WRITTEN]
    assert not snapshot_path(lexdir, "lexicon").exists()
    monkeypatch.undo()
    _assert_same_lexicon(lex, _text_lexicon(lexdir))
    _, outcomes, _ = _logged(caplog, lambda: load_lexicon_dir(lexdir))
    assert outcomes == [WRITTEN]


def test_snapshots_are_kept_beside_the_sources_whatever_the_bytecode_settings(
        tmp_path, caplog, monkeypatch):
    lexdir = _bundled_copy(tmp_path / "lex")
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.setattr(sys, "pycache_prefix", str(tmp_path / "prefix"))
    for outcome in (WRITTEN, HIT):
        _, outcomes, _ = _logged(caplog, lambda: load_lexicon_dir(lexdir))
        assert outcomes == [outcome]
    assert snapshot_path(lexdir, "lexicon").exists()
    assert not (tmp_path / "prefix").exists()


def _tree(root):
    return sorted(str(p.relative_to(root)) for p in Path(root).rglob("*"))


def test_a_file_named_pycache_loads_and_writes_nothing(tmp_path, caplog):
    lexdir = _bundled_copy(tmp_path / "lex")
    (lexdir / "__pycache__").write_text("not a directory", encoding="utf-8")
    before = _tree(tmp_path)
    for _ in range(2):
        lex, outcomes, _ = _logged(caplog, lambda: load_lexicon_dir(lexdir))
        assert outcomes == [NOT_WRITTEN]
        _assert_same_lexicon(lex, _text_lexicon(lexdir))
    assert _tree(tmp_path) == before


@pytest.mark.parametrize("missing", [("stems.tsv",),
                                     ("stems.tsv", "compat_ab.tsv")])
def test_a_missing_source_gives_the_text_paths_message(tmp_path, missing):
    lexdir = _bundled_copy(tmp_path / "lex")
    load_lexicon_dir(lexdir)                  # a snapshot of every file
    for name in missing:
        (lexdir / name).unlink()
    with pytest.raises(FileNotFoundError) as text:
        _text_lexicon(lexdir)
    with pytest.raises(FileNotFoundError) as loaded:
        load_lexicon_dir(lexdir)
    assert str(loaded.value) == str(text.value)
    assert Path(loaded.value.filename).name == missing[-1]


def test_every_path_a_load_creates_lies_under_pycache(tmp_path, freq,
                                                      gold_sentences):
    lexdir = _bundled_copy(tmp_path / "lex")
    lm = _write_lm(tmp_path / "model.lm", freq, gold_sentences)
    before = _tree(tmp_path)
    _config(lexdir, lm).load()
    _config(lexdir, lm).load()
    added = sorted(set(_tree(tmp_path)) - set(before))
    assert added == ["__pycache__", str(Path("__pycache__") / snapshot_path(
        tmp_path, "model.lm").name), str(Path("lex") / "__pycache__"),
        str(snapshot_path(lexdir, "lexicon").relative_to(tmp_path))]


def test_fresh_processes_hit_and_a_merge_or_code_change_rewrites(
        tmp_path, freq, gold_sentences):
    lexdir = _bundled_copy(tmp_path / "lex")
    lm = _write_lm(tmp_path / "model.lm", freq, gold_sentences)
    text = tmp_path / "in.txt"
    text.write_text("مع كاتب جامد", encoding="utf-8")
    src = tmp_path / "src"
    shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
    env = {**os.environ, "PYTHONPATH": str(src)}

    def arabmorph(*args):
        proc = subprocess.run([sys.executable, "-m", "arabmorph.cli", *args],
                              capture_output=True, timeout=60, env=env)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    def analyze():
        return arabmorph("analyze", str(text), "--flags", "all", "--format",
                         "tsv", "--lexicon", str(lexdir), "--lm", str(lm))

    snaps = [snapshot_path(lexdir, "lexicon"),
             snapshot_path(tmp_path, "model.lm")]
    first = analyze()
    stats = [os.stat(s) for s in snaps]
    assert analyze() == first                # a hit writes nothing
    assert [(s.st_ino, s.st_mtime_ns) for s in map(os.stat, snaps)] == \
        [(s.st_ino, s.st_mtime_ns) for s in stats]
    assert "جامد\tUNK//UNK\n" in first.decode("utf-8")

    review = tmp_path / "review.tsv"
    arabmorph("import", "--wordlist", str(DATA / "wordlist.tsv"), "--flags",
              "ICA", "--output", str(review))
    review.write_text("".join(
        line if line.startswith("#") else "A\t" + line.partition("\t")[2]
        for line in io.StringIO(review.read_text(encoding="utf-8"))),
        encoding="utf-8")
    arabmorph("merge", str(review), "--lexicon", str(lexdir))
    merged = analyze()
    assert os.stat(snaps[0]).st_ino != stats[0].st_ino   # rewritten
    assert os.stat(snaps[1]).st_ino == stats[1].st_ino
    assert merged.decode("utf-8") == first.decode("utf-8").replace(
        "جامد\tUNK//UNK\n", "جامد\tjAmd/jAmd_1/A\n")

    stats = [os.stat(s) for s in snaps]
    with (src / "arabmorph" / "__init__.py").open("a", encoding="utf-8") as f:
        f.write("# edited\n")
    assert analyze() == merged
    assert [os.stat(s).st_ino != old.st_ino
            for s, old in zip(snaps, stats)] == [True, True]
