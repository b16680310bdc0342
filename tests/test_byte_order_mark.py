"""A leading UTF-8 byte-order mark is not text: every named input reads
from a file that starts with one exactly as from the same bytes without
it."""

from pathlib import Path

import pytest

from arabmorph.disambig import (load_freq_table, load_lm, parse_rules,
                                serialize_lm, train_lm)
from arabmorph.evaluation import load_gold
from arabmorph.lexicon import (LEXICON_FILES, load_lexicon_dir, load_review,
                               serialize_lexicon)
from arabmorph.textio import read_with
from arabmorph.translit import BuckTable

BOM = "\ufeff".encode("utf-8")
DATA = Path(__file__).parent / "data"

# Each file starts with a data row, where a mark read as text would land.
_LEXICON = dict(zip(LEXICON_FILES, [
    "0\t0\tPref-0\n", "ktAb\tkitAb\tN\tbook\tkitAb_1\tCA\n",
    "0\t0\tSuff-0\n", "Pref-0\tN\n", "N\tSuff-0\n", "Pref-0\tSuff-0\n"]))


def _write(path, text, bom):
    path.write_bytes((BOM if bom else b"") + text.encode("utf-8"))
    return path


def _lexicon(tmp_path, marked):
    folder = tmp_path / f"lexicon-{marked}"
    folder.mkdir()
    for name, text in _LEXICON.items():
        _write(folder / name, text, name == marked)
    return serialize_lexicon(load_lexicon_dir(folder))


@pytest.mark.parametrize("marked", LEXICON_FILES)
def test_a_lexicon_file_reads_the_same_with_a_mark(tmp_path, caplog, marked):
    assert _lexicon(tmp_path, marked) == _lexicon(tmp_path, None)
    assert caplog.records == []


_LM = serialize_lm(train_lm([[("a_1", "N"), ("b_1", "V")]],
                            freq={("a_1", "N"): 2}))
# loader (stream, name) -> result; a text whose first line is data.
INPUTS = {
    "rules": (parse_rules, "DROP pos=V WHEN prev.pos=PREP\n"),
    "freq": (load_freq_table, (DATA / "freq.tsv").read_text("utf-8")),
    "LM": (load_lm, _LM),
    "review": (load_review, "#! kind=stem\tsource=s\n"
               "A\tktAb\tkitAb\tN\tbook\tkitAb_1\tCA\n"),
    "gold": (load_gold, (DATA / "gold.tsv").read_text("utf-8")),
    "translit": (lambda f, name: BuckTable.from_stream(f, name).a2b,
                 "U+0645\tm\nU+0639\tE\n"),
}


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_an_input_reads_the_same_with_a_mark(tmp_path, name):
    load, text = INPUTS[name]
    plain = read_with(load, _write(tmp_path / "plain", text, False))
    marked = read_with(load, _write(tmp_path / "marked", text, True))
    assert marked == plain
