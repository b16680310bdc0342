"""Every line-oriented loader reports a malformed row at ``name:line:``,
the name its caller gave and the row's 1-based line number."""

import io

import pytest

from arabmorph.disambig import (load_freq_table, load_lm, parse_rules,
                                serialize_lm, train_lm)
from arabmorph.evaluation import load_gold
from arabmorph.lexicon import (Flag, Kind, import_wordlist, load_lexicon,
                               load_review)
from arabmorph.translit import BuckTable

_STEM = "ktAb\tkitAb\tN\tbook\tkitAb_1\n"


def _lexicon(slot):
    """``load_lexicon`` with the named stream in file slot ``slot`` (1 the
    stems, 3 the prefix-stem pairs) and well-formed files elsewhere."""
    def load(stream, name):
        files = ["0\t0\tPref-0\n", _STEM, "0\t0\tSuff-0\n",
                 "Pref-0\tN\n", "N\tSuff-0\n", "Pref-0\tSuff-0\n"]
        streams = [io.StringIO(text) for text in files]
        streams[slot] = stream
        names = ["p.tsv", "s.tsv", "u.tsv", "ab.tsv", "bc.tsv", "ac.tsv"]
        names[slot] = name
        return load_lexicon(*streams[:3], tuple(streams[3:]), names)
    return load


_LM = serialize_lm(train_lm([[("a_1", "N"), ("b_1", "V")]]))

# loader (stream, name) -> result; malformed text; the bad row's line.
LOADERS = {
    "lexicon row": (_lexicon(1), _STEM + "ktb\tkitAb\tN\tbook\tkitAb_1\n", 2),
    "compat pair": (_lexicon(3), "# pairs\nPref-0\tN\nN\n", 3),
    "freq": (load_freq_table, "kitAb_1\tN\t3\nkitAb_1\tN\n", 2),
    "wordlist": (lambda f, name: import_wordlist(f, Kind.STEM, Flag.CA, name),
                 "جامد\tcool\tA\nktb\n", 2),
    "review": (load_review, "#! kind=stem\nX\tjAmd\tjAmid\tN\n", 2),
    "gold": (load_gold, "مع\tmaEa/maEa_1/PREP\tMSA\nمع\tmaEa\tMSA\n", 2),
    "rules": (parse_rules, "# rules\nDROP pos=V\n", 2),
    "LM": (load_lm, _LM.replace("a_1\tN\t1\n", "a_1\tN\tx\n", 1), 7),
    "translit": (BuckTable.from_stream, "U+0645\tm\nU+0639\n", 2),
}


@pytest.mark.parametrize("loader", sorted(LOADERS))
def test_a_malformed_row_is_reported_at_name_and_line(loader):
    load, text, line = LOADERS[loader]
    with pytest.raises(ValueError) as exc:
        load(io.StringIO(text), "in.tsv")
    assert str(exc.value).startswith(f"in.tsv:{line}: ")
