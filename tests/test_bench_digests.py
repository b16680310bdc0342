"""The benchmark's recorded output digests, reproduced in tier-1: seed 1 of
each analysis workload is generated as the benchmark generates it, each
document goes through ``Pipeline.run``, ``doc_from_ranked`` and
``emit_tei`` as the benchmark's timed operation does, and the digest of
the outputs must equal the one in ``bench/digests.json``."""

import hashlib
import importlib
import json
from pathlib import Path

import pytest

from arabmorph.lexicon import ALL_FLAGS, flag_names, parse_flagset
from arabmorph.pipeline import PipelineConfig
from arabmorph.teixml import doc_from_ranked, emit_tei

BENCH = Path(__file__).resolve().parent.parent / "bench"
SEED = 1


def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("workload", ["long-doc", "many-docs", "big-lexicon"])
def test_outputs_match_the_recorded_digest(workload, tmp_path, monkeypatch):
    recorded = json.loads((BENCH / "digests.json").read_text(
        encoding="utf-8"))[workload][str(SEED)]
    monkeypatch.syspath_prepend(str(BENCH))
    manifest = importlib.import_module("run").generate(workload, SEED,
                                                       tmp_path)
    flags = (ALL_FLAGS if manifest["flags"] == "all"
             else parse_flagset(manifest["flags"].split(",")))
    pipeline = PipelineConfig(
        lexicon_dir=Path(manifest["lexicon"]), flags=flags,
        rules_path=manifest["rules"], lm_path=manifest["lm"],
        freq_path=manifest["freq"],
        normalize_alif=manifest["normalize_alif"]).load()
    digests = []
    for name in manifest["docs"]:
        text = (tmp_path / f"{name}.txt").read_text(encoding="utf-8")
        _, _, ranked = pipeline.run(text)
        digests.append(_sha(emit_tei(doc_from_ranked(
            ranked, source=f"{name}.txt",
            flags="|".join(flag_names(flags))))))
    assert _sha("".join(digests)) == recorded
