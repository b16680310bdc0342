"""The benchmark's recorded output digests, reproduced in tier-1: seed 1 of
each workload is generated as the benchmark generates it, each analysis
document goes through ``Pipeline.run``, ``doc_from_ranked`` and
``emit_tei`` as the benchmark's timed operation does, each review-cycle
document through the benchmark's own ``Workload.op``, and the digest of
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


def _recorded(workload):
    return json.loads((BENCH / "digests.json").read_text(
        encoding="utf-8"))[workload][str(SEED)]


@pytest.mark.parametrize("workload", ["long-doc", "many-docs", "big-lexicon"])
def test_outputs_match_the_recorded_digest(workload, tmp_path, monkeypatch):
    recorded = _recorded(workload)
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


def test_review_cycle_matches_the_recorded_digest(tmp_path, monkeypatch):
    """Set-up, preparation and the timed operation are the benchmark's
    own, so this cannot drift from what it times."""
    monkeypatch.syspath_prepend(str(BENCH))
    run = importlib.import_module("run")
    manifest = run.generate("review-cycle", SEED, tmp_path)
    workload = run.Workload(manifest, tmp_path, run.LogCounter(),
                            tracing=False)
    workload.pipeline = workload.setup_once()
    workload.prepare()
    digests = [_sha(workload.op(doc)[0]) for doc in workload.docs]
    assert _sha("".join(digests)) == _recorded("review-cycle")
