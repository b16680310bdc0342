"""The names the benchmark's tracer wraps from outside the program: each
distinct type of a run reaches ``arabmorph.analyzer.analyze_type`` by its
module-level name, ``Pipeline.run`` calls each stage once by its name in
``arabmorph.pipeline``, and every traced name still exists."""

import importlib
from pathlib import Path

import arabmorph.analyzer as analyzer
from arabmorph.analyzer import token_lookup_key, tokenize
from arabmorph.cli import default_lexicon_dir
from arabmorph.lexicon import ALL_FLAGS
from arabmorph.pipeline import PipelineConfig

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_run_calls_analyze_type_once_per_distinct_type(monkeypatch,
                                                       corpus_text):
    pipeline = PipelineConfig(lexicon_dir=default_lexicon_dir(),
                              flags=ALL_FLAGS).load()
    calls = []
    analyze_type = analyzer.analyze_type

    def counting(surface, *args, **kwargs):
        calls.append(surface)
        return analyze_type(surface, *args, **kwargs)

    monkeypatch.setattr(analyzer, "analyze_type", counting)
    pipeline.run(corpus_text)
    types = {token_lookup_key(t) for t in tokenize(corpus_text)}
    assert sorted(calls) == sorted(types)


def test_run_calls_each_traced_stage_once_by_module_name(monkeypatch,
                                                         corpus_text):
    import arabmorph.pipeline as pipeline_mod
    pipeline = PipelineConfig(lexicon_dir=default_lexicon_dir(),
                              flags=ALL_FLAGS).load()
    stages = ["tokenize", "analyze_text", "apply_rules", "rank"]
    calls = []
    for name in stages:
        def counting(*args, _name=name, _stage=getattr(pipeline_mod, name),
                     **kwargs):
            calls.append(_name)
            return _stage(*args, **kwargs)

        monkeypatch.setattr(pipeline_mod, name, counting)
    _, _, ranked = pipeline.run(corpus_text)
    assert calls == stages
    assert len(ranked) == len(tokenize(corpus_text))


class _StubTracer:
    def wrap(self, name, fn):
        return fn


def test_bench_traces_every_name_it_wraps(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(BENCH))
    bench_run = importlib.import_module("run")
    tracer = _StubTracer()
    assert bench_run.trace_targets(tracer)
    assert bench_run.wrap_bench_calls(tracer)
    assert "cannot trace" not in capsys.readouterr().err
