"""The arabmorph benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's inputs from the seed (``bench/gen.py``), loads
the pipeline the way ``arabmorph analyze`` does, checks the outputs, and
measures for S seconds.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones, measured untraced; with
``--trace 1`` they are the per-layer ones from a traced run, which also
writes its spans to ``bench/.work/traces/``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import logging
import os
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("long-doc", "many-docs", "big-lexicon", "review-cycle")

REP_BUDGET_S = 0.25      # per round, for set-ups and for merges
MAX_REPS = 40
KERNEL_EVERY_S = 0.02    # least time between two runs of the speed kernel
REF_KERNEL_S = 0.001     # the kernel's time at the reference speed


def die(message: str) -> None:
    print(f"bench: error: {message}", file=sys.stderr)
    sys.exit(2)


def load_program():
    """Import arabmorph from this checkout's ``src``, and no other copy."""
    src = ROOT / "src"
    if not (src / "arabmorph" / "__init__.py").is_file():
        die(f"no program source at {src / 'arabmorph'}")
    if not (ROOT / "tests" / "data" / "gold.tsv").is_file():
        die(f"no test corpora at {ROOT / 'tests' / 'data'}")
    sys.path.insert(0, str(src))
    import arabmorph
    if Path(arabmorph.__file__).resolve().parent != (src / "arabmorph").resolve():
        die(f"imported arabmorph from {arabmorph.__file__}, not {src}")


# ---------------------------------------------------------------------------
# Bookkeeping shared by both modes


class LogCounter(logging.Handler):
    """Counts the program's warnings by message template.  Installing it
    also keeps them off stderr."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.counts: Counter = Counter()

    def emit(self, record):
        self.counts[record.msg] += 1

    def safeguard_skips(self) -> int:
        return sum(n for msg, n in self.counts.items()
                   if "would remove every analysis" in msg)


@dataclass
class Doc:
    name: str
    text: str                  # analyze input; annotated XML for review-cycle
    gold_text: str = ""        # held only where the timed operation reads it
    digest: str = ""           # sha256 of the checked output
    failed: bool = False


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def record(self, what: str, problems: list) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems[:5])
        return not problems


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def median(values):
    return statistics.median(values) if values else 0.0


def run_cli(argv) -> tuple[int, str]:
    """``arabmorph`` in-process; returns its exit code and stdout."""
    from arabmorph.cli import main
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue()


# ---------------------------------------------------------------------------
# The workload


class Workload:
    """Inputs, the timed operation and the checks of one generated
    workload."""

    def __init__(self, manifest: dict, workdir: Path, log: LogCounter,
                 tracing: bool):
        from arabmorph.cli import PipelineConfig
        from arabmorph.lexicon import ALL_FLAGS, flag_names, parse_flagset

        self.m = manifest
        self.name = manifest["workload"]
        self.workdir = workdir
        self.log = log
        flags = manifest["flags"]
        self.flags = ALL_FLAGS if flags == "all" else parse_flagset(flags.split(","))
        self.flag_label = "|".join(flag_names(self.flags))
        self.config = PipelineConfig(
            lexicon_dir=Path(manifest["lexicon"]), flags=self.flags,
            rules_path=manifest["rules"], lm_path=manifest["lm"],
            freq_path=manifest["freq"],
            normalize_alif=manifest["normalize_alif"])
        self.cli_args = ["--flags", flags, "--lexicon", manifest["lexicon"],
                         "--rules", manifest["rules"]]
        if manifest["freq"]:
            self.cli_args += ["--freq", manifest["freq"]]
        if manifest["lm"]:
            self.cli_args += ["--lm", manifest["lm"]]
        if manifest["normalize_alif"]:
            self.cli_args.append("--normalize-alif")
        self.review = self.name == "review-cycle"
        self.docs = [Doc(name, (workdir / f"{name}.txt").read_text(
            encoding="utf-8")) for name in manifest["docs"]]
        if self.review:
            for doc in self.docs:
                doc.gold_text = (workdir / f"{doc.name}.gold").read_text(
                    encoding="utf-8")
        self.first_word = self.docs[0].text.split(maxsplit=1)[0]
        self.pipeline = None
        self.stats: Counter = Counter()
        # every distinct lookup key, for count_splits in the traced run
        self.lookup_keys: set | None = set() if tracing else None

    def gold(self, doc: Doc) -> list:
        """The document's gold tokens, parsed on demand: the timed passes
        run with no more objects alive than the CLI has, since every live
        object makes each of the collector's full passes longer."""
        from arabmorph.evaluation import load_gold
        with open(self.workdir / f"{doc.name}.gold", encoding="utf-8") as f:
            return [t for sent in load_gold(f) for t in sent]

    def truth(self, doc: Doc) -> list | None:
        """The generator's (voc, lemma, pos) per token, where it knows it."""
        if not self.m["truth"]:
            return None
        text = (self.workdir / f"{doc.name}.truth").read_text(encoding="utf-8")
        return [tuple(line.split("\t")) for line in text.splitlines()]

    # -- set-up --------------------------------------------------------

    def setup_once(self):
        """Load every resource, then analyze one word, so that indexes the
        program builds lazily count as set-up."""
        pipeline = self.config.load()
        pipeline.run(self.first_word)
        return pipeline

    def prepare(self):
        """review-cycle only: analyze each text once and apply the
        reviewer's marks, giving the annotated XML the cycle starts from."""
        from arabmorph.teixml import doc_from_ranked, emit_tei
        for doc in self.docs:
            fix = (self.workdir / f"{doc.name}.fix").read_text(
                encoding="utf-8").strip()
            tokens, cache, ranked = self.pipeline.run(doc.text)
            tei = doc_from_ranked(ranked, source=f"{doc.name}.txt",
                                  flags=self.flag_label)
            self._count_pipeline(tokens, cache, ranked)
            words = []
            for word, gold, f in zip(tei.words, self.gold(doc), fix):
                target = gold.ana.split("/")[1:]
                mark = f == "1" and word.ana.split("/")[1:] != target
                notes = []
                for note in word.notes:
                    this = mark and note.ana.split("/")[1:] == target
                    mark = mark and not this
                    notes.append(replace(note, corrected=this))
                words.append(replace(word, notes=tuple(notes)))
            doc.text = emit_tei(replace(tei, words=tuple(words)))

    # -- the timed operation --------------------------------------------

    def op(self, doc: Doc) -> tuple[str, int, dict]:
        """One document through the path its CLI command takes; returns
        the output text, the tokens completed and the intermediate results
        the checks read."""
        from arabmorph.evaluation import evaluate, load_gold, report_tsv
        from arabmorph.teixml import (apply_corrections, doc_from_ranked,
                                      emit_tei, parse_tei)
        from checks import readings_from_doc
        if self.review:
            before = parse_tei(doc.text)
            fixed = apply_corrections(before)
            xml = emit_tei(fixed)
            gold = [t for sent in load_gold(io.StringIO(doc.gold_text))
                    for t in sent]
            readings = readings_from_doc(fixed)
            report = evaluate(readings, gold, self.pipeline.lexicon)
            return xml + report_tsv(report), len(gold), dict(
                before=before, fixed=fixed, xml=xml, gold=gold,
                readings=readings, report=report)
        tokens, cache, ranked = self.pipeline.run(doc.text)
        out = emit_tei(doc_from_ranked(ranked, source=f"{doc.name}.txt",
                                       flags=self.flag_label))
        return out, len(tokens), dict(tokens=tokens, cache=cache,
                                      ranked=ranked)

    # -- checks ----------------------------------------------------------

    def _count_pipeline(self, tokens, cache, ranked):
        from arabmorph.analyzer import token_lookup_key
        s = self.stats
        s["tokens"] += len(tokens)
        s["types"] += len(cache)
        s["hits"] += cache.hits
        s["misses"] += cache.misses
        s["readings"] += sum(len(r.ranked) + len(r.dropped) for r in ranked)
        s["unknown"] += sum(1 for r in ranked if r.unknown)
        s["drops"] += sum(len(r.dropped) for r in ranked)
        if self.lookup_keys is not None:
            self.lookup_keys.update(token_lookup_key(t, self.pipeline.table)
                                    for t in tokens)

    def check_doc(self, doc: Doc) -> list[str]:
        """Run one document through ``op``, check its intermediate results,
        and record the output's digest."""
        import checks
        from arabmorph.analyzer import analyze_type, token_lookup_key
        from arabmorph.teixml import apply_corrections, emit_tei, parse_tei
        out, _, r = self.op(doc)
        doc.digest = sha(out)
        if self.review:
            self.stats["bytes_out"] += len(r["xml"].encode("utf-8"))
            return (
                checks.check_corrections(r["before"], r["fixed"],
                                         apply_corrections(r["fixed"]))
                + checks.check_equal("emit/parse round trip",
                                     emit_tei(parse_tei(r["xml"])), r["xml"])
                + checks.check_evaluation(
                    r["report"], r["readings"], r["gold"],
                    self.pipeline.lexicon.known_lemma_pos()))
        tokens, ranked = r["tokens"], r["ranked"]
        self._count_pipeline(tokens, r["cache"], ranked)
        self.stats["bytes_out"] += len(out.encode("utf-8"))
        lex, fold = self.pipeline.lexicon, self.config.normalize_alif
        reference: dict = {}               # this document's types only
        ref = []
        for t in tokens:
            key = token_lookup_key(t, self.pipeline.table)
            if key not in reference:
                reference[key] = [(a.voc, a.lemma, a.pos) for a in
                                  analyze_type(key, lex, self.flags, fold)]
            ref.append(reference[key])
        problems = (checks.check_scores(ranked)
                    + checks.check_permutation(ranked, ref))
        truth = self.truth(doc)
        if truth is not None:
            problems += checks.check_truth(ranked, truth)
        return problems

    def check_against_cli(self, tally: Tally) -> None:
        """The first document through ``arabmorph`` itself gives the bytes
        the library path gave; then check what the other commands do
        with that output."""
        import checks
        from arabmorph.evaluation import evaluate, report_table
        from arabmorph.teixml import apply_corrections, emit_tei, parse_tei
        doc = self.docs[0]
        gold = self.gold(doc)
        path = self.workdir / f"{doc.name}.txt"
        gold_path = self.workdir / f"{doc.name}.gold"
        if self.review:
            xml_path = self.workdir / f"{doc.name}.xml"
            xml_path.write_text(doc.text, encoding="utf-8")
            code, out = run_cli(["correct", str(xml_path)])
            want = emit_tei(apply_corrections(parse_tei(doc.text)))
            tally.record("arabmorph correct", [f"exit code {code}"] if code
                         else checks.check_equal("correct", out, want))
            fixed_path = self.workdir / f"{doc.name}.fixed.xml"
            fixed_path.write_text(out, encoding="utf-8")
            code, out = run_cli(["eval", str(fixed_path), str(gold_path),
                                 "--lexicon", self.m["lexicon"]])
            report = evaluate(checks.readings_from_doc(parse_tei(want)),
                              gold, self.pipeline.lexicon)
            tally.record("arabmorph eval", [f"exit code {code}"] if code
                         else checks.check_equal("eval", out,
                                                 report_table(report)))
            return
        code, out = run_cli(["analyze", str(path)] + self.cli_args)
        ok = tally.record("arabmorph analyze", [f"exit code {code}"] if code
                          else checks.check_equal("analyze digest", sha(out),
                                                  doc.digest))
        if not ok:
            return
        parsed = parse_tei(out)
        tally.record("emit/parse round trip",
                     checks.check_equal("round trip", emit_tei(parsed), out))
        fixed = apply_corrections(parsed)
        tally.record("correct without marks",
                     checks.check_corrections(parsed, fixed,
                                              apply_corrections(fixed)))
        readings = checks.readings_from_doc(parsed)
        report = evaluate(readings, gold, self.pipeline.lexicon)
        tally.record("evaluate", checks.check_evaluation(
            report, readings, gold,
            self.pipeline.lexicon.known_lemma_pos()))

    # -- the import/merge batch -----------------------------------------

    def merge_once(self):
        """import -> review save -> reviewer marks -> review load -> merge
        -> serialize, for the workload's candidate batch."""
        from arabmorph.lexicon import (Kind, import_wordlist, load_review,
                                       merge_reviewed, parse_flagset,
                                       save_review, serialize_lexicon)
        wordlist = self.workdir / self.m["wordlist"]
        with open(wordlist, encoding="utf-8") as f:
            batch = import_wordlist(f, Kind.STEM,
                                    parse_flagset([self.m["import_flags"]]),
                                    source=wordlist.name)
        buf = io.StringIO()
        save_review(batch, buf)
        reviewed = mark_review(buf.getvalue(), self.m["marks"])
        batch = load_review(io.StringIO(reviewed), wordlist.name)
        merged = merge_reviewed(self.pipeline.lexicon, batch)
        return serialize_lexicon(merged), reviewed, batch

    def check_merge(self, merged: str | None, tally: Tally) -> None:
        """One more batch, checked in full: it must give the bytes every
        timed batch gave, hold the old entries plus exactly the accepted
        candidates, and equal what ``arabmorph merge`` writes."""
        import checks
        from arabmorph.lexicon import LEXICON_FILES, load_lexicon, parse_flagset
        files, reviewed, batch = self.merge_once()
        tally.record("merge digest", [] if merge_digest(files) == merged
                     else ["differs from the timed batches"])
        streams = [io.StringIO(files[n]) for n in LEXICON_FILES]
        reloaded = load_lexicon(streams[0], streams[1], streams[2],
                                tuple(streams[3:]))
        base = {(e.kind, e.surface, e.voc, e.cat, e.lemma)
                for e in self.pipeline.lexicon.entries()}
        tally.record("merge", checks.check_merge(
            reloaded, base, batch, self.m["marks"],
            parse_flagset([self.m["import_flags"]])))
        review_path = self.workdir / "review.tsv"
        review_path.write_text(reviewed, encoding="utf-8")
        outdir = self.workdir / "merged"
        code, _ = run_cli(["merge", str(review_path), "--lexicon",
                           self.m["lexicon"], "--output", str(outdir)])
        problems = [f"exit code {code}"] if code else []
        for name, text in files.items():
            if not problems:
                problems = checks.check_equal(
                    f"arabmorph merge {name}",
                    (outdir / name).read_text(encoding="utf-8"), text)
        tally.record("arabmorph merge", problems)


def mark_review(text: str, marks: str) -> str:
    """The reviewer: set each candidate row's status column from ``marks``."""
    lines, i = [], 0
    for line in text.splitlines(keepends=True):
        if line.startswith("P\t"):
            line = marks[i] + line[1:]
            i += 1
        lines.append(line)
    return "".join(lines)


# ---------------------------------------------------------------------------
# Phases


def check_pass(w: Workload, tally: Tally) -> None:
    """The first pass over every document: check it, record its digest.
    It also warms up whatever the program caches across documents."""
    for doc in w.docs:
        try:
            problems = w.check_doc(doc)
        except Exception as exc:          # a crash is a failed operation
            problems = [f"raised {exc!r}"]
        doc.failed = not tally.record(f"check {doc.name}", problems)
    # Set-up runs one word, which no rule can touch, so every skip so far
    # happened in this pass or in the review-cycle preparation.
    w.stats["safeguard_skips"] = w.log.safeguard_skips()


def one_pass(w: Workload, tally: Tally, tracer=None, after_doc=None,
             stop_at=None) -> dict:
    """Every document once, or those begun before ``stop_at``, each timed
    on its own; ``after_doc(i)`` runs, untimed, after document ``i``.  Each
    output must match the digest the check pass recorded.  When traced, the
    pass's self times are those of its documents alone."""
    doc_s, tokens = [], 0
    self_ns, calls = Counter(), Counter()
    for i, doc in enumerate(w.docs):
        if stop_at is not None and perf_counter() > stop_at:
            break
        if tracer:
            before = tracer.snapshot()
            tracer.begin("bench.doc")
        t0 = perf_counter()
        try:
            out, n, _ = w.op(doc)
        except Exception as exc:          # a crash is a failed operation
            out, n = exc, 0
        doc_s.append(perf_counter() - t0)
        if tracer:
            tracer.end()
            d_self, d_calls = diff_snapshot(tracer.snapshot(), before)
            self_ns.update(d_self)
            calls.update(d_calls)
        tokens += n
        tally.record(f"run {doc.name}",
                     [f"raised {out!r}"] if isinstance(out, Exception) else
                     ["failed its check"] if doc.failed else
                     [] if sha(out) == doc.digest else
                     ["output differs from the checked pass"])
        del out
        if after_doc:
            after_doc(i)
    return {"seconds": sum(doc_s), "tokens": tokens, "doc_s": doc_s,
            "self_ns": dict(self_ns), "calls": dict(calls)}


def rep(fn, tracer=None, traces=None):
    """One timed call of ``fn``: (seconds, result or the exception it
    raised).  When traced, its self times go to ``traces``."""
    before = tracer.snapshot() if tracer else None
    t0 = perf_counter()
    try:
        result = fn()
    except Exception as exc:              # a crash is a failed operation
        result = exc
    seconds = perf_counter() - t0
    if tracer:
        traces.append(diff_snapshot(tracer.snapshot(), before))
    return seconds, result


def reps_per_round(first_s: float) -> int:
    """How many set-ups (or merges) fit REP_BUDGET_S per round."""
    return max(1, min(MAX_REPS, int(REP_BUDGET_S / max(first_s, 1e-6))))


# The speed kernels.  Each does a fixed piece of work of one of the two
# kinds the workloads spend their time on, runs none of the program's
# code and makes nothing the collector tracks, so the program's heap cannot
# start a collection inside it.  "dict" makes about 3,500 dictionary
# updates keyed by string slices, like the analyzer, rules and TEI code;
# "table" sums a 30,000-entry table four times, like big-lexicon's
# ranking, which sums its 30,000-row frequency table on every score.  The
# two kinds speed up by different amounts when the machine does, and a
# workload's time follows the kind its own work is made of.
SPEED_KERNEL = {"big-lexicon": "table"}      # every other workload: "dict"


def _kernel_words() -> list[str]:
    words, x = [], 1
    for _ in range(500):
        letters = []
        for _ in range(4 + x % 9):
            x = (x * 1103515245 + 12345) % 2 ** 31
            letters.append(chr(97 + (x >> 16) % 26))
        words.append("".join(letters))
    return words


_KERNEL_WORDS = _kernel_words()


def speed_kernel(kind: str):
    """A function that times one run of the speed kernel ``kind``."""
    if kind == "table":
        table = {f"{w}{i}": i for i, w in enumerate(_KERNEL_WORDS * 60)}

        def kernel_s() -> float:
            t0 = perf_counter()
            for _ in range(4):
                sum(table.values())
            return perf_counter() - t0
        return kernel_s

    def kernel_s() -> float:
        t0 = perf_counter()
        d = {}
        for word in _KERNEL_WORDS:
            for i in range(1, len(word)):
                key = word[:i]
                d[key] = d.get(key, 0) + i
        return perf_counter() - t0
    return kernel_s


@dataclass
class Rounds:
    """What the timed rounds measured, repetitions in time order."""
    passes: list = field(default_factory=list)     # the last may be partial
    setup: list = field(default_factory=list)
    merge: list = field(default_factory=list)
    setup_self: list = field(default_factory=list)
    merge_self: list = field(default_factory=list)
    kernel: list = field(default_factory=list)

    def speed(self) -> float:
        """The machine's speed over the rounds relative to the reference:
        the reference kernel time over the median kernel time."""
        return REF_KERNEL_S / median(self.kernel)


def timed_rounds(w: Workload, seconds: float, tally: Tally, per_round,
                 merged, tracer=None) -> Rounds:
    """Rounds until ``seconds`` have gone by.  A round is one pass over
    the documents with ``per_round`` set-ups and merges spread between
    them; each set-up replaces the pipeline the next document uses.
    Untraced, the last round stops at the first document due after
    ``seconds``; traced, rounds are whole, as per-pass self times need.

    The machine can run up to twice as slow as its neighbours' load comes
    and goes, for milliseconds to minutes at a time, so every figure is a
    median over repetitions spread evenly over the run, and the speed
    kernel runs between operations, at least KERNEL_EVERY_S apart, to
    measure the machine's speed over the same span."""
    r = Rounds()
    n = len(w.docs)
    kernel_s = speed_kernel(SPEED_KERNEL.get(w.name, "dict"))
    last_kernel = [0.0]

    def sample_speed():
        if perf_counter() - last_kernel[0] >= KERNEL_EVERY_S:
            r.kernel.append(kernel_s())
            last_kernel[0] = perf_counter()

    def setup():
        w.pipeline = None                 # at most one pipeline alive
        t, result = rep(w.setup_once, tracer, r.setup_self)
        r.setup.append(t)
        if isinstance(result, Exception):
            tally.record("set-up", [f"raised {result!r}"])
            result = w.setup_once()
        w.pipeline = result
        sample_speed()

    def merge():
        t, result = rep(w.merge_once, tracer, r.merge_self)
        r.merge.append(t)
        tally.record("merge", [f"raised {result!r}"]
                     if isinstance(result, Exception) else
                     [] if merge_digest(result[0]) == merged else
                     ["output differs from the checked batch"])
        sample_speed()

    def after_doc(i):
        sample_speed()
        for fn, count in ((setup, per_round[0]), (merge, per_round[1])):
            for _ in range((i + 1) * count // n - i * count // n):
                fn()

    start = perf_counter()
    while not r.passes or perf_counter() - start < seconds:
        stop_at = None if tracer or not r.passes else start + seconds
        r.passes.append(one_pass(w, tally, tracer, after_doc, stop_at))
    return r


def doc_times(r: Rounds) -> list[float]:
    """Each document's median time over the rounds."""
    return [median([p["doc_s"][i] for p in r.passes if i < len(p["doc_s"])])
            for i in range(len(r.passes[0]["doc_s"]))]


def merge_digest(files: dict) -> str:
    return sha(json.dumps(files, sort_keys=True))


def diff_snapshot(after, before):
    from tracing import diff
    return diff(after[0], before[0]), diff(after[1], before[1])


# ---------------------------------------------------------------------------
# Tracing


def trace_targets(tracer):
    """Every call into a layer that the benchmark can see from outside
    the program: the loaders and stages ``PipelineConfig.load`` and
    ``Pipeline.run`` call, the per-type analysis, transliteration and
    scoring."""
    from arabmorph.analyzer import analyze_text
    from arabmorph.cli import Pipeline, PipelineConfig
    from arabmorph.disambig import LmModel
    from arabmorph.translit import BuckTable

    load_mod = sys.modules[PipelineConfig.load.__module__]
    run_mod = sys.modules[Pipeline.run.__module__]
    analyzer_mod = sys.modules[analyze_text.__module__]
    names = [
        (PipelineConfig, "load", "cli.load"),
        (Pipeline, "run", "cli.run"),
        (load_mod, "load_lexicon_dir", "lexicon.load"),
        (load_mod, "parse_rules", "disambig.load_rules"),
        (load_mod, "load_freq_table", "disambig.load_freq"),
        (load_mod, "load_lm", "disambig.load_lm"),
        (run_mod, "tokenize", "analyzer.tokenize"),
        (run_mod, "analyze_text", "analyzer.analyze_text"),
        (run_mod, "apply_rules", "disambig.apply_rules"),
        (run_mod, "rank", "disambig.rank"),
        (analyzer_mod, "analyze_type", "analyzer.analyze_type"),
        (BuckTable, "to_buck", "translit.to_buck"),
        (LmModel, "score", "disambig.score"),
    ]
    targets = []
    for obj, attr, span in names:
        fn = getattr(obj, attr, None)
        if fn is None:
            print(f"bench: warning: cannot trace {span}: "
                  f"{obj.__name__}.{attr} is gone", file=sys.stderr)
            continue
        targets.append((obj, attr, tracer.wrap(span, fn)))
    return targets


def wrap_bench_calls(tracer):
    """The layer functions the benchmark itself calls, by module."""
    import arabmorph.evaluation as evaluation
    import arabmorph.lexicon as lexicon
    import arabmorph.teixml as teixml
    names = [
        (teixml, "doc_from_ranked", "teixml.doc_from_ranked"),
        (teixml, "emit_tei", "teixml.emit"),
        (teixml, "parse_tei", "teixml.parse"),
        (teixml, "apply_corrections", "teixml.correct"),
        (evaluation, "load_gold", "evaluation.load_gold"),
        (evaluation, "evaluate", "evaluation.evaluate"),
        (lexicon, "import_wordlist", "lexicon.import"),
        (lexicon, "save_review", "lexicon.save_review"),
        (lexicon, "load_review", "lexicon.load_review"),
        (lexicon, "merge_reviewed", "lexicon.merge"),
        (lexicon, "serialize_lexicon", "lexicon.serialize"),
    ]
    return [(mod, attr, tracer.wrap(span, getattr(mod, attr)))
            for mod, attr, span in names]


def count_splits(w: Workload) -> tuple[int, int]:
    """Splits ``analyze_type`` tries and splits whose three lookups all
    return entries, over every distinct type of a pass."""
    from arabmorph.analyzer import analyze_type
    from arabmorph.lexicon import Kind
    lex = w.pipeline.lexicon
    counts = Counter()
    lookup = lex.lookup

    def counting(surface, kind, *args, **kwargs):
        found = lookup(surface, kind, *args, **kwargs)
        if kind is Kind.PREFIX:
            counts["tried"] += 1
        elif kind is Kind.SUFFIX and found:
            counts["useful"] += 1
        return found

    lex.lookup = counting
    try:
        for key in sorted(w.lookup_keys):
            analyze_type(key, lex, w.flags, w.config.normalize_alif)
    finally:
        del lex.lookup
    return counts["tried"], counts["useful"]


LAYERS = ("translit", "analyzer", "lexicon", "disambig", "teixml",
          "evaluation", "cli", "gc")


def layer_metrics(w, untraced: Rounds, traced: Rounds, once, splits) -> dict:
    """Per-layer figures.  A time is seconds of self time per pass
    (median over traced passes) when the layer runs in the timed pass,
    and otherwise its self time in the run's one-off work: the median
    set-up, the review preparation, the checks against the CLI and the
    median merge batch.  The tracing overhead is the traced pass minus the
    untraced one, each the sum of its documents' median times."""
    def med_by_name(samples):
        names = {n for s in samples for n in s}
        return {n: median([s.get(n, 0) for s in samples]) for n in names}

    pass_self = med_by_name([p["self_ns"] for p in traced.passes])
    pass_calls = med_by_name([p["calls"] for p in traced.passes])
    setup_self = med_by_name([r[0] for r in traced.setup_self])
    merge_self = med_by_name([r[0] for r in traced.merge_self])
    once_self = defaultdict(float, setup_self)
    for d in (once[0], merge_self):
        for n, v in d.items():
            once_self[n] += v
    once_calls = once[1]

    def self_s(*names):
        in_pass = [n for n in names if pass_self.get(n)]
        src = pass_self if in_pass else once_self
        return sum(src.get(n, 0) for n in names) / 1e9

    def per_call_us(name):
        if pass_calls.get(name):
            return pass_self[name] / pass_calls[name] / 1e3
        calls = once_calls.get(name, 0)
        return once[0].get(name, 0) / calls / 1e3 if calls else 0.0

    def score_calls():
        return pass_calls.get("disambig.score") or once_calls.get(
            "disambig.score", 0)

    s = w.stats
    tokens = s["tokens"] or 1
    traced_s = sum(doc_times(traced))
    untraced_s = sum(doc_times(untraced))
    gc_share = median([p["self_ns"].get("gc.collect", 0) / 1e9 / p["seconds"]
                       for p in traced.passes])
    m = {
        "translit.to_buck_s": (self_s("translit.to_buck"), "s"),
        "analyzer.tokenize_s": (self_s("analyzer.tokenize"), "s"),
        "analyzer.analyze_s": (self_s("analyzer.analyze_text",
                                      "analyzer.analyze_type"), "s"),
        "analyzer.cold_type_us": (per_call_us("analyzer.analyze_type"), "us"),
        "analyzer.split_yield": (splits[1] / splits[0] if splits[0] else 0.0,
                                 "ratio"),
        "analyzer.cache_hit_ratio": (s["hits"] / (s["hits"] + s["misses"])
                                     if s["hits"] + s["misses"] else 0.0,
                                     "ratio"),
        "analyzer.types": (s["types"], "count"),
        "analyzer.readings_per_token": (s["readings"] / tokens, "count"),
        "analyzer.unknown_ratio": (s["unknown"] / tokens, "ratio"),
        "disambig.rules_s": (self_s("disambig.apply_rules"), "s"),
        "disambig.rank_s": (self_s("disambig.rank", "disambig.score"), "s"),
        "disambig.score_calls": (score_calls(), "count"),
        "disambig.score_us": (per_call_us("disambig.score"), "us"),
        "disambig.drops": (s["drops"], "count"),
        "disambig.safeguard_skips": (s["safeguard_skips"], "count"),
        "disambig.load_lm_s": (sum(setup_self.get(n, 0) for n in (
            "disambig.load_lm", "disambig.load_freq")) / 1e9, "s"),
        "lexicon.load_s": (setup_self.get("lexicon.load", 0) / 1e9, "s"),
        "lexicon.entries": (len(w.pipeline.lexicon), "count"),
        "lexicon.merge_s": (merge_self.get("lexicon.merge", 0) / 1e9, "s"),
        "lexicon.serialize_s": (merge_self.get("lexicon.serialize", 0) / 1e9,
                                "s"),
        "teixml.emit_s": (self_s("teixml.doc_from_ranked", "teixml.emit"), "s"),
        "teixml.bytes_out": (s["bytes_out"], "bytes"),
        "teixml.parse_s": (self_s("teixml.parse"), "s"),
        "teixml.correct_s": (self_s("teixml.correct"), "s"),
        "evaluation.evaluate_s": (self_s("evaluation.evaluate"), "s"),
        "gc.share": (gc_share, "ratio"),
        "trace.overhead_s": (traced_s - untraced_s, "s"),
        "trace.overhead_share": ((traced_s - untraced_s) / untraced_s, "ratio"),
    }
    for layer in LAYERS:
        names = [n for n in set(pass_self) | set(once_self)
                 if n.split(".")[0] == layer]
        m[f"{layer}.self_s"] = (self_s(*names), "s")
    return m


# ---------------------------------------------------------------------------


def generate(workload: str, seed: int, workdir: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "gen.py"), "--workload", workload,
         "--seed", str(seed), "--out", str(workdir)],
        stdout=subprocess.DEVNULL, timeout=170)
    if proc.returncode != 0:
        die(f"workload generator exited with code {proc.returncode}")
    return json.loads((workdir / "manifest.json").read_text(encoding="utf-8"))


def report_digest(workload: str, seed: int, digest: str, record: bool,
                  path: Path = HERE / "digests.json") -> str:
    """Compare with the recorded digest for this workload and seed; a
    mismatch is a behaviour change of the program."""
    known = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    recorded = known.get(workload, {}).get(str(seed))
    if record:
        known.setdefault(workload, {})[str(seed)] = digest
        path.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
        return "recorded"
    if recorded is None:
        return "no recorded digest for this seed"
    if recorded == digest:
        return "matches the recorded digest"
    return f"BEHAVIOUR CHANGE: recorded digest is {recorded}"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="arabmorph benchmark")
    p.add_argument("--workload", choices=WORKLOADS + ("all",), required=True,
                   help="one workload, or all of them, each in its own "
                        "process")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-digest", action="store_true",
                   help="store this seed's output digest in bench/digests.json")
    args = p.parse_args(argv)
    load_program()
    if args.workload == "all":
        rest = ["--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        rest += ["--record-digest"] if args.record_digest else []
        return max(subprocess.run([sys.executable, __file__, "--workload", w]
                                  + rest).returncode for w in WORKLOADS)

    workdir = HERE / ".work" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        manifest = generate(args.workload, args.seed, workdir)
        return measure(args, manifest, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, manifest: dict, workdir: Path) -> int:
    import tracing
    log = LogCounter()
    logging.getLogger("arabmorph").addHandler(log)
    w = Workload(manifest, workdir, log, bool(args.trace))
    tally = Tally()
    tracer = tracing.Tracer() if args.trace else None
    once = ({}, {})                # self times of the traced one-off work

    def one_off(fn):
        """Run ``fn``, traced when tracing, its self times kept in ``once``."""
        if not tracer:
            return fn()
        before = tracer.snapshot()
        with tracing.patched(trace_targets(tracer) + wrap_bench_calls(tracer)):
            result = fn()
        for i, d in enumerate(diff_snapshot(tracer.snapshot(), before)):
            for n, v in d.items():
                once[i][n] = once[i].get(n, 0) + v
        return result

    first_setup_s, w.pipeline = rep(w.setup_once)
    if isinstance(w.pipeline, Exception):
        raise w.pipeline
    if w.review:
        one_off(w.prepare)
    first_merge_s, result = rep(w.merge_once)
    merged = None if isinstance(result, Exception) else merge_digest(result[0])
    del result
    check_pass(w, tally)
    per_round = (reps_per_round(first_setup_s), reps_per_round(first_merge_s))

    if tracer:
        untraced = timed_rounds(w, args.seconds / 2, tally, per_round, merged)
        tracer.start_gc()
        with tracing.patched(trace_targets(tracer) + wrap_bench_calls(tracer)):
            r = timed_rounds(w, args.seconds / 2, tally, per_round, merged,
                             tracer)
        tracer.stop_gc()
    else:
        r = timed_rounds(w, args.seconds, tally, per_round, merged)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for what, check in (("CLI checks", w.check_against_cli),
                        ("merge checks", lambda t: w.check_merge(merged, t))):
        try:
            one_off(lambda: check(tally))
        except Exception as exc:          # a crash is a failed check
            tally.record(what, [f"raised {exc!r}"])

    if tracer:
        metrics = layer_metrics(w, untraced, r, once, count_splits(w))
        trace_dir = HERE / ".work" / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        trace_path = trace_dir / f"{args.workload}-seed{args.seed}.json"
        tracer.write(trace_path, {k: v for k, (v, _) in metrics.items()})
        print(f"trace: {len(tracer.spans)} spans ({tracer.dropped} more "
              f"counted, not kept) -> {trace_path.relative_to(ROOT)}")
        print("self time per pass by layer:")
        for layer in LAYERS:
            print(f"  {layer:<11} {metrics[layer + '.self_s'][0]:10.4f} s")
        print(f"  tracing overhead {metrics['trace.overhead_s'][0]:.4f} s per "
              f"pass ({metrics['trace.overhead_share'][0]:.1%})")
    else:
        # Every time is scaled to the reference speed: as measured, times
        # the run's speed.
        speed = r.speed()
        doc_s = doc_times(r)
        doc_ms = sorted(t * 1e3 * speed for t in doc_s)
        deciles = (statistics.quantiles(doc_ms, n=10, method="inclusive")
                   if len(doc_ms) > 1 else doc_ms * 9)
        tokens = r.passes[0]["tokens"]
        metrics = {
            "tok_per_s": (tokens / (sum(doc_s) * speed), "tok/s"),
            "doc_ms_p50": (median(doc_ms), "ms"),
            "doc_ms_p90": (deciles[8], "ms"),
            "setup_s": (median(r.setup) * speed, "s"),
            "peak_rss_mb": (peak_kb / 1024, "MB"),
            "merge_s": (median(r.merge) * speed, "s"),
            "pass_ratio": ((tally.attempted - tally.failed) / tally.attempted,
                           "ratio"),
        }
        print(f"machine speed {speed:.4f} of the reference ({len(r.kernel)} "
              f"kernel runs, median {median(r.kernel) * 1e3:.4f} ms); as "
              f"measured: tok_per_s {tokens / sum(doc_s):.6g}, setup_s "
              f"{median(r.setup):.6g}, merge_s {median(r.merge):.6g}")
        print(f"{args.workload}: {len(r.passes)} rounds (the last may stop "
              f"early), each one pass over {len(doc_ms)} documents with "
              f"{per_round[0]} set-ups and {per_round[1]} merge batches "
              "between them")

    digest = hashlib.sha256("".join(d.digest for d in w.docs).encode()).hexdigest()
    print(f"digest {args.workload} seed {args.seed}: {digest} "
          f"({report_digest(args.workload, args.seed, digest, args.record_digest)})")
    for problem in tally.problems[:20]:
        print(f"FAILED {problem}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
