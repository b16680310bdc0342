"""The library entry point: ``PipelineConfig(...).load().run(text)``
tokenizes, analyzes, filters and ranks, giving one ``TokenReadings`` record
per token; emitting them is left to the caller."""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

from .analyzer import Token, TokenReadings, TypeCache, analyze_text, tokenize
from .disambig import (FilterRule, LmError, LmModel, apply_rules,
                       check_lambda, empty_lm, load_freq_table, load_lm,
                       parse_rules, rank)
from .lexicon import Flag, Lexicon, LexiconError, load_lexicon_dir
from .snapshot import load_cached, snapshot_path
from .textio import read_with
from .translit import BuckTable, DEFAULT_TABLE


@dataclass(frozen=True)
class PipelineConfig:
    """Everything the analysis pipeline needs, by path and value."""

    lexicon_dir: Path
    flags: Flag
    rules_path: str | None = None
    lm_path: str | None = None
    freq_path: str | None = None
    lam: float | None = None
    normalize_alif: bool = False
    translit_table: str | None = None

    def load(self) -> Pipeline:
        """Open and parse every referenced resource, failing fast before
        any input text is processed."""
        if not self.flags:
            raise LexiconError("analysis requires a non-empty flag set")
        if self.lm_path and self.freq_path:
            raise LmError("a frequency table is used only without a language "
                          "model; the model carries its own (train-lm --freq)")
        if self.lam is not None and not self.lm_path:
            # Without a model every candidate's trigram side is the same,
            # so a lambda would change no ranking; a value outside [0, 1]
            # is reported as that first.
            check_lambda(self.lam)
            raise LmError("lambda weighs a language model's trigram side "
                          "and is used only with one (--lm)")
        table = (read_with(BuckTable.from_stream, self.translit_table)
                 if self.translit_table else DEFAULT_TABLE)
        lex = load_lexicon_dir(self.lexicon_dir)
        rules = (read_with(parse_rules, self.rules_path)
                 if self.rules_path else [])
        freq = (read_with(load_freq_table, self.freq_path)
                if self.freq_path else None)
        if self.lm_path:
            lm_path = Path(self.lm_path)
            # load_lm is read from this module's globals at the call.
            model = load_cached(
                (lm_path,), snapshot_path(lm_path.parent, lm_path.name),
                lambda: read_with(load_lm, self.lm_path),
                lambda m: (m.trigram, m.bigram, m.unigram, m.freq, m.lam),
                lambda payload: LmModel(*payload))
            if self.lam is not None:
                model = replace(model, lam=self.lam)
        else:
            model = empty_lm(freq=freq)
        return Pipeline(self, table, lex, rules, model)


@dataclass
class Pipeline:
    config: PipelineConfig
    table: BuckTable
    lexicon: Lexicon
    rules: list[FilterRule]
    model: LmModel

    def run(self, text: str
            ) -> tuple[list[Token], TypeCache, list[TokenReadings]]:
        """The tokens of ``text``, the type cache that served their
        analyses, and one ranked record per token."""
        tokens = tokenize(text, self.table)
        cache = TypeCache()
        # The stages are lazy: each record is freed once the next stage
        # has read it, so only the tokens and ranked records stay alive.
        ranked = rank(apply_rules(
            analyze_text(tokens, self.lexicon, self.config.flags, cache,
                         fold_alif=self.config.normalize_alif),
            self.rules), self.model)
        return tokens, cache, ranked
