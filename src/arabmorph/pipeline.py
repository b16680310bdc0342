"""The library entry point: ``PipelineConfig(...).load().run(text)``
tokenizes, analyzes, filters and ranks, giving one ``TokenReadings`` record
per token; emitting them is left to the caller."""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

from .analyzer import Token, TokenReadings, TypeCache, analyze_text, tokenize
from .disambig import (FilterRule, LmModel, apply_rules, empty_lm,
                       load_freq_table, load_lm, parse_rules, rank)
from .lexicon import Flag, Lexicon, load_lexicon_dir
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
        table = (BuckTable.from_file(self.translit_table)
                 if self.translit_table else DEFAULT_TABLE)
        lex = load_lexicon_dir(self.lexicon_dir)
        rules = []
        if self.rules_path:
            with open(self.rules_path, encoding="utf-8") as f:
                rules = parse_rules(f, self.rules_path)
        freq = None
        if self.freq_path:
            with open(self.freq_path, encoding="utf-8") as f:
                freq = load_freq_table(f, self.freq_path)
        if self.lm_path:
            with open(self.lm_path, encoding="utf-8") as f:
                model = load_lm(f, self.lm_path)
            if self.lam is not None:
                model = replace(model, lam=self.lam)
        else:
            model = empty_lm(lam=self.lam if self.lam is not None else 0.7,
                             freq=freq)
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
        sets = analyze_text(tokens, self.lexicon, self.config.flags, cache,
                            self.table, fold_alif=self.config.normalize_alif)
        ranked = rank(apply_rules(sets, self.rules, self.table), self.model)
        return tokens, cache, ranked
