"""Corpus loading and corpus-level metrics (BLEU and mean equivalence).

Formula text is tokenized for BLEU by padding connectives, parentheses,
and commas with spaces and splitting on whitespace, so ``P(x)∧Q(x)`` and
``P ( x ) ∧ Q ( x )`` tokenize identically.  BLEU is the standard corpus
form: geometric mean of modified n-gram precisions for n = 1..4 times the
brevity penalty, on a 0-100 scale.  Smoothing is off by default; a floor
epsilon can be configured for short corpora.

Pairs that fail to parse score 0 rather than being dropped, so the mean
equivalence score cannot be gamed by emitting garbage.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from dataclasses import dataclass, field

from .equivalence import DEFAULT_LE, LeConfig, LeReport, score_group
from .equivalence import le_score  # noqa: F401  (foleq.corpus.le_score stays importable; perfbench wraps it)
from .syntax import CapExceeded, ParseError


@dataclass(frozen=True)
class EvalPair:
    id: str
    prediction: str
    reference: str


@dataclass(frozen=True)
class BleuConfig:
    max_order: int = 4
    smoothing_floor: float = 0.0

    def __post_init__(self):
        if self.max_order < 1:
            raise ValueError("max_order must be positive")
        if self.smoothing_floor < 0:
            raise ValueError("smoothing_floor must be non-negative")


DEFAULT_BLEU = BleuConfig()


@dataclass(eq=False)
class CorpusReport:
    """``per_pair`` is aligned with the input pairs; entries are None for
    pairs that failed to score (their ids and messages sit in ``failures``)."""

    bleu: float
    mean_le: float
    per_pair: list[LeReport | None] = field(default_factory=list)
    failures: list[tuple[str, str]] = field(default_factory=list)


def load_pairs(path, fmt: str = "jsonl") -> tuple[list[EvalPair], list[tuple[int, str]]]:
    """Read evaluation pairs from a jsonl or tsv file.

    Malformed rows are skipped and reported as (line number, message).
    Missing ids default to the 0-based row index of the kept pairs.
    """
    if fmt not in ("jsonl", "tsv"):
        raise ValueError(f"unknown corpus format {fmt!r}")
    pairs: list[EvalPair] = []
    failures: list[tuple[int, str]] = []
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            if fmt == "jsonl":
                try:
                    row = json.loads(line)
                except json.JSONDecodeError as exc:
                    failures.append((lineno, f"invalid json: {exc.msg}"))
                    continue
                if not isinstance(row, dict):
                    failures.append((lineno, "row is not an object"))
                    continue
                prediction = row.get("prediction")
                reference = row.get("reference")
                if not isinstance(prediction, str) or not isinstance(reference, str):
                    failures.append((lineno, "prediction and reference must be strings"))
                    continue
                pair_id = row.get("id", str(len(pairs)))
                if not isinstance(pair_id, str):
                    pair_id = str(pair_id)
            else:
                cells = line.split("\t")
                if len(cells) == 2:
                    pair_id, prediction, reference = str(len(pairs)), cells[0], cells[1]
                elif len(cells) == 3:
                    pair_id, prediction, reference = cells
                else:
                    failures.append((lineno, f"expected 2 or 3 tab-separated fields, found {len(cells)}"))
                    continue
            pairs.append(EvalPair(pair_id, prediction, reference))
    return pairs, failures


_PAD_RE = re.compile(r"(<->|->|[∀∃¬∧∨→↔⊕()~&|^,])")


def tokenize_formula(text: str) -> list[str]:
    """Whitespace tokens after padding connectives, parens, and commas."""
    return _PAD_RE.sub(r" \1 ", text).split()


def _ngrams(tokens: list[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def corpus_bleu(pairs: list[EvalPair], config: BleuConfig = DEFAULT_BLEU) -> float:
    """Corpus BLEU on a 0-100 scale with a single reference per pair."""
    if not pairs:
        raise ValueError("empty corpus")
    matched = [0] * config.max_order
    total = [0] * config.max_order
    pred_len = 0
    ref_len = 0
    for pair in pairs:
        pred_tokens = tokenize_formula(pair.prediction)
        ref_tokens = tokenize_formula(pair.reference)
        pred_len += len(pred_tokens)
        ref_len += len(ref_tokens)
        for n in range(1, config.max_order + 1):
            pred_grams = _ngrams(pred_tokens, n)
            ref_grams = _ngrams(ref_tokens, n)
            total[n - 1] += sum(pred_grams.values())
            matched[n - 1] += sum(min(count, ref_grams[gram]) for gram, count in pred_grams.items())
    if pred_len == 0:
        return 0.0
    log_sum = 0.0
    for n in range(config.max_order):
        precision = matched[n] / total[n] if total[n] else 0.0
        if precision <= 0.0:
            if config.smoothing_floor > 0.0:
                precision = config.smoothing_floor
            else:
                return 0.0
        log_sum += math.log(precision)
    brevity = 1.0 if pred_len > ref_len else math.exp(1.0 - ref_len / pred_len)
    return 100.0 * brevity * math.exp(log_sum / config.max_order)


def corpus_le(
    pairs: list[EvalPair],
    mode: str = "optimized",
    config: LeConfig = DEFAULT_LE,
    bleu_config: BleuConfig = DEFAULT_BLEU,
) -> CorpusReport:
    """Score every pair, treating unparseable or over-cap pairs as 0.

    Pairs are scored in groups that share a reference (one ``score_group``
    call each), so equal pairs share one ``LeReport``.  The mean is taken
    over the whole corpus (failures contribute 0), and ``per_pair`` keeps
    one slot per input pair so callers can line results back up with their
    inputs.
    """
    if not pairs:
        raise ValueError("empty corpus")
    by_reference: dict[str, list[int]] = {}
    for index, pair in enumerate(pairs):
        by_reference.setdefault(pair.reference, []).append(index)
    results: list[LeReport | ParseError | CapExceeded | None] = [None] * len(pairs)
    for reference, indices in by_reference.items():
        predictions = [pairs[i].prediction for i in indices]
        try:
            group = score_group(predictions, reference, mode=mode, config=config)
        except ParseError as exc:
            group = [exc] * len(indices)
        for i, result in zip(indices, group):
            results[i] = result

    per_pair: list[LeReport | None] = []
    failures: list[tuple[str, str]] = []
    score_sum = 0.0
    for pair, result in zip(pairs, results):
        if isinstance(result, LeReport):
            per_pair.append(result)
            score_sum += result.score
        else:
            failures.append((pair.id, str(result)))
            per_pair.append(None)
    return CorpusReport(
        bleu=corpus_bleu(pairs, bleu_config),
        mean_le=score_sum / len(pairs),
        per_pair=per_pair,
        failures=failures,
    )
