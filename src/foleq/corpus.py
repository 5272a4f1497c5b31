"""Corpus loading and corpus-level metrics (BLEU and mean equivalence).

Formula text is tokenized for BLEU by padding connectives, parentheses,
and commas with spaces and splitting on whitespace, so ``P(x)∧Q(x)`` and
``P ( x ) ∧ Q ( x )`` tokenize identically.  BLEU is the standard corpus
form: geometric mean of modified n-gram precisions for n = 1..4
(``MAX_ORDER``) times the brevity penalty, on a 0-100 scale.  Smoothing is
off by default; a floor epsilon in [0, 1] can be configured for short
corpora.

Pairs that fail to parse score 0 rather than being dropped, so the mean
equivalence score cannot be gamed by emitting garbage.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field

from .equivalence import DEFAULT_LE, LeConfig, LeReport, Scorer
from .equivalence import le_score  # noqa: F401  (foleq.corpus.le_score stays importable; perfbench wraps it)
from .syntax import FormulaError


@dataclass(frozen=True)
class EvalPair:
    id: str
    prediction: str
    reference: str


# The longest n-gram whose precision corpus BLEU takes: BLEU-4.
MAX_ORDER = 4


@dataclass(frozen=True)
class BleuConfig:
    """The one BLEU setting: the floor that stands in for a zero n-gram
    precision (0 turns smoothing off)."""

    smoothing_floor: float = 0.0

    def __post_init__(self):
        # a precision never exceeds 1, so neither may its floor; nan fails too
        if not 0.0 <= self.smoothing_floor <= 1.0:
            raise ValueError(f"smoothing_floor must lie in [0, 1], not {self.smoothing_floor!r}")


DEFAULT_BLEU = BleuConfig()


class JsonError(ValueError):
    """Text that ``decode_json`` cannot read.  Its text gives the reason and,
    for malformed JSON, the position; ``msg`` gives the reason alone."""

    def __init__(self, message: str, msg: str):
        super().__init__(message)
        self.msg = msg


def decode_json(text: str):
    """The value of one JSON text, read for every outside input.  Text that
    is not JSON, nests deeper than the decoder can follow or spells an
    integer past the interpreter's digit limit raises ``JsonError``."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise JsonError(str(exc), exc.msg) from None
    except RecursionError:
        raise JsonError("nested too deeply", "nested too deeply") from None
    except ValueError as exc:  # the integer digit limit
        raise JsonError(str(exc), str(exc)) from None


def open_text(path, mode: str = "r"):
    """``path`` opened as UTF-8 text, for every outside file.  A leading
    byte-order mark is skipped on reading and none is written.  Bytes that are
    not UTF-8 read as U+FFFD, so only the row holding them goes bad, and a lone
    surrogate (a JSON escape such as ``"\\ud800"``) is written back as that escape."""
    encoding, errors = ("utf-8-sig", "replace") if mode == "r" else ("utf-8", "backslashreplace")
    return open(path, mode, encoding=encoding, errors=errors)


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
    Missing or null ids default to the 0-based row index of the kept pairs.
    """
    if fmt not in ("jsonl", "tsv"):
        raise ValueError(f"unknown corpus format {fmt!r}")
    pairs: list[EvalPair] = []
    failures: list[tuple[int, str]] = []
    with open_text(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            if fmt == "jsonl":
                try:
                    row = decode_json(line)
                except JsonError as exc:
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
                pair_id = row.get("id")
                pair_id = str(len(pairs)) if pair_id is None else str(pair_id)
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
    # With one capture group, split puts each match between the text around
    # it, so joining with spaces pads every match as ``sub(r" \1 ")`` would.
    return " ".join(_PAD_RE.split(text)).split()


def _grams(tokens: list[str]) -> list:
    """Each order's n-grams: the tokens themselves, then tuples of 2 to MAX_ORDER."""
    shifted = [tokens[i:] for i in range(1, MAX_ORDER)]
    return [tokens] + [zip(tokens, *shifted[:n]) for n in range(1, MAX_ORDER)]


def corpus_bleu(pairs: list[EvalPair], config: BleuConfig = DEFAULT_BLEU) -> float:
    """Corpus BLEU on a 0-100 scale, one reference per pair.  Each distinct
    reference's n-grams are counted once per call; a prediction's n-grams walk a
    copy of those counts, each hit taking one copy, so hits = sum(min(pred, ref))."""
    if not pairs:
        raise ValueError("empty corpus")
    matched, total = [0] * MAX_ORDER, [0] * MAX_ORDER
    ref_len = 0
    references: dict[str, tuple[int, list[dict]]] = {}
    for pair in pairs:
        ref = references.get(pair.reference)
        if ref is None:
            ref_tokens = tokenize_formula(pair.reference)
            ref = references[pair.reference] = len(ref_tokens), [{} for _ in range(MAX_ORDER)]
            for counts, grams in zip(ref[1], _grams(ref_tokens)):
                for gram in grams:
                    counts[gram] = counts.get(gram, 0) + 1
        ref_len += ref[0]
        pred_tokens = tokenize_formula(pair.prediction)
        for n, (counts, grams) in enumerate(zip(ref[1], _grams(pred_tokens))):
            left, hits = counts.copy(), 0
            for gram in grams:
                copies = left.get(gram)
                if copies:
                    left[gram] = copies - 1
                    hits += 1
            matched[n] += hits
            total[n] += max(0, len(pred_tokens) - n)
    if not (pred_len := total[0]):  # one unigram per prediction token
        return 0.0
    log_sum = 0.0
    for n in range(MAX_ORDER):
        precision = matched[n] / total[n] if matched[n] else config.smoothing_floor
        if precision == 0.0:
            return 0.0
        log_sum += math.log(precision)
    brevity = 1.0 if pred_len > ref_len else math.exp(1.0 - ref_len / pred_len)
    return 100.0 * brevity * math.exp(log_sum / MAX_ORDER)


def corpus_le(
    pairs: list[EvalPair],
    mode: str = "optimized",
    config: LeConfig = DEFAULT_LE,
    bleu_config: BleuConfig = DEFAULT_BLEU,
) -> CorpusReport:
    """Score every pair, treating a pair whose prediction or reference is
    unparseable or over a cap as 0.

    Pairs are scored in groups that share a reference (one call of a fresh
    ``Scorer`` each), so equal pairs share one ``LeReport`` and every pair of a
    failing reference carries its one error.  The mean is taken
    over the whole corpus (failures contribute 0), and ``per_pair`` keeps
    one slot per input pair so callers can line results back up with their
    inputs.
    """
    if not pairs:
        raise ValueError("empty corpus")
    by_reference: dict[str, list[int]] = {}
    for index, pair in enumerate(pairs):
        by_reference.setdefault(pair.reference, []).append(index)
    results: list[LeReport | FormulaError | None] = [None] * len(pairs)
    for reference, indices in by_reference.items():
        group = Scorer(reference, mode, config)([pairs[i].prediction for i in indices])
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
