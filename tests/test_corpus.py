import json
import math
import sys

import pytest
from hypothesis import given, settings, strategies as st

from foleq import corpus
from foleq.corpus import (
    _PAD_RE,
    BleuConfig,
    DEFAULT_BLEU,
    EvalPair,
    MAX_ORDER,
    corpus_bleu,
    corpus_le,
    load_pairs,
    tokenize_formula,
)
from foleq.syntax import MAX_TOKENS
from helpers import per_pair_bleu

# Pieces joined without separators, so that "<" "-" ">" can meet as "<->"
# and "-" ">" as "->"; every connective in both spellings, whitespace and
# empty pieces included.
TOKEN_POOL = [
    "<->", "->", "<", "-", ">",
    "∀", "forall", "∃", "exists", "¬", "~", "∧", "&", "∨", "|", "→", "↔", "⊕", "^",
    "(", ")", ",", "P", "Q", "x", "y", "v1", "Foo", "\t", " ", "",
]
formula_text = st.lists(st.sampled_from(TOKEN_POOL), max_size=16).map("".join)


# --- tokenization ----------------------------------------------------------------

def test_tokenizer_pads_connectives_and_parens():
    assert tokenize_formula("P(x)∧Q(x)") == ["P", "(", "x", ")", "∧", "Q", "(", "x", ")"]


def test_tokenizer_ascii_arrows():
    assert tokenize_formula("A->B<->C") == ["A", "->", "B", "<->", "C"]


def test_tokenizer_commas_and_quantifiers():
    assert tokenize_formula("∀x R(x,y)") == ["∀", "x", "R", "(", "x", ",", "y", ")"]


def test_tokenizer_collapses_whitespace():
    assert tokenize_formula("  A   ∧  B ") == ["A", "∧", "B"]


@settings(max_examples=300, deadline=None)
@given(formula_text)
def test_tokenizer_equals_padding_substitution(text):
    assert tokenize_formula(text) == _PAD_RE.sub(r" \1 ", text).split()


# --- corpus BLEU -----------------------------------------------------------------

def test_bleu_identity_is_100():
    pairs = [EvalPair("0", "P(x) ∧ Q(x)", "P(x) ∧ Q(x)")]
    assert corpus_bleu(pairs) == pytest.approx(100.0)


def test_bleu_worked_example():
    # hypothesis differs from the reference by one connective token:
    # unigram 8/9, bigram 6/8, trigram 4/7, 4-gram 2/6; lengths equal
    pairs = [EvalPair("0", "P ( x ) ∧ Q ( x )", "P ( x ) ∨ Q ( x )")]
    expected = 100.0 * ((8 / 9) * (6 / 8) * (4 / 7) * (2 / 6)) ** 0.25
    assert corpus_bleu(pairs) == pytest.approx(expected, abs=1e-9)
    assert corpus_bleu(pairs) == pytest.approx(59.6949, abs=1e-3)


def test_bleu_zero_when_an_order_has_no_match():
    pairs = [EvalPair("0", "A ∧ B", "C ∨ D")]
    assert corpus_bleu(pairs) == 0.0


def test_bleu_smoothing_floor_applies_to_empty_orders():
    pairs = [EvalPair("0", "A", "A")]
    # a single token has no 2-grams at all, so without smoothing the score is 0
    assert corpus_bleu(pairs) == 0.0
    smoothed = corpus_bleu(pairs, BleuConfig(smoothing_floor=0.01))
    assert smoothed == pytest.approx(100.0 * (1.0 * 0.01 * 0.01 * 0.01) ** 0.25)


@pytest.mark.parametrize("floor", [5.0, math.inf, math.nan, -0.01])
def test_bleu_smoothing_floor_outside_the_unit_interval_is_refused(floor):
    with pytest.raises(ValueError, match=r"smoothing_floor must lie in \[0, 1\]"):
        BleuConfig(smoothing_floor=floor)


def test_bleu_smoothing_floor_of_one_is_accepted():
    # unigram 2/4; the three higher orders match nothing and take the floor
    pairs = [EvalPair("0", "P ( x )", "Q ( y )")]
    assert corpus_bleu(pairs, BleuConfig(smoothing_floor=1.0)) == pytest.approx(100.0 * 0.5 ** 0.25)


def test_bleu_too_short_for_higher_orders_scores_zero():
    # a 3-token prediction has no 4-grams, so the 4-gram precision is zero
    pairs = [EvalPair("0", "A ∧ B", "A ∧ B ∨ C")]
    assert corpus_bleu(pairs) == 0.0
    assert corpus_bleu(pairs, BleuConfig(smoothing_floor=0.01)) > 0.0


def test_bleu_brevity_penalty():
    # prediction is a prefix of the reference: all precisions 1, BP < 1
    pairs = [EvalPair("0", "A ∧ B ∨ C", "A ∧ B ∨ C ∧ D")]
    pred_len, ref_len = 5, 7
    expected = math.exp(1 - ref_len / pred_len) * 100.0
    assert corpus_bleu(pairs) == pytest.approx(expected)


def test_bleu_no_brevity_penalty_when_longer():
    # reference is a prefix of the prediction: precisions drop, BP stays 1
    pairs = [EvalPair("0", "A ∧ B ∨ C ∧ D", "A ∧ B ∨ C")]
    expected = 100.0 * ((5 / 7) * (4 / 6) * (3 / 5) * (2 / 4)) ** 0.25
    assert corpus_bleu(pairs) == pytest.approx(expected)


def test_bleu_aggregates_over_corpus():
    pairs = [
        EvalPair("0", "A ∧ B ∨ C ∧ D", "A ∧ B ∨ C ∧ D"),
        EvalPair("1", "A ∧ B ∨ C ∧ D", "A ∨ B ∨ C ∨ D"),
    ]
    single = [corpus_bleu([p]) for p in pairs]
    combined = corpus_bleu(pairs)
    # corpus BLEU pools counts, it does not average the pair scores
    assert combined != pytest.approx(sum(single) / 2)
    assert 0.0 < combined < 100.0


def test_bleu_empty_corpus_rejected():
    with pytest.raises(ValueError):
        corpus_bleu([])


def test_bleu_empty_prediction():
    assert corpus_bleu([EvalPair("0", "", "A ∧ B")]) == 0.0


@st.composite
def bleu_corpora(draw):
    references = draw(st.lists(formula_text, min_size=1, max_size=4))
    size = draw(st.integers(1, 12))
    pairs = [
        EvalPair(str(i), draw(formula_text), draw(st.sampled_from(references)))
        for i in range(size)
    ]
    config = BleuConfig(draw(st.sampled_from([0.0, 0.01])))
    return pairs, config


@settings(max_examples=300, deadline=None)
@given(bleu_corpora())
def test_bleu_equals_per_pair_counting(case):
    pairs, config = case
    assert corpus_bleu(pairs, config) == per_pair_bleu(pairs, config)


@st.composite
def clipped_prediction(draw, ref_tokens):
    """A prediction made of the reference's own tokens, so that its n-grams
    meet the reference's and the clipping decides the match counts."""
    kind = draw(st.sampled_from(["repeat", "shuffle", "prefix", "twice"]))
    if kind == "repeat":
        # one reference n-gram, repeated past its count in the reference
        n = draw(st.integers(1, min(MAX_ORDER, len(ref_tokens))))
        start = draw(st.integers(0, len(ref_tokens) - n))
        gram = ref_tokens[start : start + n]
        count = sum(ref_tokens[i : i + n] == gram for i in range(len(ref_tokens) - n + 1))
        tokens = gram * (count + draw(st.integers(1, 3)))
    elif kind == "shuffle":
        tokens = draw(st.permutations(ref_tokens))
    elif kind == "prefix":
        tokens = ref_tokens[: draw(st.integers(0, 3))]
    else:
        tokens = ref_tokens * 2
    return " ".join(tokens)


@st.composite
def clipping_corpora(draw):
    token_lists = st.lists(st.sampled_from(["A", "B", "P", "x", "∧", "∨", "(", ")"]), min_size=1, max_size=12)
    references = draw(st.lists(token_lists, min_size=1, max_size=3))
    pairs = []
    for i in range(draw(st.integers(1, 8))):
        ref_tokens = draw(st.sampled_from(references))
        pairs.append(EvalPair(str(i), draw(clipped_prediction(ref_tokens)), " ".join(ref_tokens)))
    return pairs


@settings(max_examples=300, deadline=None)
@given(clipping_corpora())
def test_bleu_clips_predictions_built_from_the_reference_like_per_pair_counting(pairs):
    for floor in (0.0, 0.01):
        config = BleuConfig(smoothing_floor=floor)
        assert corpus_bleu(pairs, config) == per_pair_bleu(pairs, config)


def test_bleu_clips_a_repeated_unigram_by_hand():
    # "A ∧ A ∧ A" against "A ∧ B": A may match once and ∧ once of the five
    # unigrams; only the bigram "A ∧" once of four; no 3-gram or 4-gram
    pairs = [EvalPair("0", "A ∧ A ∧ A", "A ∧ B")]
    assert corpus_bleu(pairs) == 0.0
    smoothed = corpus_bleu(pairs, BleuConfig(smoothing_floor=0.01))
    assert smoothed == pytest.approx(100 * (0.4 * 0.25 * 0.01 * 0.01) ** 0.25)
    assert smoothed == pytest.approx(5.6234, abs=1e-4)


def test_bleu_tokenizes_a_shared_reference_once(monkeypatch):
    calls = []

    def counting(text):
        calls.append(text)
        return tokenize_formula(text)

    monkeypatch.setattr(corpus, "tokenize_formula", counting)
    pairs = [EvalPair(str(i), f"P{i}(x) ∧ Q(x)", "P(x) ∧ Q(x)") for i in range(8)]
    corpus_bleu(pairs)
    assert len(calls) == 9
    assert calls.count("P(x) ∧ Q(x)") == 1


# --- corpus LE ---------------------------------------------------------------------

def test_corpus_le_mixed_fixture():
    pairs = [
        EvalPair("good", "A ∧ B", "B ∧ A"),
        EvalPair("half", "P(a)", "P(a) ∧ Q(a)"),
        EvalPair("broken", "((", "A"),
    ]
    report = corpus_le(pairs)
    assert report.mean_le == pytest.approx((1.0 + 0.75 + 0.0) / 3)
    assert [pair_id for pair_id, _ in report.failures] == ["broken"]
    assert len(report.per_pair) == 3
    assert report.per_pair[2] is None
    assert report.per_pair[0].score == 1.0


def test_corpus_le_runs_in_both_modes():
    pairs = [EvalPair("0", "A → B", "¬A ∨ B")]
    for mode in ("original", "optimized"):
        assert corpus_le(pairs, mode=mode).mean_le == 1.0


def test_corpus_le_scores_an_over_long_prediction_zero():
    cap = MAX_TOKENS
    pairs = [EvalPair("deep", "¬" * (3 * cap) + "A", "A"), EvalPair("same", "A", "A")]
    report = corpus_le(pairs)
    assert report.failures == [("deep", f"formula has {3 * cap + 1} tokens (cap {cap})")]
    assert report.per_pair[0] is None
    assert report.mean_le == 0.5


def test_corpus_le_fails_every_pair_of_an_over_long_reference():
    cap = MAX_TOKENS
    deep = "(" * 600 + "A" + ")" * 600
    pairs = [EvalPair("a", "A", deep), EvalPair("b", "B", deep), EvalPair("same", "A", "A")]
    report = corpus_le(pairs)
    message = f"formula has 1201 tokens (cap {cap})"
    assert report.failures == [("a", message), ("b", message)]
    assert report.per_pair[:2] == [None, None]
    assert report.mean_le == pytest.approx(1 / 3)


def test_corpus_le_empty_rejected():
    with pytest.raises(ValueError):
        corpus_le([])


# --- file loading --------------------------------------------------------------------

def test_load_jsonl(tmp_path):
    path = tmp_path / "pairs.jsonl"
    rows = [
        {"id": "a", "prediction": "A", "reference": "A"},
        {"prediction": "B", "reference": "B"},
        {"id": 7, "prediction": "C", "reference": "C"},
        {"id": None, "prediction": "D", "reference": "D"},
    ]
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
    pairs, failures = load_pairs(path)
    assert not failures
    assert [p.id for p in pairs] == ["a", "1", "7", "3"]
    assert pairs[1].prediction == "B"


def test_load_jsonl_reports_bad_rows(tmp_path):
    path = tmp_path / "pairs.jsonl"
    path.write_text(
        '{"prediction": "A", "reference": "A"}\n'
        "not json\n"
        "[1, 2]\n"
        '{"prediction": 5, "reference": "A"}\n'
        '\n'
        '{"prediction": "B", "reference": "B"}\n',
        encoding="utf-8",
    )
    pairs, failures = load_pairs(path)
    assert [p.prediction for p in pairs] == ["A", "B"]
    assert [lineno for lineno, _ in failures] == [2, 3, 4]


def test_load_jsonl_reports_hostile_rows_and_keeps_reading(tmp_path):
    path = tmp_path / "pairs.jsonl"
    path.write_text(
        "[" * 100_000 + "\n"
        + '{"prediction": "A", "reference": "A", "id": ' + "9" * 5000 + "}\n"
        + '{"prediction": "B", "reference": "B"}\n',
        encoding="utf-8",
    )
    pairs, failures = load_pairs(path)
    assert failures[0] == (1, "invalid json: nested too deeply")
    if 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 5000:
        assert [lineno for lineno, _ in failures] == [1, 2]
        assert failures[1][1].startswith("invalid json: Exceeds the limit")
        assert [p.prediction for p in pairs] == ["B"]
    else:
        assert len(failures) == 1
        assert [p.prediction for p in pairs] == ["A", "B"]


def test_load_tsv_two_and_three_columns(tmp_path):
    path = tmp_path / "pairs.tsv"
    path.write_text(
        "A ∧ B\tB ∧ A\n"
        "x1\tP(a)\tP(a)\n"
        "only-one-cell\n",
        encoding="utf-8",
    )
    pairs, failures = load_pairs(path, fmt="tsv")
    assert [(p.id, p.prediction, p.reference) for p in pairs] == [
        ("0", "A ∧ B", "B ∧ A"),
        ("x1", "P(a)", "P(a)"),
    ]
    assert [lineno for lineno, _ in failures] == [3]


@pytest.mark.parametrize("fmt", ["jsonl", "tsv"])
def test_load_reads_a_byte_that_is_not_utf8_as_a_replacement_character(tmp_path, fmt):
    # the bad byte spoils its own row's text, not the whole file
    path = tmp_path / "pairs"
    rows = ([b'{"prediction": "A \xff", "reference": "A"}', b'{"prediction": "B", "reference": "B"}']
            if fmt == "jsonl" else [b"A \xff\tA", b"B\tB"])
    path.write_bytes(b"\n".join(rows) + b"\n")
    pairs, failures = load_pairs(path, fmt=fmt)
    assert not failures
    assert [(p.prediction, p.reference) for p in pairs] == [("A \ufffd", "A"), ("B", "B")]


def test_load_rejects_unknown_format(tmp_path):
    path = tmp_path / "pairs.csv"
    path.write_text("a,b\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_pairs(path, fmt="csv")


def test_default_bleu_config():
    assert corpus.MAX_ORDER == 4
    assert DEFAULT_BLEU.smoothing_floor == 0.0
