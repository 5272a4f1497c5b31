"""Group scoring: ``score_group`` must give every prediction exactly the
report (or exception) it gets when scored alone, and alone must equal
binding every bracketing tree from scratch, with nothing shared."""

import random

import pytest
from hypothesis import given, settings, strategies as st

import foleq.equivalence as equivalence
from foleq.equivalence import (
    DEFAULT_LE,
    LeConfig,
    _prediction_trees,
    bind_optimized,
    bind_original,
    compile_reference,
    le_score,
    score_group,
)
from foleq.syntax import (
    Atom,
    Binary,
    CapExceeded,
    Not,
    ParseError,
    Quantified,
    atoms_of,
    canonicalize,
    enumerate_bracketings,
    lex,
    parse,
    render,
)
from helpers import random_formula
from test_acceptance import LAW_PAIRS

MODES = ("original", "optimized")


def fields(report):
    return (
        report.score,
        report.binding.as_dict(),
        [a.canonical_text for a in report.binding.unbound_prediction],
        [a.canonical_text for a in report.binding.unbound_reference],
        report.atom_count,
        report.assignments_evaluated,
        report.bindings_explored,
        report.trees_explored,
        report.truncated,
    )


def unshared(prediction, reference, mode, config=DEFAULT_LE):
    """Fields of ``le_score`` computed with no compiled reference and no
    shared tables: every tree is bound against a freshly parsed reference."""
    ref_tree = canonicalize(parse(reference))
    trees = _prediction_trees(lex(prediction), config)
    bind = bind_original if mode == "original" else bind_optimized
    results = [bind(canonicalize(tree), ref_tree, config) for tree in trees]
    best = results[0]
    for result in results[1:]:
        if result.score > best.score:
            best = result
    return (
        best.score,
        best.binding.as_dict(),
        [a.canonical_text for a in best.binding.unbound_prediction],
        [a.canonical_text for a in best.binding.unbound_reference],
        len(atoms_of(ref_tree)) + len(best.binding.unbound_prediction),
        sum(r.assignments_evaluated for r in results),
        sum(r.bindings_explored for r in results),
        len(trees),
        any(r.truncated for r in results),
    )


def outcome(fn):
    try:
        return fields(fn())
    except (ParseError, CapExceeded) as exc:
        return (type(exc), str(exc))


def check_group(predictions, reference, mode, config=DEFAULT_LE):
    group = score_group(predictions, reference, mode, config)
    assert len(group) == len(predictions)
    for prediction, result in zip(predictions, group):
        alone = outcome(lambda: le_score(prediction, reference, mode, config))
        if isinstance(result, Exception):
            assert (type(result), str(result)) == alone, prediction
        else:
            assert fields(result) == alone, prediction
            assert alone == unshared(prediction, reference, mode, config), prediction
    return group


def chain_text(rng: random.Random, operators: int) -> str:
    """A flat chain over a small atom pool whose operands may be negated,
    quantified, or parenthesized."""
    pool = ["A", "B", "P(x)", "Q(x)"]
    parts = []
    for _ in range(operators + 1):
        operand = rng.choice(pool)
        roll = rng.random()
        if roll < 0.2:
            operand = f"¬{operand}"
        elif roll < 0.35:
            operand = f"∀x {operand}"
        elif roll < 0.45:
            operand = f"({operand} ∨ {rng.choice(pool)})"
        parts.append(operand)
    ops = [rng.choice(["∧", "∨", "→", "↔", "⊕"]) for _ in range(operators)]
    text = parts[0]
    for op, part in zip(ops, parts[1:]):
        text += f" {op} {part}"
    return text


# --- group equals alone -------------------------------------------------------


@pytest.mark.parametrize("mode", MODES)
def test_random_formula_groups(mode):
    rng = random.Random(20250801)
    formulas = [render(random_formula(rng, max_atoms=6, max_depth=5)) for _ in range(80)]
    for start in range(0, len(formulas), 8):
        predictions = formulas[start : start + 8]
        check_group(predictions, predictions[0], mode)


@pytest.mark.parametrize("mode", MODES)
def test_law_rewrite_groups(mode):
    predictions = [pred for pred, _ in LAW_PAIRS]
    for _, reference in LAW_PAIRS:
        group = check_group(predictions, reference, mode)
        for (pred, ref), result in zip(LAW_PAIRS, group):
            if ref == reference:
                assert result.score == 1.0, (pred, ref)


@pytest.mark.parametrize("mode", MODES)
def test_flat_chain_groups(mode):
    rng = random.Random(7)
    for _ in range(6):
        predictions = [chain_text(rng, k) for k in range(1, 11)]
        group = check_group(predictions, chain_text(rng, rng.randint(1, 6)), mode)
        assert max(r.trees_explored for r in group if not isinstance(r, Exception)) > 1
    reflexive = [chain_text(rng, k) for k in (4, 8, 10)]
    for text in reflexive:
        (report,) = check_group([text], text, mode)
        assert report.score == 1.0


@pytest.mark.parametrize("mode", MODES)
def test_duplicate_predictions_share_one_report(mode):
    predictions = ["A ∧ B", "B ∧ A", "A ∧ B", "garbage ∧", "A ∨ B ∨ C", "garbage ∧", "B ∧ A", "A ∧ B"]
    group = check_group(predictions, "A ∧ B", mode)
    assert group[0] is group[2] is group[7]
    assert group[1] is group[6]
    assert group[3] is group[5]
    assert isinstance(group[3], ParseError)


def test_errors_match_scoring_alone():
    over_chain = " ∧ ".join(["A"] * 18)
    many_atoms = " ∧ ".join(f"X{i}" for i in range(15))
    for mode in MODES:
        group = check_group(["", "garbage ∧", "P(", over_chain, many_atoms, "A"], "A ∧ B", mode)
        assert [type(r) for r in group[:4]] == [ParseError, ParseError, ParseError, CapExceeded]
        assert isinstance(group[4], CapExceeded)  # factorial cap or truth-table cap
    group = check_group([many_atoms, "A"], "A ∧ B", "optimized", LeConfig(max_atoms=6))
    assert isinstance(group[0], CapExceeded)


@pytest.mark.parametrize("reference", ["", "A ∧", "P(x", "A B"])
def test_bad_reference_raises_like_scoring_alone(reference):
    with pytest.raises(ParseError) as alone:
        le_score("A", reference)
    with pytest.raises(ParseError) as grouped:
        score_group(["A", "B", "garbage ∧"], reference)
    with pytest.raises(ParseError) as parsed:
        parse(reference)
    assert str(grouped.value) == str(alone.value) == str(parsed.value)


def test_unknown_mode_is_value_error():
    with pytest.raises(ValueError):
        score_group(["A"], "A", mode="fast")


def test_group_of_eight_parses_reference_once(monkeypatch):
    calls = []
    real_parse = equivalence.parse

    def counting_parse(text, *args, **kwargs):
        calls.append(text)
        return real_parse(text, *args, **kwargs)

    monkeypatch.setattr(equivalence, "parse", counting_parse)
    predictions = ["A ∧ B", "B ∧ A", "A", "A ∨ B", "A → B", "garbage ∧", "A ∧ B ∧ C", "B"]
    group = score_group(predictions, "A ∧ B")
    assert len(group) == 8
    assert calls == ["A ∧ B"]


def test_compiled_reference_is_reusable():
    reference = compile_reference("∀x (P(x) → Q(x))")
    texts = ["∀y (P(y) → Q(y))", "∀x (Q(x) → P(x))", "P(a)"]
    first = score_group(texts, reference)
    second = score_group(list(reversed(texts)), reference)
    assert [fields(r) for r in first] == [fields(r) for r in reversed(second)]
    assert [fields(r) for r in first] == [fields(le_score(t, "∀x (P(x) → Q(x))")) for t in texts]


# --- why one prediction's trees can share one set of tables ----------------


def _random_operand(rng: random.Random, depth: int = 0):
    roll = rng.random()
    if depth < 3 and roll < 0.2:
        return Not(_random_operand(rng, depth + 1))
    if depth < 3 and roll < 0.45:
        return Quantified(rng.choice(["forall", "exists"]), rng.choice("xyz"), _random_operand(rng, depth + 1))
    if depth < 3 and roll < 0.6:
        op = rng.choice(["and", "or", "implies", "iff", "xor"])
        return Binary(op, _random_operand(rng, depth + 1), _random_operand(rng, depth + 1))
    name = rng.choice(["P", "Q", "R"])
    return Atom(name, (rng.choice("xyza"),)) if rng.random() < 0.7 else Atom(name)


def _parenthesized(expr) -> str:
    text = render(expr)
    return f"({text})" if isinstance(expr, Binary) else text


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10 ** 9), st.integers(1, 8), st.sampled_from([None, 3, 4]))
def test_every_bracketing_has_the_same_canonical_atoms(seed, operators, chunk_size):
    rng = random.Random(seed)
    operands = [_random_operand(rng) for _ in range(operators + 1)]
    ops = [rng.choice(["∧", "∨", "→", "↔", "⊕"]) for _ in range(operators)]
    text = _parenthesized(operands[0])
    for op, operand in zip(ops, operands[1:]):
        text += f" {op} {_parenthesized(operand)}"
    trees = enumerate_bracketings(lex(text), chunk_size=chunk_size)
    first = atoms_of(canonicalize(trees[0]))
    for tree in trees[1:]:
        assert atoms_of(canonicalize(tree)) == first, (text, render(tree))
