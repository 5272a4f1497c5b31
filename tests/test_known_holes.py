"""Pinned values of places where the metric can be gamed.

Each test states today's score for a pair that a policy could exploit.  A
change to one of these values is a deliberate decision about the metric:
update the pinned value and say why in the change log, never as a side
effect of another change.
"""

import pytest

from foleq.equivalence import BindingMap, le_score, propositional_score
from foleq.similarity import ngram_cosine
from foleq.syntax import CapExceeded, enumerate_bracketings, lex, parse

MODES = ["optimized", "original"]


@pytest.mark.parametrize("mode", MODES)
def test_flipped_quantifier_scores_full(mode):
    # The truth-table skeleton drops quantifiers, so ∀ and ∃ over the same
    # body are indistinguishable.  Changing this value is a deliberate
    # decision about the metric.
    assert le_score("∀x P(x)", "∃x P(x)", mode=mode).score == 1.0


@pytest.mark.parametrize("mode", MODES)
def test_renamed_predicates_score_full(mode):
    # Original mode binds atoms exhaustively, and in optimized mode the
    # shared argument text after canonical renaming makes P(v1) and R(v1)
    # similar enough to bind, so renaming every predicate keeps the score.
    # Changing this value is a deliberate decision about the metric.
    assert le_score("∀x (P(x) → Q(x))", "∀x (R(x) → S(x))", mode=mode).score == 1.0


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize(
    "prediction, reference, score",
    [
        ("A ∧ ¬A", "A ∧ B ∧ C ∧ D", 0.9375),
        ("A ∨ ¬A", "A → (B → (C → D))", 0.9375),
        ("A ∨ ¬A", "B → C", 0.75),
        ("Mortal(x)", "∀x (Man(x) → Mortal(x))", 0.75),
    ],
)
def test_constant_or_partial_answers_score_the_agreement_fraction(mode, prediction, reference, score):
    # Raw truth-table agreement pays a constant answer the reference's
    # false (or true) fraction, and a lone conclusion the rows on which it
    # agrees with the implication, without modelling the reference.
    # Changing these values is a deliberate decision about the metric.
    assert le_score(prediction, reference, mode=mode).score == score


@pytest.mark.parametrize("mode, score", [("optimized", 0.5), ("original", 1.0)])
def test_exact_threshold_pair_is_unrelated_in_floating_point(mode, score):
    # P(x) and Q(x) share three of five grams, so their exact cosine is
    # 3/5, the default threshold, which README calls inclusive.  The float
    # cosine is 0.5999999999999999, so optimized mode leaves both atoms
    # unbound, while original mode binds every atom regardless.  Changing
    # these values is a deliberate decision about the metric.
    assert ngram_cosine("P(x)", "Q(x)") == 0.5999999999999999
    report = le_score("P(x)", "Q(x)", mode=mode)
    assert report.score == score
    assert report.binding.as_dict() == ({} if mode == "optimized" else {"P(x)": "Q(x)"})


def test_component_winners_are_picked_one_component_at_a_time():
    # The search picks each enumerated component's winner with the later
    # components at their start matching, never jointly, so a complete
    # binding of the same components that scores higher can be missed:
    # swapping both JoinsHappy pairs and both RidesSafe pairs reaches
    # 0.73046875 on the first of the 6 readings, and the search reports
    # 0.71484375.  Original mode refuses the pair: 8 atoms is past its
    # factorial cap.  Changing these values is a deliberate decision about
    # the metric.
    prediction = "PicksQuiet(z, y) ∨ JoinsHappy(y, x) → RidesSafe(a, y) ∨ JoinsHappy(x, y) → RidesSafe(y, a)"
    reference = (
        "¬(¬((MovesFast(z, x) ∧ ¬RidesSafe(a, y)) → (PicksQuiet(y, z) ∨ (MovesFast(x, z) ∧ "
        "(¬JoinsHappy(x, y) ∧ RidesSafe(y, a))))) ∧ (JoinsHappy(y, x) → PicksQuiet(z, y)))"
    )
    assert le_score(prediction, reference).score == 0.71484375
    swapped = BindingMap(
        pairs=(
            ("PicksQuiet(z, y)", "PicksQuiet(z, y)"),
            ("JoinsHappy(y, x)", "JoinsHappy(x, y)"),
            ("JoinsHappy(x, y)", "JoinsHappy(y, x)"),
            ("RidesSafe(a, y)", "RidesSafe(y, a)"),
            ("RidesSafe(y, a)", "RidesSafe(a, y)"),
        ),
        unbound_reference=("MovesFast(z, x)", "PicksQuiet(y, z)", "MovesFast(x, z)"),
    )
    readings = enumerate_bracketings(lex(prediction), 4)
    assert len(readings) == 6
    assert max(propositional_score(tree, parse(reference), swapped) for tree in readings) == 0.73046875
    with pytest.raises(CapExceeded, match="^8 atoms exceeds the factorial-search cap 7$"):
        le_score(prediction, reference, mode="original")


@pytest.mark.parametrize("mode, score", [("optimized", 0.5), ("original", 1.0)])
def test_operand_order_moves_an_optimized_score(mode, score):
    # Canonical renaming names a bound variable by its quantifier's
    # pre-order index, so commuting the operands renames Q(v1) to Q(v2).
    # The same predicate under the two names is less similar than the two
    # predicates under one name, so optimized mode binds across predicates;
    # original mode binds every atom regardless.  Changing these values is
    # a deliberate decision about the metric.
    assert ngram_cosine("P(v1)", "P(v2)") == 0.4285714285714285
    assert ngram_cosine("P(v1)", "Q(v1)") == 0.7142857142857142
    report = le_score("∃y ¬Q(y) ∧ ∀x P(x)", "∀x P(x) ∧ ∃y ¬Q(y)", mode=mode)
    assert report.score == score
    assert report.binding.as_dict() == (
        {"Q(v1)": "P(v1)", "P(v2)": "Q(v2)"} if mode == "optimized" else {"Q(v1)": "Q(v2)", "P(v2)": "P(v1)"}
    )
