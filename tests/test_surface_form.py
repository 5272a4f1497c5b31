"""The score of a pair whose texts each have one reading does not depend on
how the formulas are written: ASCII spelling, a ``¬¬( … )`` wrapper and, in
original mode, the operand order of ``∧ ∨ ↔ ⊕`` leave it bit-identical.

Optimized mode is left out of the operand-order property on purpose:
commuting operands renumbers bound variables, which changes which atoms the
similarity graph relates (``test_known_holes.py`` pins a pair).
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from foleq.equivalence import DEFAULT_LE, le_score
from foleq.syntax import AND, IFF, OR, XOR, Binary, FormulaError, Not, Quantified, enumerate_bracketings, lex, render

from helpers import random_formula

_COMMUTATIVE = (AND, OR, IFF, XOR)


def _commuted(expr):
    """The tree with the operands of every ``∧ ∨ ↔ ⊕`` swapped."""
    if isinstance(expr, Binary):
        left, right = _commuted(expr.left), _commuted(expr.right)
        return Binary(expr.op, right, left) if expr.op in _COMMUTATIVE else Binary(expr.op, left, right)
    if isinstance(expr, Not):
        return Not(_commuted(expr.body))
    if isinstance(expr, Quantified):
        return Quantified(expr.quantifier, expr.variable, _commuted(expr.body))
    return expr


# Each surface form: the modes it holds in, and the pairs of texts, written
# from one prediction and one reference tree, that must all score the same.
_FORMS = {
    "ascii": (("optimized", "original"), lambda p, r: [(render(p), render(r)), (render(p, "ascii"), render(r))]),
    "double negation": (
        ("optimized", "original"),
        lambda p, r: [(render(p), render(r)), (f"¬¬({render(p)})", render(r))],
    ),
    "operand order": (
        ("original",),
        lambda p, r: [(render(p), render(r)), (render(_commuted(p)), render(r)), (render(p), render(_commuted(r)))],
    ),
}


def _score(prediction: str, reference: str, mode: str):
    """The score, or the error's class and text."""
    try:
        return le_score(prediction, reference, mode).score
    except FormulaError as exc:
        return type(exc), str(exc)


def _one_reading_texts(seed: int, forms) -> list[tuple[str, str]]:
    """The first pair of random trees from ``seed`` whose texts, as ``forms``
    writes them, each have one reading."""
    rng = random.Random(seed)
    while True:
        texts = forms(random_formula(rng), random_formula(rng))
        if all(len(enumerate_bracketings(lex(text), DEFAULT_LE.chunk_size)) == 1 for pair in texts for text in pair):
            return texts


@pytest.mark.parametrize(
    "form, mode", [(form, mode) for form, (modes, _) in _FORMS.items() for mode in modes]
)
@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32))
def test_single_reading_scores_do_not_depend_on_surface_form(form, mode, seed):
    texts = _one_reading_texts(seed, _FORMS[form][1])
    scores = [_score(prediction, reference, mode) for prediction, reference in texts]
    assert scores == [scores[0]] * len(scores), texts
