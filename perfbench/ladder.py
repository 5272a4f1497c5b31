"""Exact-count ladders: deterministic work counts, not timings.

Three ladders, each scored reflexively (a formula against itself):

* the acceptance suite's criterion-1 set (500 random formulas) in both modes,
* flat chains of k = 4, 6, 8, 10 operators,
* similar-named atom ladders of 4 to 16 atoms, ``(P0(x) ∨ Q0(x)) ∧ ...``.

The counts (trees, bindings, truth-table rows, which inputs score and which
raise ``CapExceeded``) must repeat exactly from run to run, so a change to
any of them is a visible decision.  Nothing here is gated.
"""

from __future__ import annotations

import random

from foleq import CapExceeded, le_score
from foleq.syntax import Atom, Binary, Not, Quantified, atoms_of, canonicalize, render

CRITERION_1_SEED = 20250801
_CONNECTIVES = ["and", "or", "implies", "iff", "xor"]


def _binary_nodes(expr) -> int:
    if isinstance(expr, Binary):
        return 1 + _binary_nodes(expr.left) + _binary_nodes(expr.right)
    if isinstance(expr, (Not, Quantified)):
        return _binary_nodes(expr.body)
    return 0


def _criterion_1_formula(rng: random.Random, max_atoms: int = 6, max_depth: int = 5):
    """The acceptance suite's random formula, drawing from ``rng`` in the
    same order so the same seed yields the same 500 formulas."""
    predicates = ["P", "Q", "R", "S", "T", "U"]

    def sample():
        pool: list = []

        def fresh_atom():
            if pool and (len(pool) >= max_atoms or rng.random() < 0.4):
                return rng.choice(pool)
            name = rng.choice(predicates)
            atom = Atom(name, (rng.choice("xyz"),)) if rng.random() < 0.5 else Atom(name)
            if atom not in pool:
                pool.append(atom)
            return atom

        def build(depth):
            if depth >= max_depth or rng.random() < 0.3:
                return fresh_atom()
            roll = rng.random()
            if roll < 0.2:
                return Not(build(depth + 1))
            if roll < 0.3:
                quant = rng.choice(["forall", "exists"])
                return Quantified(quant, rng.choice("xyz"), build(depth + 1))
            op = rng.choice(_CONNECTIVES)
            return Binary(op, build(depth + 1), build(depth + 1))

        return build(0)

    while True:
        expr = sample()
        if len(atoms_of(canonicalize(expr))) <= max_atoms and _binary_nodes(expr) <= 12:
            return expr


def _tally(texts, mode):
    counts = {"scored": 0, "score_1": 0, "cap_exceeded": 0, "trees": 0, "bindings": 0, "rows": 0}
    for text in texts:
        try:
            report = le_score(text, text, mode=mode)
        except CapExceeded:
            counts["cap_exceeded"] += 1
            continue
        counts["scored"] += 1
        counts["score_1"] += report.score == 1.0
        counts["trees"] += report.trees_explored
        counts["bindings"] += report.bindings_explored
        counts["rows"] += report.assignments_evaluated
    return counts


def chain_text(k: int) -> str:
    ops = ["∧", "∨"]
    parts = ["P1(x)"]
    for i in range(k):
        parts += [ops[i % len(ops)], f"P{i + 2}(x)"]
    return " ".join(parts)


def atom_ladder_text(n: int) -> str:
    atoms = [f"{letter}{i}(x)" for i in range((n + 1) // 2) for letter in "PQ"][:n]
    clauses = [f"({atoms[i]} ∨ {atoms[i + 1]})" if i + 1 < n else atoms[i] for i in range(0, n, 2)]
    return " ∧ ".join(clauses)


def ladder_lines() -> list[str]:
    rng = random.Random(CRITERION_1_SEED)
    reflexive = [render(_criterion_1_formula(rng)) for _ in range(500)]
    lines = []
    for mode in ("optimized", "original"):
        c = _tally(reflexive, mode)
        lines.append(
            f"ladder reflexive mode={mode} formulas={len(reflexive)} score_1={c['score_1']} "
            f"cap_exceeded={c['cap_exceeded']} trees={c['trees']} bindings={c['bindings']} rows={c['rows']}"
        )
    for k in (4, 6, 8, 10):
        c = _tally([chain_text(k)], "optimized")
        outcome = "CapExceeded" if c["cap_exceeded"] else f"score_1={c['score_1']}"
        lines.append(f"ladder chain k={k} {outcome} trees={c['trees']} bindings={c['bindings']} rows={c['rows']}")
    for n in range(4, 17):
        c = _tally([atom_ladder_text(n)], "optimized")
        outcome = "CapExceeded" if c["cap_exceeded"] else f"score_1={c['score_1']}"
        lines.append(f"ladder atoms n={n} {outcome} bindings={c['bindings']} rows={c['rows']}")
    return lines
