"""Independent correctness oracle.

Evaluates the benchmark's own formula trees (see ``gen``) row by row over
every truth assignment, using numpy boolean columns, one entry per row.
It imports nothing from ``foleq``: canonical renaming of bound variables
and atom naming are re-derived here from the documented rules, so a change
to the program's parser, renaming or truth tables cannot also change the
oracle.
"""

from __future__ import annotations

import numpy as np

from gen import atom_text

# An agreement above this many variables would need more than 2^20 rows;
# the program's own cap is 16.
MAX_ORACLE_VARS = 20


def _free_names(node, bound=frozenset(), out=None) -> set:
    if out is None:
        out = set()
    kind = node[0]
    if kind == "atom":
        out.update(a for a in node[2] if a not in bound)
    elif kind == "not":
        _free_names(node[1], bound, out)
    elif kind == "q":
        _free_names(node[3], bound | {node[2]}, out)
    else:
        _free_names(node[2], bound, out)
        _free_names(node[3], bound, out)
    return out


def canonical(node):
    """Rename bound variables to v1, v2, ... in order of quantifier
    appearance, skipping names that occur free (the documented rule)."""
    free = _free_names(node)
    counter = [0]

    def fresh():
        while True:
            counter[0] += 1
            name = f"v{counter[0]}"
            if name not in free:
                return name

    def walk(n, env):
        kind = n[0]
        if kind == "atom":
            return ("atom", n[1], tuple(env.get(a, a) for a in n[2]))
        if kind == "not":
            return ("not", walk(n[1], env))
        if kind == "q":
            name = fresh()
            return ("q", n[1], name, walk(n[3], {**env, n[2]: name}))
        return ("bin", n[1], walk(n[2], env), walk(n[3], env))

    return walk(node, {})


def atom_names(node, out=None) -> list[str]:
    """Distinct canonical atom texts in first-occurrence order."""
    if out is None:
        out = {}
    kind = node[0]
    if kind == "atom":
        out.setdefault(atom_text(node), None)
    elif kind == "not":
        atom_names(node[1], out)
    elif kind == "q":
        atom_names(node[3], out)
    else:
        atom_names(node[2], out)
        atom_names(node[3], out)
    return list(out)


def _evaluate(node, columns: dict):
    kind = node[0]
    if kind == "atom":
        return columns[atom_text(node)]
    if kind == "not":
        return ~_evaluate(node[1], columns)
    if kind == "q":  # the skeleton ignores quantifiers
        return _evaluate(node[3], columns)
    left = _evaluate(node[2], columns)
    right = _evaluate(node[3], columns)
    op = node[1]
    if op == "and":
        return left & right
    if op == "or":
        return left | right
    if op == "implies":
        return ~left | right
    if op == "iff":
        return left == right
    return left != right


def agreement(pred, ref, pairs: dict[str, str], unbound: list[str]) -> float:
    """Share of truth assignments on which the canonical skeletons agree
    when prediction atom ``p`` shares a variable with reference atom
    ``pairs[p]`` and each atom in ``unbound`` is a variable of its own."""
    variables = {name: i for i, name in enumerate(atom_names(ref))}
    pred_columns_of = {p: variables[r] for p, r in pairs.items()}
    for i, name in enumerate(unbound):
        pred_columns_of[name] = len(variables) + i
    k = len(variables) + len(unbound)
    if k > MAX_ORACLE_VARS:
        raise ValueError(f"{k} variables is too many rows to enumerate")
    rows = np.arange(1 << k, dtype=np.int64)
    column = [((rows >> i) & 1).astype(bool) for i in range(k)]
    ref_columns = {name: column[i] for name, i in variables.items()}
    pred_columns = {name: column[i] for name, i in pred_columns_of.items()}
    agree = int(np.count_nonzero(_evaluate(pred, pred_columns) == _evaluate(ref, ref_columns)))
    return agree / (1 << k)


def check_binding(pred, ref, pairs: dict[str, str], unbound: list[str]) -> str | None:
    """Why a reported binding is not a valid injective map between the two
    atom sets, or None when it is."""
    pred_names = set(atom_names(pred))
    ref_names = set(atom_names(ref))
    if not set(pairs) <= pred_names or not set(pairs.values()) <= ref_names:
        return "binding names atoms the formulas do not have"
    if len(set(pairs.values())) != len(pairs):
        return "binding is not injective"
    if set(unbound) != pred_names - set(pairs):
        return "unbound prediction atoms do not complete the binding"
    return None


def in_caps(pair, max_atoms: int = 16, mode: str = "optimized", max_factorial_atoms: int = 7) -> bool:
    """True when the prediction was built from the reference's atoms only,
    so the identity binding scores it inside the truth-table cap (and, in
    original mode, inside the factorial-search cap).  A cap error on such a
    pair is a wrong answer, not a limit."""
    if not pair.subset_atoms:
        return False
    n = len(atom_names(canonical(pair.ref_tree)))
    return n <= max_atoms and (mode != "original" or n <= max_factorial_atoms)


def score_pair(pair, score: float, binding: dict | None, trees_explored: int | None) -> str | None:
    """Judge one returned score.  ``binding`` is the report's binding as
    {"pairs": {...}, "unbound_prediction": [...]}.  Returns a reason for a
    mismatch, or None when the score is right."""
    if not 0.0 <= score <= 1.0:
        return f"score {score} outside [0, 1]"
    if pair.equivalent and score != 1.0:
        return f"pair built to be equivalent scored {score}"
    if pair.pred_tree is None or binding is None:
        return None
    if trees_explored != 1:
        return f"single-reading prediction explored {trees_explored} trees"
    pred = canonical(pair.pred_tree)
    ref = canonical(pair.ref_tree)
    pairs = binding["pairs"]
    unbound = list(binding["unbound_prediction"])
    reason = check_binding(pred, ref, pairs, unbound)
    if reason is not None:
        return reason
    expected = agreement(pred, ref, pairs, unbound)
    if expected != score:
        return f"score {score} but the oracle gives {expected} under the reported binding"
    return None
