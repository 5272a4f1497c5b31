"""Seeded input generators for the three workloads.

Formulas are built as the benchmark's own trees and rendered to text, so
the oracle knows the intended reading of every input without asking the
program to parse it.  Trees are tuples:

    ("atom", predicate, args)   ("not", body)
    ("bin", op, left, right)    ("q", quantifier, variable, body)

with ``op`` one of and / or / implies / iff / xor, as in ``foleq.syntax``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

OPS = ("and", "or", "implies", "iff", "xor")
SYMBOL = {"and": "∧", "or": "∨", "implies": "→", "iff": "↔", "xor": "⊕"}
QUANT_SYMBOL = {"forall": "∀", "exists": "∃"}
# precedence-mode levels of foleq's parser: higher binds tighter
PREC = {"iff": 1, "xor": 1, "implies": 2, "or": 3, "and": 4}

MAX_CHAIN_OPS = 8

# Predicate stems and modifiers; their product gives about 5,000 names, so
# one run's distinct atom texts outgrow the similarity caches (levenshtein
# holds 16,384 pairs, the n-gram vectors 8,192 strings).
_STEMS = (
    "Likes Teaches Owns Loves Helps Knows Sees Trusts Fears Visits Follows Leads "
    "Writes Reads Builds Sells Buys Finds Hides Meets Calls Pays Feeds Cleans Drives "
    "Guards Hunts Paints Plays Rides Serves Signs Studies Tests Wins Admires Blames "
    "Carries Chases Checks Counts Covers Enjoys Greets Hears Joins Kicks Lifts Marks "
    "Moves Names Opens Orders Passes Picks Pulls Pushes Reaches Saves Shares Shows "
    "Solves Starts Stops Takes Tells Thanks Touches Trains Treats Uses Wants Warns "
    "Watches Wears Wraps Yields Zooms Bakes Binds Cooks"
).split()
_MODIFIERS = (
    "", "Red", "Blue", "Old", "Young", "Tall", "Small", "Happy", "Quiet", "Rich",
    "Poor", "Smart", "Brave", "Calm", "Eager", "Fair", "Gentle", "Kind", "Loud",
    "Proud", "Swift", "Wise", "Bold", "Keen", "Neat", "Odd", "Pale", "Rare", "Safe",
    "Warm", "Wild", "Dry", "Fast", "Green", "Grey", "Dark", "Light", "Hot", "Cold",
    "Soft", "Hard", "Sharp", "Deep", "Thin", "Wide", "Long", "Short", "Clear", "Plain",
    "Prime", "Major", "Minor", "Inner", "Outer", "Upper", "Lower", "North", "South",
    "East", "West", "First", "Last", "Early", "Late",
)
_ARGS = ("x", "y", "z", "a", "b", "c", "d", "e")
# Letters for the P0(x) ∨ Q0(x) families; the warm-up stream takes the others.
_FAMILY_LETTERS = "PQRSABCDEFGHJK"
_WARM_FAMILY_LETTERS = "LMNTUVWXYZ"
_GARBAGE = (
    "{a} ∧ ∧ {b}",
    "({a} ∨ {b}",
    "{a} {b}",
    "→ {a}",
    "{a} ∧ ({b} ∨)",
    "{p}(x,) ∧ {a}",
    "{a} $ {b}",
    "∀ ({a})",
    "{a} ∨ {b})",
    "¬",
)
# Serving references come from this small fixed vocabulary, so their
# similarity lookups hit the caches; the warm-up stream uses a disjoint one.
_SERVE_PREDICATES = ("P", "Q", "R", "S", "T", "U")
_WARM_SERVE_PREDICATES = ("A", "B", "C", "D", "E", "F")


# --- rendering ------------------------------------------------------------


def atom_text(node) -> str:
    _, pred, args = node
    return f"{pred}({', '.join(args)})" if args else pred


def render(node) -> str:
    """One reading only: every binary operand is parenthesized, so the
    outermost connective chain has at most one operator."""
    kind = node[0]
    if kind == "atom":
        return atom_text(node)
    if kind == "not":
        return "¬" + _operand(node[1])
    if kind == "q":
        return f"{QUANT_SYMBOL[node[1]]}{node[2]} {_operand(node[3])}"
    return f"{_operand(node[2])} {SYMBOL[node[1]]} {_operand(node[3])}"


def _operand(node) -> str:
    text = render(node)
    return f"({text})" if node[0] == "bin" else text


def render_chain(operands, ops) -> str:
    """A flat unparenthesized chain; the program enumerates its readings."""
    parts = [render(operands[0])]
    for op, operand in zip(ops, operands[1:]):
        parts.append(SYMBOL[op])
        parts.append(render(operand))
    return " ".join(parts)


def precedence_tree(operands, ops):
    """The precedence-mode reading of a flat chain: implies groups to the
    right, every other connective to the left."""
    pos = 0

    def level(min_prec):
        nonlocal pos
        left = operands[pos]
        while pos < len(ops) and PREC[ops[pos]] >= min_prec:
            op = ops[pos]
            pos += 1
            right_min = PREC[op] if op == "implies" else PREC[op] + 1
            right = level(right_min)
            left = ("bin", op, left, right)
        return left

    return level(1)


def atoms(node, out=None) -> list:
    """Distinct atom nodes in first-occurrence order."""
    if out is None:
        out = {}
    kind = node[0]
    if kind == "atom":
        out.setdefault(atom_text(node), node)
    elif kind == "not":
        atoms(node[1], out)
    elif kind == "q":
        atoms(node[3], out)
    else:
        atoms(node[2], out)
        atoms(node[3], out)
    return list(out.values())


def rename(node, names: dict):
    kind = node[0]
    if kind == "atom":
        return ("atom", names.get(node[1], node[1]), node[2])
    if kind == "not":
        return ("not", rename(node[1], names))
    if kind == "q":
        return ("q", node[1], node[2], rename(node[3], names))
    return ("bin", node[1], rename(node[2], names), rename(node[3], names))


# --- equivalence-preserving rewrites -----------------------------------------


def _rewrite_once(node, rng: random.Random):
    """Apply one law at one randomly chosen node, or return None when no
    law applies anywhere below ``node``."""
    kind = node[0]
    candidates = []
    if kind == "bin":
        op, left, right = node[1], node[2], node[3]
        if op in ("and", "or", "iff", "xor"):
            candidates.append(("bin", op, right, left))  # commutation
        if op in ("and", "or"):
            dual = "or" if op == "and" else "and"
            candidates.append(("not", ("bin", dual, ("not", left), ("not", right))))  # De Morgan
        if op == "implies":
            candidates.append(("bin", "implies", ("not", right), ("not", left)))  # contrapositive
            candidates.append(("bin", "or", ("not", left), right))  # → as ¬∨
        if op == "or" and left[0] == "not":
            candidates.append(("bin", "implies", left[1], right))  # ¬∨ as →
    elif kind == "not" and node[1][0] == "bin" and node[1][1] in ("and", "or"):
        inner = node[1]
        dual = "or" if inner[1] == "and" else "and"
        candidates.append(("bin", dual, ("not", inner[2]), ("not", inner[3])))  # De Morgan

    children = []
    if kind == "bin":
        children = [2, 3]
    elif kind == "not":
        children = [1]
    elif kind == "q":
        children = [3]
    if children and (not candidates or rng.random() < 0.6):
        idx = rng.choice(children)
        replaced = _rewrite_once(node[idx], rng)
        if replaced is not None:
            return node[:idx] + (replaced,) + node[idx + 1 :]
    return rng.choice(candidates) if candidates else None


def rewrite(node, rng: random.Random, steps: int):
    for _ in range(steps):
        replaced = _rewrite_once(node, rng)
        if replaced is not None:
            node = replaced
    return node


# --- paraphrased predicate names ---------------------------------------------


def paraphrase_name(name: str, rng: random.Random) -> str:
    """A model's near-miss spelling of a predicate: an "Is" prefix, a
    plural/singular flip, a suffix, a case change, or an unrelated name."""
    roll = rng.random()
    if roll < 0.25:
        return "Is" + name
    if roll < 0.45:
        return name[:-1] if name.endswith("s") else name + "s"
    if roll < 0.65:
        return name + "Of"
    if roll < 0.8:
        return name.lower().capitalize() + "X"
    return "Does" + name[::-1].capitalize()


# --- corpus_groups -----------------------------------------------------------


@dataclass
class Pair:
    """One prediction against its reference, with the trees the benchmark
    built them from.  ``kind`` names how the prediction was made and
    ``ref_kind`` how the reference was; ``equivalent`` marks pairs built to
    score 1.0; ``subset_atoms`` marks predictions built only from the
    reference's atoms; ``pred_tree`` is None for text with several
    readings or none."""

    prediction: str
    reference: str
    ref_tree: object
    pred_tree: object
    kind: str
    equivalent: bool
    ref_kind: str = "plain"
    subset_atoms: bool = False

    @property
    def flat_chain(self) -> bool:
        return self.kind == "chain" or (self.kind == "copy" and self.ref_kind == "chain")


@dataclass
class Vocabulary:
    stems: tuple
    family_letters: str
    serve_predicates: tuple


MEASURED = Vocabulary(tuple(_STEMS), _FAMILY_LETTERS, _SERVE_PREDICATES)
# Warm-up inputs share no atom text with measured inputs, so warming up does
# not pre-fill the cache entries the measured inputs will look up.
WARM = Vocabulary(tuple("Zq" + s for s in _STEMS), _WARM_FAMILY_LETTERS, _WARM_SERVE_PREDICATES)


def _random_op(rng: random.Random) -> str:
    """A connective, mostly and / or / implies."""
    return rng.choices(OPS, weights=(4, 4, 3, 1, 1))[0]


def _random_tree(leaves: list, rng: random.Random):
    """A random binary tree over ``leaves`` in order, with some negations."""
    if len(leaves) == 1:
        leaf = leaves[0]
        return ("not", leaf) if rng.random() < 0.2 else leaf
    split = rng.randint(1, len(leaves) - 1)
    node = ("bin", _random_op(rng), _random_tree(leaves[:split], rng), _random_tree(leaves[split:], rng))
    return ("not", node) if rng.random() < 0.1 else node


def _plain_reference(rng: random.Random, vocab: Vocabulary, n: int):
    names = rng.sample(vocab.stems, n)
    quantified = rng.random() < 0.3
    leaves = []
    for name in names:
        name = name + rng.choice(_MODIFIERS)
        arity = rng.choice((1, 1, 2))
        if quantified:
            args = ("x",) if arity == 1 else ("x", rng.choice(_ARGS[1:]))
        else:
            args = tuple(rng.sample(_ARGS, arity))
        leaves.append(("atom", name, args))
    tree = _random_tree(leaves, rng)
    if quantified:
        tree = ("q", rng.choice(("forall", "exists")), "x", tree)
    return tree


def _similar_reference(rng: random.Random, vocab: Vocabulary, n: int):
    """``n`` atoms whose names differ by one character or whose arguments
    are swapped, so the candidate graph has one-to-many components."""
    if rng.random() < 0.6:
        # (P0(x) ∨ Q0(x)) ∧ (P1(x) ∨ Q1(x)) ∧ ...
        p, q = rng.sample(vocab.family_letters, 2)
        var = rng.choice("xyz")
        leaves = []
        for i in range((n + 1) // 2):
            leaves.append(("atom", f"{p}{i}", (var,)))
            leaves.append(("atom", f"{q}{i}", (var,)))
        leaves = leaves[:n]
        clauses = [("bin", "or", leaves[i], leaves[i + 1]) if i + 1 < n else leaves[i] for i in range(0, n, 2)]
        tree = clauses[0]
        for clause in clauses[1:]:
            tree = ("bin", "and", tree, clause)
        return tree
    # LikesOld(x, y) / LikesOld(y, x) style; the modifier makes the name
    # long enough for the swapped pair to clear the similarity threshold
    leaves = []
    stems = rng.sample(vocab.stems, (n + 1) // 2)
    for stem in stems:
        a, b = rng.sample(_ARGS[:4], 2)
        name = stem + rng.choice(_MODIFIERS[1:])
        leaves.append(("atom", name, (a, b)))
        leaves.append(("atom", name, (b, a)))
    leaves = leaves[:n]
    rng.shuffle(leaves)
    return _random_tree(leaves, rng)


def _chain_reference(rng: random.Random, vocab: Vocabulary, n: int):
    names = rng.sample(vocab.stems, n)
    operands = [("atom", name + rng.choice(_MODIFIERS), tuple(rng.sample(_ARGS, rng.choice((1, 2))))) for name in names]
    operands = [("not", a) if rng.random() < 0.15 else a for a in operands]
    ops = [_random_op(rng) for _ in range(n - 1)]
    return operands, ops


def _garbage(rng: random.Random, ref_tree) -> str:
    leaves = atoms(ref_tree)
    a = atom_text(rng.choice(leaves))
    b = atom_text(rng.choice(leaves))
    return rng.choice(_GARBAGE).format(a=a, b=b, p=leaves[0][1])


def _chain_prediction(rng: random.Random, ref_tree, n: int):
    """A flat chain over ``n`` of the reference's atoms (fewer if it has
    fewer), some negated, with random connectives."""
    leaves = atoms(ref_tree)
    n = min(len(leaves), n)
    operands = rng.sample(leaves, n)
    operands = [("not", a) if rng.random() < 0.15 else a for a in operands]
    ops = [_random_op(rng) for _ in range(n - 1)]
    return render_chain(operands, ops)


# Reference kinds by a group's position in each block of 20: 4 similar-named
# (S), 3 flat chains (C), 13 plain (P).  A fixed schedule, rather than a
# random draw, keeps every run's mix the same, so seeds differ only in the
# formulas themselves.
_REF_SCHEDULE = "PPSPCPPSPPCPSPPCPSPP"
_PLAIN_SIZES = (3, 3, 4, 4, 5, 5, 6, 6, 7, 8, 9, 10, 11, 12)
_PREDICTION_KINDS = ("copy", "law", "law", "law", "para", "para", "chain", "garbage")


def corpus_group(rng: random.Random, index: int, vocab: Vocabulary = MEASURED) -> list[Pair]:
    """Eight distinct predictions against one shared reference: an exact
    copy, three law rewrites, two paraphrases, a flat chain and garbage.
    ``index`` is the group's position in the stream."""
    block, slot = divmod(index, len(_REF_SCHEDULE))
    letter = _REF_SCHEDULE[slot]
    ref_kind = {"S": "similar", "C": "chain", "P": "plain"}[letter]
    # this reference's rank among those of its kind, so sizes cycle quickly
    rank = block * _REF_SCHEDULE.count(letter) + _REF_SCHEDULE[:slot].count(letter)
    if ref_kind == "similar":
        ref_tree = _similar_reference(rng, vocab, 3 + rank % 10)
        reference = render(ref_tree)
    elif ref_kind == "chain":
        operands, ops = _chain_reference(rng, vocab, 3 + rank % (MAX_CHAIN_OPS - 1))
        ref_tree = precedence_tree(operands, ops)
        reference = render_chain(operands, ops)
    else:
        ref_tree = _plain_reference(rng, vocab, _PLAIN_SIZES[index % len(_PLAIN_SIZES)])
        reference = render(ref_tree)

    pairs: list[Pair] = []
    seen: set[str] = set()

    def make(kind):
        if kind == "copy":
            return reference, ref_tree if ref_kind != "chain" else None, True
        if kind == "law":
            tree = rewrite(ref_tree, rng, rng.randint(1, 3))
            return render(tree), tree, True
        if kind == "para":
            names = sorted({leaf[1] for leaf in atoms(ref_tree)})
            chosen = rng.sample(names, rng.randint(1, max(1, len(names) // 2)))
            mapping = {name: paraphrase_name(name, rng) for name in chosen}
            tree = rename(rewrite(ref_tree, rng, rng.randint(0, 2)), mapping)
            return render(tree), tree, False
        if kind == "chain":
            return _chain_prediction(rng, ref_tree, 3 + index % (MAX_CHAIN_OPS - 1)), None, False
        return _garbage(rng, ref_tree), None, False

    for kind in _PREDICTION_KINDS:
        for attempt in range(50):
            text, tree, equivalent = make(kind)
            if text not in seen:
                break
            if attempt >= 20 and kind != "garbage":
                kind = "para"  # a small reference can run out of distinct rewrites
            elif attempt >= 20:
                text += " ∧" * (attempt - 19)  # a dangling connective keeps it unparseable
                break
        seen.add(text)
        subset = kind in ("copy", "law", "chain")
        pairs.append(Pair(text, reference, ref_tree, tree, kind, equivalent, ref_kind, subset))
    return pairs


# --- serve_mixed -------------------------------------------------------------


@dataclass
class Request:
    """One wire line and what the oracle needs to judge its reply."""

    line: str
    id: str
    op: str  # le_score, bleu_pair, or "malformed"
    mode: str
    pair: Pair | None
    kind: str
    max_atoms: int = 16


def _serve_reference(rng: random.Random, vocab: Vocabulary, n: int):
    leaves = []
    while len(leaves) < n:
        pred = rng.choice(vocab.serve_predicates)
        args = rng.choice(((), ("x",), ("y",), ("x", "y")))
        leaf = ("atom", pred, args)
        if leaf not in leaves:
            leaves.append(leaf)
    return _random_tree(leaves, rng)


def _perturb(node, rng: random.Random):
    """A near miss: one connective swapped or one subformula negated."""
    kind = node[0]
    if kind == "bin" and rng.random() < 0.5:
        op = rng.choice([o for o in OPS if o != node[1]])
        return ("bin", op, node[2], node[3])
    if kind == "bin":
        idx = rng.choice((2, 3))
        return node[:idx] + (_perturb(node[idx], rng),) + node[idx + 1 :]
    if kind == "not":
        return node[1]
    return ("not", node)


# Prediction kinds by position: each holds for 50 consecutive requests, which
# cover every operation and atom count, and the cycle of 20 gives 10% exact
# copies, 40% law rewrites, 15% flat chains and 35% near misses.
_SERVE_KINDS = ("law", "perturbed", "chain", "law", "perturbed", "copy", "law", "perturbed", "law", "chain",
                "perturbed", "law", "perturbed", "copy", "law", "perturbed", "chain", "law", "perturbed", "law")


def serve_requests(rng: random.Random, vocab: Vocabulary = MEASURED, prefix: str = "r"):
    """A closed-loop trainer's request stream: 70% optimized ``le_score``,
    20% ``mode: "original"``, 10% ``bleu_pair``, and a few overrides,
    malformed lines, unparseable predictions and degenerate ``¬`` runs.
    The operation, the reference's atom count (2 to 6) and the prediction's
    kind follow the request's position, so every run has the same mix.  No
    (prediction, reference) pair repeats.  Yields requests without end."""
    seen_refs: set[str] = set()
    n = 0
    while True:
        rid = f"{prefix}{n}"
        if n % 100 == 71:
            line = rng.choice((
                "{not json",
                json.dumps({"id": rid, "op": "le_score", "prediction": "P"}),
                json.dumps({"id": rid, "op": "rank", "prediction": "P", "reference": "P"}),
                json.dumps({"id": rid, "op": "le_score", "prediction": "P", "reference": "P", "mode": "fast"}),
                json.dumps({"id": rid, "op": "le_score", "prediction": "P", "reference": "P", "overrides": {"beam": 2}}),
            ))
            n += 1
            yield Request(line, rid, "malformed", "", None, "malformed")
            continue
        ref_tree = _serve_reference(rng, vocab, 2 + n // 10 % 5)
        reference = render(ref_tree)
        if reference in seen_refs:
            continue
        seen_refs.add(reference)

        slot = n % 10
        op, mode = ("le_score", "optimized") if slot < 7 else ("le_score", "original") if slot < 9 else ("bleu_pair", "")
        main_kind = _SERVE_KINDS[n // 50 % len(_SERVE_KINDS)]
        if n % 200 == 37:
            # a degenerate sample: a long run of negations, in exactly one
            # request of every 200 so each run's share is the same.  The two
            # length bands alternate and keep the outcome independent of the
            # caller's stack depth: the short band parses, the long band
            # exceeds the default recursion limit (a known defect that
            # surfaces as INTERNAL).
            depth = rng.randint(20, 400) if n // 200 % 2 else rng.randint(1200, 2000)
            leaf = rng.choice(atoms(ref_tree))
            kind, prediction, tree, equivalent = "degenerate", "¬" * depth + atom_text(leaf), None, False
        elif n % 100 in (13, 88):
            kind, prediction, tree, equivalent = "garbage", _garbage(rng, ref_tree), None, False
        elif main_kind == "copy":
            kind, prediction, tree, equivalent = "copy", reference, ref_tree, True
        elif main_kind == "law":
            tree = rewrite(ref_tree, rng, rng.randint(1, 3))
            kind, prediction, equivalent = "law", render(tree), True
        elif main_kind == "chain":
            kind, prediction, tree, equivalent = "chain", _chain_prediction(rng, ref_tree, rng.randint(3, MAX_CHAIN_OPS + 1)), None, False
        else:
            tree = _perturb(rewrite(ref_tree, rng, rng.randint(0, 2)), rng)
            kind, prediction, equivalent = "perturbed", render(tree), False
        body = {"id": rid, "op": op, "prediction": prediction, "reference": reference}
        max_atoms = 16
        if op == "le_score":
            body["mode"] = mode
            if rng.random() < 0.03:
                override = rng.choice(({"threshold": 0.5}, {"max_atoms": 12}, {"chunk_size": 3}))
                body["overrides"] = override
                max_atoms = override.get("max_atoms", 16)
        subset = kind in ("copy", "law", "chain", "perturbed")
        pair = Pair(prediction, reference, ref_tree, tree, kind, equivalent, "serve", subset)
        n += 1
        yield Request(json.dumps(body, ensure_ascii=False), rid, op, mode, pair, kind, max_atoms)
