"""Logical-equivalence scoring between a predicted and a reference formula.

Scoring works on the propositional skeleton: after canonical renaming,
quantifier nodes are stripped and every distinct atom becomes a
propositional variable.  A binding maps prediction atoms onto reference
atoms (injectively); bound pairs share one variable, unbound atoms stay
distinct variables and depress the score.  The score is the fraction of
truth assignments on which the two skeletons agree, so it is 1.0 exactly
for equivalent readings and 0.0 for a formula against its negation under
the identity binding.

One binding search serves both modes, over one candidate graph
(``CandidateGraph.build``); the mode picks only the graph's rows.  The
search fixes every one-to-one component of the graph outright and
enumerates the maximum-cardinality injective assignments inside each
larger component, trying candidates in ascending edit-distance order.

``bind_original``
    Gives each prediction atom every reference atom as its row, so the
    graph is complete and one component: the search exhausts every
    complete injective matching of the smaller atom set (n! for equal
    sides), so ``MAX_FACTORIAL_ATOMS`` bounds it, below ``COMPONENT_CAP``.

``bind_optimized``
    Gives each prediction atom the reference atoms whose names are similar
    to its own under the similarity backend, and stops a component after
    ``COMPONENT_CAP`` scored assignments.

Ties between equal-scoring bindings break toward the smaller summed edit
distance, then toward the first-enumerated assignment, which makes both
modes deterministic.

A GRPO-style group scores many predictions against one reference, so a
``Scorer`` compiles the reference once (``CompiledReference``) and scores
each distinct prediction once, with one renaming, atom list and search plan
(``_AtomTables``) for all of its readings, each joined from operand codes.
It is the one memo path, for each prediction's result, and the one failure
rule, a ``FormulaError`` becoming the result of the prediction that raised
it, or of every prediction when the reference raised it: a group is scored by
calling one, and ``le_score``, ``corpus_le`` and the trainer's rewards do so.
An optimized-mode graph's rows come from one of two sources: a call of more
than one prediction, as a group's is, reads them from a
``similarity.GramIndex`` of the reference's atoms, which computes each
distinct atom text's row once from that text's grams; a call of one, as
``le_score``'s is, reads them through ``similarity.ngram_cosine``, whose
pair memo remembers each atom-pair cosine.  Both give the same rows, bit
for bit.  Edit distances are computed only where the search enumerates.
Every prediction's bindings are walked once (``_search``), however many
readings it has: at each binding the reference skeleton is evaluated once
under the inverse mapping, and each distinct reading truth table is scored
against it with one XOR; bindings that cannot change the report are
counted, not evaluated.  The search returns the report: the binding and
score of the first best reading, and counters that are one reading's walk
times the number of readings.  ``bind_original`` and ``bind_optimized`` are
that search for one reading (``trees_explored`` 1).

A walk over an enumerated component evaluates the reference at every
binding it does not cut, so it uses a compiled evaluator: the skeleton
turned into nested closures, built by each search that enumerates, above
its walk.  Building them costs about two interpreted evaluations, so the
evaluations made once interpret the skeleton (``_eval_bits``): a search
with no enumerated component, each reading's own table, and
``propositional_score``.

The walk keeps one value per reference atom, its pattern under the binding,
and rewrites only what a step changes: binding prediction atom i to
reference atom j writes variable i's pattern for j, and a leaf gives the
component's reference atoms it leaves unbound the free variables that the
walk's start left to them.  Which unbound atom takes which free variable
does not matter.  Every prediction table reads only the prediction's own
variables, below its atom count, so renaming the variables above them maps
one reference table's rows one to one onto the other's, and every
disagreement count and floor stays the same.

No search leaves a reference cycle: the recursive walks clear their own
names when they return, so reference counting frees all a search made and
the cyclic collector, which would pause whichever call it lands on, finds
nothing to do.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Hashable, Iterable, Sequence

from .similarity import THRESHOLD, GramIndex, levenshtein, ngram_cosine
from .syntax import (
    AND,
    IFF,
    IMPLIES,
    OR,
    XOR,
    CapExceeded,
    FolExpr,
    FormulaError,
    Renaming,
    Token,
    atoms_of,  # unused here, but tracers patch this attribute
    canonicalize,  # unused here, but tracers patch this attribute
    chain_readings,
    enumerate_bracketings,  # unused here, but tracers patch this attribute
    lex,
    parse,
    render,
    split_chain,
)


# The scoring modes: the binding search over the complete graph or over the
# relatedness graph (see the module docstring).
MODES = ("original", "optimized")

# The highest truth-table cap.  A table over k atoms is a 2**k-bit integer:
# scoring a reflexive balanced conjunction took 6 ms and 32 MB peak RSS at 20
# atoms, 0.13 s and 97 MB at 24, and both grow more than twofold per atom.
MAX_TABLE_ATOMS = 20

# The most atoms on either side of an original-mode search, which walks every
# complete matching: 7! = 5,040 of them for seven atoms on each side.
MAX_FACTORIAL_ATOMS = 7

# The most bindings a search walks in one component before it keeps its best
# so far and flags the report ``truncated``.  Only an optimized-mode search
# reaches it: an original-mode one walks at most 7! = 5,040.
COMPONENT_CAP = 10_000


@dataclass(frozen=True)
class LeConfig:
    """The settings of equivalence scoring.  The other limits are
    constants: ``MAX_FACTORIAL_ATOMS``, ``COMPONENT_CAP``,
    ``similarity.NGRAM_SIZES``, ``syntax.MAX_CHAIN_OPERATORS``,
    ``syntax.MAX_READINGS`` and ``syntax.MAX_TOKENS``."""

    threshold: float = THRESHOLD
    chunk_size: int | None = 4
    max_atoms: int = 16

    def __post_init__(self):
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError("threshold must lie in [0, 1]")
        if self.chunk_size is not None and self.chunk_size < 2:
            raise ValueError("chunk_size must be at least 2 (or None for full enumeration)")
        if self.max_atoms < 1:
            raise ValueError(f"max_atoms must be positive, not {self.max_atoms}")
        if self.max_atoms > MAX_TABLE_ATOMS:
            raise ValueError(f"max_atoms must be at most {MAX_TABLE_ATOMS}")


DEFAULT_LE = LeConfig()


@dataclass(frozen=True)
class BindingMap:
    """An injective map from prediction atoms to reference atoms, each atom
    its canonical text, and the atoms of each side it leaves unbound, each
    listed once and none of them bound."""

    pairs: tuple[tuple[str, str], ...]
    unbound_prediction: tuple[str, ...] = ()
    unbound_reference: tuple[str, ...] = ()

    def __post_init__(self):
        pairs = self.pairs
        preds, refs = map(set, zip(*pairs)) if pairs else (set(), set())
        if len(preds) != len(pairs) or len(refs) != len(pairs):
            raise ValueError("binding must be injective")
        for side, bound, unbound in (
            ("prediction", preds, self.unbound_prediction),
            ("reference", refs, self.unbound_reference),
        ):
            if len(set(unbound)) != len(unbound):
                raise ValueError(f"binding lists an unbound {side} atom twice")
            if not bound.isdisjoint(unbound):
                atom = next(atom for atom in unbound if atom in bound)
                raise ValueError(f"binding both binds and leaves unbound {side} atom {atom!r}")

    def as_dict(self) -> dict[str, str]:
        return dict(self.pairs)

    @staticmethod
    def identity(pred_atoms: tuple[str, ...], ref_atoms: tuple[str, ...]) -> "BindingMap":
        """Pair up equal atoms; leave the rest unbound."""
        return BindingMap(
            tuple((p, p) for p in pred_atoms if p in ref_atoms),
            tuple(p for p in pred_atoms if p not in ref_atoms),
            tuple(r for r in ref_atoms if r not in pred_atoms),
        )


@dataclass
class Component:
    prediction_atoms: tuple[int, ...]
    reference_atoms: tuple[int, ...]


@dataclass
class CandidateGraph:
    """Bipartite graph between prediction and reference atoms: an edge joins
    each pair that its row source relates, by default each pair whose
    similarity is at or above the threshold, and ``neighbours[i]`` lists
    the reference indices of prediction atom i's edges, in order (treat it
    as read-only)."""

    components: tuple[Component, ...]
    neighbours: list[list[int]]

    @classmethod
    def build(
        cls,
        pred_atoms: tuple[str, ...],
        ref_atoms: tuple[str, ...],
        threshold: float = THRESHOLD,
        rows=None,
    ) -> "CandidateGraph":
        """Each prediction atom's edges are its row: ``rows(text)`` when a
        row source is given, such as ``GramIndex.row`` over ``ref_atoms`` at
        ``threshold`` or original mode's row of every reference atom, else
        the reference atoms whose ``ngram_cosine`` with it reaches the
        threshold.  Each component is grown from its smallest
        prediction atom across the edges both ways, so the components come
        in that order."""
        neighbours: list[list[int]] = []
        back: list[list[int]] = [[] for _ in ref_atoms]
        for i, text in enumerate(pred_atoms):
            if rows is None:
                row = []
                for j, r in enumerate(ref_atoms):
                    if ngram_cosine(text, r) >= threshold:
                        row.append(j)
                        back[j].append(i)
            else:
                row = rows(text)
                for j in row:
                    back[j].append(i)
            neighbours.append(row)

        seen = [False] * len(pred_atoms)
        components = []
        for first, row in enumerate(neighbours):
            if seen[first] or not row:
                continue
            if len(row) == 1 and len(back[row[0]]) == 1:
                # One edge, whose ends have no other: no later atom reaches it.
                components.append(Component((first,), (row[0],)))
                continue
            seen[first] = True
            preds, refs, stack = [first], set(), [first]
            while stack:
                for j in neighbours[stack.pop()]:
                    if j not in refs:
                        refs.add(j)
                        for i in back[j]:
                            if not seen[i]:
                                seen[i] = True
                                preds.append(i)
                                stack.append(i)
            components.append(Component(tuple(sorted(preds)), tuple(sorted(refs))))
        return cls(tuple(components), neighbours)


@dataclass(eq=False)
class LeReport:
    score: float
    binding: BindingMap
    atom_count: int
    assignments_evaluated: int
    bindings_explored: int
    trees_explored: int
    mode: str
    truncated: bool = False

    def to_dict(self) -> dict:
        return {
            "score": self.score,
            "mode": self.mode,
            "atom_count": self.atom_count,
            "assignments_evaluated": self.assignments_evaluated,
            "bindings_explored": self.bindings_explored,
            "trees_explored": self.trees_explored,
            "truncated": self.truncated,
            "binding": {
                "pairs": self.binding.as_dict(),
                "unbound_prediction": list(self.binding.unbound_prediction),
                "unbound_reference": list(self.binding.unbound_reference),
            },
        }


# --- truth-table agreement ---------------------------------------------------
#
# Truth tables are held as integers: bit r of a subformula's mask is its value
# on assignment r, where variable i is true on row r iff bit i of r is set.
# Connectives become single wide bitwise operations, so one evaluation costs
# O(tree size) regardless of the 2^k rows.


@lru_cache(maxsize=64)
def _var_patterns(k: int) -> tuple[tuple[int, ...], int, int]:
    """Per-variable truth-table masks, the all-ones mask, and the row count."""
    rows = 1 << k
    patterns = []
    for i in range(k):
        block = 1 << i
        pat = ((1 << block) - 1) << block
        span = block << 1
        while span < rows:
            pat |= pat << span
            span <<= 1
        patterns.append(pat)
    return tuple(patterns), (1 << rows) - 1, rows


class _Lowering(Renaming):
    """A node factory (see ``syntax.TREES``) that lowers one formula while
    it is parsed: it builds each node's propositional skeleton, a nested
    tuple ``("atom", ordinal)``, ``("not", body)`` or ``(op, left, right)``
    with quantifiers dropped, and ``atoms()`` then lists the distinct atoms.
    Bound variables are renamed by ``syntax.Renaming``'s one rule, so the
    atoms are those of the canonical tree, in first-occurrence order."""

    def atom(self, name: str, args: tuple[str, ...]):
        # Renaming.atom's key, computed inline: every scored atom comes here,
        # and outside any quantifier its arguments are the key's.
        scope = self.scope
        key = (name, tuple([scope.get(a, a) for a in args]) if scope else args)
        ordinals = self.ordinals
        return ("atom", ordinals.setdefault(key, len(ordinals)))

    negate = staticmethod(lambda body: ("not", body))
    join = staticmethod(lambda *node: node)
    quantified = staticmethod(lambda kind, index, body: body)


def _eval_bits(node, values: Sequence[int], mask: int) -> int:
    """Truth-table mask of a skeleton, atom ordinal o taking ``values[o]``."""
    tag = node[0]
    if tag == "atom":
        return values[node[1]]
    if tag == "not":
        return mask ^ _eval_bits(node[1], values, mask)
    left = _eval_bits(node[1], values, mask)
    right = _eval_bits(node[2], values, mask)
    if tag == AND:
        return left & right
    if tag == OR:
        return left | right
    if tag == IMPLIES:
        return (mask ^ left) | right
    if tag == IFF:
        return mask ^ (left ^ right)
    assert tag == XOR
    return left ^ right


# The compiled evaluator's closures of the atom values ``v`` and the all-ones
# mask ``m``, keyed by a node's tag and whether each operand is an atom: an
# atom operand is its ordinal, read from ``v`` inline, and any other operand
# is its own closure.  Each computes what ``_eval_bits`` computes for its tag.
_CLOSURES = {
    ("atom",): lambda a: lambda v, m: v[a],
    ("not", True): lambda a: lambda v, m: m ^ v[a],
    ("not", False): lambda f: lambda v, m: m ^ f(v, m),
    (AND, True, True): lambda a, b: lambda v, m: v[a] & v[b],
    (AND, True, False): lambda a, g: lambda v, m: v[a] & g(v, m),
    (AND, False, True): lambda f, b: lambda v, m: f(v, m) & v[b],
    (AND, False, False): lambda f, g: lambda v, m: f(v, m) & g(v, m),
    (OR, True, True): lambda a, b: lambda v, m: v[a] | v[b],
    (OR, True, False): lambda a, g: lambda v, m: v[a] | g(v, m),
    (OR, False, True): lambda f, b: lambda v, m: f(v, m) | v[b],
    (OR, False, False): lambda f, g: lambda v, m: f(v, m) | g(v, m),
    (IMPLIES, True, True): lambda a, b: lambda v, m: (m ^ v[a]) | v[b],
    (IMPLIES, True, False): lambda a, g: lambda v, m: (m ^ v[a]) | g(v, m),
    (IMPLIES, False, True): lambda f, b: lambda v, m: (m ^ f(v, m)) | v[b],
    (IMPLIES, False, False): lambda f, g: lambda v, m: (m ^ f(v, m)) | g(v, m),
    (IFF, True, True): lambda a, b: lambda v, m: m ^ (v[a] ^ v[b]),
    (IFF, True, False): lambda a, g: lambda v, m: m ^ (v[a] ^ g(v, m)),
    (IFF, False, True): lambda f, b: lambda v, m: m ^ (f(v, m) ^ v[b]),
    (IFF, False, False): lambda f, g: lambda v, m: m ^ (f(v, m) ^ g(v, m)),
    (XOR, True, True): lambda a, b: lambda v, m: v[a] ^ v[b],
    (XOR, True, False): lambda a, g: lambda v, m: v[a] ^ g(v, m),
    (XOR, False, True): lambda f, b: lambda v, m: f(v, m) ^ v[b],
    (XOR, False, False): lambda f, g: lambda v, m: f(v, m) ^ g(v, m),
}


def _compile_evaluator(node):
    """A skeleton as one closure of the atom values and the all-ones mask,
    equal to ``_eval_bits`` on them.  One frame per node that is not an
    atom, in the build and in each evaluation, as ``_eval_bits`` takes one
    per node, so the token cap bounds both."""
    if node[0] == "atom":
        return _CLOSURES[("atom",)](node[1])
    key, args = [node[0]], []
    for operand in node[1:]:
        atom = operand[0] == "atom"
        key.append(atom)
        args.append(operand[1] if atom else _compile_evaluator(operand))
    return _CLOSURES[tuple(key)](*args)


@dataclass(frozen=True)
class CompiledReference:
    """A reference formula prepared once for scoring any number of
    predictions: its distinct atoms and its quantifier-free skeleton.
    ``compile_reference`` builds one from text."""

    atoms: tuple[str, ...]
    code: object


def compile_reference(reference: str) -> CompiledReference:
    """Parse ``reference`` in precedence mode and compile it for scoring.
    Raises the ``FormulaError`` that :func:`parse` raises."""
    lowering = _Lowering()
    code = parse(reference, nodes=lowering)
    return CompiledReference(lowering.atoms(), code)


def _capped_patterns(k: int, max_atoms: int) -> tuple[tuple[int, ...], int, int]:
    """``_var_patterns(k)``, or ``CapExceeded`` when ``k`` passes ``max_atoms``."""
    if k > max_atoms:
        raise CapExceeded(f"{k} combined atoms exceeds the truth-table cap {max_atoms}")
    return _var_patterns(k)


def _atom_values(mapping: list[int | None], n_r: int, patterns: tuple[int, ...]) -> list[int]:
    """Each reference atom's pattern under the inverse of one binding:
    prediction atom i is variable i, the reference atom bound to it shares
    that variable, and each unbound reference atom takes a variable after
    the prediction's, in order.  No pattern is 0, so 0 marks an unbound
    atom until it is given one."""
    values = [0] * n_r
    for i, j in enumerate(mapping):
        if j is not None:
            values[j] = patterns[i]
    if 0 in values:
        free = len(mapping)
        for j, value in enumerate(values):
            if not value:
                values[j] = patterns[free]
                free += 1
    return values


def _reference_bits(evaluate, values: list[int], mask: int) -> int:
    """Truth-table mask of a reference, atom ordinal o taking ``values[o]``,
    by its compiled ``evaluate``: the one evaluation per binding of a
    search's walk."""
    return evaluate(values, mask)


def _binding_from(pred_atoms: tuple[str, ...], ref_atoms: tuple[str, ...], mapping: list[int | None]) -> BindingMap:
    pairs, unbound = [], []
    unused = list(ref_atoms)
    for atom, j in zip(pred_atoms, mapping):
        if j is None:
            unbound.append(atom)
        else:
            pairs.append((atom, ref_atoms[j]))
            unused[j] = None
    return BindingMap(tuple(pairs), tuple(unbound), tuple([r for r in unused if r is not None]))


def propositional_score(pred: FolExpr, ref: FolExpr, binding: BindingMap) -> float:
    """Truth-table agreement of the two skeletons under a fixed binding.
    Both trees are compiled from their renderings, as ``le_score`` compiles
    text, and their bound variables are renamed by ``syntax.Renaming``'s one
    rule, so the binding names atoms of the renamed trees; canonical trees
    are left as they are.  A binding that names, bound or unbound, an atom
    its side's tree lacks raises ``ValueError``.  A tree whose rendering
    does not parse or passes the token cap raises the ``FormulaError`` that
    ``le_score`` of its rendering raises, and the truth table is capped at
    ``DEFAULT_LE.max_atoms``."""
    lowered = compile_reference(render(pred))
    pred_atoms = lowered.atoms
    compiled = compile_reference(render(ref))
    pred_index = {a: i for i, a in enumerate(pred_atoms)}
    ref_index = {a: j for j, a in enumerate(compiled.atoms)}
    for side, named, index in (
        ("prediction", [p for p, _ in binding.pairs] + list(binding.unbound_prediction), pred_index),
        ("reference", [r for _, r in binding.pairs] + list(binding.unbound_reference), ref_index),
    ):
        for atom in named:
            if atom not in index:
                raise ValueError(f"binding names unknown {side} atom {atom!r}")
    mapping: list[int | None] = [None] * len(pred_atoms)
    for p, r in binding.pairs:
        mapping[pred_index[p]] = ref_index[r]
    patterns, mask, rows = _capped_patterns(len(compiled.atoms) + mapping.count(None), DEFAULT_LE.max_atoms)
    pred_bits = _eval_bits(lowered.code, patterns, mask)
    ref_bits = _eval_bits(compiled.code, _atom_values(mapping, len(compiled.atoms), patterns), mask)
    return (rows - (pred_bits ^ ref_bits).bit_count()) / rows


# --- binding searches --------------------------------------------------------


class _AtomTables:
    """The binding search's plan for one prediction's atoms against a
    compiled reference.  It depends on the atoms alone, so one prediction's
    readings share it, and the search reads nothing else of a reading but
    its skeleton.

    ``start`` binds every one-to-one component of the candidate graph and
    each larger component (more than one atom on a side) by one maximum
    matching, and leaves every other atom unbound.  ``enumerated`` lists
    each larger component, in order, as its prediction atoms, its reference
    atoms and its skip budget: how many of its prediction atoms a
    maximum-cardinality assignment leaves unbound.  ``candidates`` gives
    each of those prediction atoms its candidate reference atoms as (index,
    edit distance) in ascending (distance, index) order; no other edit
    distance is computed.  They are the atom's edges in the plan's
    ``CandidateGraph``, which both modes build; the mode picks only its
    rows.  Original mode gives each prediction atom every reference atom,
    under the ``MAX_FACTORIAL_ATOMS`` cap; optimized mode reads ``rows``
    when it is given (see ``CandidateGraph.build``)."""

    def __init__(self, pred_atoms: tuple[str, ...], ref: CompiledReference, mode: str, config: LeConfig, rows=None):
        self.pred_atoms = pred_atoms
        self.ref = ref
        self.mode = mode
        self.max_atoms = config.max_atoms
        n_p, n_r = len(pred_atoms), len(ref.atoms)
        if mode == "original":
            if max(n_p, n_r) > MAX_FACTORIAL_ATOMS:
                raise CapExceeded(f"{max(n_p, n_r)} atoms exceeds the factorial-search cap {MAX_FACTORIAL_ATOMS}")
            every = list(range(n_r))
            rows = lambda text: every
        graph = CandidateGraph.build(pred_atoms, ref.atoms, config.threshold, rows)
        self.start: list[int | None] = [None] * n_p
        self.enumerated: list[tuple[tuple[int, ...], tuple[int, ...], int]] = []
        self.candidates: dict[int, list[tuple[int, int]]] = {}
        for comp in graph.components:
            preds, refs = comp.prediction_atoms, comp.reference_atoms
            if len(preds) == 1 and len(refs) == 1:
                self.start[preds[0]] = refs[0]
                continue
            for i in preds:
                row = sorted((levenshtein(pred_atoms[i], ref.atoms[j]), j) for j in graph.neighbours[i])
                self.candidates[i] = [(j, dist) for dist, j in row]
            matching = _max_matching(preds, self.candidates)
            for j, i in matching.items():
                self.start[i] = j
            self.enumerated.append((preds, refs, len(preds) - len(matching)))


def _max_matching(preds: tuple[int, ...], adj: dict[int, list[tuple[int, int]]]) -> dict[int, int]:
    """A maximum bipartite matching, reference index to prediction atom, via
    augmenting paths over candidate rows of (reference index, edit
    distance)."""
    match_ref: dict[int, int] = {}
    for i in preds:
        _augment(i, adj, match_ref, set())
    return match_ref


def _augment(i: int, adj: dict[int, list[tuple[int, int]]], match_ref: dict[int, int], visited: set[int]) -> bool:
    """Extend ``match_ref`` by an augmenting path from prediction atom i
    through reference atoms not in ``visited``; True if one was found."""
    for j, _ in adj[i]:
        if j in visited:
            continue
        visited.add(j)
        if j not in match_ref or _augment(match_ref[j], adj, match_ref, visited):
            match_ref[j] = i
            return True
    return False


def _enumerate(
    adj: dict[int, list[tuple[int, int]]], preds: tuple[int, ...], skips: int, mapping: list[int | None], leaf,
    bound: int | None, values: list[int], patterns: Sequence[int], refs: Sequence[int], free: Sequence[int],
) -> tuple[int, bool]:
    """Walk the maximum-cardinality injective assignments of the enumerated
    component ``preds`` with skip budget ``skips``: each atom i tries its
    candidates ``adj[i]``, (reference index, edit distance) in ascending
    distance, then, while the budget lasts, staying unbound.  At each
    complete assignment, written into ``mapping``, it calls ``leaf(dist)``
    with the summed edit distance; ``leaf`` returns a new bound for the
    leaves after it, or None to keep the bound as it is.

    The walk keeps in ``values`` each reference atom's pattern under the
    assignment, so a leaf reads the reference's values without building
    them: binding prediction atom i to reference atom j writes
    ``patterns[i]`` to ``values[j]``.  When the component's reference atoms
    ``refs`` outnumber the atoms its assignments bind, the ones a leaf
    leaves unbound take the patterns ``free``, in order, from a table keyed
    by the reference atoms in use and built as leaves reach it; otherwise
    nothing is filled.  No other entry of ``values`` is written, and the
    order of ``free`` changes no count (see the module docstring).

    Edit distances are not negative, so once a prefix's summed distance
    reaches the bound, no leaf under it is walked: its leaves are counted
    (memoised on the position, the reference atoms in use and the skips
    left); the walk carries the reference atoms in use as that key's
    bitmask, ``taken``.  With no bound every leaf is walked.  The walk stops
    at ``COMPONENT_CAP``, counting past it only far enough to see whether a
    leaf lies there.  Returns the number of leaves walked or counted, at
    most the cap, and whether any leaf lies past the cap; ``mapping`` is
    left as it was given.  The last atom's options are the leaves, walked
    in a loop in its parent's frame.  It leaves no reference cycle (see the
    module docstring)."""
    # sys.maxsize stands for no bound: ints compare faster than math.inf,
    # and no summed distance reaches it.
    last = len(preds) - 1
    # The last atom's options when it may stay unbound: None is the skip.
    last_options = [*adj[preds[last]], (None, 0)]
    count = 0
    limit = sys.maxsize if bound is None else bound
    sizes: dict[tuple[int, int, int], int] = {}
    fills: dict[int, list[tuple[int, int]]] = {}

    def size(pos: int, taken: int, skips_left: int) -> int:
        """The number of leaves under a prefix whose reference atoms in use
        are the bits of ``taken``."""
        if pos > last:
            return 1
        key = (pos, taken, skips_left)
        found = sizes.get(key)
        if found is None:
            found = 0
            for j, _ in adj[preds[pos]]:
                if not taken >> j & 1:
                    found += size(pos + 1, taken | 1 << j, skips_left)
            if skips_left:
                found += size(pos + 1, taken, skips_left - 1)
            sizes[key] = found
        return found

    def rec(pos: int, taken: int, skips_left: int, dist: int) -> bool:
        """Extend the assignment from ``preds[pos]`` on; the bits of
        ``taken`` are the reference atoms in use and ``dist`` is the edit
        distance summed so far.  True once a leaf lies past the cap."""
        nonlocal count, limit
        if dist >= limit:
            count += size(pos, taken, skips_left)
            if count < COMPONENT_CAP:
                return False
            limit = 0
            return count > COMPONENT_CAP
        i = preds[pos]
        pattern = patterns[i]
        if pos < last:
            for j, d in adj[i]:
                if not taken >> j & 1:
                    mapping[i] = j
                    values[j] = pattern
                    stop = rec(pos + 1, taken | 1 << j, skips_left, dist + d)
                    mapping[i] = None
                    if stop:
                        return True
            return skips_left > 0 and rec(pos + 1, taken, skips_left - 1, dist)
        # The skip budget comes from a maximum matching, so no complete
        # assignment leaves any of it unspent.
        for j, d in last_options if skips_left else adj[i]:
            if j is not None and taken >> j & 1:
                continue
            if dist + d < limit:
                mapping[i] = j
                if j is not None:
                    values[j] = pattern
                if free:
                    key = taken if j is None else taken | 1 << j
                    fill = fills.get(key)
                    if fill is None:
                        fill = fills[key] = list(zip([r for r in refs if not key >> r & 1], free))
                    for r, value in fill:
                        values[r] = value
                found = leaf(dist + d)
                mapping[i] = None
                if found is not None:
                    limit = found
            count += 1
            if count >= COMPONENT_CAP:
                # At the cap: the rest is only counted, until a leaf lies
                # past it.
                limit = 0
                if count > COMPONENT_CAP:
                    return True
        return False

    try:
        past = rec(0, 0, skips, 0)
    finally:
        # Both walks refer to themselves: clearing their names frees them,
        # and all they hold, without the cyclic collector.
        del rec, size
    return (COMPONENT_CAP, True) if past else (count, False)


def _search(skeletons: Sequence, tables: _AtomTables) -> LeReport:
    """Search the bindings of a prediction's readings, each given by its
    skeleton, in one walk; returns the report: the first best reading's
    binding and score, and the walk's counters times the number of
    readings.

    From the plan's start mapping, the walk enumerates the
    maximum-cardinality injective assignments of each enumerated component
    in turn, candidates in ascending edit distance, while the later
    components keep their start matchings.  So every binding walked leaves
    the start mapping's number of prediction atoms unbound, and every truth
    table has one width, whose cap is checked before any table is built.
    At each binding the reference skeleton is evaluated once under the
    inverse mapping (``_reference_bits``), from the values the walk keeps
    (``_enumerate``): each bound reference atom holds its prediction atom's
    pattern, and the unbound ones hold the free patterns of the group's
    start, in the order the walk gives them.  That uses one variable per
    bound pair and per unbound atom on either side, as many as a forward
    evaluation of the prediction would, and only renames them, so the
    agreeing rows are the same, in any order of the free patterns (see the
    module docstring).  The walk evaluates by the reference's compiled
    evaluator, built once per search before the walk; a search with no
    enumerated component makes its one evaluation by interpreting the
    skeleton, which costs about half the build.  Each distinct reading
    truth table over the prediction's own atoms, atom i being variable i,
    is built once, widened to those variables by repetition once and scored
    with one XOR and ``bit_count``; each keeps its best binding by (score,
    summed distance, first enumerated).

    A later component sees what the earlier ones won, which can differ
    between tables.  So tables walk in groups keyed by their earlier
    winners, and a group splits where its tables' winners differ.  A
    component's leaves and their row count do not depend on the reading,
    so the walk counts one reading's and the report multiplies that by the
    number of readings, as scoring each reading on its own would.  The
    tables come in the order of their first reading, so the first table
    with the fewest disagreeing rows holds the first best reading.

    The walk evaluates only the bindings that can still change the report
    (branch and bound with an exact bound); the counters still cover every
    binding walked or counted, so the report is the exhaustive walk's.  At
    every leaf the reference's atoms take distinct variables out of the one
    width, so its table has the same number of true rows, and no leaf
    disagrees with table t on fewer than ``floor[t]``, the difference of
    the two tables' true-row counts.  A table whose best is at
    its floor is settled: only a leaf with a smaller summed distance can
    replace its best.  In the last component a table is dropped once its
    floor is above the fewest disagreeing rows found so far, or equal to it
    with a later index than the first table holding them, since it can no
    longer be reported; earlier components keep every table, because their
    winners seed the later groups.  Once every table a group still scores
    is settled, no leaf whose summed distance reaches the largest of their
    best distances is evaluated, and ``_enumerate`` counts those subtrees
    instead of walking them.  No search leaves a reference cycle (see the
    module docstring)."""
    ref = tables.ref
    n_p, n_r = len(tables.start), len(ref.atoms)
    patterns, mask, rows = _capped_patterns(n_r + tables.start.count(None), tables.max_atoms)

    own_patterns, own_mask, _ = _var_patterns(n_p)
    own_tables = dict.fromkeys(_eval_bits(code, own_patterns, own_mask) for code in skeletons)
    repeat = mask // own_mask
    wide = [table * repeat for table in own_tables]
    # Each group: the mapping its tables' earlier components won, and the
    # indices of its tables.
    groups: list[tuple[list[int | None], Sequence[int]]] = [(tables.start, range(len(wide)))]

    explored = assignments = 0
    truncated = False
    # Kept apart from the loop below: folding it in cost 7-13 µs on a 67 µs
    # score, and 77% of seed-29 corpus searches and 50% of serve ones take it.
    # Its one evaluation is interpreted: compiling costs about two.
    if not tables.enumerated:
        bits = _eval_bits(ref.code, _atom_values(tables.start, n_r, patterns), mask)
        best_off = [(table ^ bits).bit_count() for table in wide]
        explored, assignments = 1, rows
    else:
        # Compiled here, above the walk, whose leaves lie deeper in the stack.
        evaluate = _compile_evaluator(ref.code)
    # No leaf disagrees with table t on fewer than floor[t] rows.
    floor: list[int] = []
    last = len(tables.enumerated) - 1
    for c, (preds, refs, skips) in enumerate(tables.enumerated):
        # Each table's best leaf so far: disagreeing rows, summed distance
        # and the component's assignment; in the last component, the fewest
        # disagreeing rows found so far and the first table with them.
        best_off = [rows + 1] * len(wide)
        best_dist = [0] * len(wide)
        best_assign: list[tuple[int | None, ...]] = [()] * len(wide)
        least, first = rows + 1, len(wide)
        split = []
        # Whether a leaf leaves any of the component's reference atoms
        # unbound.
        spare = len(refs) > len(preds) - skips
        for start, members in groups:
            mapping = start.copy()
            for i in preds:
                mapping[i] = None
            # The reference atoms' patterns at the group's start; the walk
            # rewrites the component's.  Its unbound atoms take the free
            # patterns that the start's unbound ones hold.
            values = _atom_values(start, n_r, patterns)
            free = [values[j] for j in refs if j not in start] if spare else ()
            # The tables whose best can still change the report.
            live = members
            if c == last and floor:
                live = [t for t in members if (floor[t], t) <= (least, first)]

            def leaf(dist: int) -> int | None:
                nonlocal live, least, first
                bits = _reference_bits(evaluate, values, mask)
                if not floor:
                    ones = bits.bit_count()
                    floor.extend(abs(ones - table.bit_count()) for table in wide)
                assign = None
                settled = fewer = False
                for t in live:
                    off = (wide[t] ^ bits).bit_count()
                    if off < best_off[t] or (off == best_off[t] and dist < best_dist[t]):
                        if assign is None:
                            assign = tuple([mapping[i] for i in preds])
                        best_off[t], best_dist[t], best_assign[t] = off, dist, assign
                        settled = settled or off == floor[t]
                        if (off, t) < (least, first):
                            least, first, fewer = off, t, True
                if fewer and c == last:
                    live = [t for t in live if (floor[t], t) <= (least, first)]
                    settled = True
                # A settled table's best is at its floor, so only a leaf with
                # a smaller summed distance can replace it.  The bound changes
                # only when a table settles, improves once settled or leaves.
                if settled and all(best_off[t] == floor[t] for t in live):
                    return max([best_dist[t] for t in live], default=0)
                return None

            count, cut = _enumerate(
                tables.candidates, preds, skips, mapping, leaf, None if live else 0, values, patterns, refs, free
            )
            by_winner: dict[tuple[int | None, ...], list[int]] = {}
            for t in members:
                by_winner.setdefault(best_assign[t], []).append(t)
            for assign, winners in by_winner.items():
                won = mapping.copy()
                for i, j in zip(preds, assign):
                    won[i] = j
                split.append((won, winners))
        groups = split
        # Every group walks the same leaves.
        explored += count
        assignments += count * rows
        truncated = truncated or cut

    off = min(best_off)
    best = best_off.index(off)
    mapping = next(won for won, members in groups if best in members)
    binding = _binding_from(tables.pred_atoms, ref.atoms, mapping)
    return LeReport(
        score=(rows - off) / rows,
        binding=binding,
        atom_count=n_r + len(binding.unbound_prediction),
        assignments_evaluated=assignments * len(skeletons),
        bindings_explored=explored * len(skeletons),
        trees_explored=len(skeletons),
        mode=tables.mode,
        truncated=truncated,
    )


def _bind(pred: FolExpr, ref: FolExpr, mode: str, config: LeConfig) -> LeReport:
    compiled = compile_reference(render(ref))
    lowered = compile_reference(render(pred))
    return _search([lowered.code], _AtomTables(lowered.atoms, compiled, mode, config))


def bind_original(pred: FolExpr, ref: FolExpr, config: LeConfig = DEFAULT_LE) -> LeReport:
    """Exhaustive search over every complete injective matching of the
    smaller atom set, candidates tried in ascending edit-distance order: the
    binding search over the complete graph.  Factorial in the atom count,
    so guarded by ``MAX_FACTORIAL_ATOMS``, whose 7! leaves stay below
    ``COMPONENT_CAP``.
    ``pred`` and ``ref`` are trees, each compiled from its rendering as
    ``le_score`` compiles text, so one whose rendering does not parse or
    passes the token cap raises that text's ``FormulaError``.  Bound
    variables are renamed by ``syntax.Renaming``'s one rule, so trees need
    not be canonicalized first and the report names the renamed atoms.  The
    report is ``_search``'s for one reading: ``trees_explored`` is 1."""
    return _bind(pred, ref, "original", config)


def bind_optimized(pred: FolExpr, ref: FolExpr, config: LeConfig = DEFAULT_LE) -> LeReport:
    """Candidate-restricted binding search.

    Builds the relatedness graph, fixes one-to-one components outright, and
    enumerates maximum-cardinality injective assignments inside each
    one-to-many component (components in first-occurrence order, earlier
    choices fixed, later components at their start matching while a
    component is searched).
    A component stops early at ``COMPONENT_CAP`` assignments and keeps its
    best so far, flagged via ``truncated`` when an assignment lies past the
    cap.  ``pred`` and ``ref`` are trees, each compiled from its rendering
    as ``le_score`` compiles text, so one whose rendering does not parse or
    passes the token cap raises that text's ``FormulaError``.  Bound
    variables are renamed by ``syntax.Renaming``'s one rule, so trees need
    not be canonicalized first and the report names the renamed atoms.  The
    report is ``_search``'s for one reading: ``trees_explored`` is 1.
    """
    return _bind(pred, ref, "optimized", config)


# --- top-level scoring -------------------------------------------------------


# The entries a ``Scorer``'s results memo holds; a full memo is emptied at the
# start of the next call, never during one.
_MEMO_LIMIT = 4096


def _score_tokens(tokens: list[Token], ref: CompiledReference, mode: str, config: LeConfig, rows=None) -> LeReport:
    """Bind every reading that enumerate_bracketings gives.  Readings keep
    the quantifiers and atoms in one pre-order, so the prediction is parsed
    and lowered once, straight to the renaming, the atom list and the
    operand codes of them all.  The skeleton drops quantifiers, so only the
    parity of the negations wrapped around the chain is kept.

    A reading's search reads nothing of it but its truth table over the
    prediction's own atoms, and the walk over bindings does not depend on
    the reading.  So every reading goes to one ``_search``, which walks the
    bindings once, scores each distinct table at every binding and returns
    the report: the first best reading's binding and score, with one
    reading's counters times the number of readings.  ``rows`` is the
    candidate graph's row source (see ``CandidateGraph.build``)."""
    lowering = _Lowering()
    wrapped, operands, ops = split_chain(tokens, nodes=lowering)
    negated = False
    while wrapped is not None and wrapped[0] == "not":
        negated, wrapped = not negated, wrapped[1]
    readings = chain_readings(operands, ops, config.chunk_size, lowering.join)
    skeletons = [("not", reading) if negated else reading for reading in readings]
    return _search(skeletons, _AtomTables(lowering.atoms(), ref, mode, config, rows))


class Scorer:
    """Scores predictions against one reference, in one mode under one
    config: a call gives each prediction its ``LeReport`` or the
    ``FormulaError`` it raised, without its traceback.  The reference is
    compiled once (a ``CompiledReference`` is taken as given).  A prediction
    is text for ``syntax.lex``, or any key that ``tokens`` lexes, such as a
    ``syntax.word_lexer``'s id tuple.  Each distinct prediction is scored
    once, so equal ones share a report (treat it as read-only).  The memo
    holds up to ``_MEMO_LIMIT`` results, and a full one is emptied only at
    the start of a call.  An unknown mode raises ``ValueError``.  A
    reference that fails to parse or passes a cap is kept as its
    ``FormulaError`` (``reference``), which is then every prediction's
    result, one object.

    A call of more than one prediction reads its candidate graphs' rows
    from a ``similarity.GramIndex`` of the reference's atoms, built at the
    first graph such a call builds and dropped with the results memo; a
    call of one reads them through ``ngram_cosine``'s pair memo, which a
    serving session's repeated vocabulary keeps warm.  Both give the same
    rows."""

    def __init__(
        self, reference: str | CompiledReference, mode: str = "optimized", config: LeConfig = DEFAULT_LE, tokens=None
    ):
        if mode not in MODES:
            raise ValueError(f"unknown scoring mode {mode!r}")
        try:
            self.reference = reference if isinstance(reference, CompiledReference) else compile_reference(reference)
        except FormulaError as exc:
            self.reference = exc.with_traceback(None)
        self.mode, self.config, self.tokens = mode, config, tokens
        self.results: dict[Hashable, LeReport | FormulaError] = {}
        self._index: GramIndex | None = None

    def __call__(self, predictions: Iterable[Hashable]) -> list[LeReport | FormulaError]:
        predictions = list(predictions)
        if isinstance(self.reference, FormulaError):
            return [self.reference for _ in predictions]
        results = self.results
        if len(results) >= _MEMO_LIMIT:
            results.clear()
            self._index = None
        # ``lex`` is read at each call, so a tracer that wraps it sees it.
        tokens = lex if self.tokens is None else self.tokens
        rows = self._row if len(predictions) > 1 else None
        out = []
        for prediction in predictions:
            result = results.get(prediction)
            if result is None:
                try:
                    result = _score_tokens(tokens(prediction), self.reference, self.mode, self.config, rows)
                except FormulaError as exc:
                    # The traceback's frames lead back to this frame, which holds
                    # the exception: dropping it avoids a cycle per failure.
                    result = exc.with_traceback(None)
                results[prediction] = result
            out.append(result)
        return out

    def _row(self, text: str) -> list[int]:
        """``text``'s candidate-graph row from the reference's gram index."""
        index = self._index
        if index is None:
            index = self._index = GramIndex(self.reference.atoms, self.config.threshold)
        return index.row(text)


def le_score(
    prediction: str,
    reference: str | CompiledReference,
    mode: str = "optimized",
    config: LeConfig = DEFAULT_LE,
) -> LeReport:
    """Score ``prediction`` against ``reference``.

    The reference parses in precedence mode.  When the prediction's
    outermost connective chain is ambiguous (no parentheses fix a reading),
    every bracketing of that chain is scored (chunked per
    ``config.chunk_size``) and the maximum over trees and bindings wins.
    A ``FormulaError`` propagates; callers that need a never-fail reward
    map it to 0 (the service and corpus layers do).  This is one call of
    a fresh ``Scorer`` on a group of one.
    """
    (result,) = Scorer(reference, mode, config)([prediction])
    if isinstance(result, Exception):
        try:
            raise result
        finally:
            # The traceback holds this frame: dropping the local that holds
            # the error avoids a cycle per failure.
            del result
    return result
