"""Logical-equivalence scoring between a predicted and a reference formula.

Scoring works on the propositional skeleton: after canonical renaming,
quantifier nodes are stripped and every distinct atom becomes a
propositional variable.  A binding maps prediction atoms onto reference
atoms (injectively); bound pairs share one variable, unbound atoms stay
distinct variables and depress the score.  The score is the fraction of
truth assignments on which the two skeletons agree, so it is 1.0 exactly
for equivalent readings and 0.0 for a formula against its negation under
the identity binding.

Two binding searches are provided:

``bind_original``
    Exhausts every complete injective matching of the smaller atom set
    (n! for equal sides), trying candidates in ascending edit-distance
    order.

``bind_optimized``
    Restricts candidates to atom pairs whose names are related under the
    similarity backend, fixes one-to-one components outright, and
    enumerates injective assignments only inside one-to-many components.

Ties between equal-scoring bindings break toward the smaller summed edit
distance, then toward the first-enumerated assignment, which makes both
searches deterministic.

A GRPO-style group scores many predictions against one reference, so
``score_group`` compiles the reference once (``CompiledReference``), scores
each distinct prediction text once, and builds one prediction's edit
distances and candidate graph once for all of its bracketing trees.
``le_score`` is the same path for a group of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .similarity import DEFAULT_SIMILARITY, SimilarityConfig, levenshtein, ngram_cosine
from .syntax import (
    AND,
    IFF,
    IMPLIES,
    OR,
    XOR,
    Atom,
    AtomicUnit,
    Binary,
    CapExceeded,
    FolExpr,
    Not,
    ParseError,
    Quantified,
    atoms_of,
    canonicalize,
    enumerate_bracketings,
    lex,
    parse,
    _Parser,
)
from . import syntax as _syntax


@dataclass(frozen=True)
class LeConfig:
    """Limits and knobs for equivalence scoring."""

    similarity: SimilarityConfig = DEFAULT_SIMILARITY
    chunk_size: int | None = 4
    max_atoms: int = 16
    max_factorial_atoms: int = 7
    component_cap: int = 10_000
    max_chain_operators: int = 16

    def __post_init__(self):
        if self.chunk_size is not None and self.chunk_size < 2:
            raise ValueError("chunk_size must be at least 2 (or None for full enumeration)")
        if self.max_atoms < 1 or self.max_factorial_atoms < 1:
            raise ValueError("atom caps must be positive")
        if self.component_cap < 1 or self.max_chain_operators < 1:
            raise ValueError("caps must be positive")


DEFAULT_LE = LeConfig()


@dataclass(frozen=True)
class BindingMap:
    """An injective map from prediction atoms to reference atoms."""

    pairs: tuple[tuple[AtomicUnit, AtomicUnit], ...]
    unbound_prediction: tuple[AtomicUnit, ...] = ()
    unbound_reference: tuple[AtomicUnit, ...] = ()

    def __post_init__(self):
        pred_texts = [p.canonical_text for p, _ in self.pairs]
        ref_texts = [r.canonical_text for _, r in self.pairs]
        if len(set(pred_texts)) != len(pred_texts) or len(set(ref_texts)) != len(ref_texts):
            raise ValueError("binding must be injective")

    def as_dict(self) -> dict[str, str]:
        return {p.canonical_text: r.canonical_text for p, r in self.pairs}

    @staticmethod
    def identity(pred_atoms: tuple[AtomicUnit, ...], ref_atoms: tuple[AtomicUnit, ...]) -> "BindingMap":
        """Pair up atoms with equal canonical text; leave the rest unbound."""
        ref_by_text = {r.canonical_text: r for r in ref_atoms}
        pairs = tuple((p, ref_by_text[p.canonical_text]) for p in pred_atoms if p.canonical_text in ref_by_text)
        bound_pred = {p.canonical_text for p, _ in pairs}
        bound_ref = {r.canonical_text for _, r in pairs}
        return BindingMap(
            pairs,
            tuple(p for p in pred_atoms if p.canonical_text not in bound_pred),
            tuple(r for r in ref_atoms if r.canonical_text not in bound_ref),
        )


@dataclass(frozen=True)
class Component:
    prediction_atoms: tuple[int, ...]
    reference_atoms: tuple[int, ...]


@dataclass(frozen=True)
class CandidateGraph:
    """Bipartite relatedness graph between prediction and reference atoms.
    Edge entries are (prediction index, reference index, similarity), every
    similarity at or above the configured threshold."""

    edges: tuple[tuple[int, int, float], ...]
    components: tuple[Component, ...]

    @classmethod
    def build(
        cls,
        pred_atoms: tuple[AtomicUnit, ...],
        ref_atoms: tuple[AtomicUnit, ...],
        config: SimilarityConfig = DEFAULT_SIMILARITY,
    ) -> "CandidateGraph":
        edges = []
        for i, p in enumerate(pred_atoms):
            for j, r in enumerate(ref_atoms):
                sim = ngram_cosine(p.canonical_text, r.canonical_text, config)
                if sim >= config.threshold:
                    edges.append((i, j, sim))

        parent: dict[tuple[str, int], tuple[str, int]] = {}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for i, j, _ in edges:
            for node in (("p", i), ("r", j)):
                parent.setdefault(node, node)
            a, b = find(("p", i)), find(("r", j))
            if a != b:
                parent[a] = b

        groups: dict[tuple[str, int], tuple[list[int], list[int]]] = {}
        for i, j, _ in edges:
            root = find(("p", i))
            preds, refs = groups.setdefault(root, ([], []))
            if i not in preds:
                preds.append(i)
            if j not in refs:
                refs.append(j)
        components = [
            Component(tuple(sorted(preds)), tuple(sorted(refs)))
            for preds, refs in groups.values()
        ]
        components.sort(key=lambda c: c.prediction_atoms[0])
        return cls(tuple(edges), tuple(components))


@dataclass(eq=False)
class BindingResult:
    """Outcome of a binding search over one pair of trees."""

    binding: BindingMap
    score: float
    bindings_explored: int
    assignments_evaluated: int
    truncated: bool = False


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
                "unbound_prediction": [a.canonical_text for a in self.binding.unbound_prediction],
                "unbound_reference": [a.canonical_text for a in self.binding.unbound_reference],
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


def _strip_quantifiers(expr: FolExpr) -> FolExpr:
    if isinstance(expr, Quantified):
        return _strip_quantifiers(expr.body)
    if isinstance(expr, Not):
        return Not(_strip_quantifiers(expr.body))
    if isinstance(expr, Binary):
        return Binary(expr.op, _strip_quantifiers(expr.left), _strip_quantifiers(expr.right))
    return expr


def _compile(expr: FolExpr, ordinals: dict[str, int]):
    """Lower a quantifier-free tree to nested tuples holding atom ordinals."""
    if isinstance(expr, Atom):
        return ("atom", ordinals[_syntax.atom_text(expr.predicate, expr.args)])
    if isinstance(expr, Not):
        return ("not", _compile(expr.body, ordinals))
    assert isinstance(expr, Binary)
    return (expr.op, _compile(expr.left, ordinals), _compile(expr.right, ordinals))


def _eval_bits(node, varmap: list[int], patterns: tuple[int, ...], mask: int) -> int:
    tag = node[0]
    if tag == "atom":
        return patterns[varmap[node[1]]]
    if tag == "not":
        return mask ^ _eval_bits(node[1], varmap, patterns, mask)
    left = _eval_bits(node[1], varmap, patterns, mask)
    right = _eval_bits(node[2], varmap, patterns, mask)
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


class CompiledReference:
    """A reference formula prepared once for scoring any number of
    predictions: its canonical tree, its distinct atoms, its compiled
    quantifier-free skeleton, and its truth table per variable count (built
    on first use).  ``compile_reference`` builds one from text."""

    def __init__(self, tree: FolExpr):
        """``tree`` should already be canonicalized."""
        self.tree = tree
        self.atoms = atoms_of(tree)
        ordinals = {a.canonical_text: j for j, a in enumerate(self.atoms)}
        self.code = _compile(_strip_quantifiers(tree), ordinals)
        self._bits: dict[int, int] = {}
        self._last_tables: tuple[tuple, "_AtomTables"] | None = None

    def bits(self, k: int) -> int:
        """Truth-table mask of the skeleton over ``k`` variables, reference
        atom j being variable j."""
        bits = self._bits.get(k)
        if bits is None:
            patterns, mask, _ = _var_patterns(k)
            bits = self._bits[k] = _eval_bits(self.code, range(len(self.atoms)), patterns, mask)
        return bits

    def _tables(self, pred_atoms: tuple[AtomicUnit, ...], mode: str, config: LeConfig) -> "_AtomTables":
        """Binding-search tables for ``pred_atoms``, keeping the last ones
        built.  Every reading of a flat chain keeps its operands, and the
        quantifiers inside them, in one pre-order, so all bracketing trees
        of one prediction have the same canonical atoms and share them."""
        key = (pred_atoms, mode, config)
        last = self._last_tables
        if last is not None and last[0] == key:
            return last[1]
        tables = _AtomTables(pred_atoms, self.atoms, mode, config)
        self._last_tables = (key, tables)
        return tables


def compile_reference(reference: str) -> CompiledReference:
    """Parse ``reference`` in precedence mode and compile it for scoring.
    Raises ``ParseError`` for malformed text."""
    return CompiledReference(canonicalize(parse(reference)))


class _Scorer:
    """Shared state for scoring many bindings of one prediction tree against
    a compiled reference: the tree's compiled skeleton and the row counter."""

    def __init__(
        self,
        pred: FolExpr,
        pred_atoms: tuple[AtomicUnit, ...],
        ref: CompiledReference,
        max_atoms: int,
    ):
        self.pred_atoms = pred_atoms
        self.ref = ref
        self.ref_atoms = ref.atoms
        self.n_p = len(pred_atoms)
        self.n_r = len(ref.atoms)
        self.max_atoms = max_atoms
        pred_ord = {a.canonical_text: i for i, a in enumerate(pred_atoms)}
        self.pred_code = _compile(_strip_quantifiers(pred), pred_ord)
        self.assignments_evaluated = 0

    def score(self, mapping: list[int | None]) -> float:
        """Agreement fraction for one binding.  ``mapping[i]`` is the
        reference index bound to prediction atom i, or None when unbound."""
        unbound = sum(1 for m in mapping if m is None)
        k = self.n_r + unbound
        if k > self.max_atoms:
            raise CapExceeded(f"{k} combined atoms exceeds the truth-table cap {self.max_atoms}")
        patterns, mask, rows = _var_patterns(k)
        varmap: list[int] = []
        slot = self.n_r
        for m in mapping:
            if m is None:
                varmap.append(slot)
                slot += 1
            else:
                varmap.append(m)
        ref_bits = self.ref.bits(k)
        pred_bits = _eval_bits(self.pred_code, varmap, patterns, mask)
        self.assignments_evaluated += rows
        return (rows - (pred_bits ^ ref_bits).bit_count()) / rows

    def binding_from(self, mapping: list[int | None]) -> BindingMap:
        pairs = tuple(
            (self.pred_atoms[i], self.ref_atoms[m]) for i, m in enumerate(mapping) if m is not None
        )
        used = {m for m in mapping if m is not None}
        return BindingMap(
            pairs,
            tuple(self.pred_atoms[i] for i, m in enumerate(mapping) if m is None),
            tuple(self.ref_atoms[j] for j in range(self.n_r) if j not in used),
        )


def propositional_score(pred: FolExpr, ref: FolExpr, binding: BindingMap, max_atoms: int = 16) -> float:
    """Truth-table agreement of the two skeletons under a fixed binding.
    Both trees should already be canonicalized."""
    scorer = _Scorer(pred, atoms_of(pred), CompiledReference(ref), max_atoms)
    pred_index = {a.canonical_text: i for i, a in enumerate(scorer.pred_atoms)}
    ref_index = {a.canonical_text: j for j, a in enumerate(scorer.ref_atoms)}
    mapping: list[int | None] = [None] * scorer.n_p
    for p, r in binding.pairs:
        if p.canonical_text not in pred_index:
            raise ValueError(f"binding names unknown prediction atom {p.canonical_text!r}")
        if r.canonical_text not in ref_index:
            raise ValueError(f"binding names unknown reference atom {r.canonical_text!r}")
        mapping[pred_index[p.canonical_text]] = ref_index[r.canonical_text]
    return scorer.score(mapping)


# --- binding searches --------------------------------------------------------


class _AtomTables:
    """What a binding search reads from the two atom lists: edit distances,
    each prediction atom's candidate reference atoms in ascending edit
    distance, and, in optimized mode, the candidate graph's components.
    They depend on the atoms alone, so one prediction's trees share them."""

    def __init__(
        self,
        pred_atoms: tuple[AtomicUnit, ...],
        ref_atoms: tuple[AtomicUnit, ...],
        mode: str,
        config: LeConfig,
    ):
        n_p, n_r = len(pred_atoms), len(ref_atoms)
        if mode == "original" and max(n_p, n_r) > config.max_factorial_atoms:
            raise CapExceeded(
                f"{max(n_p, n_r)} atoms exceeds the factorial-search cap {config.max_factorial_atoms}"
            )
        lev = [[levenshtein(p.canonical_text, r.canonical_text) for r in ref_atoms] for p in pred_atoms]
        self.components: tuple[Component, ...] = ()
        if mode == "original":
            candidates = {i: list(range(n_r)) for i in range(n_p)}
        else:
            graph = CandidateGraph.build(pred_atoms, ref_atoms, config.similarity)
            candidates = {}
            for i, j, _ in graph.edges:
                candidates.setdefault(i, []).append(j)
            self.components = graph.components
        for i, row in candidates.items():
            row.sort(key=lambda j, i=i: (lev[i][j], j))
        self.lev = lev
        self.candidates = candidates


def _search_original(scorer: _Scorer, tables: _AtomTables, config: LeConfig) -> BindingResult:
    n_p, n_r = scorer.n_p, scorer.n_r
    lev, cand = tables.lev, tables.candidates
    skips_total = max(0, n_p - n_r)

    mapping: list[int | None] = [None] * n_p
    used = [False] * n_r
    state = {"best": None, "score": -1.0, "dist": 0, "explored": 0}

    def leaf():
        score = scorer.score(mapping)
        state["explored"] += 1
        dist = sum(lev[i][m] for i, m in enumerate(mapping) if m is not None)
        if score > state["score"] or (score == state["score"] and dist < state["dist"]):
            state["best"] = list(mapping)
            state["score"] = score
            state["dist"] = dist

    def rec(i: int, skips_left: int):
        if i == n_p:
            if skips_left == 0:
                leaf()
            return
        for j in cand[i]:
            if not used[j]:
                used[j] = True
                mapping[i] = j
                rec(i + 1, skips_left)
                mapping[i] = None
                used[j] = False
        if skips_left > 0:
            rec(i + 1, skips_left - 1)

    rec(0, skips_total)
    best = state["best"]
    assert best is not None
    return BindingResult(
        scorer.binding_from(best),
        state["score"],
        state["explored"],
        scorer.assignments_evaluated,
    )


def _max_matching_size(preds: tuple[int, ...], adj: dict[int, list[int]]) -> int:
    """Maximum bipartite matching size via augmenting paths."""
    match_ref: dict[int, int] = {}

    def augment(i: int, visited: set[int]) -> bool:
        for j in adj[i]:
            if j in visited:
                continue
            visited.add(j)
            if j not in match_ref or augment(match_ref[j], visited):
                match_ref[j] = i
                return True
        return False

    size = 0
    for i in preds:
        if augment(i, set()):
            size += 1
    return size


def _search_optimized(scorer: _Scorer, tables: _AtomTables, config: LeConfig) -> BindingResult:
    lev, adj = tables.lev, tables.candidates
    mapping: list[int | None] = [None] * scorer.n_p
    multi: list[Component] = []
    for comp in tables.components:
        if len(comp.prediction_atoms) == 1 and len(comp.reference_atoms) == 1:
            mapping[comp.prediction_atoms[0]] = comp.reference_atoms[0]
        else:
            multi.append(comp)

    explored = 0
    truncated = False
    final_score: float | None = None

    for comp in multi:
        preds = comp.prediction_atoms
        target = _max_matching_size(preds, adj)
        skips_total = len(preds) - target
        used: set[int] = set()
        best = {"assign": None, "score": -1.0, "dist": 0, "count": 0}
        capped = False

        def rec(pos: int, skips_left: int):
            nonlocal capped, explored
            if capped:
                return
            if pos == len(preds):
                if skips_left != 0:
                    return
                score = scorer.score(mapping)
                explored += 1
                best["count"] += 1
                dist = sum(lev[i][mapping[i]] for i in preds if mapping[i] is not None)
                if score > best["score"] or (score == best["score"] and dist < best["dist"]):
                    best["assign"] = [mapping[i] for i in preds]
                    best["score"] = score
                    best["dist"] = dist
                if best["count"] >= config.component_cap:
                    capped = True
                return
            i = preds[pos]
            for j in adj[i]:
                if j not in used:
                    used.add(j)
                    mapping[i] = j
                    rec(pos + 1, skips_left)
                    mapping[i] = None
                    used.discard(j)
                    if capped:
                        return
            if skips_left > 0:
                rec(pos + 1, skips_left - 1)

        rec(0, skips_total)
        truncated = truncated or capped
        assert best["assign"] is not None
        for i, j in zip(preds, best["assign"]):
            mapping[i] = j
        final_score = best["score"]

    if final_score is None:
        final_score = scorer.score(mapping)
        explored += 1

    return BindingResult(
        scorer.binding_from(mapping),
        final_score,
        explored,
        scorer.assignments_evaluated,
        truncated,
    )


_SEARCHES = {"original": _search_original, "optimized": _search_optimized}


def _bind(pred: FolExpr, ref: FolExpr | CompiledReference, mode: str, config: LeConfig) -> BindingResult:
    if not isinstance(ref, CompiledReference):
        ref = CompiledReference(ref)
    pred_atoms = atoms_of(pred)
    tables = ref._tables(pred_atoms, mode, config)
    return _SEARCHES[mode](_Scorer(pred, pred_atoms, ref, config.max_atoms), tables, config)


def bind_original(
    pred: FolExpr, ref: FolExpr | CompiledReference, config: LeConfig = DEFAULT_LE
) -> BindingResult:
    """Exhaustive search over every complete injective matching of the
    smaller atom set, candidates tried in ascending edit-distance order.
    Factorial in the atom count, so guarded by ``max_factorial_atoms``.
    ``pred`` is a canonical tree; ``ref`` a canonical tree or a compiled
    reference."""
    return _bind(pred, ref, "original", config)


def bind_optimized(
    pred: FolExpr, ref: FolExpr | CompiledReference, config: LeConfig = DEFAULT_LE
) -> BindingResult:
    """Candidate-restricted binding search.

    Builds the relatedness graph, fixes one-to-one components outright, and
    enumerates maximum-cardinality injective assignments inside each
    one-to-many component (components in first-occurrence order, earlier
    choices fixed, later components unbound while a component is searched).
    A component stops early at ``component_cap`` scored assignments and
    keeps its best so far, flagged via ``truncated``.  ``pred`` is a
    canonical tree; ``ref`` a canonical tree or a compiled reference.
    """
    return _bind(pred, ref, "optimized", config)


# --- top-level scoring -------------------------------------------------------


def _matching_paren(tokens, start: int) -> int | None:
    depth = 0
    for idx in range(start, len(tokens)):
        kind = tokens[idx].kind
        if kind == _syntax.LPAREN:
            depth += 1
        elif kind == _syntax.RPAREN:
            depth -= 1
            if depth == 0:
                return idx
    return None


def _operand_span(tokens, j: int, end: int) -> int | None:
    """End index of the single unary operand starting at ``j``, or None."""
    while j < end:
        kind = tokens[j].kind
        if kind == _syntax.NOT:
            j += 1
        elif kind in _syntax.QUANTIFIERS:
            if j + 1 >= end or tokens[j + 1].kind != _syntax.IDENT:
                return None
            j += 2
        else:
            break
    if j >= end:
        return None
    kind = tokens[j].kind
    if kind == _syntax.IDENT:
        if j + 1 < end and tokens[j + 1].kind == _syntax.LPAREN:
            close = _matching_paren(tokens, j + 1)
            return None if close is None else close + 1
        return j + 1
    if kind == _syntax.LPAREN:
        close = _matching_paren(tokens, j)
        return None if close is None else close + 1
    return None


def _strip_wrappers(tokens) -> tuple[list[tuple], list]:
    """Peel whole-formula negation/quantifier prefixes and enclosing parens,
    returning (wrappers outermost-first, inner token slice)."""
    wrappers: list[tuple] = []
    start, end = 0, len(tokens)
    while start < end:
        kind = tokens[start].kind
        if kind == _syntax.NOT and _operand_span(tokens, start + 1, end) == end:
            wrappers.append((_syntax.NOT,))
            start += 1
        elif (
            kind in _syntax.QUANTIFIERS
            and start + 1 < end
            and tokens[start + 1].kind == _syntax.IDENT
            and _operand_span(tokens, start + 2, end) == end
        ):
            wrappers.append((kind, tokens[start + 1].text))
            start += 2
        elif kind == _syntax.LPAREN and _matching_paren(tokens, start) == end - 1:
            start += 1
            end -= 1
        else:
            break
    return wrappers, list(tokens[start:end])


def _prediction_trees(tokens, config: LeConfig) -> list[FolExpr]:
    wrappers, chain = _strip_wrappers(tokens)
    if not chain:
        # Malformed input; let the plain parser raise the proper error.
        return [_Parser(list(tokens), "precedence").parse()]
    trees = enumerate_bracketings(chain, chunk_size=config.chunk_size, max_operators=config.max_chain_operators)
    for wrapper in reversed(wrappers):
        if wrapper[0] == _syntax.NOT:
            trees = [Not(t) for t in trees]
        else:
            trees = [Quantified(wrapper[0], wrapper[1], t) for t in trees]
    return trees


def _score_prediction(prediction: str, ref: CompiledReference, mode: str, config: LeConfig) -> LeReport:
    tokens = lex(prediction)
    if not tokens:
        raise ParseError("empty formula")
    trees = _prediction_trees(tokens, config)

    bind = bind_original if mode == "original" else bind_optimized
    best: tuple[float, BindingResult] | None = None
    assignments = 0
    bindings = 0
    truncated = False
    for tree in trees:
        result = bind(canonicalize(tree), ref, config)
        assignments += result.assignments_evaluated
        bindings += result.bindings_explored
        truncated = truncated or result.truncated
        if best is None or result.score > best[0]:
            best = (result.score, result)

    assert best is not None
    score, result = best
    atom_count = len(ref.atoms) + len(result.binding.unbound_prediction)
    return LeReport(
        score=score,
        binding=result.binding,
        atom_count=atom_count,
        assignments_evaluated=assignments,
        bindings_explored=bindings,
        trees_explored=len(trees),
        mode=mode,
        truncated=truncated,
    )


def score_group(
    predictions: list[str],
    reference: str | CompiledReference,
    mode: str = "optimized",
    config: LeConfig = DEFAULT_LE,
) -> list[LeReport | ParseError | CapExceeded]:
    """Score each of ``predictions`` against one shared ``reference``.

    The reference is compiled once (pass a ``CompiledReference`` to reuse
    one across calls) and each distinct prediction text is scored once, so
    equal predictions share one ``LeReport``; treat reports as read-only.
    The result is aligned with ``predictions``: a report, or the
    ``ParseError`` / ``CapExceeded`` that prediction raised (without its
    traceback).  An unknown
    mode raises ``ValueError`` and a malformed reference raises its
    ``ParseError``.
    """
    if mode not in _SEARCHES:
        raise ValueError(f"unknown scoring mode {mode!r}")
    if not isinstance(reference, CompiledReference):
        reference = compile_reference(reference)
    scored: dict[str, LeReport | ParseError | CapExceeded] = {}
    results = []
    for prediction in predictions:
        result = scored.get(prediction)
        if result is None:
            try:
                result = _score_prediction(prediction, reference, mode, config)
            except (ParseError, CapExceeded) as exc:
                # The traceback's frames lead back to this frame, which holds
                # the exception: dropping it avoids a cycle per failure.
                result = exc.with_traceback(None)
            scored[prediction] = result
        results.append(result)
    return results


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
    Parse errors propagate; callers that need a never-fail reward should
    map them to 0 (the service and corpus layers do).  This is
    ``score_group`` for a group of one.
    """
    (result,) = score_group([prediction], reference, mode, config)
    if isinstance(result, Exception):
        raise result
    return result
