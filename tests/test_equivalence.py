import gc
import itertools
import json
import math
import random
import sys
from types import SimpleNamespace
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings, strategies as st

import foleq.equivalence as equivalence
from foleq.equivalence import (
    COMPONENT_CAP,
    MAX_FACTORIAL_ATOMS,
    BindingMap,
    CandidateGraph,
    DEFAULT_LE,
    MAX_TABLE_ATOMS,
    LeConfig,
    Scorer,
    bind_optimized,
    bind_original,
    CompiledReference,
    _AtomTables,
    _compile_evaluator,
    _enumerate,
    _Lowering,
    _search,
    compile_reference,
    le_score,
    propositional_score,
)
from foleq.corpus import EvalPair, corpus_le
from foleq.service import ServiceConfig, handle_line
from foleq.similarity import levenshtein, ngram_cosine
from foleq.syntax import (
    MAX_TOKENS,
    BINARY_OPS,
    Atom,
    Binary,
    CapExceeded,
    Not,
    ParseError,
    FormulaError,
    Quantified,
    atoms_of,
    canonicalize,
    enumerate_bracketings,
    lex,
    parse,
    render,
    split_chain,
)
from helpers import (
    _row_patterns,
    agreement,
    best_complete_matching,
    forward_bind,
    forward_search,
    lower_by_three_walks,
    random_formula,
    scored_result,
    skeleton_bits,
)


def canon(text: str):
    return canonicalize(parse(text))


# --- propositional scoring against the row-by-row oracle ------------------------

def test_score_known_fragments():
    pred, ref = canon("P(a)"), canon("P(a) ∧ Q(a)")
    binding = BindingMap.identity(atoms_of(pred), atoms_of(ref))
    assert propositional_score(pred, ref, binding) == 0.75


def test_score_contradiction_is_zero():
    pred, ref = canon("A ∧ B"), canon("¬(A ∧ B)")
    binding = BindingMap.identity(atoms_of(pred), atoms_of(ref))
    assert propositional_score(pred, ref, binding) == 0.0


def test_score_unbound_atoms_are_fresh_variables():
    pred, ref = canon("P(a)"), canon("Q(b)")
    binding = BindingMap((), (atoms_of(pred)[0],), (atoms_of(ref)[0],))
    assert propositional_score(pred, ref, binding) == 0.5


def test_score_rejects_unknown_binding_atoms():
    pred, ref = canon("A"), canon("B")
    binding = BindingMap(((atoms_of(canon("Z"))[0], atoms_of(ref)[0]),))
    with pytest.raises(ValueError):
        propositional_score(pred, ref, binding)
    # an unbound list may name only atoms of its side's formula
    for unbound_pred, unbound_ref, message in (
        (("Nope",), ("Nope2",), "unknown prediction atom 'Nope'"),
        ((), ("Nope2",), "unknown reference atom 'Nope2'"),
    ):
        with pytest.raises(ValueError, match=message):
            propositional_score(Atom("A"), Atom("A"), BindingMap((), unbound_pred, unbound_ref))


def test_score_respects_atom_cap():
    pred = canon(" ∧ ".join(f"P{i}" for i in range(9)))
    ref = canon(" ∧ ".join(f"Q{i}" for i in range(9)))
    binding = BindingMap.identity(atoms_of(pred), atoms_of(ref))
    with pytest.raises(CapExceeded):
        propositional_score(pred, ref, binding)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_score_matches_row_oracle(seed):
    rng = random.Random(seed)
    pred = canonicalize(random_formula(rng, max_atoms=3, max_depth=4))
    ref = canonicalize(random_formula(rng, max_atoms=3, max_depth=4))
    pred_atoms, ref_atoms = atoms_of(pred), atoms_of(ref)
    # random partial injective binding
    k = rng.randint(0, min(len(pred_atoms), len(ref_atoms)))
    pred_pick = rng.sample(range(len(pred_atoms)), k)
    ref_pick = rng.sample(range(len(ref_atoms)), k)
    pairs = tuple((pred_atoms[i], ref_atoms[j]) for i, j in zip(pred_pick, ref_pick))
    bound_p = {i for i in pred_pick}
    bound_r = {j for j in ref_pick}
    binding = BindingMap(
        pairs,
        tuple(a for i, a in enumerate(pred_atoms) if i not in bound_p),
        tuple(a for j, a in enumerate(ref_atoms) if j not in bound_r),
    )
    got = propositional_score(pred, ref, binding)
    want = agreement(pred, ref, dict(pairs))
    assert got == pytest.approx(want, abs=1e-12)


# --- one lowering walk against rename, list and compile -------------------------

def _negated(count: int, body):
    for _ in range(count):
        body = Not(body)
    return body


# Free v1/v2 collide with the fresh names, z is quantified but never used,
# and two predicates over four names make atoms repeat.
_LOWERING_FORMULAS = st.recursive(
    st.builds(
        Atom, st.sampled_from(["P", "Q"]), st.lists(st.sampled_from(["x", "y", "v1", "v2"]), max_size=2).map(tuple)
    ),
    lambda children: st.one_of(
        st.builds(_negated, st.integers(1, 40), children),
        st.builds(Quantified, st.sampled_from(["forall", "exists"]), st.sampled_from(["x", "y", "v1", "z"]), children),
        st.builds(Binary, st.sampled_from(BINARY_OPS), children, children),
    ),
    max_leaves=8,
)


def _texts_and_codes(atoms, codes):
    return list(atoms), codes


@settings(max_examples=300, deadline=None)
@given(_LOWERING_FORMULAS)
@example(parse("∀x ∃x P(x)"))
@example(parse("∀x (P(x) ∧ P(v1) ∧ ∃y Q(v2, y))"))
@example(parse("∀z ∀x P(x) ∧ ∀z P(x)"))
@example(parse("¬" * 60 + "∀x (P(x) ∧ P(x) ∧ ¬¬P(x))"))
def test_lowering_matches_rename_list_and_compile(tree):
    compiled = compile_reference(render(tree))
    assert _texts_and_codes(compiled.atoms, [compiled.code]) == _texts_and_codes(*lower_by_three_walks([tree]))
    # The chain form that scoring lowers: the operands of the outermost
    # chain inside the wrappers around it.
    try:
        wrapped, operands, _ = split_chain(lex(render(tree)))
    except CapExceeded:
        return
    lowering = _Lowering()
    _, codes, _ = split_chain(lex(render(tree)), nodes=lowering)
    wrappers = []
    while isinstance(wrapped, (Not, Quantified)):
        wrappers.append(wrapped)
        wrapped = wrapped.body
    lowered = _texts_and_codes(lowering.atoms(), codes)
    assert lowered == _texts_and_codes(*lower_by_three_walks(operands, wrappers))


# --- the compiled evaluator against the interpreting oracle -----------------------

def _evaluations(compiled: CompiledReference, varmap: list[int], k: int) -> tuple[int, int]:
    """The compiled evaluator's and the oracle's tables of ``compiled`` over
    ``k`` variables, atom ordinal o being variable ``varmap[o]``."""
    patterns, mask, _ = _row_patterns(k)
    values = [patterns[var] for var in varmap]
    return _compile_evaluator(compiled.code)(values, mask), skeleton_bits(compiled.code, varmap, patterns, mask)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10 ** 9), st.randoms(use_true_random=False))
def test_the_compiled_evaluator_equals_the_oracle(seed, rng):
    """A lowered reference's closures give the interpreting oracle's table,
    bit for bit, under any injective map of its atoms onto variables."""
    compiled = compile_reference(render(random_formula(random.Random(seed), max_atoms=6, max_depth=5)))
    n = len(compiled.atoms)
    k = rng.randint(n, n + 3)
    compiled_bits, oracle_bits = _evaluations(compiled, rng.sample(range(k), n), k)
    assert compiled_bits == oracle_bits


# Every closure the evaluator builds: each connective with an atom or a
# negation on either side, a negated atom, a negated negation, and an atom.
_CLOSURE_SHAPES = ["A", "¬A", "¬¬A"] + [
    f"{left} {op} {right}" for op in "∧∨→↔⊕" for left in ("A", "¬A") for right in ("B", "¬B")
]


@pytest.mark.parametrize("text", _CLOSURE_SHAPES)
def test_every_closure_shape_equals_the_oracle(text):
    compiled = compile_reference(text)
    n = len(compiled.atoms)
    for varmap in itertools.permutations(range(n + 1), n):
        compiled_bits, oracle_bits = _evaluations(compiled, list(varmap), n + 1)
        assert compiled_bits == oracle_bits


# --- exhaustive binding search ---------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_bind_original_matches_matching_oracle(seed):
    rng = random.Random(seed)
    pred = canonicalize(random_formula(rng, max_atoms=3, max_depth=3))
    ref = canonicalize(random_formula(rng, max_atoms=3, max_depth=3))
    result = bind_original(pred, ref)
    score, dist, mappings = best_complete_matching(pred, ref)
    assert result.score == pytest.approx(score, abs=1e-12)
    got_dist = sum(levenshtein(p, r) for p, r in result.binding.pairs)
    assert got_dist == dist
    assert frozenset(result.binding.as_dict().items()) in mappings


def test_bind_original_explores_all_permutations():
    pred = canon(" ∧ ".join(f"P{i}" for i in range(6)))
    ref = canon(" ∧ ".join(f"Q{i}" for i in range(6)))
    # original mode is exhaustive: its walks stay below the component cap
    result = bind_original(pred, ref)
    assert result.bindings_explored == 720
    assert result.score == 1.0
    assert not result.truncated


def test_an_original_mode_walk_never_reaches_the_component_cap():
    # The most matchings of at most MAX_FACTORIAL_ATOMS atoms a side.
    assert math.factorial(MAX_FACTORIAL_ATOMS) < COMPONENT_CAP


def test_bind_original_unequal_sides_binds_smaller_side_fully():
    pred = canon("A ∧ B ∧ C")
    ref = canon("A ∨ B")
    result = bind_original(pred, ref)
    assert len(result.binding.pairs) == 2
    assert len(result.binding.unbound_prediction) == 1
    assert not result.binding.unbound_reference
    # complete matchings: choose 2 of 3 prediction atoms, assign both ways
    assert result.bindings_explored == 6


def test_bind_original_factorial_cap():
    pred = canon(" ∧ ".join(f"P{i}" for i in range(8)))
    ref = canon(" ∧ ".join(f"Q{i}" for i in range(8)))
    with pytest.raises(CapExceeded):
        bind_original(pred, ref)


def test_fixed_caps_keep_their_values_and_messages():
    assert (MAX_FACTORIAL_ATOMS, COMPONENT_CAP) == (7, 10_000)
    with pytest.raises(CapExceeded, match=r"^connective chain has 17 operators \(cap 16\)$"):
        le_score(" ∧ ".join(["A"] * 18), "A")
    with pytest.raises(CapExceeded, match="^8 atoms exceeds the factorial-search cap 7$"):
        le_score(" ∧ ".join(f"P{i}" for i in range(8)), "A", mode="original")


def test_a_tree_past_the_token_cap_is_capped_through_its_rendering():
    # A tree is compiled from its rendering: 400 nested quantifiers render
    # to 804 tokens, which the parser's token cap refuses before it parses.
    tree = Atom("P", ("x",))
    for _ in range(400):
        tree = Quantified("forall", "x", tree)
    for bind in (bind_original, bind_optimized):
        with pytest.raises(CapExceeded, match=r"formula has 804 tokens \(cap \d+\)"):
            bind(tree, tree)


def test_a_tree_too_deep_to_render_is_capped():
    # 1,200 nested negations, deeper than the recursion limit, render
    # without recursion, and the parser's token cap refuses the rendering.
    deep = Atom("A")
    for _ in range(1200):
        deep = Not(deep)
    shallow = Atom("A")
    message = rf"^formula has 1201 tokens \(cap {MAX_TOKENS}\)$"
    for pred, ref in ((deep, shallow), (shallow, deep)):
        for bind in (bind_original, bind_optimized):
            with pytest.raises(CapExceeded, match=message):
                bind(pred, ref)
        with pytest.raises(CapExceeded, match=message):
            propositional_score(pred, ref, BindingMap(()))
    for tree_function in (canonicalize, atoms_of):
        with pytest.raises(CapExceeded, match=message):
            tree_function(deep)


@pytest.mark.parametrize("bad", [Atom("forall"), Atom("p-q")], ids=["forall", "p-q"])
def test_a_tree_whose_rendering_does_not_parse_raises_as_its_rendering(bad):
    # A tree takes the lexer, parser and lowering that its rendering takes,
    # so an atom name that does not lex as one name is no atom.
    good = Atom("A")
    for pred, ref in ((bad, good), (good, bad)):
        with pytest.raises(ParseError) as expected:
            le_score(render(pred), render(ref))
        for score in (bind_original, bind_optimized, lambda p, r: propositional_score(p, r, BindingMap(()))):
            with pytest.raises(ParseError) as caught:
                score(pred, ref)
            assert type(caught.value) is type(expected.value)
            assert str(caught.value) == str(expected.value)
    with pytest.raises(ParseError) as expected:
        le_score(render(bad), render(good))
    for tree_function in (canonicalize, atoms_of):
        with pytest.raises(ParseError) as caught:
            tree_function(bad)
        assert type(caught.value) is type(expected.value)
        assert str(caught.value) == str(expected.value)


def test_bind_original_prefers_smaller_edit_distance_on_ties():
    # both bindings of the symmetric conjunction score 1.0; the
    # name-preserving one has edit distance 0
    pred = canon("A ∧ B")
    ref = canon("B ∧ A")
    result = bind_original(pred, ref)
    assert result.score == 1.0
    assert result.binding.as_dict() == {"A": "A", "B": "B"}


# --- candidate graph --------------------------------------------------------------

def test_candidate_graph_components_and_edges():
    pred = atoms_of(canon("Happy(x) ∧ Sad(y)"))
    ref = atoms_of(canon("Happyy(x) ∧ Sadd(y)"))
    graph = CandidateGraph.build(pred, ref)
    assert [(i, j) for i, row in enumerate(graph.neighbours) for j in row] == [(0, 0), (1, 1)]
    assert len(graph.components) == 2


def test_candidate_graph_merges_shared_candidates():
    pred = atoms_of(canon("Pred1(x) ∧ Pred2(x)"))
    ref = atoms_of(canon("Pred1(x) ∧ Pred2(x)"))
    graph = CandidateGraph.build(pred, ref)
    # every pair is related (shared "pred" stem), one 2x2 component
    assert len(graph.components) == 1
    comp = graph.components[0]
    assert comp.prediction_atoms == (0, 1) and comp.reference_atoms == (0, 1)


def test_candidate_graph_no_edges_below_threshold():
    pred = atoms_of(canon("Abc"))
    ref = atoms_of(canon("Xyz"))
    graph = CandidateGraph.build(pred, ref)
    assert [(i, j) for i, row in enumerate(graph.neighbours) for j in row] == []
    assert graph.components == ()


_STEMS = ["Alpha", "Alphb", "Beta", "Betb", "Gamma", "Likes", "Like", "P"]


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.sampled_from(_STEMS), max_size=7),
    st.lists(st.sampled_from(_STEMS), max_size=7),
    st.sampled_from([0.3, 0.5, 0.6, 0.8]),
)
def test_candidate_graph_components_are_the_edges_connected_pieces_in_order(pred, ref, threshold):
    """The components partition the edges' ends into the graph's connected
    pieces, each a sorted pair of tuples, in order of their smallest
    prediction atom: checked against a closure over the edges.  Each
    prediction atom's neighbours are the reference atoms whose similarity
    reaches the threshold, in order."""
    pred = tuple(f"{stem}{i % 3}(x)" for i, stem in enumerate(pred))
    ref = tuple(f"{stem}{i % 2}(x)" for i, stem in enumerate(ref))
    graph = CandidateGraph.build(pred, ref, threshold)
    pieces: list[tuple[set[int], set[int]]] = []
    for i, j in [(i, j) for i, row in enumerate(graph.neighbours) for j in row]:
        joined = [p for p in pieces if i in p[0] or j in p[1]]
        merged = ({i}, {j})
        for p in joined:
            pieces.remove(p)
            merged[0].update(p[0])
            merged[1].update(p[1])
        pieces.append(merged)
    want = sorted((tuple(sorted(p)), tuple(sorted(r))) for p, r in pieces)
    assert [(c.prediction_atoms, c.reference_atoms) for c in graph.components] == want
    assert graph.neighbours == [[j for j, r in enumerate(ref) if ngram_cosine(p, r) >= threshold] for p in pred]


# --- candidate-restricted binding search -------------------------------------------

def test_bind_optimized_identity_pair():
    pred = canon("P(v1) ∧ Q(v1)")
    result = bind_optimized(pred, pred)
    assert result.score == 1.0
    # P/Q share the "(v1)" grams, so one 2x2 component: two assignments
    assert result.bindings_explored == 2


def test_bind_optimized_unrelated_atoms_stay_unbound():
    pred = canon("P(a)")
    ref = canon("Q(b)")
    result = bind_optimized(pred, ref)
    assert result.score == 0.5
    assert result.binding.pairs == ()
    assert result.bindings_explored == 1


def test_bind_optimized_never_exceeds_original(subtests=None):
    rng = random.Random(12345)
    for _ in range(60):
        pred = canonicalize(random_formula(rng, max_atoms=3, max_depth=3))
        ref = canonicalize(random_formula(rng, max_atoms=3, max_depth=3))
        a = bind_optimized(pred, ref)
        b = bind_original(pred, ref)
        assert a.bindings_explored <= max(b.bindings_explored, 1)


def test_bind_optimized_component_cap_truncates():
    pred = canon("Pred1(x) ∧ Pred2(x) ∧ Pred3(x)")
    with patch.object(equivalence, "COMPONENT_CAP", 2):
        result = bind_optimized(pred, pred)
        report = le_score("Pred1(x) ∧ Pred2(x) ∧ Pred3(x)", "Pred1(x) ∧ Pred2(x) ∧ Pred3(x)")
    assert result.truncated
    assert result.bindings_explored <= 2
    assert report.truncated


def test_bind_optimized_processes_components_sequentially():
    # two independent related clusters; each contributes its own best match
    pred = canon("Alpha1 ∧ Beta1")
    ref = canon("Alpha2 ∧ Beta2")
    result = bind_optimized(pred, ref)
    assert result.score == 1.0
    assert result.binding.as_dict() == {"Alpha1": "Alpha2", "Beta1": "Beta2"}


def _bound(bind):
    try:
        result = bind()
    except CapExceeded as exc:
        return str(exc)
    return (
        result.score,
        result.binding.as_dict(),
        list(result.binding.unbound_prediction),
        list(result.binding.unbound_reference),
        result.bindings_explored,
        result.assignments_evaluated,
        result.truncated,
    )


_BIND_PREDICATES = ["Likes", "Like", "Liked", "Owns", "Own", "P"]


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 10 ** 9),
    st.sampled_from(["original", "optimized"]),
    st.sampled_from([(DEFAULT_LE, COMPONENT_CAP), (DEFAULT_LE, 3), (LeConfig(max_atoms=5), COMPONENT_CAP)]),
)
def test_bind_equals_the_forward_search(seed, mode, config_and_cap):
    """One reading bound by the library equals the forward search, which
    evaluates the prediction under each binding against the reference's own
    table: score, binding, counters, truncation and ``CapExceeded`` text."""
    config, cap = config_and_cap
    rng = random.Random(seed)
    pred = random_formula(rng, max_atoms=6, max_depth=4, predicates=_BIND_PREDICATES)
    ref = random_formula(rng, max_atoms=6, max_depth=4, predicates=_BIND_PREDICATES)
    bind = bind_original if mode == "original" else bind_optimized
    # Only an optimized-mode walk can reach the cap.
    with patch.object(equivalence, "COMPONENT_CAP", cap if mode == "optimized" else COMPONENT_CAP):
        assert _bound(lambda: bind(pred, ref, config)) == _bound(lambda: forward_bind(pred, ref, mode, config))


def _all_but_mode(result):
    """A scoring result as ``scored_result`` gives it, without the report's
    ``mode``."""
    result = scored_result(result)
    if isinstance(result, dict):
        del result["mode"]
    return result


def _alone(prediction: str, reference: str, mode: str, config: LeConfig = DEFAULT_LE):
    try:
        return _all_but_mode(le_score(prediction, reference, mode, config))
    except FormulaError as exc:
        return _all_but_mode(exc)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10 ** 9), st.integers(2, 4))
def test_the_modes_differ_only_in_their_rows(seed, size):
    """Inside the factorial cap, original mode is optimized mode at
    threshold 0, whose candidate rows hold every reference atom: every
    report field but ``mode`` is equal, for each pair alone (rows from the
    pair memo) and for one ``Scorer`` call of the group (rows from the gram
    index)."""
    rng = random.Random(seed)
    reference, *predictions = [
        render(random_formula(rng, max_atoms=MAX_FACTORIAL_ATOMS, predicates=_BIND_PREDICATES + ["Zebra"]))
        for _ in range(size + 1)
    ]
    complete = LeConfig(threshold=0.0)
    for prediction in predictions:
        assert _alone(prediction, reference, "original") == _alone(prediction, reference, "optimized", complete)
    optimized = Scorer(reference, "optimized", complete)
    grouped = [_all_but_mode(result) for result in optimized(predictions)]
    assert optimized._index is not None
    assert [_all_but_mode(result) for result in Scorer(reference, "original")(predictions)] == grouped


@st.composite
def candidate_tables(draw):
    """Up to 5 prediction atoms, each with a row of (reference index, edit
    distance) over up to 4 reference atoms, in ascending (distance, index)."""
    n_r = draw(st.integers(1, 4))
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        refs = draw(st.lists(st.integers(0, n_r - 1), unique=True, max_size=n_r))
        rows.append(sorted(((j, draw(st.integers(0, 3))) for j in refs), key=lambda jd: (jd[1], jd[0])))
    return n_r, rows


@settings(max_examples=300, deadline=None)
@given(candidate_tables(), st.integers(0, 16))
def test_walk_equals_the_product_of_candidate_rows(table, bound):
    """``_enumerate`` visits the injective assignments that bind as many
    atoms as a maximum matching allows, in the order of the product of each
    atom's candidates followed by staying unbound, and stops at the cap,
    reporting a cut only when a leaf lies past it.  Under a fixed bound it
    walks exactly the leaves whose summed distance is below the bound, in
    the same order, and counts the rest."""
    n_r, rows = table
    preds = tuple(range(len(rows)))
    assignments = [
        combo
        for combo in itertools.product(*[[j for j, _ in row] + [None] for row in rows])
        if len({j for j in combo if j is not None}) == len(combo) - combo.count(None)
    ]
    most_bound = max(len(combo) - combo.count(None) for combo in assignments)
    skips = len(preds) - most_bound
    distance = [dict(row) for row in rows]
    expected = [
        (combo, sum(distance[i][j] for i, j in enumerate(combo) if j is not None))
        for combo in assignments
        if combo.count(None) == skips
    ]

    adj = dict(enumerate(rows))
    for cap in (COMPONENT_CAP, *range(1, 7)):
        walked = expected[:cap]
        for walk_bound in (None, bound):
            mapping = [None] * len(preds)
            leaves = []

            def leaf(dist):
                leaves.append((tuple(mapping), dist))
                return walk_bound

            with patch.object(equivalence, "COMPONENT_CAP", cap):
                count, cut = _enumerate(
                    adj, preds, skips, mapping, leaf, walk_bound, [0] * n_r, [0] * len(mapping), (), ()
                )
            assert leaves == [(combo, dist) for combo, dist in walked if walk_bound is None or dist < walk_bound]
            assert count == len(walked)
            assert cut == (len(walked) < len(expected))
            assert mapping == [None] * len(preds)


@settings(max_examples=300, deadline=None)
@given(candidate_tables(), st.integers(0, 16))
def test_the_walk_keeps_each_reference_atoms_pattern(table, bound):
    """Given values, ``_enumerate`` holds at every leaf each bound reference
    atom at its prediction atom's pattern and the component's unbound
    reference atoms at the free patterns, each once, and writes no
    reference atom outside the component."""
    n_r, rows = table
    preds = tuple(range(len(rows)))
    refs = sorted({j for row in rows for j, _ in row})
    most_bound = max(
        len(combo) - combo.count(None)
        for combo in itertools.product(*[[j for j, _ in row] + [None] for row in rows])
        if len({j for j in combo if j is not None}) == len(combo) - combo.count(None)
    )
    patterns = [f"p{i}" for i in preds]
    free = [f"free{k}" for k in range(len(refs) - most_bound)]
    for walk_bound in (None, bound):
        mapping = [None] * len(preds)
        values = ["unwritten"] * n_r
        leaves = []

        def leaf(dist):
            bound_refs = {j: patterns[i] for i, j in enumerate(mapping) if j is not None}
            assert all(values[j] == pattern for j, pattern in bound_refs.items())
            assert sorted(values[j] for j in refs if j not in bound_refs) == free
            assert all(values[j] == "unwritten" for j in range(n_r) if j not in refs)
            leaves.append(dist)
            return walk_bound

        count, _ = _enumerate(
            dict(enumerate(rows)), preds, len(preds) - most_bound, mapping, leaf, walk_bound, values, patterns, refs, free
        )
        assert leaves or walk_bound is not None
        assert count >= len(leaves)


_PLAN_ATOMS = [f"{name}({arg})" for name in _BIND_PREDICATES for arg in "ab"]


def _skeletons(n: int):
    """Propositional skeletons over atom ordinals 0 to n - 1."""
    return st.recursive(
        st.integers(0, n - 1).map(lambda i: ("atom", i)),
        lambda inner: st.one_of(
            inner.map(lambda body: ("not", body)),
            st.tuples(st.sampled_from(["and", "or", "implies", "iff", "xor"]), inner, inner),
        ),
        max_leaves=8,
    )


@settings(max_examples=300, deadline=None)
@given(st.data(), st.sampled_from(["original", "optimized"]), st.sampled_from([COMPONENT_CAP, 1, 2, 3, 5, 8]))
def test_search_equals_the_forward_search_of_each_reading(data, mode, cap):
    """Several readings searched in one walk, which evaluates only the
    bindings that can change the report, give the report of the first best
    reading searched forward on its own, every binding evaluated.  Edit
    distances are drawn at random, so equal and out-of-order summed
    distances are common, and similar names make several components."""
    pred_atoms = tuple(data.draw(st.lists(st.sampled_from(_PLAN_ATOMS), min_size=1, max_size=6, unique=True)))
    ref_atoms = tuple(data.draw(st.lists(st.sampled_from(_PLAN_ATOMS), min_size=1, max_size=6, unique=True)))
    ref = CompiledReference(ref_atoms, data.draw(_skeletons(len(ref_atoms))))
    plan = _AtomTables(pred_atoms, ref, mode, DEFAULT_LE)
    for i, row in plan.candidates.items():
        plan.candidates[i] = sorted(((j, data.draw(st.integers(0, 3))) for j, _ in row), key=lambda jd: (jd[1], jd[0]))
    # A reading may be the reference's own skeleton, whose best binding
    # agrees on every row, so searches settle and drop tables early.
    reading = _skeletons(len(pred_atoms))
    if len(ref_atoms) <= len(pred_atoms):
        reading = st.one_of(reading, st.just(ref.code))
    codes = data.draw(st.lists(reading, min_size=1, max_size=5))

    # Only an optimized-mode walk can reach the cap.
    with patch.object(equivalence, "COMPONENT_CAP", cap if mode == "optimized" else COMPONENT_CAP):
        readings = [forward_search(code, plan, DEFAULT_LE.max_atoms) for code in codes]
        report = _search(codes, plan)
    best = readings[0]
    for reading in readings[1:]:
        if reading.score > best.score:
            best = reading
    assert (report.score, report.binding, report.atom_count) == (best.score, best.binding, best.atom_count)
    assert report.bindings_explored == sum(r.bindings_explored for r in readings)
    assert report.assignments_evaluated == sum(r.assignments_evaluated for r in readings)
    assert report.truncated == best.truncated


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_plan_reads_the_candidate_graph(data):
    """In optimized mode the plan gives each enumerated atom exactly its
    candidate graph edges, in ascending (edit distance, index) order, and
    starts from the graph's one-to-one components and, on each enumerated
    component, from an injective assignment of its candidate rows that
    leaves exactly its skip budget unbound.  The graph's components come
    in ascending order of their first prediction atom."""
    pred_atoms = tuple(data.draw(st.lists(st.sampled_from(_PLAN_ATOMS), min_size=1, max_size=6, unique=True)))
    ref_atoms = tuple(data.draw(st.lists(st.sampled_from(_PLAN_ATOMS), min_size=1, max_size=6, unique=True)))
    ref = CompiledReference(ref_atoms, ("atom", 0))
    plan = _AtomTables(pred_atoms, ref, "optimized", DEFAULT_LE)

    graph = CandidateGraph.build(pred_atoms, ref_atoms, DEFAULT_LE.threshold)
    edges = {i: row for i, row in enumerate(graph.neighbours) if row}
    one_to_one = {
        c.prediction_atoms[0]: c.reference_atoms[0]
        for c in graph.components
        if len(c.prediction_atoms) == len(c.reference_atoms) == 1
    }
    assert set(plan.candidates) == set(edges) - set(one_to_one)
    for i, row in plan.candidates.items():
        distance = {j: levenshtein(pred_atoms[i], ref_atoms[j]) for j in edges[i]}
        assert row == sorted(distance.items(), key=lambda jd: (jd[1], jd[0]))
    start = [one_to_one.get(i) for i in range(len(pred_atoms))]
    for preds, refs, skips in plan.enumerated:
        assert refs == tuple(sorted({j for i in preds for j, _ in plan.candidates[i]}))
        bound = {i: plan.start[i] for i in preds if plan.start[i] is not None}
        assert len(set(bound.values())) == len(bound) == len(preds) - skips
        assert all(j in dict(plan.candidates[i]) for i, j in bound.items())
        for i, j in bound.items():
            start[i] = j
    assert plan.start == start

    firsts = [c.prediction_atoms[0] for c in graph.components]
    assert firsts == sorted(set(firsts))


def test_a_settled_group_is_bound_by_its_largest_best_distance():
    """Once every table a group scores is settled, only leaves at or past
    the largest of their best distances are cut: a shorter leaf can still
    replace the best of the table that settled at that distance.  Reading
    ``P0`` and reading ``P2`` against the reference ``R2`` agree on every
    row exactly when their atom is bound to ``R2``.  The first component,
    which is not the last, so it drops no table, walks its leaves at summed
    distances 4, 3, 3, 4, 6 and 4: ``P2`` settles on the second leaf at 3,
    ``P0`` on the fifth at 6, and the sixth, ``P0 → R2`` at 4, must still
    replace the fifth."""
    plan = SimpleNamespace(
        pred_atoms=tuple(f"P{i}" for i in range(5)),
        ref=CompiledReference(tuple(f"R{j}" for j in range(5)), ("atom", 2)),
        mode="optimized",
        max_atoms=DEFAULT_LE.max_atoms,
        start=[1, 2, 0, 3, 4],
        enumerated=[((0, 1, 2), (0, 1, 2), 0), ((3, 4), (3, 4), 0)],
        candidates={
            0: [(0, 1), (1, 2), (2, 2)],
            1: [(2, 1), (0, 2), (1, 2)],
            2: [(0, 0), (2, 0), (1, 2)],
            3: [(3, 0), (4, 0)],
            4: [(3, 0), (4, 0)],
        },
    )
    codes = [("atom", 0), ("atom", 2)]

    def fields(report):
        return report.score, report.binding.as_dict(), report.bindings_explored, report.assignments_evaluated

    readings = [forward_search(code, plan, plan.max_atoms) for code in codes]
    for code, reading in zip(codes, readings):
        assert fields(_search([code], plan)) == fields(reading)
    report = _search(codes, plan)
    assert fields(report) == (
        readings[0].score,
        readings[0].binding.as_dict(),
        sum(r.bindings_explored for r in readings),
        sum(r.assignments_evaluated for r in readings),
    )
    assert report.binding.as_dict() == {"P0": "R2", "P1": "R1", "P2": "R0", "P3": "R3", "P4": "R4"}


def test_truncated_only_when_a_binding_lies_past_the_cap():
    # The component has exactly two bindings: a cap of 2 cuts none of them.
    pair = "Likes(a) ∧ Like(a)"
    for cap, bindings, truncated in [(1, 1, True), (2, 2, False), (3, 2, False)]:
        with patch.object(equivalence, "COMPONENT_CAP", cap):
            report = le_score(pair, pair)
        assert (report.score, report.bindings_explored, report.truncated) == (1.0, bindings, truncated)


# --- top-level scoring ------------------------------------------------------------

LAW_PAIRS = [
    ("A ∧ B", "B ∧ A"),
    ("A ∨ B", "B ∨ A"),
    ("¬(A ∧ B)", "¬A ∨ ¬B"),
    ("¬(A ∨ B)", "¬A ∧ ¬B"),
    ("A → B", "¬B → ¬A"),
    ("A → B", "¬A ∨ B"),
    ("¬¬A", "A"),
    ("A ∧ (B ∨ C)", "(A ∧ B) ∨ (A ∧ C)"),
    ("A ∨ (B ∧ C)", "(A ∨ B) ∧ (A ∨ C)"),
    ("A ↔ B", "(A → B) ∧ (B → A)"),
    ("A ⊕ B", "¬(A ↔ B)"),
    ("∀x (P(x) → Q(x))", "∀y (P(y) → Q(y))"),
]


@pytest.mark.parametrize("pred,ref", LAW_PAIRS)
def test_law_pairs_score_one(pred, ref):
    for mode in ("original", "optimized"):
        assert le_score(pred, ref, mode=mode).score == 1.0


def test_reflexivity_random_formulas():
    rng = random.Random(777)
    for _ in range(40):
        formula = random_formula(rng, max_atoms=5, max_depth=4)
        from foleq.syntax import render

        text = render(formula)
        for mode in ("original", "optimized"):
            assert le_score(text, text, mode=mode).score == 1.0


@pytest.mark.parametrize("n", range(4, 17))
def test_reflexivity_of_similar_named_atom_ladders(n):
    """``(P0(x) ∨ Q0(x)) ∧ (P1(x) ∨ Q1(x)) ∧ ...`` over n atoms scores 1.0
    against itself up to the default truth-table cap of 16 atoms.  The two
    names of a clause are similar, so each clause is an enumerated
    component, and the cap counts the final binding's atoms, not those of a
    component's bindings with the later components unbound."""
    atoms = [f"{letter}{i}(x)" for i in range((n + 1) // 2) for letter in "PQ"][:n]
    text = " ∧ ".join(f"({atoms[i]} ∨ {atoms[i + 1]})" if i + 1 < n else atoms[i] for i in range(0, n, 2))
    report = le_score(text, text)
    assert (report.score, report.atom_count) == (1.0, n)


@pytest.mark.parametrize("mode", ["original", "optimized"])
@pytest.mark.parametrize("formula", ["B", "P(x)", "Mortal(x)", "A ∧ B", "∀x (P(x) → Q(x))"])
def test_reflexivity_at_threshold_one(mode, formula):
    # Every atom is related to itself even when only equal texts relate.
    config = LeConfig(threshold=1.0)
    report = le_score(formula, formula, mode=mode, config=config)
    assert report.score == 1.0
    assert report.binding.unbound_prediction == ()


def test_negation_scores_zero():
    for f in ["A", "A ∧ B", "A ∨ B ∨ C", "∀x P(x)", "A ↔ B"]:
        for mode in ("original", "optimized"):
            assert le_score(f, f"¬({f})", mode=mode).score == 0.0


def test_bracketing_recovery():
    # the chain reading that matches the reference is not the precedence one
    report = le_score("A → B → C", "(A → B) → C")
    assert report.score == 1.0
    assert report.trees_explored == 2


def test_wrapped_chain_is_still_enumerated():
    report = le_score("∀x∀y (A ∧ B → C)", "∀x∀y (A ∧ (B → C))")
    assert report.score == 1.0
    assert report.trees_explored == 2


def test_prefix_quantifier_over_binary_is_not_a_wrapper():
    # forall binds only P(x) here, so the chain is the whole formula
    report = le_score("∀x P(x) ∧ Q", "∀x P(x) ∧ Q")
    assert report.score == 1.0


def test_chunked_enumeration_bounds_tree_count():
    chain = " ∧ ".join(f"A{i}" for i in range(7))
    full = le_score(chain, chain, config=LeConfig(chunk_size=None))
    chunked = le_score(chain, chain, config=LeConfig(chunk_size=3))
    assert full.trees_explored == 132
    assert chunked.trees_explored == 9
    assert chunked.score == full.score == 1.0


def test_le_report_serialization():
    report = le_score("A ∧ B", "B ∧ A")
    data = report.to_dict()
    assert data["score"] == 1.0
    assert data["mode"] == "optimized"
    assert data["binding"]["pairs"] == {"A": "A", "B": "B"}
    assert data["atom_count"] == 2


def test_atom_count_includes_unbound_prediction_atoms():
    report = le_score("P(a) ∧ Zq", "P(a)", mode="original")
    assert report.atom_count == 2


def test_parse_errors_propagate():
    with pytest.raises(ParseError):
        le_score("((", "A")
    with pytest.raises(ParseError):
        le_score("A", "((")


PREDICTION_TOKENS = ["A", "B", "P(x)", "Q(x, y)", "x", "¬", "∀x", "∃", "∧", "∨", "→", "↔", "⊕", "(", ")", ","]


@settings(max_examples=300, deadline=None)
@example(["A", "B"])
@example(["(", "x", "∧", ")"])
@given(st.lists(st.sampled_from(PREDICTION_TOKENS), max_size=12))
def test_prediction_fails_exactly_as_parse_does(parts):
    text = " ".join(parts)
    try:
        parse(text)
        expected = None
    except ParseError as exc:
        expected = str(exc)
    try:
        le_score(text, "A")
        got = None
    except ParseError as exc:
        got = str(exc)
    except CapExceeded:
        got = None
    assert got == expected


def _balanced_conjunction(leaves):
    if len(leaves) == 1:
        return leaves[0]
    middle = len(leaves) // 2
    return Binary("and", _balanced_conjunction(leaves[:middle]), _balanced_conjunction(leaves[middle:]))


def test_raising_the_recursion_limit_keeps_the_token_cap_on_trees():
    # Every tree whose rendering passes the token cap raises, at any
    # recursion limit, the error its rendering raises: 1,200 nested
    # negations, deeper than the default limit, and a balanced 300-leaf
    # conjunction only 10 nodes deep, whose right operands are parenthesized.
    deep = Atom("A")
    for _ in range(1200):
        deep = Not(deep)
    wide = _balanced_conjunction([Atom(f"A{i % 4}") for i in range(300)])

    def unbound(pred, ref):
        return propositional_score(pred, ref, BindingMap(()))

    limit = sys.getrecursionlimit()
    for raised in (limit, 5000):
        try:
            sys.setrecursionlimit(raised)
            for tree, count in ((deep, 1201), (wide, 941)):
                message = f"formula has {count} tokens (cap 500)"
                with pytest.raises(CapExceeded) as text_error:
                    le_score(render(tree), render(tree))
                assert str(text_error.value) == message
                for score in (bind_original, bind_optimized, unbound):
                    with pytest.raises(CapExceeded) as tree_error:
                        score(tree, Atom("A"))
                    assert str(tree_error.value) == message
        finally:
            sys.setrecursionlimit(limit)


def test_a_tree_at_the_token_cap_parses_under_a_deep_caller():
    # 248 nested quantifiers render to 500 tokens.  Parsing a quantifier
    # costs two interpreter frames, so the text and the tree, scored,
    # renamed and listed through its rendering, all fit in the default
    # recursion limit under 450 frames of the caller's own recursion.  A
    # balanced 300-leaf conjunction renders past the cap and is refused.
    tree = Atom("P", ("x",))
    for _ in range(248):
        tree = Quantified("forall", "x", tree)
    text = render(tree)

    def under(frames, score):
        return under(frames - 1, score) if frames else score()

    assert under(450, lambda: le_score(text, text).score) == 1.0
    for bind in (bind_original, bind_optimized):
        assert under(450, lambda: bind(tree, tree).score) == 1.0
    assert under(450, lambda: atoms_of(canonicalize(tree))) == ("P(v248)",)
    assert under(450, lambda: atoms_of(tree)) == ("P(x)",)
    wide = _balanced_conjunction([Atom(f"A{i % 4}") for i in range(300)])
    for tree_function in (canonicalize, atoms_of):
        with pytest.raises(CapExceeded, match=r"^formula has 941 tokens \(cap 500\)$"):
            under(450, lambda: tree_function(wide))


def test_a_reference_at_the_token_cap_is_walked_under_a_deep_caller():
    # 495 negations around a parenthesized two-atom chain are 500 tokens.
    # An original-mode walk evaluates the reference by its compiled
    # closures, one frame per node that is not an atom, so it fits in the
    # default recursion limit under 450 frames of the caller's own recursion.
    compiled = compile_reference("¬" * 495 + "(A ∧ B)")

    def under(frames, score):
        return under(frames - 1, score) if frames else score()

    report = under(450, lambda: le_score("¬(B ∧ A)", compiled, "original"))
    assert (report.score, report.bindings_explored) == (1.0, 2)


def test_raising_the_recursion_limit_keeps_the_token_cap():
    limit = sys.getrecursionlimit()
    try:
        sys.setrecursionlimit(5000)
        with pytest.raises(CapExceeded, match=r"^formula has 701 tokens \(cap 500\)$"):
            le_score("¬" * 700 + "A", "A")
    finally:
        sys.setrecursionlimit(limit)


def test_over_long_prediction_is_cap_exceeded():
    cap = MAX_TOKENS
    with pytest.raises(CapExceeded, match=rf"formula has {3 * cap + 1} tokens \(cap {cap}\)"):
        le_score("¬" * (3 * cap) + "A", "A")
    # an even run of negations inside the cap still reads as its atom
    assert le_score("¬" * (cap - 100) + "P(x)", "P(x)").score == 1.0
    for mode in ("original", "optimized"):
        assert le_score("¬" * (cap - 1) + "A", "¬A", mode=mode).score == 1.0


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("max_atoms", 0, "max_atoms must be positive, not 0"),
        ("max_atoms", -1, "max_atoms must be positive, not -1"),
        ("max_atoms", MAX_TABLE_ATOMS + 1, f"max_atoms must be at most {MAX_TABLE_ATOMS}"),
        ("max_atoms", 64, f"max_atoms must be at most {MAX_TABLE_ATOMS}"),
    ],
)
def test_config_names_the_cap_it_refuses(field, value, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        LeConfig(**{field: value})


def test_atom_cap_may_reach_the_ceiling():
    atoms = [f"P{i}" for i in range(MAX_TABLE_ATOMS)]
    formula = "(" + " ∧ ".join(atoms[:10]) + ") ∨ (" + " ∧ ".join(atoms[10:]) + ")"
    report = le_score(formula, formula, config=LeConfig(max_atoms=MAX_TABLE_ATOMS))
    assert (report.score, report.atom_count) == (1.0, MAX_TABLE_ATOMS)


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        le_score("A", "A", mode="fast")


def test_scores_stay_in_unit_interval():
    rng = random.Random(2024)
    from foleq.syntax import render

    for _ in range(30):
        pred = render(random_formula(rng, max_atoms=4, max_depth=4))
        ref = render(random_formula(rng, max_atoms=4, max_depth=4))
        for mode in ("original", "optimized"):
            report = le_score(pred, ref, mode=mode)
            assert 0.0 <= report.score <= 1.0


def test_binding_map_rejects_duplicates():
    a, b = atoms_of(canon("A ∧ B"))
    for pairs in (((a, a), (b, a)), (("A", "A"), ("A", "B"))):
        with pytest.raises(ValueError):
            BindingMap(pairs)
    # an atom is bound or unbound, never both, and listed unbound once
    for pairs, unbound_pred, unbound_ref, message in (
        ((("A", "A"),), ("A",), (), "binds and leaves unbound prediction atom 'A'"),
        ((("A", "B"),), (), ("B",), "binds and leaves unbound reference atom 'B'"),
        ((), ("A", "A"), (), "unbound prediction atom twice"),
        ((), (), ("B", "B"), "unbound reference atom twice"),
    ):
        with pytest.raises(ValueError, match=message):
            BindingMap(pairs, unbound_pred, unbound_ref)


def test_identity_binding_helper():
    pred_atoms = atoms_of(canon("A ∧ C"))
    ref_atoms = atoms_of(canon("A ∧ B"))
    binding = BindingMap.identity(pred_atoms, ref_atoms)
    assert binding.as_dict() == {"A": "A"}
    assert list(binding.unbound_prediction) == ["C"]
    assert list(binding.unbound_reference) == ["B"]


def test_an_atom_is_its_text():
    """Every layer hands an atom over as its canonical text, and the report
    serialises those texts as they are."""
    prediction, reference = "Likes(a) ∧ Happy(b) ∧ C", "Like(a) ∧ Happyy(b) ∧ D"
    report = le_score(prediction, reference)
    binding = report.binding
    atoms = [
        *atoms_of(canon(prediction)),
        *compile_reference(reference).atoms,
        *(atom for pair in binding.pairs for atom in pair),
        *binding.unbound_prediction,
        *binding.unbound_reference,
    ]
    assert len(atoms) == 12 and all(type(atom) is str for atom in atoms)
    assert report.to_dict() == {
        "score": 0.875,
        "mode": "optimized",
        "atom_count": 4,
        "assignments_evaluated": 32,
        "bindings_explored": 2,
        "trees_explored": 2,
        "truncated": False,
        "binding": {
            "pairs": {"Likes(a)": "Like(a)", "Happy(b)": "Happyy(b)"},
            "unbound_prediction": ["C"],
            "unbound_reference": ["D"],
        },
    }


# --- no cyclic garbage ------------------------------------------------------------


def _refused(function, *args) -> None:
    """Call ``function``, which must raise a ``FormulaError``; the error is
    dropped here, with nothing left holding it."""
    try:
        function(*args)
    except FormulaError:
        return
    raise AssertionError(f"{function.__name__} accepted {args!r}")


def _train_demo() -> None:
    from foleq.sgrpo import default_demo_config, train_demo

    train_demo(default_demo_config(iterations=3))


def _request(**fields) -> str:
    return json.dumps({"id": "r", **fields})


_SIX_ATOMS = "(Likes(x, y) ∨ Owns(x)) ∧ ¬Sees(y) → Knows(x, y) ⊕ Helps(y) ∧ Trusts(x)"
_SERVICE = ServiceConfig()
_SERVED = {
    "le_score": _request(op="le_score", prediction="Likes(a) ∧ Owns(b) ∨ C", reference="Like(a) ∧ (Own(b) ∨ C)"),
    "le_score-original": _request(op="le_score", prediction="A ∧ B ∨ C", reference="B ∨ A ∧ C", mode="original"),
    "bleu_pair": _request(op="bleu_pair", prediction="A ∧ B", reference="B ∧ A"),
    "warning": _request(op="le_score", prediction="A ∧", reference="A"),
    "CAP_EXCEEDED": _request(op="le_score", prediction="¬" * 600 + "A", reference="A"),
    "BAD_REQUEST-json": "{",
    "BAD_REQUEST-op": _request(op="score", prediction="A", reference="A"),
    "BAD_REQUEST-reference": _request(op="le_score", prediction="A", reference="A ∧"),
    "BAD_REQUEST-overrides": _request(op="le_score", prediction="A", reference="A", overrides={"max_atoms": 99}),
    "shutdown": json.dumps({"op": "shutdown"}),
}

# Each scoring entry point, every failure it reports and every service
# outcome that input can reach (no input reaches INTERNAL).
SCORING_CALLS = {
    "le_score-original-near-miss": lambda: le_score(_SIX_ATOMS, _SIX_ATOMS.replace("⊕", "↔"), "original"),
    "le_score-flat-chain": lambda: le_score("A ∧ B → C ∨ D ↔ E ⊕ Likes(a) ∧ B", "Like(a) ∧ B → C ∨ D"),
    "le_score-parse-error": lambda: _refused(le_score, "A ∧ (B", "A"),
    "le_score-lex-error": lambda: _refused(le_score, "A $ B", "A"),
    "le_score-cap-refusal": lambda: _refused(le_score, "¬" * 600 + "A", "A"),
    "Scorer": lambda: Scorer("Likes(a) ∧ B ∨ C", "original")(["C ∨ Like(a) ∧ B", "A ∧", "¬" * 600 + "A"]),
    "corpus_le-one-failure": lambda: corpus_le([EvalPair("ok", "A ∧ B ∨ C", "C ∨ B ∧ A"), EvalPair("bad", "A ∧", "A")]),
    "bind_original": lambda: bind_original(parse("∀x (P(x) → Q(x) ∧ R)"), parse("∀y (Q(y) ∧ R → P(y))")),
    "bind_optimized": lambda: bind_optimized(parse("Likes(a) ∧ Liked(a) ∨ Owns(b)"), parse("Like(a) ∨ Likes(a) ∧ Own(b)")),
    "propositional_score": lambda: propositional_score(
        parse("A ∧ B"), parse("B ∨ C"), BindingMap((("A", "B"),), ("B",), ("C",))
    ),
    "canonicalize": lambda: canonicalize(parse("∀x ∃y (P(x, y) ∧ Q(v1)) → ∀x P(x, x)")),
    "atoms_of": lambda: atoms_of(parse("∀x (P(x) ∧ Q) ∨ P(y) ∧ Q")),
    "enumerate_bracketings": lambda: enumerate_bracketings(lex("¬(A ∧ B ∨ C → D ↔ E ⊕ F)"), chunk_size=4),
    **{f"handle_line-{name}": (lambda line=line: handle_line(line, _SERVICE)) for name, line in _SERVED.items()},
    "train_demo": _train_demo,
}


@pytest.mark.parametrize("call", SCORING_CALLS.values(), ids=SCORING_CALLS.keys())
def test_scoring_leaves_no_cyclic_garbage(call):
    """Reference counting frees everything a scoring call makes: with the
    cyclic collector off, a call leaves nothing for it to collect."""
    call()  # fills every memo and lazily built evaluator the call uses
    gc.collect()
    gc.disable()
    try:
        call()
        assert gc.collect() == 0
    finally:
        gc.enable()
