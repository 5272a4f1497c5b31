import itertools
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
    bind_optimized,
    bind_original,
    CompiledReference,
    _AtomTables,
    _compile_tree,
    _enumerate,
    _Lowering,
    _search,
    compile_reference,
    le_score,
    propositional_score,
)
from foleq.similarity import SimilarityConfig, levenshtein
from foleq.syntax import (
    MAX_TOKENS,
    BINARY_OPS,
    Atom,
    AtomicUnit,
    Binary,
    CapExceeded,
    Not,
    ParseError,
    Quantified,
    atoms_of,
    canonicalize,
    lex,
    parse,
    render,
    split_chain,
)
from helpers import (
    agreement,
    best_complete_matching,
    forward_bind,
    forward_search,
    lower_by_three_walks,
    random_formula,
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
    want = agreement(pred, ref, {p.canonical_text: r.canonical_text for p, r in pairs})
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
    return [a.canonical_text for a in atoms], codes


@settings(max_examples=300, deadline=None)
@given(_LOWERING_FORMULAS)
@example(parse("∀x ∃x P(x)"))
@example(parse("∀x (P(x) ∧ P(v1) ∧ ∃y Q(v2, y))"))
@example(parse("∀z ∀x P(x) ∧ ∀z P(x)"))
@example(parse("¬" * 60 + "∀x (P(x) ∧ P(x) ∧ ¬¬P(x))"))
def test_lowering_matches_rename_list_and_compile(tree):
    compiled = compile_reference(render(tree))
    assert _texts_and_codes(compiled.atoms, [compiled.code]) == _texts_and_codes(*lower_by_three_walks([tree]))
    # The binding searches lower a tree without rendering it.
    built = _compile_tree(tree)
    assert _texts_and_codes(built.atoms, [built.code]) == _texts_and_codes(compiled.atoms, [compiled.code])
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
    got_dist = sum(levenshtein(p.canonical_text, r.canonical_text) for p, r in result.binding.pairs)
    assert got_dist == dist
    assert frozenset(result.binding.as_dict().items()) in mappings


def test_bind_original_explores_all_permutations():
    pred = canon(" ∧ ".join(f"P{i}" for i in range(6)))
    ref = canon(" ∧ ".join(f"Q{i}" for i in range(6)))
    # original mode is exhaustive: the component cap does not apply to it
    for cap in (COMPONENT_CAP, 2):
        with patch.object(equivalence, "COMPONENT_CAP", cap):
            result = bind_original(pred, ref)
        assert result.bindings_explored == 720
        assert result.score == 1.0
        assert not result.truncated


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


def test_a_tree_too_deep_to_rebuild_is_capped_through_its_rendering():
    # 400 nested quantifiers pass the recursion limit when rebuilt, and
    # their rendering has 804 tokens.
    tree = Atom("P", ("x",))
    for _ in range(400):
        tree = Quantified("forall", "x", tree)
    for bind in (bind_original, bind_optimized):
        with pytest.raises(CapExceeded, match=r"formula has 804 tokens \(cap \d+\)"):
            bind(tree, tree)


def test_a_tree_too_deep_to_render_is_capped():
    # 1,200 nested negations pass the recursion limit when rendered too.
    deep = Atom("A")
    for _ in range(1200):
        deep = Not(deep)
    shallow = Atom("A")
    message = rf"^formula has more than {MAX_TOKENS} tokens \(cap {MAX_TOKENS}\)$"
    for pred, ref in ((deep, shallow), (shallow, deep)):
        for bind in (bind_original, bind_optimized):
            with pytest.raises(CapExceeded, match=message):
                bind(pred, ref)
        with pytest.raises(CapExceeded, match=message):
            propositional_score(pred, ref, BindingMap(()))


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
    assert {(i, j) for i, j, _ in graph.edges} == {(0, 0), (1, 1)}
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
    assert graph.edges == ()
    assert graph.components == ()


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
        [a.canonical_text for a in result.binding.unbound_prediction],
        [a.canonical_text for a in result.binding.unbound_reference],
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
    with patch.object(equivalence, "COMPONENT_CAP", cap):
        assert _bound(lambda: bind(pred, ref, config)) == _bound(lambda: forward_bind(pred, ref, mode, config))


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

    for component_cap in (None, *range(1, 7)):
        tables = SimpleNamespace(
            candidates=dict(enumerate(rows)), component_cap=component_cap, ref=SimpleNamespace(atoms=range(n_r))
        )
        walked = expected if component_cap is None else expected[:component_cap]
        for walk_bound in (None, bound):
            mapping = [None] * len(preds)
            leaves = []

            def leaf(dist):
                leaves.append((tuple(mapping), dist))
                return walk_bound

            count, cut = _enumerate(tables, preds, skips, mapping, leaf, walk_bound)
            assert leaves == [(combo, dist) for combo, dist in walked if walk_bound is None or dist < walk_bound]
            assert count == len(walked)
            assert cut == (len(walked) < len(expected))
            assert mapping == [None] * len(preds)


_PLAN_ATOMS = [AtomicUnit(name, (arg,)) for name in _BIND_PREDICATES for arg in "ab"]


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
@given(st.data(), st.sampled_from(["original", "optimized"]), st.sampled_from([10_000, 1, 2, 3, 5, 8]))
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
    if mode == "optimized":
        plan.component_cap = cap
    for i, row in plan.candidates.items():
        plan.candidates[i] = sorted(((j, data.draw(st.integers(0, 3))) for j, _ in row), key=lambda jd: (jd[1], jd[0]))
    # A reading may be the reference's own skeleton, whose best binding
    # agrees on every row, so searches settle and drop tables early.
    reading = _skeletons(len(pred_atoms))
    if len(ref_atoms) <= len(pred_atoms):
        reading = st.one_of(reading, st.just(ref.code))
    codes = data.draw(st.lists(reading, min_size=1, max_size=5))

    readings = [forward_search(code, plan, DEFAULT_LE.max_atoms) for code in codes]
    best = readings[0]
    for reading in readings[1:]:
        if reading.score > best.score:
            best = reading
    report = _search(codes, plan)
    assert (report.score, report.binding, report.atom_count) == (best.score, best.binding, best.atom_count)
    assert report.bindings_explored == sum(r.bindings_explored for r in readings)
    assert report.assignments_evaluated == sum(r.assignments_evaluated for r in readings)
    assert report.truncated == best.truncated


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
        pred_atoms=tuple(AtomicUnit(f"P{i}", ()) for i in range(5)),
        ref=CompiledReference(tuple(AtomicUnit(f"R{j}", ()) for j in range(5)), ("atom", 2)),
        mode="optimized",
        max_atoms=DEFAULT_LE.max_atoms,
        start=[None] * 5,
        enumerated=[((0, 1, 2), 0), ((3, 4), 0)],
        candidates={
            0: [(0, 1), (1, 2), (2, 2)],
            1: [(2, 1), (0, 2), (1, 2)],
            2: [(0, 0), (2, 0), (1, 2)],
            3: [(3, 0), (4, 0)],
            4: [(3, 0), (4, 0)],
        },
        component_cap=COMPONENT_CAP,
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


@pytest.mark.parametrize("mode", ["original", "optimized"])
@pytest.mark.parametrize("formula", ["B", "P(x)", "Mortal(x)", "A ∧ B", "∀x (P(x) → Q(x))"])
def test_reflexivity_at_threshold_one(mode, formula):
    # Every atom is related to itself even when only equal texts relate.
    config = LeConfig(similarity=SimilarityConfig(threshold=1.0))
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


def test_raising_the_recursion_limit_keeps_the_token_cap_on_trees():
    # A path through 1,200 nested negations passes the token cap, so they
    # are capped at any recursion limit: too deep to render at the default
    # one, and rendered to 1,201 tokens under a raised one.
    deep = Atom("A")
    for _ in range(1200):
        deep = Not(deep)

    def unbound(pred, ref):
        return propositional_score(pred, ref, BindingMap(()))

    limit = sys.getrecursionlimit()
    for raised in (limit, 5000):
        try:
            sys.setrecursionlimit(raised)
            for score in (bind_original, bind_optimized, unbound):
                with pytest.raises(CapExceeded, match=r"^formula has (1201|more than 500) tokens \(cap 500\)$"):
                    score(deep, Atom("A"))
        finally:
            sys.setrecursionlimit(limit)


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
    # propositional_score refuses the same caps before it builds a table.
    # Under a cap of 64 a 21-atom conjunction would ask for a 2**42-row
    # table, so only a one-atom formula is scored here.
    with pytest.raises(ValueError, match=f"^{message}$"):
        propositional_score(Atom("A"), Atom("A"), BindingMap(()), **{field: value})


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
    with pytest.raises(ValueError):
        BindingMap(((a, a), (b, a)))


def test_identity_binding_helper():
    pred_atoms = atoms_of(canon("A ∧ C"))
    ref_atoms = atoms_of(canon("A ∧ B"))
    binding = BindingMap.identity(pred_atoms, ref_atoms)
    assert binding.as_dict() == {"A": "A"}
    assert [x.canonical_text for x in binding.unbound_prediction] == ["C"]
    assert [x.canonical_text for x in binding.unbound_reference] == ["B"]
