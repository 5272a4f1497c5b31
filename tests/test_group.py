"""Group scoring: a ``Scorer`` call must give every prediction exactly the
report (or exception) it gets when scored alone, and alone must equal
binding every bracketing tree from scratch, with nothing shared."""

import itertools
import random
from unittest.mock import patch

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import foleq.equivalence as equivalence
from foleq.corpus import EvalPair, corpus_le
from foleq.equivalence import (
    COMPONENT_CAP,
    DEFAULT_LE,
    MAX_FACTORIAL_ATOMS,
    MAX_TABLE_ATOMS,
    CandidateGraph,
    LeConfig,
    LeReport,
    Scorer,
    compile_reference,
    le_score,
    propositional_score,
)
from foleq.similarity import GramIndex, _gram_vector, _pair_cosine
from foleq.syntax import (
    MAX_CHAIN_OPERATORS,
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
from helpers import eval_row, random_formula, scored_result, skeleton_table, unshared
from test_acceptance import LAW_PAIRS

MODES = ("original", "optimized")


def fields(report):
    return (
        report.score,
        report.binding.as_dict(),
        list(report.binding.unbound_prediction),
        list(report.binding.unbound_reference),
        report.atom_count,
        report.assignments_evaluated,
        report.bindings_explored,
        report.trees_explored,
        report.truncated,
    )


def outcome(fn):
    try:
        return fields(fn())
    except (ParseError, CapExceeded) as exc:
        return (type(exc), str(exc))


def check_group(predictions, reference, mode, config=DEFAULT_LE):
    group = Scorer(reference, mode, config)(predictions)
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


@pytest.mark.parametrize(
    "reference, error",
    [("", ParseError), ("A ∧", ParseError), ("P(x", ParseError), ("A B", ParseError),
     ("(" * 600 + "A" + ")" * 600, CapExceeded)],
)
def test_bad_reference_fails_like_scoring_alone(reference, error):
    # a failing reference is every entry's result, one object, as scoring
    # alone or parsing raises it
    with pytest.raises(error) as alone:
        le_score("A", reference)
    with pytest.raises(error) as parsed:
        parse(reference)
    grouped = Scorer(reference)(["A", "B", "garbage ∧"])
    assert len(grouped) == 3 and all(result is grouped[0] for result in grouped)
    assert type(grouped[0]) is type(alone.value) is type(parsed.value)
    assert str(grouped[0]) == str(alone.value) == str(parsed.value)
    if error is CapExceeded:
        assert str(grouped[0]) == "formula has 1201 tokens (cap 500)"
    scorer = Scorer(reference)
    assert scorer(["A", "A"]) == [scorer.reference] * 2
    assert scorer.results == {}


def test_unknown_mode_is_value_error():
    with pytest.raises(ValueError):
        Scorer("A", mode="fast")


def test_group_of_eight_parses_reference_once(monkeypatch):
    calls = []
    real_parse = equivalence.parse

    def counting_parse(text, *args, **kwargs):
        calls.append(text)
        return real_parse(text, *args, **kwargs)

    monkeypatch.setattr(equivalence, "parse", counting_parse)
    predictions = ["A ∧ B", "B ∧ A", "A", "A ∨ B", "A → B", "garbage ∧", "A ∧ B ∧ C", "B"]
    group = Scorer("A ∧ B")(predictions)
    assert len(group) == 8
    assert calls == ["A ∧ B"]


@pytest.mark.parametrize(
    "limit, cold", [(1, False), (equivalence._MEMO_LIMIT, False), (equivalence._MEMO_LIMIT, True)],
    ids=["1", str(equivalence._MEMO_LIMIT), "cold-cosines"],
)
def test_a_reused_scorer_equals_a_fresh_one_per_call(monkeypatch, limit, cold):
    # At a limit of 1 every call but the first starts with an emptied memo;
    # cold, every call of the kept Scorer starts with empty cosine caches,
    # while the fresh one finds them warm.
    monkeypatch.setattr(equivalence, "_MEMO_LIMIT", limit)
    reference = "∀x (P(x) → Q(x))"
    texts = ["∀y (P(y) → Q(y))", "∀x (Q(x) → P(x))", "((", "P(a)", "∀y (P(y) → Q(y))", "(("]
    scorer = Scorer(compile_reference(reference))
    for predictions in (texts, texts[::-1], texts[1:4], ["P(a) ∧ Q(b)", "P(a)", "P(a) ∧ Q(b)"]):
        if cold:
            _pair_cosine.cache_clear()
            _gram_vector.cache_clear()
        reused = scorer(predictions)
        assert [scored_result(r) for r in reused] == [scored_result(r) for r in Scorer(reference)(predictions)]
        # equal predictions in one call share one result
        for prediction, result in zip(predictions, reused):
            assert result is reused[predictions.index(prediction)]
    assert [scored_result(r) for r in scorer(texts[:2])] == [le_score(t, reference).to_dict() for t in texts[:2]]


def test_a_group_computes_each_atom_texts_gram_vector_once():
    # The n-gram vector cache serves reuse within a group and across the
    # requests of one session, each of which compiles its own reference.
    predictions = [
        "Teaches(x, y) ∧ Likes(y)",
        "Likes(y) ∧ Teaches(x, y)",
        "Teach(x, y) ∧ Loves(y)",
        "Teaches(x, y)",
        "Likes(x) ∨ Helps(y, x)",
        "¬Likes(y) → Teaches(x, y)",
        "Helps(x, y) ∧ Loves(y) ∧ Knows(x)",
        "Knows(x) ↔ Likes(y)",
    ]
    reference = "Teaches(x, y) ∧ Loves(y)"
    texts = {"Teaches(x, y)", "Likes(y)", "Teach(x, y)", "Loves(y)", "Likes(x)", "Helps(y, x)", "Helps(x, y)", "Knows(x)"}
    # A pair the cosine memo already holds never reaches the vector cache,
    # so both start empty.
    _pair_cosine.cache_clear()
    _gram_vector.cache_clear()
    try:
        first = Scorer(reference, mode="optimized")(predictions)
        assert all(not isinstance(report, Exception) for report in first)
        assert _gram_vector.cache_info().misses == len(texts)
        Scorer(compile_reference(reference), mode="optimized")(list(reversed(predictions)))
        assert _gram_vector.cache_info().misses == len(texts)
    finally:
        _pair_cosine.cache_clear()
        _gram_vector.cache_clear()


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


# --- one derivation per prediction --------------------------------------------

_ATOMS = ["A", "B", "P(x)", "Q(y)", "R(x, y)", "P(v1)", "Q(v2)"]
_QUANTIFIED = ["∀x P(x)", "∃y R(x, y)", "¬∃x Q(x)", "∀v1 P(v1)", "∃x ∀y R(x, y)"]
_SUB_CHAINS = ["(A ∨ P(x))", "(Q(y) → ∀x P(x))", "(¬B ∧ (P(v1) ⊕ Q(y)))"]
_SIMILAR = ["Likes(x)", "Like(x)", "Liked(y)", "Likes(v1)", "(Like(x) ∧ Likes(y))"]


@st.composite
def wrapped_chains(draw, most_operands=9):
    """A parenthesized chain under 0-5 mixed ¬/∀x/∃y wrappers.  Operands may
    use a wrapper's variable, repeat an earlier operand, be quantified or a
    parenthesized sub-chain, have names similar enough to share a candidate
    component, or use free names (v1, v2) that fresh names must skip."""
    operands = []
    for _ in range(draw(st.integers(2, most_operands))):
        kind = draw(st.sampled_from(["atom", "atom", "quantified", "sub-chain", "similar", "repeat"]))
        if kind == "repeat" and operands:
            operands.append(draw(st.sampled_from(operands)))
        elif kind == "quantified":
            operands.append(draw(st.sampled_from(_QUANTIFIED)))
        elif kind == "sub-chain":
            operands.append(draw(st.sampled_from(_SUB_CHAINS)))
        elif kind == "similar":
            operands.append(draw(st.sampled_from(_SIMILAR)))
        else:
            operands.append(draw(st.sampled_from(_ATOMS)))
    text = operands[0]
    for operand in operands[1:]:
        text += f" {draw(st.sampled_from(['∧', '∨', '→', '↔', '⊕']))} {operand}"
    wrappers = draw(st.lists(st.sampled_from(["¬", "∀x ", "∃y "]), max_size=5))
    return "".join(wrappers) + f"({text})"


def _group_equals_unshared(data, mode: str, config: LeConfig) -> None:
    # Unchunked, 9 operands have 1,430 readings; with 7 atoms, original mode
    # binds each of them 5,040 times, over a minute in the per-reading loop.
    # So unchunked chains stop at 7 operands (132 readings).
    most = 9 if config.chunk_size else 7
    first = data.draw(wrapped_chains(most), label="prediction")
    # The group's predictions draw from one atom pool, so they repeat atom
    # texts, and a repeated prediction text is scored once.  The others are
    # shorter to bound the per-reading loop's time.
    others = data.draw(st.lists(st.one_of(st.just(first), wrapped_chains(6)), max_size=3), label="others")
    predictions = [first, *others]
    reference = data.draw(st.one_of(st.just(first), wrapped_chains(most)), label="reference")
    group = Scorer(reference, mode, config)(predictions)
    for prediction, result in zip(predictions, group):
        try:
            expected = unshared(prediction, reference, mode, config)
        except (ParseError, CapExceeded) as exc:
            expected = (type(exc), str(exc))
        got = (type(result), str(result)) if isinstance(result, Exception) else fields(result)
        assert got == expected, prediction


@settings(max_examples=100, deadline=None)
@given(st.data(), st.sampled_from(MODES), st.sampled_from([None, 2, 3, 4]))
def test_group_equals_unshared_on_wrapped_chains(data, mode, chunk_size):
    _group_equals_unshared(data, mode, LeConfig(chunk_size=chunk_size))


def _random_text(seed: int) -> str:
    return render(random_formula(random.Random(seed), max_atoms=5, max_depth=4))


_FORMULA_TEXTS = st.one_of(st.integers(0, 10 ** 9).map(_random_text), wrapped_chains(6))


@settings(max_examples=150, deadline=None)
@given(st.lists(_FORMULA_TEXTS, min_size=1, max_size=4), _FORMULA_TEXTS, st.sampled_from(MODES))
def test_every_report_counts_a_full_table_per_binding(predictions, reference, mode):
    # Every binding the search covers, evaluated or counted under a cut,
    # leaves as many atoms unbound as the final one, so it stands for the
    # final truth table's 2 ** atom_count rows, for each chained reading.
    for result in Scorer(reference, mode)(predictions):
        if isinstance(result, LeReport):
            assert result.assignments_evaluated == result.bindings_explored << result.atom_count


@settings(max_examples=100, deadline=None)
@given(st.data(), st.integers(1, 6))
def test_group_equals_unshared_on_wrapped_chains_under_a_component_cap(data, cap):
    # The cap falls inside walks that several tables share, and inside the
    # bindings the search counts without evaluating them.  An original-mode
    # walk never reaches the cap.
    with patch.object(equivalence, "COMPONENT_CAP", cap):
        _group_equals_unshared(data, "optimized", DEFAULT_LE)


def test_one_prediction_is_renamed_listed_and_tabled_once(monkeypatch):
    text = "(" + " ∧ ".join("ABCDEFGHIJKLMNOP") + ")"
    reference = compile_reference(text)
    calls = {"split_chain": 0, "_AtomTables": 0}

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(equivalence, name, counting(name, getattr(equivalence, name)))
    report = le_score("¬¬" + text, reference)
    assert report.trees_explored == 3126
    assert report.score == 1.0
    assert calls == {"split_chain": 1, "_AtomTables": 1}


def test_the_graph_span_times_each_built_plan_once(monkeypatch):
    """A tracer times graph building by swapping a wrapper into the
    ``CandidateGraph.build`` class attribute.  An optimized-mode group calls
    it once for each distinct prediction whose search plan is built, one
    past the truth-table cap included, and not for a repeat, one that fails
    to parse or one past the chain-operator cap; so does original mode,
    whose factorial cap refuses the widest prediction before its graph."""
    calls = []
    real = CandidateGraph.build.__func__

    def counting(cls, pred_atoms, *args):
        calls.append(pred_atoms)
        return real(cls, pred_atoms, *args)

    monkeypatch.setattr(CandidateGraph, "build", classmethod(counting))
    wide = " ∧ ".join(f"Wide{i}(a)" for i in range(17))
    predictions = [
        "Likes(a) ∧ Owns(b)",
        "((",
        "Like(a) ∨ Owns(b) ∨ P",
        "Likes(a) ∧ Owns(b)",
        " ∧ ".join("A" * (MAX_CHAIN_OPERATORS + 2)),
        f"({wide})",
    ]
    results = Scorer("Likes(a) ∧ Own(b) ∨ P")(predictions)
    assert [type(r).__name__ for r in results] == [
        "LeReport", "ParseError", "LeReport", "LeReport", "CapExceeded", "CapExceeded"
    ]
    assert "chain" in str(results[4]) and "chain" not in str(results[5])
    assert calls == [("Likes(a)", "Owns(b)"), ("Like(a)", "Owns(b)", "P"), tuple(f"Wide{i}(a)" for i in range(17))]

    calls.clear()
    Scorer("Likes(a) ∧ Own(b) ∨ P", "original")(predictions)
    assert calls == [("Likes(a)", "Owns(b)"), ("Like(a)", "Owns(b)", "P")]


def test_scoring_text_builds_no_tree(monkeypatch):
    reference = "∀x (P(x) → Q(x)) ∧ (A ∨ B ∨ C)"
    predictions = [
        "¬¬∀y ¬¬(A ∨ C ∨ B ∨ ∃z Q(z))",  # a wrapped chain
        "∀y (P(y) → Q(y)) ∧ (C ∨ B ∨ A)",  # quantified
        "∀x ∃x P(x) ∧ Q(v1)",
        "A ∧ ∧ B",  # unparseable
        reference,
    ]
    pairs = [EvalPair(str(i), prediction, reference) for i, prediction in enumerate(predictions)]

    def scored():
        def shown(result):
            return (type(result), str(result)) if isinstance(result, Exception) else result.to_dict()

        groups = [[shown(r) for r in Scorer(reference, mode)(predictions)] for mode in MODES]
        corpus = corpus_le(pairs)
        corpus_rows = [None if r is None else r.to_dict() for r in corpus.per_pair]
        return groups, le_score(predictions[1], reference).to_dict(), corpus.mean_le, corpus_rows, corpus.failures

    expected = scored()

    def refuse(self, *args, **kwargs):
        raise AssertionError(f"scoring built a {type(self).__name__} node")

    for node in (Atom, Not, Binary, Quantified):
        monkeypatch.setattr(node, "__init__", refuse)
    with pytest.raises(AssertionError, match="built a Atom node"):
        parse("A")
    assert scored() == expected
    groups, single, _, _, _ = expected
    wrapped, quantified, _, unparseable, same = groups[1]
    assert wrapped["trees_explored"] == 5
    assert quantified["score"] == same["score"] == 1.0
    assert unparseable[0] is ParseError
    assert single == groups[1][1]


# --- tables built only where the search reads them ------------------------------


def _counting(calls, real):
    def wrapper(*args):
        calls.append(args[:2])
        return real(*args)

    return wrapper


def test_edit_distances_only_for_enumerated_components(monkeypatch):
    calls = []
    monkeypatch.setattr(equivalence, "levenshtein", _counting(calls, equivalence.levenshtein))
    # Distinct names: every component is one-to-one and fixed outright.
    assert le_score("Apple ∧ (Banana → Cherry)", "(Banana → Cherry) ∧ Apple").score == 1.0
    assert calls == []
    # Original mode enumerates its one complete component: every pair.
    le_score("Apple ∧ (Banana → Cherry)", "(Banana → Cherry) ∧ Apple", "original")
    names = ["Apple", "Banana", "Cherry"]
    assert sorted(calls) == sorted(itertools.product(names, names))

    calls.clear()
    prediction, reference = "Likes(a) ∧ Like(a) ∧ Zebra", "Liked(a) ∧ Likes(a) ∧ Zebra"
    pred_atoms = atoms_of(canonicalize(parse(prediction)))
    ref_atoms = compile_reference(reference).atoms
    graph = CandidateGraph.build(pred_atoms, ref_atoms)
    multi = {
        i
        for comp in graph.components
        if len(comp.prediction_atoms) > 1 or len(comp.reference_atoms) > 1
        for i in comp.prediction_atoms
    }
    all_edges = [(i, j) for i, row in enumerate(graph.neighbours) for j in row]
    edges = [(pred_atoms[i], ref_atoms[j]) for i, j in all_edges if i in multi]
    assert len(multi) == 2 and len(edges) < len(all_edges) < len(pred_atoms) * len(ref_atoms)
    assert le_score(prediction, reference).score == 1.0
    assert sorted(calls) == sorted(edges)


_COSINE_REFERENCE = "∀x (Likes(x) → (Owns(x) ∧ Rides(x)))"
_COSINE_PREDICTIONS = [
    "∀x (Likes(x) → (Owns(x) ∧ Rides(x)))",
    "∀y (Like(y) → (Rides(y) ∧ Owns(y)))",
    "∀x (¬Likes(x) ∨ (Owns(x) ∧ Rides(x)))",
    "∀x (Likes(x) → Owns(x)) ∧ ∀x (Likes(x) → Rides(x))",
    "Likes(a) ∧ Owns(a)",
    "∀x (Liked(x) → Owns(x) ∧ Ride(x))",
    "Owns(a) ∨ Likes(a) ∨ Rides(a)",
    "∀x (Likes(x) ↔ Owns(x))",
]


def _prediction_atom_texts(predictions):
    atoms = [atoms_of(canonicalize(parse(p))) for p in predictions]
    return atoms, {a for texts in atoms for a in texts}


def test_a_group_computes_each_atom_texts_row_once(monkeypatch):
    # A group reads its rows from the reference's gram index: one row per
    # distinct prediction atom text, and no pair cosine.
    pred_atoms, pred_texts = _prediction_atom_texts(_COSINE_PREDICTIONS)
    assert len(pred_texts) < sum(map(len, pred_atoms))
    rows = []
    real_row = GramIndex._row
    monkeypatch.setattr(GramIndex, "_row", lambda index, text: rows.append(text) or real_row(index, text))
    _pair_cosine.cache_clear()
    try:
        scorer = Scorer(_COSINE_REFERENCE)
        scorer(_COSINE_PREDICTIONS)
        assert sorted(rows) == sorted(pred_texts)
        # The rows are kept for the Scorer's next call.
        scorer([f"¬({p})" for p in _COSINE_PREDICTIONS])
        assert sorted(rows) == sorted(pred_texts)
        assert _pair_cosine.cache_info()[:2] == (0, 0)
    finally:
        _pair_cosine.cache_clear()


def test_calls_of_one_compute_each_atom_pair_cosine_once():
    ref_texts = compile_reference(_COSINE_REFERENCE).atoms
    pred_atoms, pred_texts = _prediction_atom_texts(_COSINE_PREDICTIONS)
    # The cosine memo keys the unordered pair.
    pairs = {tuple(sorted(pair)) for pair in itertools.product(pred_texts, ref_texts)}
    assert len(pairs) < sum(map(len, pred_atoms)) * len(ref_texts)
    _pair_cosine.cache_clear()
    try:
        scorer = Scorer(_COSINE_REFERENCE)
        for prediction in _COSINE_PREDICTIONS:
            scorer([prediction])
        assert _pair_cosine.cache_info().misses == len(pairs)

        # Another call of one, through le_score or at another threshold,
        # over the same atoms computes no cosine.
        for prediction in _COSINE_PREDICTIONS:
            le_score(f"¬({prediction})", _COSINE_REFERENCE)
            Scorer(_COSINE_REFERENCE, config=LeConfig(threshold=0.5))([prediction])
        assert _pair_cosine.cache_info().misses == len(pairs)
    finally:
        _pair_cosine.cache_clear()


def test_only_a_group_that_builds_a_candidate_graph_builds_a_gram_index(monkeypatch):
    built = []

    class CountingIndex(GramIndex):
        def __init__(self, texts, threshold):
            built.append((texts, threshold))
            super().__init__(texts, threshold)

    monkeypatch.setattr(equivalence, "GramIndex", CountingIndex)
    reference = _COSINE_REFERENCE
    le_score(_COSINE_PREDICTIONS[1], reference)
    Scorer(reference)([_COSINE_PREDICTIONS[1]])
    Scorer(reference, "original")(_COSINE_PREDICTIONS[:3])
    Scorer(reference)(["((", "A ∧", "Likes(a) $"])
    Scorer("((")(_COSINE_PREDICTIONS)
    assert built == []

    scorer = Scorer(reference, config=LeConfig(threshold=0.5))
    grouped = scorer(iter(_COSINE_PREDICTIONS))
    scorer(_COSINE_PREDICTIONS[::-1] + ["Owns(b) ∧ Rides(b)"])
    assert built == [(compile_reference(reference).atoms, 0.5)]
    alone = [le_score(p, reference, config=LeConfig(threshold=0.5)).to_dict() for p in _COSINE_PREDICTIONS]
    assert [report.to_dict() for report in grouped] == alone


def _truth_table(tree, names):
    return tuple(
        eval_row(tree, dict(zip(names, values))) for values in itertools.product([False, True], repeat=len(names))
    )


def _reading_tables(prediction: str) -> tuple[int, set]:
    """The number of readings of ``prediction`` and their distinct truth
    tables, row by row over the parsed trees."""
    trees = [canonicalize(tree) for tree in enumerate_bracketings(lex(prediction), DEFAULT_LE.chunk_size)]
    names = atoms_of(trees[0])
    return len(trees), {_truth_table(tree, names) for tree in trees}


def _searched_tables(call) -> set[int]:
    """The distinct truth tables of the readings one ``_search`` call got."""
    skeletons, plan = call
    return {skeleton_table(code, len(plan.start)) for code in skeletons}


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize(
    "prediction",
    [
        "A ∧ B ∧ C ∧ D ∧ A",
        "A → B → C → A",
        "¬¬¬(A ⊕ B ↔ C → A ∨ D)",
        "∀x (P(x) → Q(x) ↔ P(x) ∧ R(x) ∨ Q(x))",
        "A ↔ B ↔ A ↔ C ↔ B ⊕ C",
        "Likes(a) ∨ Like(a) ∧ Liked(a) → Likes(a)",
    ],
)
def test_one_search_per_distinct_reading_truth_table(monkeypatch, mode, prediction):
    searches = []
    monkeypatch.setattr(equivalence, "_search", _counting(searches, equivalence._search))
    reference = "(A ∧ Likes(a)) → (B ∨ ∀x P(x))"
    report = le_score(prediction, reference, mode)
    readings, tables = _reading_tables(prediction)
    assert len(tables) < readings == report.trees_explored
    # One search gets every reading, one distinct table or several.
    assert len(searches) == 1
    assert len(searches[0][0]) == readings
    assert len(_searched_tables(searches[0])) == len(tables)
    assert fields(report) == unshared(prediction, reference, mode)


def test_equal_readings_of_a_long_chain_share_one_search():
    chain = "(" + " ∧ ".join("ABCDEFGABCDEFGABC") + ")"
    report = le_score(chain, chain, "original")
    assert (report.score, report.trees_explored, report.bindings_explored) == (1.0, 8751, 44_105_040)


# --- one walk for every distinct reading table ----------------------------------


def test_a_chain_of_many_tables_is_searched_in_one_walk(monkeypatch):
    searches, walks = [], []
    monkeypatch.setattr(equivalence, "_search", _counting(searches, equivalence._search))
    monkeypatch.setattr(equivalence, "_enumerate", _counting(walks, equivalence._enumerate))
    chain = "(A → B ↔ C ∧ D ⊕ E ∨ F → G ∧ A ↔ B → C ⊕ D ∨ E ∧ F ↔ G → A)"
    report = le_score(chain, chain, "original")
    assert (report.score, report.trees_explored, report.bindings_explored) == (1.0, 1251, 6_305_040)
    assert len(searches) == 1
    assert len(_searched_tables(searches[0])) == 585
    # Original mode has one component: its bindings are walked once.
    assert len(walks) == 1


@pytest.mark.parametrize(
    "prediction, reference, evaluations, bindings, assignments",
    [
        # The first binding is the identity, and the reference's own reading
        # agrees on every row: no other binding can change the report.
        ("A ∧ B → C ∨ D ↔ E ⊕ F", "A ∧ B → C ∨ D ↔ E ⊕ F", 1, 4_320, 276_480),
        (
            "(A → B ↔ C ∧ D ⊕ E ∨ F → G ∧ A ↔ B → C ⊕ D ∨ E ∧ F ↔ G → A)",
            "(A → B ↔ C ∧ D ⊕ E ∨ F → G ∧ A ↔ B → C ⊕ D ∨ E ∧ F ↔ G → A)",
            1,
            6_305_040,
            807_045_120,
        ),
        # The prediction is true on 1 row of 16 and the reference on 3, so
        # no binding disagrees on fewer than 2 rows, and the first does.
        ("A ∧ B ∧ C ∧ D", "A ∧ B ∧ (C ∨ D)", 1, 120, 1_920),
        # The first binding reaches the floor; the second reaches it too at
        # a smaller summed edit distance, which lowers the bound below the
        # third.
        ("¬(P(z) ⊕ Like) ⊕ (Like ⊕ Owns)", "(∃y P ⊕ Own ∧ P) → P", 2, 6, 48),
        # The best binding disagrees on more rows than the truth-table
        # counts force, so every binding is evaluated.
        ("A ∧ ¬B ∧ C ∧ D", "A ∧ B ∧ C ∧ D", 24, 120, 1_920),
    ],
)
def test_bindings_that_cannot_change_the_report_are_counted_not_evaluated(
    monkeypatch, prediction, reference, evaluations, bindings, assignments
):
    calls = []
    monkeypatch.setattr(equivalence, "_reference_bits", _counting(calls, equivalence._reference_bits))
    report = le_score(prediction, reference, "original")
    assert len(calls) == evaluations
    assert (report.bindings_explored, report.assignments_evaluated) == (bindings, assignments)


@pytest.mark.parametrize(
    "prediction, reference",
    [
        # Two enumerated components, whose first one some readings win with
        # a different assignment than others: the second is walked once per
        # distinct first winner.
        ("Owned(b) ∧ Liked(a) ⊕ Own(a) → Liked(a) ⊕ Owns(a) ⊕ Q", "Own(a) → Liked(a) ∨ Q ∨ Owned(b) ∨ Like(a)"),
        ("P ∧ Own(a) → Own(a) ∨ Likes(a) ∨ Q ∧ Own(a)", "Likes(a) ∨ Own(a) ∨ Owns(a) → Q ∨ Liked(a) ⊕ P"),
        # The reported reading's first-component floor is above another
        # reading's fewest disagreeing rows there, so the search must keep
        # scoring it in that component: it wins only in the second.
        (
            "Owns(b) ∧ Own(a) ∧ Like(a) ∧ ¬Likes(b) ∧ Like(a) ∧ Owns(a) ⊕ Liked(a)",
            "Liked(a) ⊕ Own(a) ∨ Likes(b) ∧ Like(a) ⊕ ¬Own(a) → Liked(a) ⊕ Owns(a) ∨ ¬Seen(a)",
        ),
    ],
)
def test_readings_that_win_differently_equal_unshared(monkeypatch, prediction, reference):
    searches = []
    monkeypatch.setattr(equivalence, "_search", _counting(searches, equivalence._search))
    report = le_score(prediction, reference)
    assert len(searches) == 1 and len(searches[0][1].enumerated) == 2
    assert len(_searched_tables(searches[0])) == len(_reading_tables(prediction)[1]) > 1
    assert fields(report) == unshared(prediction, reference, "optimized")


@pytest.mark.parametrize(
    "prediction, reference, readings, combined",
    [
        # One reading.
        ("A ∧ (B ∧ (C ∧ (D ∧ (E ∧ F))))", "A", 1, {"original": 6, "optimized": 6}),
        ("A ∧ (B ∧ (C ∧ (D ∧ (E ∧ F))))", "A ∧ Z", 1, {"original": 6, "optimized": 7}),
        # Five readings, five distinct tables.
        ("A → B ↔ C ∧ D ⊕ E ∨ F", "A ∧ Z", 5, {"original": 6, "optimized": 7}),
        ("A → B ↔ C ∧ D ⊕ E ∨ F", "Likes(a) ∨ Own(a)", 5, {"original": 6, "optimized": 8}),
        # Similar names: optimized mode enumerates a component first.
        (
            "Likes(a) → Like(a) ↔ Liked(a) ∧ Owns(a) ⊕ Own(a) ∨ P",
            "Likes(a) ∨ Own(a)",
            5,
            {"original": 6, "optimized": 6},
        ),
    ],
)
@pytest.mark.parametrize("mode", MODES)
def test_a_prediction_past_the_truth_table_cap_keeps_its_message(mode, prediction, reference, readings, combined):
    # The prediction alone has 6 atoms, past max_atoms=5; the message counts
    # the combined atoms of the final binding.
    assert len(atoms_of(canonicalize(parse(prediction)))) == 6
    count, tables = _reading_tables(prediction)
    assert count == len(tables) == readings
    with pytest.raises(CapExceeded) as raised:
        le_score(prediction, reference, mode, LeConfig(max_atoms=5))
    assert str(raised.value) == f"{combined[mode]} combined atoms exceeds the truth-table cap 5"


_SIMILAR_NAMES = ["Likes(a)", "Like(a)", "Liked(a)", "Owns(a)", "Own(a)", "Owned(b)", "P", "Q"]


@st.composite
def similar_name_chains(draw, max_operands=6):
    """A flat chain of 2 to ``max_operands`` operands over names similar
    enough to share candidate components; an operand may be negated."""
    operands = [
        draw(st.sampled_from(["", "¬"])) + draw(st.sampled_from(_SIMILAR_NAMES))
        for _ in range(draw(st.integers(2, max_operands)))
    ]
    text = operands[0]
    for operand in operands[1:]:
        text += f" {draw(st.sampled_from(['∧', '∨', '→', '↔', '⊕']))} {operand}"
    return text


@settings(max_examples=150, deadline=None)
@given(
    similar_name_chains(),
    similar_name_chains(),
    st.sampled_from(MODES),
    st.sampled_from([(DEFAULT_LE, 3), (LeConfig(max_atoms=5), COMPONENT_CAP)]),
)
def test_lockstep_equals_unshared_on_unequal_atom_counts(prediction, reference, mode, config_and_cap):
    # Unequal atom counts leave atoms unbound, which widens each reading's
    # table past the prediction's own atoms.
    config, cap = config_and_cap
    pred_atoms = atoms_of(canonicalize(parse(prediction)))
    ref_atoms = atoms_of(canonicalize(parse(reference)))
    assume(len(pred_atoms) != len(ref_atoms))
    # Only an optimized-mode walk can reach the cap.
    with patch.object(equivalence, "COMPONENT_CAP", cap if mode == "optimized" else COMPONENT_CAP):
        got = outcome(lambda: le_score(prediction, reference, mode, config))
        try:
            expected = unshared(prediction, reference, mode, config)
        except CapExceeded as exc:
            expected = (type(exc), str(exc))
    assert got == expected


@settings(max_examples=300, deadline=None)
@given(
    similar_name_chains(max_operands=9), similar_name_chains(max_operands=9), st.integers(-2, 2), st.sampled_from(MODES)
)
@example("Likes(a) → Like(a) ↔ Liked(a) ∧ Owns(a) ⊕ Own(a) ∨ P", "Likes(a) ∨ Own(a)", 0, "optimized")
def test_the_truth_table_cap_counts_the_final_binding(prediction, reference, offset, mode):
    """Under any ``max_atoms``, a score raises ``CapExceeded`` exactly when
    the report under the highest cap has more combined atoms than it, and
    is otherwise that report.  The cap tried lies within two of the
    report's ``atom_count``; both sides have at most 8 atoms, so the
    highest cap never raises."""
    full = outcome(lambda: le_score(prediction, reference, mode, LeConfig(max_atoms=MAX_TABLE_ATOMS)))
    if isinstance(full[0], type):
        # Past the factorial-search cap, which no truth-table cap changes.
        assert full[1].endswith(f"exceeds the factorial-search cap {MAX_FACTORIAL_ATOMS}")
        max_atoms, expected = 1, full
    else:
        atom_count = full[4]
        max_atoms = max(1, atom_count + offset)
        if atom_count > max_atoms:
            expected = (CapExceeded, f"{atom_count} combined atoms exceeds the truth-table cap {max_atoms}")
        else:
            expected = full
    assert outcome(lambda: le_score(prediction, reference, mode, LeConfig(max_atoms=max_atoms))) == expected


# --- one search plan per prediction ---------------------------------------------------


@pytest.mark.parametrize(
    "prediction, components",
    [
        # Distinct one-letter names: optimized mode fixes every atom outright.
        ("A → B ↔ C ∧ D ⊕ A ∨ B → C", {"original": 1, "optimized": 0}),
        ("Likes(a) ∨ Like(a) ∧ Liked(a) → Likes(a) ⊕ Like(a)", {"original": 1, "optimized": 1}),
        ("Likes(a) ∨ Like(a) ∧ Owns(a) → Own(a) ⊕ Likes(a)", {"original": 1, "optimized": 2}),
    ],
)
@pytest.mark.parametrize("mode", MODES)
def test_each_component_is_matched_once_per_prediction(monkeypatch, mode, prediction, components):
    matchings, searches = [], []
    monkeypatch.setattr(equivalence, "_max_matching", _counting(matchings, equivalence._max_matching))
    monkeypatch.setattr(equivalence, "_search", _counting(searches, equivalence._search))
    report = le_score(prediction, prediction, mode)
    assert report.score == 1.0
    assert len(searches) == 1
    assert len(_searched_tables(searches[0])) == len(_reading_tables(prediction)[1]) > 1
    assert len(matchings) == components[mode]


_PLAN_PREDICATES = ["Likes", "Like", "Liked", "Owns", "Own", "P"]


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**9), st.sampled_from(MODES))
def test_a_reports_binding_rescores_to_its_score(seed, mode):
    """For a prediction with one reading, the report's binding scored on
    its own gives the report's score."""
    rng = random.Random(seed)
    prediction = render(random_formula(rng, max_atoms=5, max_depth=4, predicates=_PLAN_PREDICATES))
    reference = render(random_formula(rng, max_atoms=5, max_depth=4, predicates=_PLAN_PREDICATES))
    report = le_score(prediction, reference, mode)
    assume(report.trees_explored == 1)
    pred, ref = canonicalize(parse(prediction)), canonicalize(parse(reference))
    assert propositional_score(pred, ref, report.binding) == report.score


def test_results_memo_reset_keeps_every_report(monkeypatch):
    rng = random.Random(5)
    reference = render(random_formula(rng, max_atoms=5, max_depth=4, predicates=_PLAN_PREDICATES))
    predictions = [render(random_formula(rng, max_atoms=5, max_depth=4, predicates=_PLAN_PREDICATES)) for _ in range(16)]

    def scored():
        scorer = Scorer(reference)
        reports = [scorer([prediction])[0].to_dict() for prediction in predictions]
        return reports, set(scorer.results)

    expected, memo = scored()
    # A one-entry memo is emptied before every call but the first.
    monkeypatch.setattr(equivalence, "_MEMO_LIMIT", 1)
    reports, last = scored()
    assert reports == expected
    assert last == {predictions[-1]} < memo == set(predictions)
