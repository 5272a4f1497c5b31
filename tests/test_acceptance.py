"""Acceptance suite.

Each test exercises one release criterion end to end and prints a single
``[criterion N] PASS/FAIL`` line (run pytest with ``-s`` to see the lines
as they happen; without it they appear in captured output).
"""

import functools
import io
import json
import math
import random
import time

import numpy as np
import pytest

from foleq.corpus import EvalPair, corpus_bleu
from foleq.equivalence import LeConfig, bind_optimized, bind_original, le_score
from foleq.service import ServiceConfig, serve
from foleq.sgrpo import (
    Hyperparams,
    PolicyParams,
    PromptSpec,
    SampleGroup,
    default_demo_config,
    group_advantages,
    objective_gradient,
    sgrpo_objective,
    train_demo,
)
from foleq.similarity import levenshtein
from foleq.syntax import Atom, Binary, FolExpr, atoms_of, canonicalize, lex, parse, render, enumerate_bracketings
from helpers import best_complete_matching, random_formula


def criterion(number: int, summary: str):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            try:
                fn()
            except BaseException:
                print(f"[criterion {number}] FAIL {summary}")
                raise
            print(f"[criterion {number}] PASS {summary}")

        return run

    return wrap


# --- 1: reflexivity ---------------------------------------------------------------

@criterion(1, "le_score(f, f) = 1.0 for 500 random formulas in both modes, < 10 s")
def test_criterion_01_reflexivity():
    rng = random.Random(20250801)
    formulas = [render(random_formula(rng, max_atoms=6, max_depth=5)) for _ in range(500)]
    start = time.perf_counter()
    for text in formulas:
        for mode in ("original", "optimized"):
            assert le_score(text, text, mode=mode).score == 1.0, (text, mode)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.2f}s"


# --- 2: equivalence laws and contradictions -----------------------------------------

LAW_PAIRS = [
    ("A ∧ B", "B ∧ A"),
    ("A ∨ B", "B ∨ A"),
    ("A ↔ B", "B ↔ A"),
    ("A ⊕ B", "B ⊕ A"),
    ("(A ∧ B) ∧ C", "A ∧ (B ∧ C)"),
    ("(A ∨ B) ∨ C", "A ∨ (B ∨ C)"),
    ("¬(A ∧ B)", "¬A ∨ ¬B"),
    ("¬(A ∨ B)", "¬A ∧ ¬B"),
    ("A → B", "¬B → ¬A"),
    ("A → B", "¬A ∨ B"),
    ("¬¬A", "A"),
    ("¬¬(A ∨ B)", "A ∨ B"),
    ("A ∧ (B ∨ C)", "(A ∧ B) ∨ (A ∧ C)"),
    ("A ∨ (B ∧ C)", "(A ∨ B) ∧ (A ∨ C)"),
    ("A ∧ A", "A"),
    ("A ∨ A", "A"),
    ("A ∧ (A ∨ B)", "A"),
    ("A ∨ (A ∧ B)", "A"),
    ("A ↔ B", "(A → B) ∧ (B → A)"),
    ("A ⊕ B", "¬(A ↔ B)"),
    ("A ⊕ B", "(A ∨ B) ∧ ¬(A ∧ B)"),
    ("∀x (P(x) → Q(x))", "∀y (P(y) → Q(y))"),
    ("∀x P(x)", "∀z P(z)"),
    ("∃x (P(x) ∧ Q(x))", "∃y (Q(y) ∧ P(y))"),
]

# formulas here must be invariant under permuting their atoms; otherwise a
# swapped binding of (f, not f) can legitimately score above zero
CONTRADICTION_FORMULAS = [
    "A", "B", "A ∧ B", "A ∨ B", "B ∨ C", "A ↔ B", "A ⊕ B",
    "A ∧ B ∧ C", "A ∨ B ∨ C", "¬A", "¬A ∧ ¬B", "¬A ∨ ¬B",
    "∀x P(x)", "∃x P(x)", "∀x (P(x) ∧ Q(x))", "P(a)", "P(a) ∧ Q(a)",
    "A ↔ A", "A ∧ A", "A ∨ ¬A",
]


@criterion(2, ">= 20 law pairs score exactly 1.0 and >= 20 negated pairs exactly 0.0")
def test_criterion_02_law_suite():
    assert len(LAW_PAIRS) >= 20
    assert len(CONTRADICTION_FORMULAS) >= 20
    for pred, ref in LAW_PAIRS:
        for mode in ("original", "optimized"):
            score = le_score(pred, ref, mode=mode).score
            assert score == 1.0, (pred, ref, mode, score)
    for formula in CONTRADICTION_FORMULAS:
        for mode in ("original", "optimized"):
            score = le_score(formula, f"¬({formula})", mode=mode).score
            assert score == 0.0, (formula, mode, score)


# --- 3: optimized-vs-original dominance on renaming pairs -----------------------------

def _rename_predicates(expr: FolExpr, suffix: str) -> FolExpr:
    from foleq.syntax import Not, Quantified

    if isinstance(expr, Atom):
        return Atom(expr.predicate + suffix, expr.args)
    if isinstance(expr, Not):
        return Not(_rename_predicates(expr.body, suffix))
    if isinstance(expr, Binary):
        return Binary(expr.op, _rename_predicates(expr.left, suffix),
                      _rename_predicates(expr.right, suffix))
    if isinstance(expr, Quantified):
        return Quantified(expr.quantifier, expr.variable, _rename_predicates(expr.body, suffix))
    raise AssertionError(type(expr))


@criterion(3, "renaming pairs: optimized <= original everywhere, mean gap <= 0.05")
def test_criterion_03_dominance():
    rng = random.Random(20250803)
    predicates = ["Happy", "Grumpy", "Loves", "Knows", "Round", "Bright"]
    gaps = []
    for index in range(200):
        formula = random_formula(rng, max_atoms=5, max_depth=4, predicates=predicates)
        suffix = rng.choice(["o", "y", "a", "e"])
        renamed = _rename_predicates(formula, suffix)
        prediction = render(formula)
        reference = render(renamed)
        original = le_score(prediction, reference, mode="original").score
        optimized = le_score(prediction, reference, mode="optimized").score
        assert optimized <= original + 1e-12, (prediction, reference, optimized, original)
        gaps.append(original - optimized)
    mean_gap = sum(gaps) / len(gaps)
    print(f"\n[criterion 3] mean optimized-vs-original gap: {mean_gap:.4f}", end=" ... ")
    assert mean_gap <= 0.05, mean_gap


# --- 4: candidate restriction shrinks the search ---------------------------------------

def _balanced_tree(rng: random.Random, atoms: list[Atom]) -> FolExpr:
    if len(atoms) == 1:
        return atoms[0]
    split = len(atoms) // 2
    op = rng.choice(["and", "or", "implies", "iff", "xor"])
    return Binary(op, _balanced_tree(rng, atoms[:split]), _balanced_tree(rng, atoms[split:]))


@criterion(4, "n=6: optimized explores <= 36 bindings vs 720, wall-clock speedup >= 5x")
def test_criterion_04_complexity():
    rng = random.Random(20250804)
    pairs = []
    for _ in range(20):
        pred_atoms = [Atom(f"Alpha{i}", ("x",)) for i in (1, 2, 3)] + [
            Atom(f"Beta{i}", ("y",)) for i in (1, 2, 3)
        ]
        ref_atoms = [Atom(f"Alpha{i}", ("x",)) for i in (4, 5, 6)] + [
            Atom(f"Beta{i}", ("y",)) for i in (4, 5, 6)
        ]
        rng.shuffle(pred_atoms)
        rng.shuffle(ref_atoms)
        pred = canonicalize(_balanced_tree(rng, pred_atoms))
        ref = canonicalize(_balanced_tree(rng, ref_atoms))
        pairs.append((pred, ref))

    # Three rounds of one original pass over the pairs, then one optimized
    # pass; each mode keeps its fastest pass.  Alternating the modes spreads
    # a busy stretch of the host over passes of both, and the best pass
    # keeps it out of the ratio.
    times = {bind_original: [], bind_optimized: []}
    explored = {}
    for _ in range(3):
        for bind, passes in times.items():
            start = time.perf_counter()
            explored[bind] = [bind(pred, ref).bindings_explored for pred, ref in pairs]
            passes.append(time.perf_counter() - start)
    original_time, original_explored = min(times[bind_original]), explored[bind_original]
    optimized_time, optimized_explored = min(times[bind_optimized]), explored[bind_optimized]

    assert all(count == 720 for count in original_explored), original_explored
    assert all(count <= 36 for count in optimized_explored), optimized_explored
    speedup = original_time / max(optimized_time, 1e-9)
    print(f"\n[criterion 4] speedup {speedup:.1f}x "
          f"({original_time * 1000:.0f} ms vs {optimized_time * 1000:.0f} ms)", end=" ... ")
    assert speedup >= 5.0, speedup


# --- 5: bracketing enumeration ------------------------------------------------------------

@criterion(5, "full counts are Catalan(k) for k in 2..8; chunking is strictly smaller and subexponential")
def test_criterion_05_bracketings():
    catalan = {2: 2, 3: 5, 4: 14, 5: 42, 6: 132, 7: 429, 8: 1430}

    def chain(operators: int):
        return lex(" ∧ ".join(f"A{i}" for i in range(operators + 1)))

    full = {}
    for k in range(2, 9):
        full[k] = len(enumerate_bracketings(chain(k)))
        assert full[k] == catalan[k], (k, full[k])

    for m in (3, 4, 5):
        counts = {k: len(enumerate_bracketings(chain(k), chunk_size=m)) for k in range(4, 13)}
        for k in (6, 7, 8):
            assert counts[k] < full[k], (m, k, counts[k], full[k])
        # subexponential growth: consecutive ratios stay bounded while the
        # full Catalan ratios exceed 3 from k=6 on
        for k in range(4, 12):
            ratio = counts[k + 1] / counts[k]
            assert ratio <= 3.0, (m, k, ratio)
    for k in (6, 7, 8):
        assert full[k] / full[k - 1] >= 3.0


# --- 6: binding oracle ----------------------------------------------------------------------

@criterion(6, "bind_original equals the brute-force matching oracle on 100 random pairs")
def test_criterion_06_binding_oracle():
    rng = random.Random(20250806)
    for _ in range(100):
        pred = canonicalize(random_formula(rng, max_atoms=3, max_depth=3))
        ref = canonicalize(random_formula(rng, max_atoms=3, max_depth=3))
        result = bind_original(pred, ref)
        score, dist, mappings = best_complete_matching(pred, ref)
        assert result.score == pytest.approx(score, abs=1e-12), (render(pred), render(ref))
        got_dist = sum(levenshtein(p, r) for p, r in result.binding.pairs)
        assert got_dist == dist, (render(pred), render(ref))
        assert frozenset(result.binding.as_dict().items()) in mappings


# --- 7: gradient check ----------------------------------------------------------------------

def _finite_difference(current, reference, prompt, group, hp, step=1e-5):
    grad = np.zeros_like(current.logits)
    for index in np.ndindex(*current.logits.shape):
        plus = current.logits.copy()
        plus[index] += step
        minus = current.logits.copy()
        minus[index] -= step
        up = sgrpo_objective(PolicyParams(plus), reference, prompt, group, hp).total
        down = sgrpo_objective(PolicyParams(minus), reference, prompt, group, hp).total
        grad[index] = (up - down) / (2 * step)
    return grad


@criterion(7, "analytic gradient matches central differences (rel err < 1e-4) on 10 configs, < 30 s")
def test_criterion_07_gradient():
    start = time.perf_counter()
    prompts, length, vocab = 2, 4, 5
    # spans: clip active (old far from current) and inactive (old == current),
    # beta in {0, 0.04}, lambda in {0, 1}, plus min-form variants
    settings = [
        (0.00, 0.0, True, False), (0.00, 0.0, False, False),
        (0.00, 1.0, True, False), (0.04, 0.0, True, False),
        (0.04, 1.0, True, False), (0.04, 1.0, False, False),
        (0.00, 1.0, False, False), (0.04, 0.0, False, False),
        (0.04, 1.0, True, True), (0.00, 0.0, True, True),
    ]
    for index, (beta, lam, drift, use_min) in enumerate(settings):
        rng = np.random.default_rng(900 + index)
        hp = Hyperparams(group_size=4, kl_beta=beta, sft_weight=lam, use_ppo_min=use_min)
        current = PolicyParams(rng.normal(0, 0.8, (prompts, length, vocab)))
        offset = rng.normal(0, 0.5, (prompts, length, vocab)) if drift else 0.0
        old = PolicyParams(current.logits + offset)
        reference = PolicyParams(rng.normal(0, 0.8, (prompts, length, vocab)))
        prompt = PromptSpec(index % prompts, tuple(rng.integers(0, vocab, length)), "A")
        outputs = rng.integers(0, vocab, (hp.group_size, length))
        positions = np.arange(length)
        old_lp = old.log_probs(prompt.prompt_id)[positions[None, :], outputs]
        rewards = rng.random(hp.group_size)
        group = SampleGroup(outputs, old_lp, rewards, group_advantages(rewards))

        analytic = objective_gradient(current, reference, prompt, group, hp)
        numeric = _finite_difference(current, reference, prompt, group, hp)
        scale = max(np.abs(numeric).max(), 1e-12)
        rel_err = np.abs(analytic - numeric).max() / scale
        assert rel_err < 1e-4, (index, beta, lam, drift, use_min, rel_err)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, elapsed


# --- 8: advantage normalization ----------------------------------------------------------------

@criterion(8, "1,000 reward vectors: zero mean, unit population std when varied, zeros when equal")
def test_criterion_08_advantages():
    rng = np.random.default_rng(20250808)
    for index in range(1000):
        size = int(rng.integers(2, 17))
        if index % 10 == 0:
            rewards = np.full(size, float(rng.random()))
        else:
            scale = 10.0 ** rng.integers(-6, 1)
            rewards = rng.random(size) * scale
        adv = group_advantages(rewards)
        assert abs(float(adv.mean())) < 1e-12
        if rewards.var() > 1e-8:
            assert abs(float(adv.std()) - 1.0) < 1e-6
        if np.all(rewards == rewards[0]):
            assert np.all(adv == 0.0)


# --- 9: toy training runs end to end ------------------------------------------------------------

@criterion(9, "mean reward rises from < 0.3 to > 0.7 within 500 iterations; lr=0 control is flat")
def test_criterion_09_training():
    start = time.perf_counter()
    trace = train_demo(default_demo_config(iterations=500, learning_rate=0.5, seed=0))
    elapsed = time.perf_counter() - start
    means = [record["mean_reward"] for record in trace]
    assert all(0.0 <= m <= 1.0 for m in means)
    assert means[0] < 0.3, means[0]
    crossing = next((i for i, m in enumerate(means) if m > 0.7), None)
    assert crossing is not None and crossing < 500, crossing
    assert elapsed < 300.0, elapsed

    control = train_demo(default_demo_config(iterations=500, learning_rate=0.0, seed=0))
    control_means = [record["mean_reward"] for record in control]
    slope = float(np.polyfit(np.arange(len(control_means)), control_means, 1)[0])
    print(f"\n[criterion 9] reward crossed 0.7 at iteration {crossing}; "
          f"control slope {slope:.2e}", end=" ... ")
    assert abs(slope) < 0.01, slope


# --- 10: service conformance ---------------------------------------------------------------------

@criterion(10, "1,000 pipelined requests: id bijection, scores in [0,1], equal to library calls")
def test_criterion_10_service():
    rng = random.Random(20250810)
    formulas = ["A ∧ B", "B ∧ A", "A → B", "¬A ∨ B", "P(a) ∧ Q(a)", "P(a)",
                "A ⊕ B", "A ↔ B", "∀x P(x)", "¬(A ∨ B)"]
    requests = []
    expected = {}
    for index in range(1000):
        rid = f"req-{index:04d}"
        prediction, reference = rng.choice(formulas), rng.choice(formulas)
        if index % 5 == 0:
            requests.append({"id": rid, "op": "bleu_pair",
                             "prediction": prediction, "reference": reference})
            expected[rid] = corpus_bleu([EvalPair(rid, prediction, reference)]) / 100.0
        else:
            mode = "original" if index % 3 == 0 else "optimized"
            requests.append({"id": rid, "op": "le_score", "mode": mode,
                             "prediction": prediction, "reference": reference})
            expected[rid] = le_score(prediction, reference, mode=mode).score

    wire_in = io.StringIO("\n".join(json.dumps(r) for r in requests) + "\n")
    wire_out = io.StringIO()
    serve(wire_in, wire_out, ServiceConfig())
    responses = [json.loads(line) for line in wire_out.getvalue().splitlines()]

    assert len(responses) == 1000
    seen = [response["id"] for response in responses]
    assert sorted(seen) == sorted(request["id"] for request in requests)
    assert len(set(seen)) == 1000
    for response in responses:
        assert "error" not in response, response
        assert 0.0 <= response["score"] <= 1.0
        assert response["score"] == expected[response["id"]], response["id"]
