import hashlib
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from foleq.sgrpo import (
    Hyperparams,
    PolicyParams,
    PromptSpec,
    SampleGroup,
    default_demo_config,
    group_advantages,
    kl_estimate,
    objective_gradient,
    sample_group,
    sft_term,
    sgrpo_objective,
    train_demo,
    write_trace,
)
from foleq.equivalence import le_score
from foleq.syntax import parse


def make_policy(rng, prompts=2, length=4, vocab=5, role="current", scale=0.8):
    return PolicyParams(rng.normal(0.0, scale, (prompts, length, vocab)), role)


def make_group(rng, policy, prompt, hp):
    group = sample_group(policy.snapshot("old"), prompt, hp, rng)
    rewards = rng.random(hp.group_size)
    group = replace(group, rewards=rewards)
    return replace(group, advantages=group_advantages(rewards, hp.std_epsilon))


# --- advantages -----------------------------------------------------------------

def test_advantages_worked_example():
    adv = group_advantages(np.array([1.0, 0.0, 0.0, 0.0]))
    assert adv[0] == pytest.approx(math.sqrt(3), abs=1e-12)
    assert adv[1:] == pytest.approx([-1 / math.sqrt(3)] * 3, abs=1e-12)


def test_advantages_zero_mean_unit_std():
    rng = np.random.default_rng(11)
    for _ in range(50):
        size = rng.integers(2, 17)
        rewards = rng.random(size)
        adv = group_advantages(rewards)
        assert abs(adv.mean()) < 1e-12
        if rewards.var() > 1e-8:
            assert adv.std() == pytest.approx(1.0, abs=1e-6)


def test_advantages_all_equal_rewards():
    assert np.all(group_advantages(np.array([0.25] * 8)) == 0.0)
    assert np.all(group_advantages(np.zeros(4)) == 0.0)


def test_advantages_epsilon_floor_caps_blowup():
    rewards = np.array([1e-12, 0.0, 0.0, 0.0])
    adv = group_advantages(rewards, std_epsilon=1e-8)
    # deviation is tiny relative to the floor, so advantages stay tiny
    assert np.abs(adv).max() < 1e-3


# --- KL and SFT terms --------------------------------------------------------------

def test_kl_single_position_worked_example():
    current = PolicyParams(np.log(np.full((1, 1, 4), 0.25)), "current")
    reference = PolicyParams(np.log(np.array([[[0.5, 0.25, 0.125, 0.125]]])), "reference")
    prompt = PromptSpec(0, (0,), "A")
    got = kl_estimate(current, reference, np.array([0]), prompt)
    assert got == pytest.approx(2.0 - math.log(2.0) - 1.0, abs=1e-12)


def test_kl_zero_when_policies_match():
    rng = np.random.default_rng(3)
    policy = make_policy(rng)
    prompt = PromptSpec(0, (0, 1, 2, 3), "A")
    out = np.array([1, 0, 2, 4])
    assert kl_estimate(policy, policy.snapshot("reference"), out, prompt) == pytest.approx(0.0)


def test_kl_nonnegative_on_random_policies():
    rng = np.random.default_rng(4)
    for _ in range(25):
        current = make_policy(rng)
        reference = make_policy(rng, role="reference")
        out = rng.integers(0, 5, 4)
        prompt = PromptSpec(1, (0,) * 4, "A")
        assert kl_estimate(current, reference, out, prompt) >= 0.0


def test_sft_term_zero_at_reference():
    rng = np.random.default_rng(5)
    policy = make_policy(rng)
    prompt = PromptSpec(0, (2, 2, 0, 4), "A")
    assert sft_term(policy, policy.snapshot("reference"), prompt) == pytest.approx(0.0)


def test_sft_term_matches_manual_sum():
    rng = np.random.default_rng(6)
    current = make_policy(rng)
    reference = make_policy(rng, role="reference")
    prompt = PromptSpec(1, (0, 3, 1, 2), "A")
    label = np.array(prompt.label)
    manual = float(
        (current.log_probs(1)[np.arange(4), label] - reference.log_probs(1)[np.arange(4), label]).sum()
    )
    assert sft_term(current, reference, prompt) == pytest.approx(manual, abs=1e-12)


def test_sft_term_rises_when_label_is_boosted():
    rng = np.random.default_rng(7)
    current = make_policy(rng)
    reference = current.snapshot("reference")
    prompt = PromptSpec(0, (1, 1, 1, 1), "A")
    boosted = current.logits.copy()
    boosted[0, :, 1] += 2.0
    assert sft_term(PolicyParams(boosted, "current"), reference, prompt) > 0.0


# --- sampling -------------------------------------------------------------------------

def test_sample_group_requires_old_snapshot():
    rng = np.random.default_rng(8)
    policy = make_policy(rng)
    with pytest.raises(ValueError):
        sample_group(policy, PromptSpec(0, (0,), "A"), Hyperparams())


def test_sample_group_deterministic_and_consistent():
    rng_a = np.random.default_rng(9)
    rng_b = np.random.default_rng(9)
    policy = make_policy(rng_a, role="old")
    policy_b = PolicyParams(policy.logits.copy(), "old")
    hp = Hyperparams(group_size=6, max_length=4)
    prompt = PromptSpec(1, (0, 1, 2, 3), "A")
    g1 = sample_group(policy, prompt, hp, np.random.default_rng(42))
    g2 = sample_group(policy_b, prompt, hp, np.random.default_rng(42))
    assert np.array_equal(g1.outputs, g2.outputs)
    assert np.allclose(g1.old_logprobs, g2.old_logprobs)
    assert g1.outputs.shape == (6, 4)
    assert g1.outputs.min() >= 0 and g1.outputs.max() < 5
    logp = policy.log_probs(1)
    expect = logp[np.arange(4)[None, :], g1.outputs]
    assert np.allclose(g1.old_logprobs, expect)


def test_sample_group_matches_distribution():
    # a heavily skewed single position should sample mostly its mode
    logits = np.zeros((1, 1, 3))
    logits[0, 0] = [5.0, 0.0, 0.0]
    policy = PolicyParams(logits, "old")
    hp = Hyperparams(group_size=16, max_length=1)
    counts = np.zeros(3)
    for seed in range(30):
        group = sample_group(policy, PromptSpec(0, (0,), "A"), hp, np.random.default_rng(seed))
        for token in group.outputs.ravel():
            counts[token] += 1
    assert counts[0] / counts.sum() > 0.9


def test_sample_group_rejects_bad_rewards():
    rng = np.random.default_rng(10)
    policy = make_policy(rng, role="old")
    hp = Hyperparams(group_size=4, max_length=4)
    group = sample_group(policy, PromptSpec(0, (0,) * 4, "A"), hp, rng)
    with pytest.raises(ValueError):
        replace(group, rewards=np.array([0.5, 1.5, 0.0, 0.0]))
    with pytest.raises(ValueError):
        replace(group, rewards=np.array([0.5, 0.5]))


# --- objective --------------------------------------------------------------------------

def test_objective_requires_advantages():
    rng = np.random.default_rng(12)
    current = make_policy(rng)
    old = current.snapshot("old")
    reference = current.snapshot("reference")
    hp = Hyperparams(group_size=4, max_length=4)
    prompt = PromptSpec(0, (0,) * 4, "A")
    group = sample_group(old, prompt, hp, rng)
    with pytest.raises(ValueError):
        sgrpo_objective(current, old, reference, prompt, group, hp)


def test_objective_composition():
    rng = np.random.default_rng(13)
    current = make_policy(rng)
    old = make_policy(rng, role="old")
    reference = make_policy(rng, role="reference")
    hp = Hyperparams(group_size=4, max_length=4)
    prompt = PromptSpec(1, (0, 1, 2, 3), "A")
    group = make_group(rng, old, prompt, hp)
    parts = sgrpo_objective(current, old, reference, prompt, group, hp)
    assert parts.total == pytest.approx(
        parts.surrogate + hp.sft_weight * parts.sft - hp.kl_beta * parts.kl, abs=1e-12
    )
    assert parts.kl >= 0.0


def test_objective_surrogate_is_clipped():
    # boosting token 0 sends sample 0's ratio far above 1+eps and sample 1's
    # far below 1-eps, so the surrogate is exactly (1.2*adv0 + 0.8*adv1)/2
    hp = Hyperparams(group_size=2, max_length=2, clip_epsilon=0.2)
    old = PolicyParams(np.zeros((1, 2, 3)), "old")
    current = PolicyParams(old.logits + np.array([8.0, 0.0, 0.0]), "current")
    reference = old.snapshot("reference")
    prompt = PromptSpec(0, (0, 0), "A")
    outputs = np.array([[0, 0], [1, 1]])
    positions = np.arange(2)
    old_lp = old.log_probs(0)[positions[None, :], outputs]
    rewards = np.array([1.0, 0.0])
    group = SampleGroup(outputs, old_lp, rewards, group_advantages(rewards))
    parts = sgrpo_objective(current, old, reference, prompt, group, hp)
    adv = group.advantages
    assert adv == pytest.approx([1.0, -1.0])
    assert parts.surrogate == pytest.approx((1.2 * adv[0] + 0.8 * adv[1]) / 2, abs=1e-9)


def test_objective_min_form_lower_or_equal():
    rng = np.random.default_rng(14)
    for _ in range(20):
        current = make_policy(rng)
        old = make_policy(rng, role="old")
        reference = make_policy(rng, role="reference")
        hp = Hyperparams(group_size=4, max_length=4)
        prompt = PromptSpec(0, (0, 1, 2, 3), "A")
        group = make_group(rng, old, prompt, hp)
        plain = sgrpo_objective(current, old, reference, prompt, group, hp)
        minned = sgrpo_objective(
            current, old, reference, prompt, group, replace(hp, use_ppo_min=True)
        )
        assert minned.surrogate <= plain.surrogate + 1e-12


# --- gradient ---------------------------------------------------------------------------

def central_difference(current, old, reference, prompt, group, hp, step=1e-5):
    grad = np.zeros_like(current.logits)
    for index in np.ndindex(*current.logits.shape):
        plus = current.logits.copy()
        plus[index] += step
        minus = current.logits.copy()
        minus[index] -= step
        f_plus = sgrpo_objective(PolicyParams(plus, "current"), old, reference, prompt, group, hp).total
        f_minus = sgrpo_objective(PolicyParams(minus, "current"), old, reference, prompt, group, hp).total
        grad[index] = (f_plus - f_minus) / (2 * step)
    return grad


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(15)
    hp = Hyperparams(group_size=3, max_length=3)
    current = make_policy(rng, prompts=2, length=3, vocab=4)
    old = make_policy(rng, prompts=2, length=3, vocab=4, role="old")
    reference = make_policy(rng, prompts=2, length=3, vocab=4, role="reference")
    prompt = PromptSpec(0, (1, 2, 0), "A")
    group = make_group(rng, old, prompt, hp)
    analytic = objective_gradient(current, old, reference, prompt, group, hp)
    numeric = central_difference(current, old, reference, prompt, group, hp)
    scale = max(np.abs(numeric).max(), 1e-12)
    assert np.abs(analytic - numeric).max() / scale < 1e-6


def test_gradient_zero_outside_prompt_slice():
    rng = np.random.default_rng(16)
    hp = Hyperparams(group_size=3, max_length=3)
    current = make_policy(rng, prompts=3, length=3, vocab=4)
    old = make_policy(rng, prompts=3, length=3, vocab=4, role="old")
    reference = make_policy(rng, prompts=3, length=3, vocab=4, role="reference")
    prompt = PromptSpec(1, (0, 1, 2), "A")
    group = make_group(rng, old, prompt, hp)
    grad = objective_gradient(current, old, reference, prompt, group, hp)
    assert np.all(grad[0] == 0.0) and np.all(grad[2] == 0.0)
    assert np.any(grad[1] != 0.0)


def test_gradient_requires_advantages():
    rng = np.random.default_rng(17)
    current = make_policy(rng)
    old = current.snapshot("old")
    hp = Hyperparams(group_size=4, max_length=4)
    prompt = PromptSpec(0, (0,) * 4, "A")
    group = sample_group(old, prompt, hp, rng)
    with pytest.raises(ValueError):
        objective_gradient(current, old, current.snapshot("reference"), prompt, group, hp)


# --- policy container ----------------------------------------------------------------------

def test_log_probs_normalized():
    rng = np.random.default_rng(18)
    policy = make_policy(rng, scale=6.0)
    for pid in range(2):
        sums = np.exp(policy.log_probs(pid)).sum(axis=-1)
        assert np.allclose(sums, 1.0)


def test_policy_validation():
    with pytest.raises(ValueError):
        PolicyParams(np.zeros((2, 2, 2)), "newest")
    with pytest.raises(ValueError):
        PolicyParams(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        PolicyParams(np.full((1, 1, 2), np.inf))


def test_hyperparams_validation():
    with pytest.raises(ValueError):
        Hyperparams(group_size=1)
    with pytest.raises(ValueError):
        Hyperparams(clip_epsilon=0.0)
    with pytest.raises(ValueError):
        Hyperparams(kl_beta=-0.1)
    with pytest.raises(ValueError):
        Hyperparams(std_epsilon=0.0)


# --- demo loop -------------------------------------------------------------------------------

def test_default_demo_config_is_well_formed():
    config = default_demo_config()
    assert len(config.vocab) <= 16
    for reference in config.references:
        assert len(reference.split()) == config.hp.max_length
        parse(reference)  # references must be valid formulas
        assert le_score(reference, reference).score == 1.0


def test_demo_config_validation():
    base = default_demo_config()
    with pytest.raises(ValueError):
        type(base)(vocab=("a",) * 17, references=base.references, hp=base.hp)
    unknown_token = type(base)(vocab=base.vocab, references=("zzz P",), hp=base.hp)
    with pytest.raises(ValueError):
        unknown_token.prompts()
    wrong_length = type(base)(vocab=base.vocab, references=("( P ( x ) )",), hp=base.hp)
    with pytest.raises(ValueError):
        wrong_length.prompts()


def test_train_demo_trace_shape_and_determinism():
    config = default_demo_config(iterations=4, learning_rate=0.4, seed=5)
    trace_a = train_demo(config)
    trace_b = train_demo(config)
    assert len(trace_a) == 4
    for record_a, record_b in zip(trace_a, trace_b):
        assert list(record_a.keys()) == [
            "iter", "mean_reward", "reward_std", "surrogate", "sft", "kl", "objective",
        ]
        assert record_a == record_b
        assert 0.0 <= record_a["mean_reward"] <= 1.0
        assert record_a["reward_std"] >= 0.0


def test_train_demo_improves_rewards():
    config = default_demo_config(iterations=120, learning_rate=0.5, seed=0)
    trace = train_demo(config)
    assert trace[0]["mean_reward"] < 0.3
    assert max(record["mean_reward"] for record in trace) > 0.7


# Trace of train_demo(default_demo_config(iterations=30, seed=0)) before rewards
# were scored per group: deduplicating repeated sample texts must change
# neither the RNG stream nor the order of rewards.
PINNED_MEAN_REWARDS = [
    0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.041666666666666664,
    0.14583333333333334, 0.0, 0.041666666666666664, 0.03125, 0.09375, 0.15625, 0.359375,
    0.20833333333333334, 0.3645833333333333, 0.375, 0.40625, 0.4375, 0.4479166666666667,
    0.3333333333333333, 0.2916666666666667, 0.4375, 0.40625, 0.6770833333333334,
]
PINNED_TRACE_SHA256 = "12be9bfeefb1ee06030db22ab587137717f84da707f4d3813e8b839e6d603dd8"


def test_train_demo_trace_is_pinned():
    trace = train_demo(default_demo_config(iterations=30, seed=0))
    assert [record["mean_reward"] for record in trace] == PINNED_MEAN_REWARDS
    assert trace[-1]["reward_std"] == 0.44767435306133957
    assert hashlib.sha256(json.dumps(trace).encode()).hexdigest() == PINNED_TRACE_SHA256


def test_write_trace_round_trips(tmp_path):
    config = default_demo_config(iterations=2, learning_rate=0.1, seed=1)
    trace = train_demo(config)
    path = tmp_path / "trace.jsonl"
    write_trace(trace, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert [json.loads(line) for line in lines] == trace
