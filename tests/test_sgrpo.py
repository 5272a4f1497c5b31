import dataclasses
import hashlib
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import foleq.equivalence
import foleq.sgrpo
from foleq.sgrpo import (
    SEQUENCE_LENGTH,
    STD_EPSILON,
    Hyperparams,
    PolicyParams,
    PromptSpec,
    SampleGroup,
    TrainDemoConfig,
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
from foleq.equivalence import LeReport, Scorer, le_score
from foleq.syntax import FormulaError, LexError, lex, parse, word_lexer

from helpers import (
    per_prompt_train_demo,
    per_sample_gradient,
    per_sample_objective,
    reference_group_advantages,
    scored_result,
)


def make_policy(rng, prompts=2, length=4, vocab=5, scale=0.8):
    return PolicyParams(rng.normal(0.0, scale, (prompts, length, vocab)))


def make_group(rng, policy, prompt, hp):
    group = sample_group(policy, prompt, hp, rng)
    rewards = rng.random(hp.group_size)
    group = replace(group, rewards=rewards)
    return replace(group, advantages=group_advantages(rewards))


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
    adv = group_advantages(rewards)
    # deviation is tiny relative to the floor, so advantages stay tiny
    assert np.abs(adv).max() < 1e-3


def test_advantages_divide_by_std_epsilon_under_a_smaller_spread():
    # the population std of [STD_EPSILON / 2, 0] is STD_EPSILON / 4, so the
    # floor binds and each deviation of STD_EPSILON / 4 becomes 0.25
    adv = group_advantages(np.array([STD_EPSILON / 2, 0.0]))
    assert adv == pytest.approx([0.25, -0.25], rel=1e-12)
    assert group_advantages(np.array([1.0, 0.0])) == pytest.approx([1.0, -1.0], rel=1e-12)


def test_advantages_of_many_groups_equal_row_by_row_calls():
    rng = np.random.default_rng(19)
    rewards = np.stack([
        rng.random(8),
        np.full(8, 0.25),
        np.array([1e-12, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]),  # std under the floor
        rng.integers(0, 3, 8) / 2,
        rng.random(8),
    ])
    batched = group_advantages(rewards)
    assert batched.shape == rewards.shape
    for row, got in zip(rewards, batched):
        assert got.tobytes() == group_advantages(row).tobytes()
    assert np.all(batched[1] == 0.0)
    assert np.abs(batched[2]).max() < 1e-3


# few distinct values, so rows repeat them, plus any value in [0, 1]
_REWARDS = st.one_of(st.sampled_from([0.0, 1e-12, 0.1, 0.25, 1 / 3, 0.5, 0.7, 1.0]), st.floats(0.0, 1.0))


@st.composite
def _reward_groups(draw):
    """(G,) rewards, or (P, G) rewards with some all-equal rows."""
    size = draw(st.integers(2, 16))

    def row():
        if draw(st.booleans()):
            return [draw(_REWARDS)] * size
        return draw(st.lists(_REWARDS, min_size=size, max_size=size))

    rewards = np.array([row() for _ in range(draw(st.integers(1, 5)))])
    return rewards[0] if draw(st.booleans()) else rewards


@settings(max_examples=300, deadline=None)
@given(_reward_groups())
def test_group_advantages_equal_numpys_mean_and_std(rewards):
    got, want = group_advantages(rewards), reference_group_advantages(rewards)
    assert got.shape == rewards.shape
    # bit for bit, so -0.0 and 0.0 differ too
    assert got.tobytes() == want.tobytes()


# --- KL and SFT terms --------------------------------------------------------------

def test_kl_single_position_worked_example():
    current = PolicyParams(np.log(np.full((1, 1, 4), 0.25)))
    reference = PolicyParams(np.log(np.array([[[0.5, 0.25, 0.125, 0.125]]])))
    prompt = PromptSpec(0, (0,), "A")
    got = kl_estimate(current, reference, np.array([0]), prompt)
    assert got == pytest.approx(2.0 - math.log(2.0) - 1.0, abs=1e-12)


def test_kl_zero_when_policies_match():
    rng = np.random.default_rng(3)
    policy = make_policy(rng)
    prompt = PromptSpec(0, (0, 1, 2, 3), "A")
    out = np.array([1, 0, 2, 4])
    assert kl_estimate(policy, policy, out, prompt) == pytest.approx(0.0)


def test_kl_nonnegative_on_random_policies():
    rng = np.random.default_rng(4)
    for _ in range(25):
        current = make_policy(rng)
        reference = make_policy(rng)
        out = rng.integers(0, 5, 4)
        prompt = PromptSpec(1, (0,) * 4, "A")
        assert kl_estimate(current, reference, out, prompt) >= 0.0


def test_sft_term_zero_at_reference():
    rng = np.random.default_rng(5)
    policy = make_policy(rng)
    prompt = PromptSpec(0, (2, 2, 0, 4), "A")
    assert sft_term(policy, policy, prompt) == pytest.approx(0.0)


def test_sft_term_matches_manual_sum():
    rng = np.random.default_rng(6)
    current = make_policy(rng)
    reference = make_policy(rng)
    prompt = PromptSpec(1, (0, 3, 1, 2), "A")
    label = np.array(prompt.label)
    manual = float(
        (current.log_probs(1)[np.arange(4), label] - reference.log_probs(1)[np.arange(4), label]).sum()
    )
    assert sft_term(current, reference, prompt) == pytest.approx(manual, abs=1e-12)


def test_sft_term_rises_when_label_is_boosted():
    rng = np.random.default_rng(7)
    current = make_policy(rng)
    reference = current
    prompt = PromptSpec(0, (1, 1, 1, 1), "A")
    boosted = current.logits.copy()
    boosted[0, :, 1] += 2.0
    assert sft_term(PolicyParams(boosted), reference, prompt) > 0.0


# --- sampling -------------------------------------------------------------------------

def test_sample_group_deterministic_and_consistent():
    rng_a = np.random.default_rng(9)
    rng_b = np.random.default_rng(9)
    policy = make_policy(rng_a)
    policy_b = PolicyParams(policy.logits.copy())
    hp = Hyperparams(group_size=6)
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
    # Without a generator, one seeded from the hyperparameters.
    unseeded = sample_group(policy, prompt, hp)
    seeded = sample_group(policy, prompt, hp, np.random.default_rng(hp.seed))
    assert np.array_equal(unseeded.outputs, seeded.outputs)
    assert np.array_equal(unseeded.old_logprobs, seeded.old_logprobs)


def test_sample_group_matches_distribution():
    # a heavily skewed single position should sample mostly its mode
    logits = np.zeros((1, 1, 3))
    logits[0, 0] = [5.0, 0.0, 0.0]
    policy = PolicyParams(logits)
    hp = Hyperparams(group_size=16)
    counts = np.zeros(3)
    for seed in range(30):
        group = sample_group(policy, PromptSpec(0, (0,), "A"), hp, np.random.default_rng(seed))
        for token in group.outputs.ravel():
            counts[token] += 1
    assert counts[0] / counts.sum() > 0.9


def test_a_draw_just_below_one_samples_the_last_token():
    # The largest draw below 1.0 passes every cumulative probability but the
    # last, which is 1.0 itself, so the sampled id is V - 1 and never V.
    class Highest:
        def random(self, shape):
            return np.full(shape, np.nextafter(1.0, 0.0))

    vocab = 7
    policy = PolicyParams(np.zeros((1, 3, vocab)))
    group = sample_group(policy, PromptSpec(0, (0,) * 3, "A"), Hyperparams(group_size=4), Highest())
    assert np.array_equal(group.outputs, np.full((4, 3), vocab - 1))
    assert np.array_equal(group.old_logprobs, np.broadcast_to(policy.log_probs(0)[:, vocab - 1], (4, 3)))


def test_sample_group_rejects_bad_rewards():
    rng = np.random.default_rng(10)
    policy = make_policy(rng)
    hp = Hyperparams(group_size=4)
    group = sample_group(policy, PromptSpec(0, (0,) * 4, "A"), hp, rng)
    with pytest.raises(ValueError):
        replace(group, rewards=np.array([0.5, 1.5, 0.0, 0.0]))
    with pytest.raises(ValueError):
        replace(group, rewards=np.array([0.5, 0.5]))


def test_sample_group_refuses_a_nan_reward():
    rng = np.random.default_rng(10)
    group = sample_group(make_policy(rng), PromptSpec(0, (0,) * 4, "A"), Hyperparams(group_size=2), rng)
    with pytest.raises(ValueError, match=r"^rewards must lie in \[0, 1\]$"):
        replace(group, rewards=np.array([math.nan, 0.5]))
    with pytest.raises(ValueError, match=r"^rewards must lie in \[0, 1\]$"):
        SampleGroup(group.outputs[None], group.old_logprobs[None], np.array([[0.5, math.nan]]))


# --- objective --------------------------------------------------------------------------

def test_objective_requires_advantages():
    rng = np.random.default_rng(12)
    current = make_policy(rng)
    hp = Hyperparams(group_size=4)
    prompt = PromptSpec(0, (0,) * 4, "A")
    group = sample_group(current, prompt, hp, rng)
    with pytest.raises(ValueError):
        sgrpo_objective(current, current, prompt, group, hp)


def test_objective_composition():
    rng = np.random.default_rng(13)
    current = make_policy(rng)
    old = make_policy(rng)
    reference = make_policy(rng)
    hp = Hyperparams(group_size=4)
    prompt = PromptSpec(1, (0, 1, 2, 3), "A")
    group = make_group(rng, old, prompt, hp)
    parts = sgrpo_objective(current, reference, prompt, group, hp)
    assert parts.total == pytest.approx(
        parts.surrogate + hp.sft_weight * parts.sft - hp.kl_beta * parts.kl, abs=1e-12
    )
    assert parts.kl >= 0.0


def test_objective_surrogate_is_clipped():
    # boosting token 0 sends sample 0's ratio far above 1+eps and sample 1's
    # far below 1-eps, so with eps = CLIP_EPSILON = 0.2 the surrogate is
    # exactly (1.2*adv0 + 0.8*adv1)/2
    hp = Hyperparams(group_size=2)
    old = PolicyParams(np.zeros((1, 2, 3)))
    current = PolicyParams(old.logits + np.array([8.0, 0.0, 0.0]))
    reference = old
    prompt = PromptSpec(0, (0, 0), "A")
    outputs = np.array([[0, 0], [1, 1]])
    positions = np.arange(2)
    old_lp = old.log_probs(0)[positions[None, :], outputs]
    rewards = np.array([1.0, 0.0])
    group = SampleGroup(outputs, old_lp, rewards, group_advantages(rewards))
    parts = sgrpo_objective(current, reference, prompt, group, hp)
    adv = group.advantages
    assert adv == pytest.approx([1.0, -1.0])
    assert parts.surrogate == pytest.approx((1.2 * adv[0] + 0.8 * adv[1]) / 2, abs=1e-9)


def test_objective_min_form_lower_or_equal():
    rng = np.random.default_rng(14)
    for _ in range(20):
        current = make_policy(rng)
        old = make_policy(rng)
        reference = make_policy(rng)
        hp = Hyperparams(group_size=4)
        prompt = PromptSpec(0, (0, 1, 2, 3), "A")
        group = make_group(rng, old, prompt, hp)
        plain = sgrpo_objective(current, reference, prompt, group, hp)
        minned = sgrpo_objective(current, reference, prompt, group, replace(hp, use_ppo_min=True))
        assert minned.surrogate <= plain.surrogate + 1e-12


# --- gradient ---------------------------------------------------------------------------

def central_difference(current, reference, prompt, group, hp, step=1e-5):
    grad = np.zeros_like(current.logits)
    for index in np.ndindex(*current.logits.shape):
        plus = current.logits.copy()
        plus[index] += step
        minus = current.logits.copy()
        minus[index] -= step
        f_plus = sgrpo_objective(PolicyParams(plus), reference, prompt, group, hp).total
        f_minus = sgrpo_objective(PolicyParams(minus), reference, prompt, group, hp).total
        grad[index] = (f_plus - f_minus) / (2 * step)
    return grad


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(15)
    hp = Hyperparams(group_size=3)
    current = make_policy(rng, prompts=2, length=3, vocab=4)
    old = make_policy(rng, prompts=2, length=3, vocab=4)
    reference = make_policy(rng, prompts=2, length=3, vocab=4)
    prompt = PromptSpec(0, (1, 2, 0), "A")
    group = make_group(rng, old, prompt, hp)
    analytic = objective_gradient(current, reference, prompt, group, hp)
    numeric = central_difference(current, reference, prompt, group, hp)
    scale = max(np.abs(numeric).max(), 1e-12)
    assert np.abs(analytic - numeric).max() / scale < 1e-6


def test_gradient_zero_outside_prompt_slice():
    rng = np.random.default_rng(16)
    hp = Hyperparams(group_size=3)
    current = make_policy(rng, prompts=3, length=3, vocab=4)
    old = make_policy(rng, prompts=3, length=3, vocab=4)
    reference = make_policy(rng, prompts=3, length=3, vocab=4)
    prompt = PromptSpec(1, (0, 1, 2), "A")
    group = make_group(rng, old, prompt, hp)
    grad = objective_gradient(current, reference, prompt, group, hp)
    assert np.all(grad[0] == 0.0) and np.all(grad[2] == 0.0)
    assert np.any(grad[1] != 0.0)


def test_gradient_requires_advantages():
    rng = np.random.default_rng(17)
    current = make_policy(rng)
    hp = Hyperparams(group_size=4)
    prompt = PromptSpec(0, (0,) * 4, "A")
    group = sample_group(current, prompt, hp, rng)
    with pytest.raises(ValueError):
        objective_gradient(current, current, prompt, group, hp)


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2 ** 32 - 1),
    G=st.integers(2, 9),
    T=st.integers(1, 6),
    V=st.integers(2, 6),
    drift=st.sampled_from([0.0, 0.05, 0.5, 3.0]),
    use_ppo_min=st.booleans(),
    kl_beta=st.sampled_from([0.0, 0.04, 0.9]),
    sft_weight=st.sampled_from([0.0, 1.0, 0.3]),
    equal_rewards=st.booleans(),
)
def test_group_pass_equals_the_per_sample_reference(
    seed, G, T, V, drift, use_ppo_min, kl_beta, sft_weight, equal_rewards
):
    # drift 0 keeps every ratio at 1 (unclipped); larger drifts clip more
    rng = np.random.default_rng(seed)
    hp = Hyperparams(group_size=G, kl_beta=kl_beta, sft_weight=sft_weight, use_ppo_min=use_ppo_min)
    old = make_policy(rng, prompts=2, length=T, vocab=V)
    current = PolicyParams(old.logits + drift * rng.normal(size=old.logits.shape))
    reference = make_policy(rng, prompts=2, length=T, vocab=V)
    label = tuple(int(v) for v in rng.integers(0, V, int(rng.integers(1, T + 1))))
    prompt = PromptSpec(int(rng.integers(0, 2)), label, "A")
    group = sample_group(old, prompt, hp, rng)
    rewards = np.full(G, 0.5) if equal_rewards else rng.random(G)
    group = replace(group, rewards=rewards, advantages=group_advantages(rewards))

    parts = sgrpo_objective(current, reference, prompt, group, hp)
    want = per_sample_objective(current, reference, prompt, group, hp)
    assert (parts.total, parts.surrogate, parts.sft, parts.kl) == (want.total, want.surrogate, want.sft, want.kl)
    grad = objective_gradient(current, reference, prompt, group, hp)
    assert grad.shape == current.logits.shape
    assert np.array_equal(grad, per_sample_gradient(current, reference, prompt, group, hp))


# --- policy container ----------------------------------------------------------------------

def test_log_probs_normalized():
    rng = np.random.default_rng(18)
    policy = make_policy(rng, scale=6.0)
    for pid in range(2):
        sums = np.exp(policy.log_probs(pid)).sum(axis=-1)
        assert np.allclose(sums, 1.0)


@pytest.mark.parametrize("field", ["learning_rate", "kl_beta", "sft_weight"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_hyperparams_reject_non_finite_values(field, value):
    with pytest.raises(ValueError) as raised:
        Hyperparams(**{field: value})
    assert str(raised.value) == f"{field} must be finite, not {value}"


def test_every_trainer_setting_is_set_by_a_caller():
    # The CLI sets group_size, learning_rate and seed, and the objective's
    # ablations set kl_beta, sft_weight and use_ppo_min; a setting that no
    # caller sets is a constant (CLIP_EPSILON, STD_EPSILON, SEQUENCE_LENGTH).
    hyperparams = [field.name for field in dataclasses.fields(Hyperparams)]
    assert hyperparams == ["group_size", "kl_beta", "sft_weight", "learning_rate", "seed", "use_ppo_min"]
    demo = [field.name for field in dataclasses.fields(TrainDemoConfig)]
    assert demo == ["vocab", "references", "iterations", "hp"]


def test_policy_validation():
    with pytest.raises(ValueError):
        PolicyParams(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        PolicyParams(np.full((1, 1, 2), np.inf))


def test_hyperparams_validation():
    with pytest.raises(ValueError):
        Hyperparams(group_size=1)
    with pytest.raises(ValueError, match="group_size must be at most 1024"):
        Hyperparams(group_size=1025)
    assert Hyperparams(group_size=1024).group_size == 1024
    with pytest.raises(ValueError):
        Hyperparams(kl_beta=-0.1)
    with pytest.raises(ValueError, match="seed must be non-negative"):
        Hyperparams(seed=-1)
    with pytest.raises(ValueError, match="^learning_rate must be non-negative, not -1e\\+308$"):
        Hyperparams(learning_rate=-1e308)


# --- demo loop -------------------------------------------------------------------------------

def test_default_demo_config_is_well_formed():
    config = default_demo_config()
    assert len(config.vocab) <= 16
    for reference in config.references:
        assert len(reference.split()) == SEQUENCE_LENGTH
        parse(reference)  # references must be valid formulas
        assert le_score(reference, reference).score == 1.0


def test_demo_config_validation():
    base = default_demo_config()
    with pytest.raises(ValueError):
        type(base)(vocab=("a",) * 17, references=base.references, hp=base.hp)
    with pytest.raises(ValueError, match="^vocab tokens must be distinct$"):
        type(base)(vocab=base.vocab + base.vocab[:1], references=base.references, hp=base.hp)
    with pytest.raises(ValueError, match="^at least one reference formula is required$"):
        type(base)(vocab=base.vocab, references=(), hp=base.hp)
    with pytest.raises(ValueError, match="^iterations must be positive$"):
        replace(base, iterations=0)
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


@pytest.mark.parametrize(
    "prompts, group_size, use_ppo_min, kl_beta, sft_weight, learning_rate, seed",
    [
        (1, 8, False, 0.04, 1.0, 0.5, 0),
        (2, 5, True, 0.04, 1.0, 0.5, 1),
        (4, 3, False, 0.0, 1.0, 0.5, 2),
        (4, 8, True, 0.9, 0.3, 1.3, 3),
        (2, 2, False, 0.04, 0.0, 0.5, 4),
        (1, 5, True, 0.0, 0.3, 1.3, 5),
        (4, 2, True, 0.04, 1.0, 0.5, 6),
        (2, 7, False, 0.9, 1.0, 1.3, 7),
    ],
)
def test_train_demo_equals_the_per_prompt_reference(
    prompts, group_size, use_ppo_min, kl_beta, sft_weight, learning_rate, seed
):
    base = default_demo_config(iterations=30, learning_rate=learning_rate, seed=seed)
    references = base.references + ("( Q ( x ) ∨ ¬ R ( x ) )",)
    hp = replace(base.hp, group_size=group_size, use_ppo_min=use_ppo_min, kl_beta=kl_beta, sft_weight=sft_weight)
    config = replace(base, references=references[:prompts], hp=hp)
    trace = train_demo(config)
    assert json.dumps(trace) == json.dumps(per_prompt_train_demo(config))
    # GRPO alone never leaves reward 0 from the uniform start; with the label
    # term some groups must mix rewards, so advantages are exercised
    assert any(record["reward_std"] > 0.0 for record in trace) == (sft_weight > 0.0)


def test_train_demo_compiles_each_reference_once_and_scores_each_text_once(monkeypatch):
    compiled = []
    real_compile = foleq.equivalence.compile_reference

    def counting_compile(text):
        compiled.append(text)
        return real_compile(text)

    scored = []
    real_score = foleq.equivalence._score_tokens

    def counting_score(tokens, ref, mode, config, rows=None):
        scored.append((id(ref), tuple(tokens)))
        return real_score(tokens, ref, mode, config, rows)

    requested = set()
    real_call = Scorer.__call__

    def recording_call(self, predictions):
        predictions = list(predictions)
        requested.update((id(self.reference), prediction) for prediction in predictions)
        return real_call(self, predictions)

    monkeypatch.setattr(foleq.equivalence, "compile_reference", counting_compile)
    monkeypatch.setattr(foleq.equivalence, "_score_tokens", counting_score)
    monkeypatch.setattr(Scorer, "__call__", recording_call)
    config = default_demo_config(iterations=30, seed=0)
    train_demo(config)
    assert sorted(compiled) == sorted(config.references)
    assert len(scored) == len(set(scored))
    # each distinct (prompt, id tuple) reaches the token entry once, with
    # the tokens of its joined text (distinct here, as every word is one
    # distinct token)
    joined = {(ref, tuple(lex(" ".join(config.vocab[i] for i in ids)))) for ref, ids in requested}
    assert len(joined) == len(requested)
    assert set(scored) == joined


def test_train_demo_trace_is_pinned_with_a_one_entry_reward_memo(monkeypatch):
    # memos emptied every group: each lookup must still find what it scored
    monkeypatch.setattr(foleq.equivalence, "_MEMO_LIMIT", 1)
    trace = train_demo(default_demo_config(iterations=30, seed=0))
    assert [record["mean_reward"] for record in trace] == PINNED_MEAN_REWARDS
    assert hashlib.sha256(json.dumps(trace).encode()).hexdigest() == PINNED_TRACE_SHA256


def _rewards(scorer, samples):
    """The trainer's rewards for ``samples`` (lists of ids): each result's
    score, or 0.0 for a ``FormulaError``."""
    return [result.score if isinstance(result, LeReport) else 0.0 for result in scorer(map(tuple, samples))]


def test_rewards_are_zero_for_a_failed_text_or_reference():
    tokens = word_lexer(("A", "((", "¬" * 600 + "A", "B"))
    assert _rewards(Scorer("A", tokens=tokens), [[0], [1], [2]]) == [1.0, 0.0, 0.0]
    for deep in ("(" * 600 + "A" + ")" * 600, " → ".join(["A"] * 1200)):
        scorer = Scorer(deep, tokens=tokens)
        assert isinstance(scorer.reference, FormulaError)
        assert _rewards(scorer, [[0], [3]]) == [0.0, 0.0]


def test_train_demo_with_a_failing_reference_equals_the_per_prompt_reference():
    # every sample of the unparseable prompt earns 0; the other prompt trains
    config = replace(default_demo_config(iterations=20), references=("( P ( x ) → ¬ Q ( x ) )", " ".join("(" * 12)))
    trace = train_demo(config)
    assert json.dumps(trace) == json.dumps(per_prompt_train_demo(config))
    assert trace[0]["mean_reward"] == 0.0


# Vocabulary words: atoms of several tokens, ASCII spellings, words that
# would merge with a neighbour but for the joining space, empty and
# whitespace-only words, and words holding a character that starts no token.
_WORDS = st.one_of(
    st.sampled_from([
        "P(x)", "Q(x, y)", "P", "Q", "x", "x1", "y", "(", ")", ",", "->", "<->", "<-", ">",
        "forall", "exists", "∀", "∃x", "¬", "~", "∧", "&", "∨", "|", "→", "↔", "⊕", "^",
        "", " ", "\t", "  P ", "$", "-", "1P", "P$", "x_1",
    ]),
    st.text(alphabet="PQxy1_ ()<->,$¬∧∀\t", max_size=6),
)
_VOCABS = st.lists(_WORDS, min_size=1, max_size=16, unique=True)


def _lexed(tokens, *args):
    """The tokens, or the type, text and offset of the LexError raised."""
    try:
        return tokens(*args)
    except LexError as error:
        return type(error), str(error), error.position


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_word_tokens_equal_the_tokens_of_the_joined_text(data):
    words = data.draw(_VOCABS)
    tokens = word_lexer(words)
    sequences = data.draw(st.lists(st.lists(st.integers(0, len(words) - 1), max_size=14), max_size=8))
    for ids in sequences:
        assert _lexed(tokens, ids) == _lexed(lex, " ".join(words[i] for i in ids))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_rewards_from_ids_equal_a_fresh_scorer_on_the_joined_texts(data):
    words = data.draw(_VOCABS)
    samples = st.lists(st.integers(0, len(words) - 1), max_size=12)
    reference = data.draw(
        st.sampled_from(["P(x) -> Q(x, y)", "∀x (P(x) ∧ Q(x, y))", "P ∧ x1", "A", "(("])
        | samples.map(lambda ids: " ".join(words[i] for i in ids))
    )
    tokens = word_lexer(words)
    by_ids, by_text = Scorer(reference, tokens=tokens), Scorer(reference)
    for group in data.draw(st.lists(st.lists(samples, min_size=1, max_size=6), max_size=3)):
        texts = [" ".join(words[i] for i in ids) for ids in group]
        results = Scorer(reference)(texts)
        expected = [0.0 if isinstance(result, FormulaError) else result.score for result in results]
        # result for result: the same report, or the same error, a failing
        # reference's included
        from_ids = [scored_result(r) for r in by_ids([tuple(ids) for ids in group])]
        assert from_ids == [scored_result(r) for r in by_text(texts)] == [scored_result(r) for r in results]
        assert _rewards(by_ids, group) == expected


def test_train_demo_equals_the_per_prompt_reference_over_words_of_any_shape():
    # a word of several tokens, an ASCII connective and a word that does not
    # lex: the id path must give the text path's trace
    vocab = ("(", ")", "P(x)", "Q", "R", "x", "¬", "∧", "->", "y", "$")
    references = ("P(x) -> ¬ Q ( x ) ∧ R ( y )", "( P(x) ∧ ¬ R ( x ) ) -> ¬ P(x)")
    hp = Hyperparams(group_size=6, seed=3)
    config = TrainDemoConfig(vocab=vocab, references=references, iterations=30, hp=hp)
    trace = train_demo(config)
    assert json.dumps(trace) == json.dumps(per_prompt_train_demo(config))
    assert any(record["mean_reward"] > 0.0 for record in trace)


def test_write_trace_round_trips(tmp_path):
    config = default_demo_config(iterations=2, learning_rate=0.1, seed=1)
    trace = train_demo(config)
    path = tmp_path / "trace.jsonl"
    write_trace(trace, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert [json.loads(line) for line in lines] == trace
