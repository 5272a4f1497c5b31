"""Desk-scale supervised GRPO on a tabular softmax policy.

The policy holds one independent categorical distribution per (prompt,
position) over a small vocabulary of formula tokens, so sequences are
sampled position by position without autoregressive conditioning.  Each
training step samples a group of G sequences per prompt from the current
policy, with no frozen snapshot, scores them with the equivalence engine
(rewards in [0, 1]), normalizes rewards into group-relative advantages,
and ascends

    (1/G) sum_i [ clip(ratio_i, 1-eps, 1+eps) * adv_i
                  + sft_weight * sft - kl_beta * kl_i ]

where eps is ``CLIP_EPSILON``, ratio_i is the sequence-level product of
per-token probability ratios against the sampling log-probs
(``SampleGroup.old_logprobs``), sft is the supervised log-ratio of the
label sequence against the frozen reference policy, and kl_i is the
per-token r - log r - 1 estimate against the reference averaged over
positions.  The clip term is used as written (no pairwise min with the
unclipped term); ``use_ppo_min=True`` restores the conventional min form.

A demo iteration is one step over every prompt at once, on arrays shaped
(prompts, group, positions, vocab): one log-softmax and one ``exp`` serve
the sampling, the sampling log-probs and the objective, since the policy
moves once per iteration.  Only the reward lookups run per prompt, each
prompt's through its own ``equivalence.Scorer`` (optimized mode, default
config), which is keyed by the sampled id tuples and lexes them with a
``syntax.word_lexer``, so no text is joined or lexed.  A reward is the
report's score, or 0.0 where the Scorer gives a ``FormulaError``: for a
sequence that fails to lex or parse or passes a cap, or for every sequence
of a prompt whose reference does.
What no iteration changes is built once per call: the index grids, the
labels' log-probs under the frozen reference policy and the supervised
gradient's label one-hot.  Every reduction is a direct ufunc call that
repeats numpy's own float steps (a mean is ``np.add.reduce`` over the axis
divided by its length, a standard deviation the square root of the mean
squared deviation from that mean, as ``ndarray.std`` computes it), so a
demo trace stays bit-identical to stepping one prompt at a time.
``sample_group``, ``sgrpo_objective``, ``objective_gradient`` and
``group_advantages`` are the one-prompt case of the same code.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .corpus import open_text
from .equivalence import LeReport, Scorer
from .equivalence import le_score  # noqa: F401  (foleq.sgrpo.le_score stays importable; perfbench wraps it)
from .syntax import word_lexer

# The half-width of the clip interval around a ratio of 1.
CLIP_EPSILON = 0.2

# The floor under a group's reward standard deviation in its advantages.
STD_EPSILON = 1e-8

# The tokens of every demo reference, and so of every sequence the demo
# samples (a sequence has one token per position of the policy).
SEQUENCE_LENGTH = 12

# A demo step holds about prompts * 2 * group_size * SEQUENCE_LENGTH * vocab
# floats (the gradient's stacked per-sample terms): 3 MiB per prompt at
# 1024 samples, 12 positions and 16 tokens.
MAX_GROUP_SIZE = 1024


@dataclass(frozen=True)
class Hyperparams:
    group_size: int = 8
    kl_beta: float = 0.04
    sft_weight: float = 1.0
    learning_rate: float = 0.5
    seed: int = 0
    use_ppo_min: bool = False

    def __post_init__(self):
        for name in ("learning_rate", "kl_beta", "sft_weight"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, not {value}")
        if self.group_size < 2:
            raise ValueError("group_size must be at least 2")
        if self.group_size > MAX_GROUP_SIZE:
            raise ValueError(f"group_size must be at most {MAX_GROUP_SIZE}")
        if self.kl_beta < 0 or self.sft_weight < 0:
            raise ValueError("kl_beta and sft_weight must be non-negative")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


@dataclass(frozen=True)
class PromptSpec:
    prompt_id: int
    label: tuple[int, ...]
    reference_formula: str


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    """Log-softmax over the last (vocab) axis."""
    z = logits - np.maximum.reduce(logits, axis=-1, keepdims=True)
    return z - np.log(np.add.reduce(np.exp(z), axis=-1, keepdims=True))


@dataclass(frozen=True, eq=False)
class PolicyParams:
    """Logits shaped (num_prompts, positions, vocab_size)."""

    logits: np.ndarray

    def __post_init__(self):
        if self.logits.ndim != 3:
            raise ValueError("logits must be (prompts, positions, vocab)")
        if not np.isfinite(self.logits).all():
            raise ValueError("logits must be finite")

    def log_probs(self, prompt_id: int) -> np.ndarray:
        """Per-position log-softmax, shape (positions, vocab)."""
        return _log_softmax(self.logits[prompt_id])


@dataclass(frozen=True, eq=False)
class SampleGroup:
    """Sampled sequences: one group shaped (G, T), or one group per prompt
    shaped (P, G, T).  Rewards and advantages, one per sequence, are
    attached later via :func:`dataclasses.replace`, which re-runs
    validation."""

    outputs: np.ndarray  # (..., G, T) token ids
    old_logprobs: np.ndarray  # (..., G, T) log-probs under the sampling policy
    rewards: np.ndarray | None = None  # (..., G) in [0, 1]
    advantages: np.ndarray | None = None  # (..., G)

    def __post_init__(self):
        if self.rewards is not None:
            if self.rewards.shape != self.outputs.shape[:-1]:
                raise ValueError("rewards must have one entry per sampled sequence")
            # every comparison with NaN is false, so a NaN reward fails this
            if not ((0.0 <= self.rewards) & (self.rewards <= 1.0)).all():
                raise ValueError("rewards must lie in [0, 1]")


class _Grids(NamedTuple):
    """Index arrays that pick entry [p, g, t] of a (P, G, T) draw out of a
    (P, ..., T, V) array, and the draw's shape."""

    prompts: np.ndarray  # (P, 1, 1)
    samples: np.ndarray  # (G, 1)
    positions: np.ndarray  # (T,)
    shape: tuple[int, int, int]


def _grids(P: int, G: int, T: int) -> _Grids:
    return _Grids(np.arange(P)[:, None, None], np.arange(G)[:, None], np.arange(T), (P, G, T))


def _sample(
    logp: np.ndarray, probs: np.ndarray, grids: _Grids, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """G sequences per prompt from the policy whose (P, T, V) log-softmax
    is ``logp`` and softmax ``probs``, with one (P, G, T) draw: the token
    ids and their log-probs, both (P, G, T)."""
    # Draws lie in [0, 1) and the last cumulative probability is 1, so no
    # count of the cumulative probabilities at or below a draw reaches V.
    cumulative = np.add.accumulate(probs, axis=-1)
    cumulative[..., -1] = 1.0
    draws = rng.random(grids.shape)
    outputs = np.add.reduce(draws[..., None] >= cumulative[:, None], axis=-1)
    return outputs, logp[grids.prompts, grids.positions, outputs]


def sample_group(
    policy: PolicyParams,
    prompt: PromptSpec,
    hp: Hyperparams,
    rng: np.random.Generator | None = None,
) -> SampleGroup:
    """Sample ``hp.group_size`` sequences, one token per position of the
    policy, with their log-probs under it.  Deterministic for a fixed
    generator state."""
    if rng is None:
        rng = np.random.default_rng(hp.seed)
    logp = policy.log_probs(prompt.prompt_id)[None]
    grids = _grids(1, hp.group_size, logp.shape[1])
    outputs, old_logprobs = _sample(logp, np.exp(logp), grids, rng)
    return SampleGroup(outputs=outputs[0], old_logprobs=old_logprobs[0])


def group_advantages(rewards: np.ndarray) -> np.ndarray:
    """Group-relative advantages, one group per row of the last axis: center
    by the group mean and divide by the population standard deviation
    (floored at ``STD_EPSILON``).  An all-equal group yields all-zero
    advantages."""
    rewards = np.asarray(rewards, dtype=float)
    G = rewards.shape[-1]
    centered = rewards - np.add.reduce(rewards, axis=-1, keepdims=True) / G
    # the population standard deviation, in the steps of ndarray.std
    scale = np.maximum(np.sqrt(np.add.reduce(centered * centered, axis=-1, keepdims=True) / G), STD_EPSILON)
    # summing identical floats can round, leaving a spurious residue after centering
    equal = np.logical_and.reduce(rewards == rewards[..., :1], axis=-1, keepdims=True)
    return np.where(equal, 0.0, centered / scale)


def kl_estimate(
    current: PolicyParams,
    reference: PolicyParams,
    output: np.ndarray,
    prompt: PromptSpec,
) -> float:
    """Per-token KL estimate r - log r - 1 with r = pi_ref/pi_current at the
    sampled token, averaged over positions.  Non-negative."""
    positions = np.arange(len(output))
    lp_cur = current.log_probs(prompt.prompt_id)[positions, output]
    lp_ref = reference.log_probs(prompt.prompt_id)[positions, output]
    log_r = lp_ref - lp_cur
    return float(np.mean(np.exp(log_r) - log_r - 1.0))


def sft_term(current: PolicyParams, reference: PolicyParams, prompt: PromptSpec) -> float:
    """Sequence log-ratio of the label under the current vs reference policy:
    sum_t log pi_current(y_t) - log pi_ref(y_t)."""
    label = np.asarray(prompt.label)
    positions = np.arange(len(label))
    lp_cur = current.log_probs(prompt.prompt_id)[positions, label]
    lp_ref = reference.log_probs(prompt.prompt_id)[positions, label]
    return float(np.sum(lp_cur - lp_ref))


@dataclass(frozen=True, eq=False)
class ObjectiveParts:
    total: float
    surrogate: float
    sft: float
    kl: float


@dataclass(frozen=True, eq=False)
class _Frozen:
    """What no step of a call changes, since the reference policy and the
    labels are fixed: the index grids of the draws, the reference
    log-softmax, the labels with their index grids and reference log-probs,
    and the supervised gradient's label one-hot."""

    grids: _Grids
    ref_logp: np.ndarray  # (P, T, V)
    labels: np.ndarray  # (P, L)
    label_prompts: np.ndarray  # (P, 1)
    label_positions: np.ndarray  # (L,)
    ref_label_logp: np.ndarray  # (P, L)
    label_onehot: np.ndarray  # (P, T, V), 1.0 at each label token


def _frozen(ref_logp: np.ndarray, labels: np.ndarray, shape: tuple[int, int, int]) -> _Frozen:
    """The frozen arrays of steps over (P, G, T) draws."""
    grids = _grids(*shape)
    label_prompts = grids.prompts[:, 0]
    label_positions = np.arange(labels.shape[-1])
    label_onehot = np.zeros_like(ref_logp)
    label_onehot[label_prompts, label_positions, labels] = 1.0
    ref_label_logp = ref_logp[label_prompts, label_positions, labels]
    return _Frozen(grids, ref_logp, labels, label_prompts, label_positions, ref_label_logp, label_onehot)


def _objective_and_gradient(
    logp: np.ndarray,
    probs: np.ndarray,
    frozen: _Frozen,
    group: SampleGroup,
    hp: Hyperparams,
) -> tuple[np.ndarray, np.ndarray]:
    """The objective parts of every prompt's group and their analytic
    gradient in the logits, vectorized over the P prompts and G samples.
    ``logp`` is the current log-softmax and ``probs`` its ``exp``, each
    (P, T, V), and ``group`` holds (P, G, T) samples with their advantages.
    Returns the parts as (P, 4) rows of (total, surrogate, sft, kl) and the
    (P, T, V) gradient.

    The gradient adds each prompt's per-sample terms in the order a
    per-sample loop would (surrogate term i, then minus KL term i), so it is
    bit-identical to one."""
    adv = group.advantages
    outputs = group.outputs
    grids = frozen.grids
    P, G, T = grids.shape
    lp_cur = logp[grids.prompts, grids.positions, outputs]  # (P, G, T)
    lp_ref = frozen.ref_logp[grids.prompts, grids.positions, outputs]
    ratios = np.exp(np.add.reduce(lp_cur - group.old_logprobs, axis=-1))  # (P, G)
    low, high = 1.0 - CLIP_EPSILON, 1.0 + CLIP_EPSILON
    clipped = np.minimum(np.maximum(ratios, low), high)
    not_clipped = (low < ratios) & (ratios < high)
    if hp.use_ppo_min:
        unclipped_terms, clipped_terms = ratios * adv, clipped * adv
        surrogate_terms = np.minimum(unclipped_terms, clipped_terms)
        # the gradient follows whichever branch the min selects; ties take
        # the unclipped branch
        active = (unclipped_terms <= clipped_terms) | not_clipped
    else:
        surrogate_terms = clipped * adv
        active = not_clipped
    log_r = lp_ref - lp_cur
    r = np.exp(log_r)
    kl = np.add.reduce(np.add.reduce(r - log_r - 1.0, axis=-1) / T, axis=-1) / G
    label_logp = logp[frozen.label_prompts, frozen.label_positions, frozen.labels]
    sft = np.add.reduce(label_logp - frozen.ref_label_logp, axis=-1)
    surrogate = np.add.reduce(surrogate_terms, axis=-1) / G
    parts = np.empty((P, 4))
    parts[:, 0] = surrogate + hp.sft_weight * sft - hp.kl_beta * kl
    parts[:, 1] = surrogate
    parts[:, 2] = sft
    parts[:, 3] = kl

    # d log pi(o_t) / d z[t, v] = onehot(o_t) - p[t]
    onehot = np.zeros((P, G) + probs.shape[1:])
    onehot[grids.prompts, grids.samples, grids.positions, outputs] = 1.0
    d_logp = onehot - probs[:, None]
    coeff = np.where(active, adv * ratios, 0.0)
    surrogate_grads = (coeff / G)[..., None, None] * d_logp
    if hp.kl_beta != 0.0:
        # d (r - log r - 1)/T d z[t, v] = (1 - r_t)(onehot - p)/T
        kl_grads = (hp.kl_beta / G) * (((1.0 - r)[..., None] * d_logp) / T)
        terms = np.empty((P, 2 * G) + probs.shape[1:])
        terms[:, 0::2] = surrogate_grads
        terms[:, 1::2] = -kl_grads
    else:
        terms = surrogate_grads
    # a sum over an outer axis adds its slices in order
    grad = np.add.reduce(terms, axis=1)
    if hp.sft_weight != 0.0:
        L = len(frozen.label_positions)
        sft_grad = frozen.label_onehot.copy()
        sft_grad[:, :L] -= probs[:, :L]
        grad += hp.sft_weight * sft_grad
    return parts, grad


def _one_prompt(
    current: PolicyParams,
    reference: PolicyParams,
    prompt: PromptSpec,
    group: SampleGroup,
    hp: Hyperparams,
) -> tuple[ObjectiveParts, np.ndarray]:
    """``_objective_and_gradient`` for one prompt's (G, T) group: its parts
    and its (T, V) gradient slice."""
    if group.advantages is None:
        raise ValueError("group advantages must be populated before the objective")
    pid = prompt.prompt_id
    logp = current.log_probs(pid)[None]
    batch = SampleGroup(group.outputs[None], group.old_logprobs[None], advantages=group.advantages[None])
    frozen = _frozen(reference.log_probs(pid)[None], np.array([prompt.label]), batch.outputs.shape)
    parts, grad = _objective_and_gradient(logp, np.exp(logp), frozen, batch, hp)
    return ObjectiveParts(*map(float, parts[0])), grad[0]


def sgrpo_objective(
    current: PolicyParams,
    reference: PolicyParams,
    prompt: PromptSpec,
    group: SampleGroup,
    hp: Hyperparams,
) -> ObjectiveParts:
    """Objective for one group, with the surrogate, supervised, and KL terms
    exposed separately for logging."""
    return _one_prompt(current, reference, prompt, group, hp)[0]


def objective_gradient(
    current: PolicyParams,
    reference: PolicyParams,
    prompt: PromptSpec,
    group: SampleGroup,
    hp: Hyperparams,
) -> np.ndarray:
    """Analytic gradient of the objective in ``current.logits``, same shape
    as the logits tensor (zero outside this prompt's slice)."""
    grad = np.zeros_like(current.logits)
    _, grad[prompt.prompt_id] = _one_prompt(current, reference, prompt, group, hp)
    return grad


# --- demo training loop ------------------------------------------------------


@dataclass(frozen=True)
class TrainDemoConfig:
    vocab: tuple[str, ...]
    references: tuple[str, ...]
    iterations: int = 500
    hp: Hyperparams = Hyperparams()

    def __post_init__(self):
        if not self.vocab or len(self.vocab) > 16:
            raise ValueError("vocab must hold between 1 and 16 tokens")
        if len(set(self.vocab)) != len(self.vocab):
            raise ValueError("vocab tokens must be distinct")
        if not self.references:
            raise ValueError("at least one reference formula is required")
        if self.iterations < 1:
            raise ValueError("iterations must be positive")

    def prompts(self) -> list[PromptSpec]:
        index = {token: i for i, token in enumerate(self.vocab)}
        prompts = []
        for pid, reference in enumerate(self.references):
            words = reference.split()
            missing = [w for w in words if w not in index]
            if missing:
                raise ValueError(f"reference tokens not in vocab: {missing}")
            if len(words) != SEQUENCE_LENGTH:
                # sampled sequences always have SEQUENCE_LENGTH tokens, so a
                # shorter label would leave trailing positions untrained and
                # the extra tokens would break parsing
                raise ValueError(f"reference must be exactly {SEQUENCE_LENGTH} tokens: {reference!r}")
            prompts.append(PromptSpec(pid, tuple(index[w] for w in words), reference))
        return prompts


def default_demo_config(
    iterations: int = 500, learning_rate: float = 0.5, seed: int = 0
) -> TrainDemoConfig:
    """A small self-contained task: three implication/conjunction targets
    over a 12-token vocabulary, each reference exactly SEQUENCE_LENGTH tokens."""
    vocab = ("(", ")", "P", "Q", "R", "x", "¬", "∧", "∨", "→", "∀", "y")
    references = (
        "( P ( x ) → ¬ Q ( x ) )",
        "( P ( x ) ∧ ¬ R ( x ) )",
        "( ¬ P ( x ) ∨ Q ( x ) )",
    )
    hp = Hyperparams(learning_rate=learning_rate, seed=seed)
    return TrainDemoConfig(vocab=vocab, references=references, iterations=iterations, hp=hp)


def train_demo(config: TrainDemoConfig) -> list[dict]:
    """Run the demo loop and return one trace record per iteration with keys
    iter, mean_reward, reward_std, surrogate, sft, kl, objective.  Each
    iteration is one step over every prompt's group at once."""
    hp = config.hp
    prompts = config.prompts()
    rng = np.random.default_rng(hp.seed)
    labels = np.array([prompt.label for prompt in prompts])
    # One policy row per label position: the labels fix the sequence length.
    P, T = labels.shape
    current = PolicyParams(np.zeros((P, T, len(config.vocab))))
    # the reference policy is the starting one
    frozen = _frozen(_log_softmax(current.logits), labels, (P, hp.group_size, T))
    tokens = word_lexer(config.vocab)
    scorers = [Scorer(prompt.reference_formula, tokens=tokens) for prompt in prompts]
    trace: list[dict] = []

    for iteration in range(config.iterations):
        # The policy moves once per iteration, so the sampling policy is
        # the current one: one log-softmax serves every phase.
        logp = _log_softmax(current.logits)
        probs = np.exp(logp)
        outputs, old_logprobs = _sample(logp, probs, frozen.grids, rng)
        rewards = np.array([
            [result.score if isinstance(result, LeReport) else 0.0 for result in scorer(map(tuple, prompt_outputs))]
            for scorer, prompt_outputs in zip(scorers, outputs.tolist())
        ])
        group = SampleGroup(outputs, old_logprobs, rewards, group_advantages(rewards))
        parts, grad = _objective_and_gradient(logp, probs, frozen, group, hp)
        current = PolicyParams(current.logits + hp.learning_rate * grad)

        pooled = rewards.ravel()
        mean_reward = np.add.reduce(pooled) / pooled.size
        deviations = pooled - mean_reward
        # a running total over the prompts, in order, from 0.0
        mean_parts = np.add.reduce(parts, axis=0, initial=0.0) / len(prompts)
        trace.append(
            {
                "iter": iteration,
                "mean_reward": float(mean_reward),
                "reward_std": float(np.sqrt(np.add.reduce(deviations * deviations) / pooled.size)),
                "surrogate": float(mean_parts[1]),
                "sft": float(mean_parts[2]),
                "kl": float(mean_parts[3]),
                "objective": float(mean_parts[0]),
            }
        )
    return trace


def write_trace(trace: list[dict], path) -> None:
    with open_text(path, "w") as handle:
        for record in trace:
            handle.write(json.dumps(record) + "\n")
