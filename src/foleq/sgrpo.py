"""Desk-scale supervised GRPO on a tabular softmax policy.

The policy holds one independent categorical distribution per (prompt,
position) over a small vocabulary of formula tokens, so sequences are
sampled position by position without autoregressive conditioning.  Each
training step samples a group of G sequences from a frozen snapshot,
scores them with the equivalence engine (rewards in [0, 1]),
normalizes rewards into group-relative advantages, and ascends

    (1/G) sum_i [ clip(ratio_i, 1-eps, 1+eps) * adv_i
                  + sft_weight * sft - kl_beta * kl_i ]

where ratio_i is the sequence-level product of per-token probability
ratios against the snapshot, sft is the supervised log-ratio of the label
sequence against the frozen reference policy, and kl_i is the per-token
r - log r - 1 estimate against the reference averaged over positions.
The clip term is used as written (no pairwise min with the unclipped
term); ``use_ppo_min=True`` restores the conventional min form.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .equivalence import DEFAULT_LE, CompiledReference, LeConfig, compile_reference, score_group
from .equivalence import le_score  # noqa: F401  (foleq.sgrpo.le_score stays importable; perfbench wraps it)
from .syntax import FormulaError

ROLES = ("current", "old", "reference")


@dataclass(frozen=True)
class Hyperparams:
    group_size: int = 8
    clip_epsilon: float = 0.2
    kl_beta: float = 0.04
    sft_weight: float = 1.0
    std_epsilon: float = 1e-8
    learning_rate: float = 0.5
    max_length: int = 12
    seed: int = 0
    use_ppo_min: bool = False

    def __post_init__(self):
        rates = (self.learning_rate, self.kl_beta, self.sft_weight, self.clip_epsilon)
        if not all(map(math.isfinite, rates)):
            raise ValueError("learning_rate, kl_beta, sft_weight and clip_epsilon must be finite")
        if self.group_size < 2:
            raise ValueError("group_size must be at least 2")
        if not 0.0 < self.clip_epsilon < 1.0:
            raise ValueError("clip_epsilon must lie in (0, 1)")
        if self.kl_beta < 0 or self.sft_weight < 0:
            raise ValueError("kl_beta and sft_weight must be non-negative")
        if self.std_epsilon <= 0:
            raise ValueError("std_epsilon must be positive")
        if self.max_length < 1:
            raise ValueError("max_length must be positive")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


@dataclass(frozen=True)
class PromptSpec:
    prompt_id: int
    label: tuple[int, ...]
    reference_formula: str


@dataclass(frozen=True, eq=False)
class PolicyParams:
    """Logits shaped (num_prompts, max_length, vocab_size)."""

    logits: np.ndarray
    role: str = "current"

    def __post_init__(self):
        if self.role not in ROLES:
            raise ValueError(f"unknown policy role {self.role!r}")
        if self.logits.ndim != 3:
            raise ValueError("logits must be (prompts, positions, vocab)")
        if not np.all(np.isfinite(self.logits)):
            raise ValueError("logits must be finite")

    def snapshot(self, role: str) -> "PolicyParams":
        return PolicyParams(self.logits.copy(), role)

    def log_probs(self, prompt_id: int) -> np.ndarray:
        """Per-position log-softmax, shape (max_length, vocab)."""
        z = self.logits[prompt_id]
        z = z - z.max(axis=-1, keepdims=True)
        return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


@dataclass(frozen=True, eq=False)
class SampleGroup:
    """One group of sampled sequences.  Rewards and advantages are attached
    later via :func:`dataclasses.replace`, which re-runs validation."""

    outputs: np.ndarray  # (G, T) token ids
    old_logprobs: np.ndarray  # (G, T) log-probs under the sampling snapshot
    rewards: np.ndarray | None = None  # (G,) in [0, 1]
    advantages: np.ndarray | None = None  # (G,)

    def __post_init__(self):
        if self.rewards is not None:
            if self.rewards.shape != (self.outputs.shape[0],):
                raise ValueError("rewards must have one entry per sampled sequence")
            if np.any(self.rewards < 0.0) or np.any(self.rewards > 1.0):
                raise ValueError("rewards must lie in [0, 1]")


def sample_group(
    policy: PolicyParams,
    prompt: PromptSpec,
    hp: Hyperparams,
    rng: np.random.Generator | None = None,
) -> SampleGroup:
    """Sample ``hp.group_size`` sequences of length ``hp.max_length`` from a
    frozen snapshot.  Deterministic for a fixed generator state."""
    if policy.role != "old":
        raise ValueError("sampling must use an 'old' snapshot of the policy")
    if rng is None:
        rng = np.random.default_rng(hp.seed)
    logp = policy.log_probs(prompt.prompt_id)  # (T, V)
    probs = np.exp(logp)
    cumulative = np.cumsum(probs, axis=-1)
    cumulative[:, -1] = 1.0
    draws = rng.random((hp.group_size, hp.max_length))
    outputs = (draws[:, :, None] >= cumulative[None, :, :]).sum(axis=-1)
    outputs = np.minimum(outputs, probs.shape[-1] - 1)
    positions = np.arange(hp.max_length)
    old_logprobs = logp[positions[None, :], outputs]
    return SampleGroup(outputs=outputs, old_logprobs=old_logprobs)


def group_advantages(rewards: np.ndarray, std_epsilon: float = 1e-8) -> np.ndarray:
    """Group-relative advantages: center by the group mean and divide by the
    population standard deviation (floored at ``std_epsilon``).  An all-equal
    group yields all-zero advantages."""
    rewards = np.asarray(rewards, dtype=float)
    # summing identical floats can round, leaving a spurious residue after centering
    if rewards.size and np.all(rewards == rewards.flat[0]):
        return np.zeros_like(rewards)
    centered = rewards - rewards.mean()
    return centered / max(float(rewards.std()), std_epsilon)


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


def _objective_and_gradient(
    logp: np.ndarray,
    ref_logp: np.ndarray,
    prompt: PromptSpec,
    group: SampleGroup,
    hp: Hyperparams,
) -> tuple[ObjectiveParts, np.ndarray]:
    """The objective parts of one group and their analytic gradient in the
    prompt's (T, V) logits slice, vectorized over the G samples.
    ``logp`` and ``ref_logp`` are the prompt's current and reference
    log-softmax, shape (T, V).

    The gradient adds the per-sample terms in the order a per-sample loop
    would (surrogate term i, then minus KL term i), so it is bit-identical
    to one."""
    if group.advantages is None:
        raise ValueError("group advantages must be populated before the objective")
    adv = group.advantages
    outputs = group.outputs
    G, T = outputs.shape
    positions = np.arange(T)
    lp_cur = logp[positions[None, :], outputs]  # (G, T)
    lp_ref = ref_logp[positions[None, :], outputs]
    ratios = np.exp((lp_cur - group.old_logprobs).sum(axis=1))
    low, high = 1.0 - hp.clip_epsilon, 1.0 + hp.clip_epsilon
    clipped = np.clip(ratios, low, high)
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
    kl = float(np.mean(np.mean(r - log_r - 1.0, axis=1)))
    label = np.asarray(prompt.label)
    label_positions = np.arange(len(label))
    sft = float(np.sum(logp[label_positions, label] - ref_logp[label_positions, label]))
    surrogate = float(surrogate_terms.mean())
    total = surrogate + hp.sft_weight * sft - hp.kl_beta * kl
    parts = ObjectiveParts(total=total, surrogate=surrogate, sft=sft, kl=kl)

    probs = np.exp(logp)
    # d log pi(o_t) / d z[t, v] = onehot(o_t) - p[t]
    onehot = np.zeros((G,) + probs.shape)
    onehot[np.arange(G)[:, None], positions[None, :], outputs] = 1.0
    d_logp = onehot - probs
    coeff = np.where(active, adv * ratios, 0.0)
    surrogate_grads = (coeff / G)[:, None, None] * d_logp
    if hp.kl_beta != 0.0:
        # d (r - log r - 1)/T d z[t, v] = (1 - r_t)(onehot - p)/T
        kl_grads = (hp.kl_beta / G) * (((1.0 - r)[:, :, None] * d_logp) / T)
        terms = np.empty((2 * G,) + probs.shape)
        terms[0::2] = surrogate_grads
        terms[1::2] = -kl_grads
    else:
        terms = surrogate_grads
    slice_grad = terms.sum(axis=0)
    if hp.sft_weight != 0.0:
        sft_grad = np.zeros_like(probs)
        sft_grad[label_positions, label] += 1.0
        sft_grad[label_positions] -= probs[label_positions]
        slice_grad += hp.sft_weight * sft_grad
    return parts, slice_grad


def sgrpo_objective(
    current: PolicyParams,
    old: PolicyParams,
    reference: PolicyParams,
    prompt: PromptSpec,
    group: SampleGroup,
    hp: Hyperparams,
) -> ObjectiveParts:
    """Objective for one group, with the surrogate, supervised, and KL terms
    exposed separately for logging."""
    pid = prompt.prompt_id
    parts, _ = _objective_and_gradient(
        current.log_probs(pid), reference.log_probs(pid), prompt, group, hp
    )
    return parts


def objective_gradient(
    current: PolicyParams,
    old: PolicyParams,
    reference: PolicyParams,
    prompt: PromptSpec,
    group: SampleGroup,
    hp: Hyperparams,
) -> np.ndarray:
    """Analytic gradient of the objective in ``current.logits``, same shape
    as the logits tensor (zero outside this prompt's slice)."""
    pid = prompt.prompt_id
    grad = np.zeros_like(current.logits)
    _, grad[pid] = _objective_and_gradient(
        current.log_probs(pid), reference.log_probs(pid), prompt, group, hp
    )
    return grad


# --- demo training loop ------------------------------------------------------


@dataclass(frozen=True)
class TrainDemoConfig:
    vocab: tuple[str, ...]
    references: tuple[str, ...]
    iterations: int = 500
    hp: Hyperparams = Hyperparams()
    le: LeConfig = DEFAULT_LE

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
            if len(words) != self.hp.max_length:
                # sampled sequences always have max_length tokens, so a
                # shorter label would leave trailing positions untrained and
                # the extra tokens would break parsing
                raise ValueError(
                    f"reference must be exactly {self.hp.max_length} tokens: {reference!r}"
                )
            prompts.append(PromptSpec(pid, tuple(index[w] for w in words), reference))
        return prompts


def default_demo_config(
    iterations: int = 500, learning_rate: float = 0.5, seed: int = 0
) -> TrainDemoConfig:
    """A small self-contained task: three implication/conjunction targets
    over a 12-token vocabulary, each reference exactly max_length tokens."""
    vocab = ("(", ")", "P", "Q", "R", "x", "¬", "∧", "∨", "→", "∀", "y")
    references = (
        "( P ( x ) → ¬ Q ( x ) )",
        "( P ( x ) ∧ ¬ R ( x ) )",
        "( ¬ P ( x ) ∨ Q ( x ) )",
    )
    hp = Hyperparams(learning_rate=learning_rate, seed=seed)
    return TrainDemoConfig(vocab=vocab, references=references, iterations=iterations, hp=hp)


# Prediction texts whose reward one prompt remembers; a full memo is
# emptied before the next group is looked up in it.
_REWARD_MEMO_LIMIT = 4096


class _PromptRewards:
    """Optimized-mode rewards against one reference, compiled once, with a
    bounded memo from prediction text to reward (scoring is deterministic
    for a fixed mode and config).  A text (or the reference) that fails to
    parse or exceeds a cap earns 0."""

    def __init__(self, reference: str, config: LeConfig):
        try:
            self.reference: CompiledReference | None = compile_reference(reference)
        except FormulaError:
            self.reference = None
        self.config = config
        self.memo: dict[str, float] = {}

    def __call__(self, texts: list[str]) -> np.ndarray:
        if self.reference is None:
            return np.zeros(len(texts))
        if len(self.memo) >= _REWARD_MEMO_LIMIT:
            self.memo.clear()
        todo = [text for text in dict.fromkeys(texts) if text not in self.memo]
        if todo:
            results = score_group(todo, self.reference, "optimized", self.config)
            for text, result in zip(todo, results):
                self.memo[text] = 0.0 if isinstance(result, FormulaError) else result.score
        return np.array([self.memo[text] for text in texts])


def train_demo(config: TrainDemoConfig) -> list[dict]:
    """Run the demo loop and return one trace record per iteration with keys
    iter, mean_reward, reward_std, surrogate, sft, kl, objective."""
    hp = config.hp
    prompts = config.prompts()
    rng = np.random.default_rng(hp.seed)
    shape = (len(prompts), hp.max_length, len(config.vocab))
    current = PolicyParams(np.zeros(shape), "current")
    reference = current.snapshot("reference")
    ref_logps = [reference.log_probs(prompt.prompt_id) for prompt in prompts]
    reward_memos = [_PromptRewards(prompt.reference_formula, config.le) for prompt in prompts]
    trace: list[dict] = []

    for iteration in range(config.iterations):
        old = current.snapshot("old")
        groups = []
        all_rewards = []
        for prompt, prompt_rewards in zip(prompts, reward_memos):
            group = sample_group(old, prompt, hp, rng)
            texts = [" ".join(config.vocab[t] for t in output) for output in group.outputs]
            rewards = prompt_rewards(texts)
            group = replace(group, rewards=rewards, advantages=group_advantages(rewards, hp.std_epsilon))
            groups.append(group)
            all_rewards.append(rewards)

        parts_acc = np.zeros(4)
        grad = np.zeros_like(current.logits)
        for prompt, group, ref_logp in zip(prompts, groups, ref_logps):
            pid = prompt.prompt_id
            parts, slice_grad = _objective_and_gradient(current.log_probs(pid), ref_logp, prompt, group, hp)
            parts_acc += (parts.total, parts.surrogate, parts.sft, parts.kl)
            grad[pid] += slice_grad
        current = PolicyParams(current.logits + hp.learning_rate * grad, "current")

        pooled = np.concatenate(all_rewards)
        mean_parts = parts_acc / len(prompts)
        trace.append(
            {
                "iter": iteration,
                "mean_reward": float(pooled.mean()),
                "reward_std": float(pooled.std()),
                "surrogate": float(mean_parts[1]),
                "sft": float(mean_parts[2]),
                "kl": float(mean_parts[3]),
                "objective": float(mean_parts[0]),
            }
        )
    return trace


def write_trace(trace: list[dict], path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for record in trace:
            handle.write(json.dumps(record) + "\n")
