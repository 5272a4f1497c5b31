"""Shared test oracles, deliberately independent of the library internals.

The truth-table oracle evaluates formulas row by row over explicit
assignment dictionaries instead of bitmask arithmetic, the binding
oracle enumerates complete injective matchings with itertools, the
forward search scores one reading at a time against the reference's own
table (it shares only the library's search plan and assignment walk),
the per-reading loop binds every bracketing tree of a prediction from
scratch through it, the n-gram oracle keys every gram by its (size,
text) pair and counts it one position at a time, the advantages oracle
takes numpy's own ``mean`` and ``std``, the S-GRPO oracle computes the
objective and its gradient one sample at a time, the demo-trainer oracle
samples, scores joined texts, takes that oracle's advantages and steps one
prompt at a time, the BLEU oracle re-counts both sides of every pair, the lexer oracle
reads one character at a time, and the lowering oracle renames, lists atoms
and compiles a skeleton in three separate walks.  Slow but obviously correct, which is the point.
"""

from __future__ import annotations

import itertools
import math
import random
import re
from collections import Counter
from dataclasses import replace
from functools import lru_cache

import numpy as np

from foleq.corpus import _PAD_RE, DEFAULT_BLEU
from foleq.equivalence import (
    DEFAULT_LE,
    BindingMap,
    LeReport,
    _AtomTables,
    _enumerate,
    Scorer,
    compile_reference,
)
from foleq.sgrpo import (
    CLIP_EPSILON,
    SEQUENCE_LENGTH,
    STD_EPSILON,
    ObjectiveParts,
    PolicyParams,
    kl_estimate,
    sample_group,
    sft_term,
)
from foleq.similarity import levenshtein
from foleq.syntax import (
    AND,
    COMMA,
    EXISTS,
    FORALL,
    IDENT,
    IFF,
    IMPLIES,
    LPAREN,
    NOT,
    OR,
    RPAREN,
    XOR,
    Atom,
    Binary,
    CapExceeded,
    FolExpr,
    FormulaError,
    LexError,
    Not,
    Quantified,
    Token,
    atom_text,
    atoms_of,
    canonicalize,
    enumerate_bracketings,
    lex,
    parse,
    render,
)


# --- per-character lexer ---------------------------------------------------------

_SINGLE_CHAR = {
    "∀": FORALL,
    "∃": EXISTS,
    "¬": NOT,
    "~": NOT,
    "∧": AND,
    "&": AND,
    "∨": OR,
    "|": OR,
    "→": IMPLIES,
    "↔": IFF,
    "⊕": XOR,
    "^": XOR,
    "(": LPAREN,
    ")": RPAREN,
    ",": COMMA,
}
_KEYWORDS = {"forall": FORALL, "exists": EXISTS}
_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")


def lex_by_char(text: str) -> list[Token]:
    """Tokenize one character at a time: whitespace by ``str.isspace``,
    ``<->`` before ``->``, then the one-character tokens, then identifiers."""
    tokens: list[Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if text.startswith("<->", i):
            tokens.append((IFF, "<->", i))
            i += 3
            continue
        if text.startswith("->", i):
            tokens.append((IMPLIES, "->", i))
            i += 2
            continue
        kind = _SINGLE_CHAR.get(ch)
        if kind is not None:
            tokens.append((kind, ch, i))
            i += 1
            continue
        match = _IDENT_RE.match(text, i)
        if match is not None:
            word = match.group()
            tokens.append((_KEYWORDS.get(word, IDENT), word, i))
            i = match.end()
            continue
        raise LexError(f"unexpected character {ch!r}", i)
    return tokens


# --- three-walk lowering -----------------------------------------------------------


def _compile(expr: FolExpr, ordinals: dict[str, int]):
    """A canonical tree's propositional skeleton, quantifiers dropped, as
    nested tuples holding atom ordinals."""
    while isinstance(expr, Quantified):
        expr = expr.body
    if isinstance(expr, Atom):
        return ("atom", ordinals[atom_text(expr.predicate, expr.args)])
    if isinstance(expr, Not):
        return ("not", _compile(expr.body, ordinals))
    return (expr.op, _compile(expr.left, ordinals), _compile(expr.right, ordinals))


def lower_by_three_walks(operands: list[FolExpr], wrappers: list[FolExpr] = ()) -> tuple:
    """The atoms and operand skeletons of the left-deep chain of
    ``operands`` inside the quantifiers among ``wrappers``: the chain is
    built as a tree, renamed by ``canonicalize``, listed by ``atoms_of`` and
    compiled by a walk of its own, three separate passes where the lowering
    makes one parse, and the code is split back into operand codes."""
    tree = operands[0]
    for operand in operands[1:]:
        tree = Binary("and", tree, operand)
    for wrapper in reversed(wrappers):
        if isinstance(wrapper, Quantified):
            tree = Quantified(wrapper.quantifier, wrapper.variable, tree)
    tree = canonicalize(tree)
    atoms = atoms_of(tree)
    code = _compile(tree, {a: i for i, a in enumerate(atoms)})
    codes = []
    for _ in operands[1:]:
        _, code, right = code
        codes.append(right)
    return atoms, [code, *reversed(codes)]


def strip_quantifiers(expr: FolExpr) -> FolExpr:
    if isinstance(expr, Quantified):
        return strip_quantifiers(expr.body)
    if isinstance(expr, Not):
        return Not(strip_quantifiers(expr.body))
    if isinstance(expr, Binary):
        return Binary(expr.op, strip_quantifiers(expr.left), strip_quantifiers(expr.right))
    return expr


def eval_row(expr: FolExpr, assignment: dict[str, bool]) -> bool:
    """Evaluate the quantifier-stripped skeleton under one assignment keyed
    by atom canonical text."""
    if isinstance(expr, Quantified):
        return eval_row(expr.body, assignment)
    if isinstance(expr, Atom):
        key = expr.predicate
        if expr.args:
            key = f"{expr.predicate}({', '.join(expr.args)})"
        return assignment[key]
    if isinstance(expr, Not):
        return not eval_row(expr.body, assignment)
    left = eval_row(expr.left, assignment)
    right = eval_row(expr.right, assignment)
    if expr.op == "and":
        return left and right
    if expr.op == "or":
        return left or right
    if expr.op == "implies":
        return (not left) or right
    if expr.op == "iff":
        return left == right
    if expr.op == "xor":
        return left != right
    raise AssertionError(expr.op)


def agreement(pred: FolExpr, ref: FolExpr, mapping: dict[str, str]) -> float:
    """Fraction of boolean assignments on which the two skeletons agree,
    with prediction atoms renamed through ``mapping`` (unmapped prediction
    atoms stay as themselves, i.e. free variables)."""
    pred_names = atoms_of(pred)
    ref_names = atoms_of(ref)
    variables = list(dict.fromkeys(ref_names))
    for name in pred_names:
        target = mapping.get(name, f"!unbound:{name}")
        if target not in variables:
            variables.append(target)
    rows = 0
    agree = 0
    for values in itertools.product([False, True], repeat=len(variables)):
        env = dict(zip(variables, values))
        pred_env = {
            name: env[mapping.get(name, f"!unbound:{name}")] for name in pred_names
        }
        rows += 1
        if eval_row(pred, pred_env) == eval_row(ref, env):
            agree += 1
    return agree / rows


def best_complete_matching(pred: FolExpr, ref: FolExpr):
    """Best (score, summed-levenshtein) over every complete injective
    matching of the smaller atom set into the larger.  Returns
    (score, min_lev, set of optimal mappings as frozensets of pairs)."""
    pred_names = atoms_of(pred)
    ref_names = atoms_of(ref)
    n_p, n_r = len(pred_names), len(ref_names)
    best = None
    if n_p <= n_r:
        candidates = itertools.permutations(range(n_r), n_p)
        def build(perm):
            return {pred_names[i]: ref_names[j] for i, j in enumerate(perm)}
    else:
        candidates = itertools.permutations(range(n_p), n_r)
        def build(perm):
            return {pred_names[i]: ref_names[j] for j, i in enumerate(perm)}
    for perm in candidates:
        mapping = build(perm)
        score = agreement(pred, ref, mapping)
        dist = sum(levenshtein(p, r) for p, r in mapping.items())
        key = (-score, dist)
        if best is None or key < best[0]:
            best = (key, {frozenset(mapping.items())})
        elif key == best[0]:
            best[1].add(frozenset(mapping.items()))
    (neg_score, dist), mappings = best
    return -neg_score, dist, mappings


# --- forward binding search, one reading at a time --------------------------------


@lru_cache(maxsize=None)
def _row_patterns(k: int) -> tuple[tuple[int, ...], int, int]:
    """Variable i's truth-table mask over ``k`` variables, built row by row
    (variable i is true on row r iff bit i of r is set), the all-ones mask
    and the row count."""
    rows = 1 << k
    patterns = tuple(int("".join("01"[r >> i & 1] for r in reversed(range(rows))), 2) for i in range(k))
    return patterns, (1 << rows) - 1, rows


def skeleton_bits(code, varmap, patterns: tuple[int, ...], mask: int) -> int:
    """Truth-table mask of a skeleton, atom ordinal o being variable
    ``varmap[o]``."""
    tag = code[0]
    if tag == "atom":
        return patterns[varmap[code[1]]]
    if tag == "not":
        return mask ^ skeleton_bits(code[1], varmap, patterns, mask)
    left = skeleton_bits(code[1], varmap, patterns, mask)
    right = skeleton_bits(code[2], varmap, patterns, mask)
    return {
        "and": left & right,
        "or": left | right,
        "implies": (mask ^ left) | right,
        "iff": mask ^ left ^ right,
        "xor": left ^ right,
    }[tag]


def skeleton_table(code, n: int) -> int:
    """Truth-table mask of a skeleton over its own ``n`` atoms, ordinal o
    being variable o."""
    patterns, mask, _ = _row_patterns(n)
    return skeleton_bits(code, range(n), patterns, mask)


def scored_result(result) -> dict | tuple:
    """A scoring result as a comparable value: a report's ``to_dict()``, or
    an error's type and text."""
    return result.to_dict() if isinstance(result, LeReport) else (type(result), str(result))


def forward_bind(pred: FolExpr, ref: FolExpr, mode: str, config=DEFAULT_LE) -> LeReport:
    """``bind_original`` / ``bind_optimized`` for one reading, by the
    forward search over the library's search plan (``_AtomTables``)."""
    compiled = compile_reference(render(ref))
    pred_atoms, (code,) = lower_by_three_walks([pred])
    return forward_search(code, _AtomTables(pred_atoms, compiled, mode, config), config.max_atoms)


def forward_search(code, tables, max_atoms: int) -> LeReport:
    """The binding search for one reading, the skeleton ``code`` over the
    plan's prediction atoms, scored forward: at each binding the
    prediction's skeleton is evaluated with each bound atom on its reference
    atom's variable and each unbound one after the reference's, and compared
    with the reference's own table over that many variables.  It shares the
    library's assignment walk (``_enumerate``), unbounded, so it evaluates
    every binding, but none of the search's evaluation, table widening,
    grouping of readings or cap check."""
    compiled, pred_atoms, mode = tables.ref, tables.pred_atoms, tables.mode
    n_r = len(compiled.atoms)
    ref_bits: dict[int, int] = {}

    def agreement(mapping: list) -> tuple[int, int]:
        k = n_r + mapping.count(None)
        if k > max_atoms:
            raise CapExceeded(f"{k} combined atoms exceeds the truth-table cap {max_atoms}")
        patterns, mask, rows = _row_patterns(k)
        if k not in ref_bits:
            ref_bits[k] = skeleton_bits(compiled.code, range(n_r), patterns, mask)
        free = iter(range(n_r, k))
        varmap = [next(free) if m is None else m for m in mapping]
        return rows - (skeleton_bits(code, varmap, patterns, mask) ^ ref_bits[k]).bit_count(), rows

    mapping = tables.start.copy()
    explored = assignments = 0
    truncated = False
    final_score = None
    for preds, _, skips in tables.enumerated:
        best_assign: list = []
        best_score, best_dist = -1.0, 0

        def leaf(dist: int) -> None:
            nonlocal best_assign, best_score, best_dist, assignments
            agree, rows = agreement(mapping)
            assignments += rows
            score = agree / rows
            if score > best_score or (score == best_score and dist < best_dist):
                best_assign, best_score, best_dist = [mapping[i] for i in preds], score, dist

        for i in preds:
            mapping[i] = None
        # No leaf here reads the walk's values, so it writes into zeros.
        count, cut = _enumerate(
            tables.candidates, preds, skips, mapping, leaf, None, [0] * n_r, [0] * len(mapping), (), ()
        )
        truncated = truncated or cut
        explored += count
        for i, j in zip(preds, best_assign):
            mapping[i] = j
        final_score = best_score
    if final_score is None:
        agree, rows = agreement(mapping)
        assignments += rows
        final_score = agree / rows
        explored += 1

    used = {j for j in mapping if j is not None}
    binding = BindingMap(
        tuple((pred_atoms[i], compiled.atoms[j]) for i, j in enumerate(mapping) if j is not None),
        tuple(pred_atoms[i] for i, j in enumerate(mapping) if j is None),
        tuple(a for j, a in enumerate(compiled.atoms) if j not in used),
    )
    return LeReport(
        score=final_score,
        binding=binding,
        atom_count=n_r + len(binding.unbound_prediction),
        assignments_evaluated=assignments,
        bindings_explored=explored,
        trees_explored=1,
        mode=mode,
        truncated=truncated,
    )


# --- per-reading scoring loop ---------------------------------------------------


def unshared(prediction: str, reference: str, mode: str, config=DEFAULT_LE) -> tuple:
    """The fields of ``le_score`` computed with nothing shared: every
    bracketing tree is bound on its own against a freshly parsed reference,
    equal readings included, by the forward search, and the first strictly
    best tree wins.  In the order score, binding pairs, unbound prediction
    and reference texts, atom count, rows, bindings, trees, truncated."""
    ref_tree = canonicalize(parse(reference))
    trees = enumerate_bracketings(lex(prediction), config.chunk_size)
    results = [forward_bind(canonicalize(tree), ref_tree, mode, config) for tree in trees]
    best = results[0]
    for result in results[1:]:
        if result.score > best.score:
            best = result
    return (
        best.score,
        best.binding.as_dict(),
        list(best.binding.unbound_prediction),
        list(best.binding.unbound_reference),
        len(atoms_of(ref_tree)) + len(best.binding.unbound_prediction),
        sum(r.assignments_evaluated for r in results),
        sum(r.bindings_explored for r in results),
        len(trees),
        any(r.truncated for r in results),
    )


# --- random formula generation ------------------------------------------------

_CONNECTIVES = ["and", "or", "implies", "iff", "xor"]


def _binary_nodes(expr: FolExpr) -> int:
    if isinstance(expr, Binary):
        return 1 + _binary_nodes(expr.left) + _binary_nodes(expr.right)
    if isinstance(expr, Not):
        return _binary_nodes(expr.body)
    if isinstance(expr, Quantified):
        return _binary_nodes(expr.body)
    return 0


def random_formula(
    rng: random.Random,
    max_atoms: int = 6,
    max_depth: int = 5,
    quantifiers: bool = True,
    predicates: list[str] | None = None,
) -> FolExpr:
    """Random formula whose canonical form has at most ``max_atoms`` distinct
    atoms.  Canonicalization can split one written atom into a bound and a
    free variant, so the bound is enforced by rejection, not construction."""
    predicates = predicates or ["P", "Q", "R", "S", "T", "U"]

    def sample() -> FolExpr:
        atom_pool: list[Atom] = []

        def fresh_atom() -> Atom:
            if atom_pool and (len(atom_pool) >= max_atoms or rng.random() < 0.4):
                return rng.choice(atom_pool)
            name = rng.choice(predicates)
            if rng.random() < 0.5:
                atom = Atom(name, (rng.choice("xyz"),))
            else:
                atom = Atom(name)
            if not any(a == atom for a in atom_pool):
                atom_pool.append(atom)
            return atom

        def build(depth: int) -> FolExpr:
            if depth >= max_depth or rng.random() < 0.3:
                return fresh_atom()
            roll = rng.random()
            if roll < 0.2:
                return Not(build(depth + 1))
            if quantifiers and roll < 0.3:
                quant = rng.choice(["forall", "exists"])
                return Quantified(quant, rng.choice("xyz"), build(depth + 1))
            op = rng.choice(_CONNECTIVES)
            return Binary(op, build(depth + 1), build(depth + 1))

        return build(0)

    from foleq.syntax import canonicalize

    while True:
        expr = sample()
        if len(atoms_of(canonicalize(expr))) > max_atoms:
            continue
        if _binary_nodes(expr) > 12:
            continue
        return expr


# --- group advantages through ndarray.mean and ndarray.std --------------------


def reference_group_advantages(rewards: np.ndarray) -> np.ndarray:
    """Group-relative advantages from numpy's own ``mean`` and ``std``:
    centered by the group mean, divided by the population standard
    deviation floored at ``STD_EPSILON``, and all zero for an all-equal
    group."""
    rewards = np.asarray(rewards, dtype=float)
    centered = rewards - rewards.mean(axis=-1, keepdims=True)
    scale = np.maximum(rewards.std(axis=-1, keepdims=True), STD_EPSILON)
    equal = np.all(rewards == rewards[..., :1], axis=-1, keepdims=True)
    return np.where(equal, 0.0, centered / scale)


# --- per-sample S-GRPO objective and gradient ----------------------------------


def _sequence_ratios(current, group, prompt):
    logp = current.log_probs(prompt.prompt_id)
    positions = np.arange(group.outputs.shape[1])
    new_lp = logp[positions[None, :], group.outputs]
    return np.exp((new_lp - group.old_logprobs).sum(axis=1))


def per_sample_objective(current, reference, prompt, group, hp) -> ObjectiveParts:
    """The S-GRPO objective parts, with the KL term estimated per sample."""
    ratios = _sequence_ratios(current, group, prompt)
    clipped = np.clip(ratios, 1.0 - CLIP_EPSILON, 1.0 + CLIP_EPSILON)
    if hp.use_ppo_min:
        surrogate_terms = np.minimum(ratios * group.advantages, clipped * group.advantages)
    else:
        surrogate_terms = clipped * group.advantages
    surrogate = float(surrogate_terms.mean())
    kl = float(
        np.mean([kl_estimate(current, reference, out, prompt) for out in group.outputs])
    )
    sft = sft_term(current, reference, prompt)
    total = surrogate + hp.sft_weight * sft - hp.kl_beta * kl
    return ObjectiveParts(total=total, surrogate=surrogate, sft=sft, kl=kl)


def per_sample_gradient(current, reference, prompt, group, hp) -> np.ndarray:
    """The analytic gradient in ``current.logits``, accumulated one sample
    at a time: surrogate term i, then minus KL term i, then the label term."""
    pid = prompt.prompt_id
    grad = np.zeros_like(current.logits)
    logp = current.log_probs(pid)  # (T, V)
    probs = np.exp(logp)
    G, T = group.outputs.shape
    positions = np.arange(T)

    ratios = _sequence_ratios(current, group, prompt)
    low, high = 1.0 - CLIP_EPSILON, 1.0 + CLIP_EPSILON
    slice_grad = np.zeros_like(probs)

    for i in range(G):
        out = group.outputs[i]
        adv = group.advantages[i]
        # d log pi(o_t) / d z[t, v] = onehot(o_t) - p[t]
        not_clipped = low < ratios[i] < high
        if hp.use_ppo_min:
            # gradient follows whichever branch the min selects; ties take
            # the unclipped branch
            unclipped_val = ratios[i] * adv
            clipped_val = float(np.clip(ratios[i], low, high)) * adv
            active = unclipped_val <= clipped_val or not_clipped
            coeff = adv * ratios[i] if active else 0.0
        else:
            coeff = adv * ratios[i] if not_clipped else 0.0
        if coeff != 0.0:
            onehot = np.zeros_like(probs)
            onehot[positions, out] = 1.0
            slice_grad += (coeff / G) * (onehot - probs)

        if hp.kl_beta != 0.0:
            lp_ref = reference.log_probs(pid)[positions, out]
            lp_cur = logp[positions, out]
            r = np.exp(lp_ref - lp_cur)  # (T,)
            # d (r - log r - 1)/T d z[t, v] = (1 - r_t)(onehot - p)/T
            kl_onehot = np.zeros_like(probs)
            kl_onehot[positions, out] = 1.0
            kl_grad = ((1.0 - r)[:, None] * (kl_onehot - probs)) / T
            slice_grad -= (hp.kl_beta / G) * kl_grad

    if hp.sft_weight != 0.0:
        label = np.asarray(prompt.label)
        label_positions = np.arange(len(label))
        sft_grad = np.zeros_like(probs)
        sft_grad[label_positions, label] += 1.0
        sft_grad[label_positions] -= probs[label_positions]
        slice_grad += hp.sft_weight * sft_grad

    grad[pid] = slice_grad
    return grad


# --- per-prompt S-GRPO demo loop --------------------------------------------------


def text_rewards(reference: str):
    """A prompt's rewards by text: each sampled text is scored by a fresh
    ``Scorer`` the first time it is seen, and a text (or the reference) that
    fails to parse or exceeds a cap earns 0."""
    try:
        compiled = compile_reference(reference)
    except FormulaError:
        compiled = None
    memo: dict[str, float] = {}

    def rewards(texts: list[str]) -> np.ndarray:
        if compiled is None:
            return np.zeros(len(texts))
        todo = [text for text in dict.fromkeys(texts) if text not in memo]
        for text, result in zip(todo, Scorer(compiled)(todo)):
            memo[text] = 0.0 if isinstance(result, FormulaError) else result.score
        return np.array([memo[text] for text in texts])

    return rewards


def per_prompt_train_demo(config) -> list[dict]:
    """``train_demo`` one prompt at a time: each iteration samples each
    prompt's group in turn from the current policy and scores the texts its
    words join into (``text_rewards``), then adds each prompt's per-sample
    objective parts and gradient slice to running totals."""
    hp = config.hp
    prompts = config.prompts()
    rng = np.random.default_rng(hp.seed)
    shape = (len(prompts), SEQUENCE_LENGTH, len(config.vocab))
    current = PolicyParams(np.zeros(shape))
    reference = current  # the reference policy is the starting one
    reward_memos = [text_rewards(prompt.reference_formula) for prompt in prompts]
    trace = []
    for iteration in range(config.iterations):
        groups = []
        for prompt, prompt_rewards in zip(prompts, reward_memos):
            group = sample_group(current, prompt, hp, rng)
            texts = [" ".join(config.vocab[t] for t in output) for output in group.outputs]
            rewards = prompt_rewards(texts)
            groups.append(replace(group, rewards=rewards, advantages=reference_group_advantages(rewards)))

        parts_acc = np.zeros(4)
        grad = np.zeros_like(current.logits)
        for prompt, group in zip(prompts, groups):
            pid = prompt.prompt_id
            parts = per_sample_objective(current, reference, prompt, group, hp)
            parts_acc += (parts.total, parts.surrogate, parts.sft, parts.kl)
            grad[pid] += per_sample_gradient(current, reference, prompt, group, hp)[pid]
        current = PolicyParams(current.logits + hp.learning_rate * grad)

        pooled = np.concatenate([group.rewards for group in groups])
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


# --- per-pair corpus BLEU --------------------------------------------------------


def _pad_tokens(text: str) -> list[str]:
    return _PAD_RE.sub(r" \1 ", text).split()


def _slice_ngrams(tokens: list[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def per_pair_bleu(pairs, config=DEFAULT_BLEU) -> float:
    """Corpus BLEU-4 that tokenizes and counts both sides of every pair
    anew, one slice per n-gram and one lookup per predicted gram."""
    if not pairs:
        raise ValueError("empty corpus")
    order = 4
    matched = [0] * order
    total = [0] * order
    pred_len = 0
    ref_len = 0
    for pair in pairs:
        pred_tokens = _pad_tokens(pair.prediction)
        ref_tokens = _pad_tokens(pair.reference)
        pred_len += len(pred_tokens)
        ref_len += len(ref_tokens)
        for n in range(1, order + 1):
            pred_grams = _slice_ngrams(pred_tokens, n)
            ref_grams = _slice_ngrams(ref_tokens, n)
            total[n - 1] += sum(pred_grams.values())
            matched[n - 1] += sum(min(count, ref_grams[gram]) for gram, count in pred_grams.items())
    if pred_len == 0:
        return 0.0
    log_sum = 0.0
    for n in range(order):
        precision = matched[n] / total[n] if total[n] else 0.0
        if precision <= 0.0:
            if config.smoothing_floor > 0.0:
                precision = config.smoothing_floor
            else:
                return 0.0
        log_sum += math.log(precision)
    brevity = 1.0 if pred_len > ref_len else math.exp(1.0 - ref_len / pred_len)
    return 100.0 * brevity * math.exp(log_sum / order)


# --- (size, text)-keyed n-gram cosine ------------------------------------------


def tuple_gram_vector(text: str, sizes: frozenset[int]) -> tuple[str, Counter, float]:
    """The text lower-cased, its grams counted under (n, gram) keys one
    position at a time (a non-empty text shorter than n counts as one
    gram), and their Euclidean norm."""
    text = text.lower()
    counts: Counter = Counter()
    for n in sizes:
        if len(text) >= n:
            for i in range(len(text) - n + 1):
                counts[(n, text[i : i + n])] += 1
        elif text:
            counts[(n, text)] += 1
    return text, counts, math.sqrt(sum(c * c for c in counts.values()))


def tuple_cosine(a: str, b: str, sizes: frozenset[int]) -> float:
    """Cosine of the two texts' tuple-keyed gram counts; equal non-empty
    texts score exactly 1.0."""
    a, va, norm_a = tuple_gram_vector(a, sizes)
    b, vb, norm_b = tuple_gram_vector(b, sizes)
    if a == b and a:
        return 1.0
    dot = sum(count * vb[gram] for gram, count in va.items())
    return dot / (norm_a * norm_b) if dot else 0.0
