"""String similarity used to restrict atom-matching candidates.

The one backend is a character n-gram cosine over pooled 2- and 3-gram
counts (``NGRAM_SIZES``) of the lower-cased strings.  Strings shorter than n
contribute themselves as a single gram, and every non-empty string scores
exactly 1.0 against itself.  The relatedness threshold is inclusive: a score
of exactly ``threshold`` counts as related.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache


# The character n-gram sizes pooled in every cosine.
NGRAM_SIZES = (2, 3)

# The relatedness threshold, inclusive, the default of ``LeConfig.threshold``.
THRESHOLD = 0.6


@lru_cache(maxsize=16384)
def levenshtein(a: str, b: str) -> int:
    """Edit distance with unit insert/delete/substitute costs."""
    if a == b:
        return 0
    if len(a) < len(b):
        a, b = b, a
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        for j, cb in enumerate(b, start=1):
            cost = 0 if ca == cb else 1
            current.append(min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + cost))
        previous = current
    return previous[-1]


def _gram_counts(text: str) -> Counter:
    # A full-length gram is keyed by its own text, whose length names its
    # size; a text shorter than n keeps an (n, text) key, so no two sizes
    # share a key.
    counts: Counter = Counter()
    for n in NGRAM_SIZES:
        if len(text) >= n:
            counts.update(map("".join, zip(*[text[i:] for i in range(n)])))
        elif text:
            counts[(n, text)] += 1
    return counts


# Cached entries are shared; callers must treat the returned counter as read-only.
# Both memos key atom texts alone: the gram sizes are the constant
# ``NGRAM_SIZES``, and the threshold never changes a cosine.  An entry is one atom text's compared form, gram counts and norm, a few
# hundred bytes to a few kilobytes, so 1,024 entries hold a few megabytes.
# The reuse it serves lies within one scoring group or one serving session.
# In the seed-29 benchmark runs, 16,500 serve_mixed requests miss 24 times and
# 48 train_demo calls of 50 iterations miss 27 times at any size from 64
# entries up, while 750 corpus_groups miss 8,835 / 8,792 / 8,647 / 8,334 times
# out of about 138,000 lookups at 64 / 256 / 1,024 / 8,192 entries.
# The pair memo below serves a serving session, which sees one task's
# predicate vocabulary again and again: those 16,500 serve_mixed requests make
# 201,005 cosine calls over 576 distinct ordered atom pairs (300 unordered),
# and the memo serves 99.85% of the calls.  750 corpus_groups make 266,426
# calls over 67,191 ordered and 50,471 unordered pairs; their reuse lies
# within one group, an atom text met again in another prediction or a pair
# met reversed, so 51,601 calls miss and the memo serves 69% / 80.6% / 81% of
# the calls at 64 / 1,024 / 16,384 entries.  train_demo makes 3.2 calls per
# iteration.  A larger memo would only cost memory.
@lru_cache(maxsize=1024)
def _gram_vector(text: str) -> tuple[str, Counter, float]:
    """The text as compared (lower-cased), its gram counts and their
    Euclidean norm."""
    text = text.lower()
    counts = _gram_counts(text)
    return text, counts, math.sqrt(sum(c * c for c in counts.values()))


def ngram_cosine(a: str, b: str) -> float:
    """Cosine of pooled character n-gram count vectors, in [0, 1]."""
    # The cosine is symmetric to the last bit, so the memo keys the unordered
    # pair.
    if b < a:
        a, b = b, a
    return _pair_cosine(a, b)


@lru_cache(maxsize=1024)
def _pair_cosine(a: str, b: str) -> float:
    a, va, norm_a = _gram_vector(a)
    b, vb, norm_b = _gram_vector(b)
    if a == b and a:
        return 1.0  # the norms' product can round below the dot product
    if len(va) > len(vb):
        va, vb = vb, va
    # Counts are integers, so the dot product is exact in any order, and the
    # norms' product commutes.
    get = vb.get
    dot = sum([count * get(gram, 0) for gram, count in va.items()])
    return dot / (norm_a * norm_b) if dot else 0.0


def is_related(a: str, b: str, threshold: float = THRESHOLD) -> bool:
    """True when the strings are similar enough to be matching candidates."""
    return ngram_cosine(a, b) >= threshold
