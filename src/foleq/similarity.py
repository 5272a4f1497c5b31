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
from typing import Sequence


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
# ``NGRAM_SIZES``, and the threshold never changes a cosine.  An entry is one
# atom text's compared form, gram counts and norm, a few hundred bytes to a
# few kilobytes, so 1,024 entries hold a few megabytes.  The reuse it serves
# lies within one scoring group or one serving session.  In the seed-29
# benchmark runs, 16,500 serve_mixed requests miss 24 times and 48 train_demo
# calls of 50 iterations miss 27 times at any size from 64 entries up, while
# 750 corpus_groups groups look up 13,874 vectors, once per reference atom
# and once per distinct prediction atom text of each group, and miss 8,647
# times at 1,024 entries.
# The pair memo below serves scoring one prediction at a time, as a serving
# session does, which sees one task's predicate vocabulary again and again:
# 16,500 serve_mixed requests make 201,005 cosine calls over 576 distinct
# ordered atom pairs (300 unordered), and the memo serves 99.85% of the
# calls.  A group of predictions does not call it: its rows come from a
# ``GramIndex``.  train_demo makes no call either, as its rewards are scored
# a group at a time.  A larger memo would only cost memory.
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


class GramIndex:
    """The gram postings of some texts, each gram listing the (index,
    count) pairs of the texts that hold it, for reading the row of texts
    related to another text from one pass over that text's grams.

    ``row(text)`` equals ``[j for j, r in enumerate(texts) if
    ngram_cosine(text, r) >= threshold]`` bit for bit: each text's gram
    counts and norm are ``_gram_vector``'s, the dot product is an integer sum,
    exact in any order, and it is divided by the two norms' product, which
    commutes.  Equal compared texts score 1.0, and texts that share no gram
    score 0.0.  Each distinct text's row is computed once and kept; treat it
    as read-only."""

    def __init__(self, texts: Sequence[str], threshold: float):
        self.threshold = threshold
        self.vectors = [_gram_vector(text) for text in texts]
        self.postings: dict = {}
        for j, (_, counts, _) in enumerate(self.vectors):
            for gram, count in counts.items():
                self.postings.setdefault(gram, []).append((j, count))
        self.rows: dict[str, list[int]] = {}

    def row(self, text: str) -> list[int]:
        """The indices of the texts whose cosine with ``text`` reaches the
        threshold, in order."""
        row = self.rows.get(text)
        if row is None:
            row = self.rows[text] = self._row(text)
        return row

    def _row(self, text: str) -> list[int]:
        compared, counts, norm = _gram_vector(text)
        vectors = self.vectors
        dots = [0] * len(vectors)
        get = self.postings.get
        for gram, count in counts.items():
            for j, other in get(gram, ()):
                dots[j] += count * other
        threshold = self.threshold
        row = []
        for j, dot in enumerate(dots):
            # Equal non-empty texts share a gram, so a text that shares none
            # scores 0.0.
            if dot:
                other, _, other_norm = vectors[j]
                cosine = 1.0 if other == compared else dot / (norm * other_norm)
            else:
                cosine = 0.0
            if cosine >= threshold:
                row.append(j)
        return row
