import itertools
import math
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from foleq.equivalence import CandidateGraph, LeConfig
from foleq.similarity import (
    NGRAM_SIZES,
    THRESHOLD,
    _gram_vector,
    _pair_cosine,
    levenshtein,
    ngram_cosine,
)
from helpers import tuple_cosine, tuple_gram_vector

SIZES = frozenset({2, 3})


# --- reference implementations -------------------------------------------------

def slow_levenshtein(a: str, b: str) -> int:
    if not a:
        return len(b)
    if not b:
        return len(a)
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(len(a) + 1):
        table[i][0] = i
    for j in range(len(b) + 1):
        table[0][j] = j
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            table[i][j] = min(table[i - 1][j] + 1, table[i][j - 1] + 1, table[i - 1][j - 1] + cost)
    return table[len(a)][len(b)]


def slow_cosine(a: str, b: str, sizes=(2, 3)) -> float:
    def grams(text):
        text = text.lower()
        counts = Counter()
        for n in sizes:
            if 0 < len(text) < n:
                counts[(n, text)] += 1
            else:
                for i in range(len(text) - n + 1):
                    counts[(n, text[i:i + n])] += 1
        return counts

    ca, cb = grams(a), grams(b)
    dot = sum(ca[g] * cb[g] for g in ca)
    if not dot:
        return 0.0
    na = math.sqrt(sum(v * v for v in ca.values()))
    nb = math.sqrt(sum(v * v for v in cb.values()))
    return dot / (na * nb)


# --- levenshtein ----------------------------------------------------------------

def test_levenshtein_known_values():
    assert levenshtein("kitten", "sitting") == 3
    assert levenshtein("", "abc") == 3
    assert levenshtein("abc", "") == 3
    assert levenshtein("same", "same") == 0
    assert levenshtein("Happy", "Glad") == 5


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=12), st.text(max_size=12))
def test_levenshtein_matches_reference(a, b):
    assert levenshtein(a, b) == slow_levenshtein(a, b)


@settings(max_examples=100, deadline=None)
@given(st.text(max_size=10), st.text(max_size=10), st.text(max_size=10))
def test_levenshtein_triangle_inequality(a, b, c):
    assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)


# --- n-gram cosine ---------------------------------------------------------------

def test_cosine_identical_strings():
    assert ngram_cosine("Loves(x, y)", "Loves(x, y)") == pytest.approx(1.0)


def test_cosine_disjoint_strings():
    assert ngram_cosine("abc", "xyz") == 0.0


def test_cosine_case_insensitive_by_default():
    assert ngram_cosine("Happy(A)", "happy(a)") == pytest.approx(1.0)


def test_cosine_empty_inputs():
    assert ngram_cosine("", "") == 0.0
    assert ngram_cosine("", "ab") == 0.0


def test_short_strings_fall_back_to_whole_string():
    # single characters have no bigram, so the whole string stands in
    assert ngram_cosine("a", "a") == pytest.approx(1.0)
    assert ngram_cosine("a", "b") == 0.0


def test_default_threshold_exact_boundary():
    # Texts of 6 and 14 distinct letters have 9 and 25 distinct grams, the
    # shorter's all shared: dot = 9, |a| = 3, |b| = 5, cosine = 3/5 exactly
    value = ngram_cosine("abcdef", "abcdefghijklmn")
    assert value == THRESHOLD == 0.6
    assert CandidateGraph.build(("abcdef",), ("abcdefghijklmn",)).edges == ((0, 0, 0.6),)


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet="abcxyz()", max_size=14), st.text(alphabet="abcxyz()", max_size=14))
def test_cosine_matches_reference(a, b):
    assert ngram_cosine(a, b) == pytest.approx(slow_cosine(a, b), abs=1e-12)


def test_the_gram_sizes_are_two_and_three():
    assert NGRAM_SIZES == (2, 3)
    assert THRESHOLD == LeConfig().threshold == 0.6


# Texts each empty, shorter than both gram sizes, mixed-case (with İ, whose
# lower-case form is two characters), atom-like or arbitrary.
_TEXTS = st.one_of(
    st.just(""),
    st.text(alphabet="aAİ(", min_size=1, max_size=1),
    st.text(alphabet="aAbBİi(), ", max_size=14),
    st.builds(
        lambda n, a: f"{n}({', '.join(a)})",
        st.text(alphabet="AbCdİı", min_size=1, max_size=8),
        st.lists(st.sampled_from("xyzİ"), max_size=3),
    ),
    st.text(max_size=10),
)


@settings(max_examples=300, deadline=None)
@given(_TEXTS, _TEXTS)
def test_cosine_and_norm_equal_the_tuple_keyed_oracle_exactly(a, b):
    assert ngram_cosine(a, b) == tuple_cosine(a, b, SIZES)
    for text in (a, b):
        compared, counts, norm = _gram_vector(text)
        oracle_text, oracle_counts, oracle_norm = tuple_gram_vector(text, SIZES)
        assert (compared, norm) == (oracle_text, oracle_norm)
        # A string key is a full-length gram, whose length is its size.
        assert {(len(g), g) if isinstance(g, str) else g: c for g, c in counts.items()} == oracle_counts


# More distinct pairs than the cosine memo holds, over few enough texts that
# their gram vectors stay cached.
_FILLER = list(itertools.combinations([f"Fill{i}(x)" for i in range(46)], 2))


@settings(max_examples=100, deadline=None)
@given(_TEXTS, _TEXTS)
def test_the_cosine_memo_is_exact_cold_warm_and_after_eviction(a, b):
    oracle = tuple_cosine(a, b, SIZES)
    maxsize = _pair_cosine.cache_info().maxsize
    filler = [pair for pair in _FILLER if sorted(pair) != sorted((a, b))][:maxsize]
    _pair_cosine.cache_clear()
    try:
        assert ngram_cosine(a, b) == oracle
        # warm, in either order: both orders share one entry
        assert ngram_cosine(b, a) == oracle
        assert ngram_cosine(a, b) == oracle
        assert _pair_cosine.cache_info()[:2] == (2, 1)
        for x, y in filler:
            ngram_cosine(x, y)
        assert _pair_cosine.cache_info().currsize == maxsize
        misses = _pair_cosine.cache_info().misses
        assert ngram_cosine(b, a) == oracle
        assert _pair_cosine.cache_info().misses == misses + 1  # it was evicted
        assert ngram_cosine(a, b) == oracle
    finally:
        _pair_cosine.cache_clear()


def test_cached_gram_vectors_stay_small():
    # 5,000 cosines over 5,001 distinct 20-character atom texts: the cache
    # keeps at most 1,024 string-keyed count vectors.
    texts = [f"Atom{i:07d}(x, y, z)" for i in range(5001)]
    assert {len(text) for text in texts} == {20}
    _gram_vector.cache_clear()
    tracemalloc.start()
    try:
        for a, b in zip(texts, texts[1:]):
            ngram_cosine(a, b)
        traced, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        _gram_vector.cache_clear()
    assert traced < 8 * 2**20


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=14), st.text(max_size=14))
def test_cosine_symmetric_and_bounded(a, b):
    v = ngram_cosine(a, b)
    assert 0.0 <= v <= 1.0 + 1e-12
    assert v == pytest.approx(ngram_cosine(b, a))


# --- relatedness decision ---------------------------------------------------------

def test_default_threshold_on_similar_predicates():
    # shared stem keeps renamed predicates related
    edges = CandidateGraph.build(("Happy(x)",), ("Happyy(x)", "Grumpy(y)")).edges
    assert [(i, j) for i, j, _ in edges] == [(0, 0)]


def test_threshold_is_inclusive():
    # One-character and bracketed texts too: their cosine against
    # themselves must not round below 1.0.
    for text in ("abc", "a", "P(x)"):
        assert ngram_cosine(text, text) == 1.0
        assert CandidateGraph.build((text,), (text,), 1.0).edges == ((0, 0, 1.0),)


@pytest.mark.parametrize("threshold", [-0.1, 1.5, math.nan])
def test_threshold_validation(threshold):
    with pytest.raises(ValueError, match=r"^threshold must lie in \[0, 1\]$"):
        LeConfig(threshold=threshold)
