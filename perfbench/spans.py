"""Span recording around the calls one foleq module makes into another.

Tracing replaces module attributes with timing wrappers for the length of
a ``with Tracer.installed():`` block and restores them afterwards; the
program itself is not modified.  Each span is kept in memory as
``[name, parent index, start ns, end ns, child ns]``.  ``child ns`` is the
part of the span covered by its children, so a span's self time is its
duration minus ``child ns``.  The similarity calls are too many to keep
as spans; they are summed per name and charged to their parent's child
time instead.
"""

from __future__ import annotations

import contextlib
import gzip
import json
from collections import Counter, defaultdict
from time import perf_counter_ns

import foleq.corpus
import foleq.equivalence
import foleq.service
import foleq.sgrpo
import foleq.syntax
from foleq.equivalence import CandidateGraph
from foleq.service import ScoreResponse
from foleq.similarity import _gram_vector, levenshtein
from foleq.syntax import CapExceeded, ParseError

START, END, CHILD = 2, 3, 4  # positions in a span record


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.leaf_calls: Counter = Counter()
        self.leaf_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self.reference_parses: list[str] = []
        self.rewards: list[tuple[str, str]] = []

    # --- recording -----------------------------------------------------------

    def span(self, name: str, fn, after=None):
        """Wrap ``fn`` so each call records a span; ``after(args, result,
        exc)`` sees every call's outcome."""
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            record = [name, parent, 0, 0, 0]
            stack.append(len(spans))
            spans.append(record)
            exc = result = None
            record[START] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as error:
                exc = error
                raise
            finally:
                end = record[END] = perf_counter_ns()
                stack.pop()
                if parent >= 0:
                    spans[parent][CHILD] += end - record[START]
                if after is not None:
                    after(args, result, exc)

        return wrapper

    def leaf(self, name: str, fn):
        """Wrap a hot leaf call: count and time it without keeping spans."""
        spans, stack, calls, total = self.spans, self._stack, self.leaf_calls, self.leaf_ns

        def wrapper(*args, **kwargs):
            start = perf_counter_ns()
            result = fn(*args, **kwargs)
            elapsed = perf_counter_ns() - start
            calls[name] += 1
            total[name] += elapsed
            if stack:
                spans[stack[-1]][CHILD] += elapsed
            return result

        return wrapper

    def counted(self, name: str, fn):
        calls = self.leaf_calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # --- outcome hooks -------------------------------------------------------

    def _le_score_done(self, args, report, exc):
        if exc is None:
            self.counts["le_score.ok"] += 1
            self.counts["trees"] += report.trees_explored
            self.counts["bindings"] += report.bindings_explored
            self.counts["rows"] += report.assignments_evaluated
            self.counts["truncated"] += report.truncated
        elif isinstance(exc, CapExceeded):
            self.counts["cap_exceeded"] += 1

    def _reference_parsed(self, args, result, exc):
        self.reference_parses.append(args[0])

    def _reward_done(self, args, report, exc):
        self.rewards.append((args[0], args[1]))
        if isinstance(exc, ParseError):
            self.counts["reward.parse_fail"] += 1

    def _reference_reparsed(self, args, result, exc):
        self.counts["reference_reparse"] += 1

    def corpus_done(self, args, report, exc):
        if exc is None:
            self.counts["corpus.failures"] += len(report.failures)

    # --- installation --------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Swap timing wrappers into the foleq modules, restoring the
        originals on exit."""
        eq, syn, corpus, sgrpo, service = (
            foleq.equivalence, foleq.syntax, foleq.corpus, foleq.sgrpo, foleq.service,
        )
        le_score = self.span("equivalence.le_score", eq.le_score, self._le_score_done)
        reward = self.span("sgrpo.reward", le_score, self._reward_done)
        patches = [
            (syn, "lex", self.span("syntax.lex", syn.lex)),
            (eq, "lex", self.span("syntax.lex", eq.lex)),
            (eq, "parse", self.span("syntax.parse", eq.parse, self._reference_parsed)),
            (eq, "canonicalize", self.span("syntax.canonicalize", eq.canonicalize)),
            (eq, "enumerate_bracketings", self.span("syntax.bracketing", eq.enumerate_bracketings)),
            (eq, "atoms_of", self.span("syntax.atoms_of", eq.atoms_of)),
            (eq, "bind_optimized", self.span("equivalence.bind_optimized", eq.bind_optimized)),
            (eq, "bind_original", self.span("equivalence.bind_original", eq.bind_original)),
            (eq, "ngram_cosine", self.leaf("similarity.cosine", eq.ngram_cosine)),
            (eq, "levenshtein", self.counted("similarity.levenshtein", eq.levenshtein)),
            (CandidateGraph, "build", classmethod(self.span("equivalence.graph", CandidateGraph.build.__func__))),
            (corpus, "le_score", le_score),
            (corpus, "corpus_bleu", self.span("corpus.bleu", corpus.corpus_bleu)),
            (sgrpo, "le_score", reward),
            (sgrpo, "sample_group", self.span("sgrpo.sample", sgrpo.sample_group)),
            (sgrpo, "sgrpo_objective", self.span("sgrpo.objective", sgrpo.sgrpo_objective)),
            (sgrpo, "objective_gradient", self.span("sgrpo.gradient", sgrpo.objective_gradient)),
            (service, "le_score", le_score),
            (service, "corpus_bleu", self.span("corpus.bleu", service.corpus_bleu)),
            (service, "parse", self.span("syntax.parse", service.parse, self._reference_reparsed)),
            (service, "handle_request", self.span("service.handle_request", service.handle_request)),
            (service, "handle_line", self.span("service.handle_line", service.handle_line)),
            (ScoreResponse, "to_json", self.span("service.encode", ScoreResponse.to_json)),
        ]
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
        lev_before = levenshtein.cache_info()
        try:
            for owner, attr, wrapped in patches:
                setattr(owner, attr, wrapped)
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)
            lev_after = levenshtein.cache_info()
            self.counts["levenshtein.hits"] += lev_after.hits - lev_before.hits
            self.counts["levenshtein.misses"] += lev_after.misses - lev_before.misses

    # --- results -------------------------------------------------------------

    def totals(self) -> tuple[dict[str, int], dict[str, int], Counter]:
        """Per span name: total ns, self ns, and call count."""
        total: dict[str, int] = defaultdict(int)
        own: dict[str, int] = defaultdict(int)
        calls: Counter = Counter()
        for name, _, start, end, child in self.spans:
            total[name] += end - start
            own[name] += end - start - child
            calls[name] += 1
        for name, ns in self.leaf_ns.items():
            total[name] += ns
            own[name] += ns
            calls[name] += self.leaf_calls[name]
        return total, own, calls

    def write(self, path) -> None:
        """Write the spans as JSON lines: name, parent index, start, end."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for name, parent, start, end, _ in self.spans:
                handle.write(json.dumps([name, parent, start, end]) + "\n")


def clear_similarity_caches() -> None:
    """Empty the similarity caches so two passes over the same inputs start
    from the same cache state."""
    levenshtein.cache_clear()
    _gram_vector.cache_clear()
