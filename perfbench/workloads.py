"""The three workloads, each with an untraced (end-to-end) and a traced
(per-layer) run.

Every workload takes the run's seed, builds its inputs from it, warms up
on inputs from a different seed and a disjoint vocabulary, and then
measures a fixed amount of work sized from ``--seconds`` (so a seed always
gets the same inputs, whatever the host's speed).  The first part of each
input stream, the prefix, is what the traced run processes; its digest of
scores must be the same in the untraced and the traced run of one seed.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from foleq import EvalPair, corpus_le, default_demo_config, train_demo
from foleq.service import ServiceConfig, serve

import gen
import oracle
from hostspeed import Clock, timed_reference
from spans import Tracer, clear_similarity_caches

WARM_SALT = 0x5EED
SETUP_REPEATS = 11
# A run stops early once its measured phase has taken this many times
# --seconds of wall time, so a slow host still finishes in time.
WALL_CAP_FACTOR = 4


@dataclass
class Outcome:
    """What one pass over a workload produced and how it was judged."""

    attempted: int = 0
    failed: int = 0
    wrong_count: int = 0  # wrong outputs
    unexpected: list[str] = field(default_factory=list)  # the first few reasons
    defects: Counter = field(default_factory=Counter)  # known-defect failures
    latencies_ns: list[int] = field(default_factory=list)
    work: int = 0  # pairs, requests or iterations
    timed_ns: int = 0
    clock: Clock | None = None
    digest: "hashlib._Hash" = field(default_factory=hashlib.sha256)
    digest_ops: int = 0
    shares: Counter = field(default_factory=Counter)
    outcomes: Counter = field(default_factory=Counter)
    seen_pairs: set = field(default_factory=set)

    def record(self, ns: int, work: int) -> None:
        self.timed_ns += ns
        self.latencies_ns.append(ns)
        self.work += work
        if self.clock is not None:
            self.clock.add(ns)

    def note_pair(self, prediction: str, reference: str) -> None:
        key = (prediction, reference)
        self.shares["repeated_pair"] += key in self.seen_pairs
        self.seen_pairs.add(key)

    def wrong(self, reason: str) -> None:
        self.failed += 1
        self.wrong_count += 1
        if len(self.unexpected) < 10:
            self.unexpected.append(reason)

    def defect(self, label: str) -> None:
        self.failed += 1
        self.defects[label] += 1

    def digest_hex(self) -> str:
        return self.digest.hexdigest()[:16]

    def rate(self) -> float:
        """Work per raw wall second."""
        return self.work / (self.timed_ns / 1e9)

    def reference_rate(self) -> float:
        """Work per reference-host second."""
        self.clock.flush()
        return self.work / (sum(self.clock.ref_ns) / 1e9)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile of ``values``; ``q`` in (0, 1]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def _child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def _setup_seconds(measure) -> tuple[float, float]:
    """Median raw and reference-host seconds of ``SETUP_REPEATS`` cold
    starts; ``measure(i)`` performs start ``i`` and returns its seconds."""
    samples = [timed_reference(lambda: measure(i)) for i in range(SETUP_REPEATS)]
    return statistics.median(s[0] for s in samples), statistics.median(s[1] for s in samples)


def _probe_setup(root: Path, code: str, arg: str) -> float:
    """Seconds from spawning a fresh interpreter until it has imported
    foleq and finished one operation (it prints a line when done)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", code, arg], stdout=subprocess.PIPE, text=True, env=_child_env(root), cwd=root
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    finally:
        proc.stdout.close()
        proc.wait(timeout=60)
    if proc.returncode != 0 or line.strip() != "done":
        raise RuntimeError(f"setup probe exited with {proc.returncode}")
    return elapsed


def _measure(ops, run_one, out: Outcome, seconds: float) -> None:
    """Run ``run_one`` on each of ``ops`` unless the wall cap is reached."""
    deadline = time.perf_counter() + WALL_CAP_FACTOR * seconds
    for op in ops:
        run_one(op, out)
        if time.perf_counter() > deadline:
            out.shares["stopped_at_wall_cap"] = 1
            break
    out.clock.flush()


def _e2e(out: Outcome, setup: tuple[float, float], op_ms: list[float], tail_q: float, rss: float) -> dict:
    return {
        "setup_s": setup[1],
        "ops_per_s": out.reference_rate(),
        "op_p50_ms": statistics.median(op_ms),
        "op_tail_ms": percentile(op_ms, tail_q),
        "peak_rss_mb": rss,
    }


def _chunks(items: list, size: int) -> list[list]:
    return [items[i : i + size] for i in range(0, len(items), size)]


def _paired(chunks, run) -> dict:
    """Run each chunk untraced and then traced, each from emptied
    similarity caches, so drift in machine speed falls on both sides
    alike.  ``run(chunk, outcome, tracer)`` gets ``tracer=None`` for the
    untraced side and runs inside the installed tracer otherwise."""
    plain, traced, tracer = Outcome(), Outcome(), Tracer()
    for chunk in chunks:
        clear_similarity_caches()
        run(chunk, plain, None)
        clear_similarity_caches()
        with tracer.installed():
            run(chunk, traced, tracer)
    return {"plain": plain, "outcome": traced, "tracer": tracer}


# --- corpus_groups -------------------------------------------------------------

CORPUS_PREFIX_GROUPS = 160
CORPUS_GROUPS_PER_SECOND = 50

_CORPUS_PROBE = """
import json, sys
from foleq import EvalPair, corpus_le
corpus_le([EvalPair(str(i), p, r) for i, (p, r) in enumerate(json.loads(sys.argv[1]))])
print("done", flush=True)
"""


def _corpus_stream(seed: int, vocab=gen.MEASURED):
    rng = random.Random(seed)
    for index in itertools.count():
        yield gen.corpus_group(rng, index, vocab)


def _judge_group(group, report, out: Outcome) -> None:
    """Check one corpus_le result pair by pair against the oracle."""
    failures = dict(report.failures)
    for i, (pair, item) in enumerate(zip(group, report.per_pair)):
        out.shares["pairs"] += 1
        out.shares["flat_chain"] += pair.flat_chain
        out.shares["similar_named_ref"] += pair.ref_kind == "similar"
        out.shares["unparseable"] += pair.kind == "garbage"
        if item is None:
            message = failures.get(str(i), "")
            out.outcomes["failed_to_score"] += 1
            if pair.kind == "garbage":
                out.outcomes["expected_parse_error"] += 1
            elif oracle.in_caps(pair):
                out.defect("CapExceeded inside the caps")
            elif "cap" not in message:
                out.wrong(f"parseable prediction rejected: {pair.prediction!r}: {message}")
            continue
        out.outcomes["scored"] += 1
        if pair.kind == "garbage":
            out.wrong(f"unparseable prediction scored: {pair.prediction!r}")
            continue
        reason = oracle.score_pair(pair, item.score, item.to_dict()["binding"], item.trees_explored)
        if reason is not None:
            out.wrong(f"{reason}: {pair.prediction!r} vs {pair.reference!r}")


def _corpus_group(group, out: Outcome, le_call=corpus_le) -> None:
    """Score one group as one corpus_le call, then judge it."""
    pairs = [EvalPair(str(i), p.prediction, p.reference) for i, p in enumerate(group)]
    out.attempted += len(pairs)
    start = time.perf_counter_ns()
    try:
        report = le_call(pairs, mode="optimized")
    except RecursionError:
        report = None
    out.record(time.perf_counter_ns() - start, len(pairs))
    references = Counter(p.reference for p in group)
    for p in group:
        out.note_pair(p.prediction, p.reference)
        out.shares["reference_shared_in_group"] += references[p.reference] > 1
    if report is None:
        for _ in pairs:
            out.defect("RecursionError")
        return
    if out.digest_ops < CORPUS_PREFIX_GROUPS:
        for item in report.per_pair:
            out.digest.update((repr(item.score) if item is not None else "fail").encode() + b";")
        out.digest_ops += 1
    _judge_group(group, report, out)


def _warm_corpus(seed: int) -> None:
    for group in itertools.islice(_corpus_stream(seed ^ WARM_SALT, gen.WARM), 20):
        corpus_le([EvalPair(str(i), p.prediction, p.reference) for i, p in enumerate(group)])


def corpus_groups(root: Path, seed: int, seconds: float) -> dict:
    probe_group = next(_corpus_stream(seed ^ WARM_SALT, gen.WARM))
    probe_arg = json.dumps([(p.prediction, p.reference) for p in probe_group])
    setup = _setup_seconds(lambda i: _probe_setup(root, _CORPUS_PROBE, probe_arg))
    _warm_corpus(seed)
    out = Outcome(clock=Clock())
    count = max(CORPUS_PREFIX_GROUPS, round(seconds * CORPUS_GROUPS_PER_SECOND))
    _measure(itertools.islice(_corpus_stream(seed), count), _corpus_group, out, seconds)
    group_ms = [ns / 1e6 for ns in out.clock.ref_ns]
    raw_ms = [ns / 1e6 for ns in out.latencies_ns]
    return {
        "outcome": out,
        "metrics": _e2e(out, setup, group_ms, 0.90, peak_rss_mb(resource.RUSAGE_SELF)),
        "report": [
            ("pairs_per_s", out.reference_rate(), "1/s"),
            ("group_p50_ms", statistics.median(group_ms), "ms"),
            ("group_p90_ms", percentile(group_ms, 0.90), "ms"),
            ("raw pairs_per_s", out.rate(), "1/s"),
            ("raw group_p50_ms", statistics.median(raw_ms), "ms"),
            ("raw group_p90_ms", percentile(raw_ms, 0.90), "ms"),
            ("raw setup_s", setup[0], "s"),
            ("groups", len(group_ms), "count"),
        ],
    }


def corpus_groups_traced(root: Path, seed: int) -> dict:
    _warm_corpus(seed)
    groups = list(itertools.islice(_corpus_stream(seed), CORPUS_PREFIX_GROUPS))

    def run(chunk, out, tracer):
        call = corpus_le if tracer is None else tracer.span("corpus.corpus_le", corpus_le, tracer.corpus_done)
        for group in chunk:
            _corpus_group(group, out, call)

    return _paired(_chunks(groups, 10), run)


# --- serve_mixed ---------------------------------------------------------------

SERVE_PREFIX_REQUESTS = 4000
SERVE_REQUESTS_PER_SECOND = 1100


def _expected_id(line: str) -> str:
    try:
        raw = json.loads(line)
    except json.JSONDecodeError:
        return "?"
    rid = raw.get("id") if isinstance(raw, dict) else None
    return rid if isinstance(rid, str) and rid else "?"


def _judge_reply(request: gen.Request, text: str, out: Outcome) -> None:
    """Check one reply line: framing, outcome class, and the score."""
    try:
        reply = json.loads(text)
    except json.JSONDecodeError:
        out.wrong(f"reply is not JSON: {text!r}")
        return
    if reply.get("id") != _expected_id(request.line):
        out.wrong(f"reply id {reply.get('id')!r} for request {request.id}")
    if ("score" in reply) == ("error" in reply):
        out.wrong(f"reply {request.id} must carry exactly one of score and error")
        return
    pair = request.pair
    if "error" in reply:
        code = reply["error"].get("code")
        out.outcomes[code] += 1
        if request.op == "malformed":
            if code != "BAD_REQUEST":
                out.wrong(f"malformed line {request.id} answered {code}")
        elif code == "INTERNAL" and request.kind == "degenerate":
            out.defect("INTERNAL on a deep negation run")
        elif code == "CAP_EXCEEDED" and oracle.in_caps(pair, request.max_atoms, request.mode):
            out.defect("CAP_EXCEEDED inside the caps")
        elif code != "CAP_EXCEEDED":
            out.wrong(f"request {request.id} ({request.kind}) answered {code}: {reply['error'].get('message')}")
        return
    score = reply["score"]
    detail = reply.get("detail") or {}
    out.outcomes["warning" if "warning" in detail else "score"] += 1
    if request.op == "malformed":
        out.wrong(f"malformed line {request.id} was scored")
        return
    if not 0.0 <= score <= 1.0:
        out.wrong(f"request {request.id} score {score} outside [0, 1]")
        return
    if request.op == "bleu_pair":
        return
    if "warning" in detail:
        if request.kind != "garbage" or score != 0.0:
            out.wrong(f"request {request.id} ({request.kind}) got warning {detail['warning']!r}")
        return
    if request.kind == "garbage":
        out.wrong(f"unparseable prediction {request.id} was scored")
        return
    reason = oracle.score_pair(pair, score, detail.get("binding"), detail.get("trees_explored"))
    if reason is not None:
        out.wrong(f"{request.id}: {reason}: {pair.prediction!r} vs {pair.reference!r}")


def _reply_done(request: gen.Request, reply: str, elapsed: int, out: Outcome) -> None:
    out.record(elapsed, 1)
    out.attempted += 1
    out.shares["requests"] += 1
    if request.pair is not None:
        out.note_pair(request.pair.prediction, request.pair.reference)
    out.shares["original_mode"] += request.op == "le_score" and request.mode == "original"
    out.shares["degenerate"] += request.kind == "degenerate"
    out.shares["flat_chain"] += request.kind == "chain"
    out.shares["malformed"] += request.op == "malformed"
    out.shares["unparseable"] += request.kind == "garbage"
    out.shares["overrides"] += '"overrides"' in request.line and request.op != "malformed"
    if out.digest_ops < SERVE_PREFIX_REQUESTS:
        decoded = json.loads(reply)
        tag = f"s{decoded['score']!r}" if "score" in decoded else f"e{decoded['error']['code']}"
        out.digest.update(f"{decoded.get('id')}:{tag};".encode())
        out.digest_ops += 1
    _judge_reply(request, reply, out)


class _Server:
    """``python -m foleq serve --stdio`` driven by one closed-loop client."""

    def __init__(self, root: Path):
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "foleq", "serve", "--stdio"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            encoding="utf-8",
            env=_child_env(root),
            cwd=root,
        )

    def ask(self, line: str) -> str:
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError(f"the server exited with {self.proc.poll()} before replying")
        return reply

    def close(self) -> None:
        try:
            self.proc.stdin.write('{"op": "shutdown"}\n')
            self.proc.stdin.close()
        except (BrokenPipeError, OSError):
            pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def serve_mixed(root: Path, seed: int, seconds: float) -> dict:
    warm = gen.serve_requests(random.Random(seed ^ WARM_SALT), gen.WARM, prefix="w")
    servers: list[_Server] = []

    def cold_start(i: int) -> float:
        start = time.perf_counter()
        servers.append(_Server(root))
        servers[-1].ask(next(warm).line)
        return time.perf_counter() - start

    try:
        setup = _setup_seconds(cold_start)
        while len(servers) > 1:
            servers.pop(0).close()
        server = servers[0]
        for request in itertools.islice(warm, 300):
            server.ask(request.line)

        def ask(request, out):
            start = time.perf_counter_ns()
            reply = server.ask(request.line)
            _reply_done(request, reply, time.perf_counter_ns() - start, out)

        out = Outcome(clock=Clock())
        count = max(SERVE_PREFIX_REQUESTS, round(seconds * SERVE_REQUESTS_PER_SECOND))
        _measure(itertools.islice(gen.serve_requests(random.Random(seed)), count), ask, out, seconds)
    finally:
        for server in servers:
            server.close()
    req_us = [ns / 1e3 for ns in out.clock.ref_ns]
    raw_us = [ns / 1e3 for ns in out.latencies_ns]
    return {
        "outcome": out,
        # p98, not p99: in this mix the p99 falls on the cliff between ordinary
        # requests and the original-mode chains, where it moved by a tenth
        # between runs; p98 still has over 300 requests beyond it
        "metrics": _e2e(out, setup, [us / 1e3 for us in req_us], 0.98, peak_rss_mb(resource.RUSAGE_CHILDREN)),
        "report": [
            ("req_per_s", out.reference_rate(), "1/s"),
            ("req_p50_us", statistics.median(req_us), "us"),
            ("req_p98_us", percentile(req_us, 0.98), "us"),
            ("req_p99_us", percentile(req_us, 0.99), "us"),
            ("raw req_per_s", out.rate(), "1/s"),
            ("raw req_p50_us", statistics.median(raw_us), "us"),
            ("raw req_p99_us", percentile(raw_us, 0.99), "us"),
            ("raw setup_s", setup[0], "s"),
            ("requests", len(req_us), "count"),
        ],
    }


class _ClosedLoop:
    """Feeds ``serve()`` one line at a time: the next line is handed over
    only after the reply to the previous one has been written."""

    def __init__(self, requests, out: Outcome):
        self.requests = requests
        self.out = out
        self.pending = None
        self.start = 0

    def __iter__(self):
        for request in self.requests:
            self.pending = request
            self.start = time.perf_counter_ns()
            yield request.line + "\n"

    def write(self, text: str) -> None:
        _reply_done(self.pending, text, time.perf_counter_ns() - self.start, self.out)

    def flush(self) -> None:
        pass


def serve_mixed_traced(root: Path, seed: int) -> dict:
    warm = list(itertools.islice(gen.serve_requests(random.Random(seed ^ WARM_SALT), gen.WARM, prefix="w"), 300))
    loop = _ClosedLoop(warm, Outcome())
    serve(loop, loop, ServiceConfig())
    requests = list(itertools.islice(gen.serve_requests(random.Random(seed)), SERVE_PREFIX_REQUESTS))

    def run(chunk, out, tracer):
        loop = _ClosedLoop(chunk, out)
        serve(loop, loop, ServiceConfig())

    return _paired(_chunks(requests, 250), run)


# --- train_demo ----------------------------------------------------------------

TRAIN_ITERATIONS = 50
TRAIN_PREFIX_CALLS = 12
TRAIN_CALLS_PER_SECOND = 3.2

_TRAIN_PROBE = """
import sys
from foleq import default_demo_config, train_demo
train_demo(default_demo_config(iterations=1, seed=int(sys.argv[1])))
print("done", flush=True)
"""


def _train_call(seed: int, out: Outcome, train=train_demo) -> None:
    """One ``train_demo`` call of ``TRAIN_ITERATIONS`` iterations, judged."""
    start = time.perf_counter_ns()
    trace = train(default_demo_config(iterations=TRAIN_ITERATIONS, seed=seed))
    out.record(time.perf_counter_ns() - start, len(trace))
    out.attempted += len(trace)
    rewards = [record["mean_reward"] for record in trace]
    for record in trace:
        if not (0.0 <= record["mean_reward"] <= 1.0 and 0.0 <= record["reward_std"] <= 0.5):
            out.wrong(f"seed {seed} iteration {record['iter']}: reward outside [0, 1]")
    if not rewards[-1] > rewards[0]:
        out.wrong(f"seed {seed}: final mean reward {rewards[-1]} does not exceed the first {rewards[0]}")
    if out.digest_ops < TRAIN_PREFIX_CALLS:
        out.digest.update(repr(rewards).encode())
        out.digest_ops += 1


def _train_seeds(seed: int):
    rng = random.Random(seed)
    while True:
        yield rng.randrange(2**31)


def train_demo_workload(root: Path, seed: int, seconds: float) -> dict:
    setup = _setup_seconds(lambda i: _probe_setup(root, _TRAIN_PROBE, str(seed ^ WARM_SALT)))
    train_demo(default_demo_config(iterations=10, seed=seed ^ WARM_SALT))
    out = Outcome(clock=Clock(with_numpy=True))
    count = max(TRAIN_PREFIX_CALLS, round(seconds * TRAIN_CALLS_PER_SECOND))
    _measure(itertools.islice(_train_seeds(seed), count), _train_call, out, seconds)
    iter_ms = [ns / 1e6 / TRAIN_ITERATIONS for ns in out.clock.ref_ns]
    return {
        "outcome": out,
        # 48 calls in a 15-second run: p75 is the highest percentile with
        # ten or more calls beyond it
        "metrics": _e2e(out, setup, iter_ms, 0.75, peak_rss_mb(resource.RUSAGE_SELF)),
        "report": [
            ("iter_ms", sum(iter_ms) / len(iter_ms), "ms"),
            ("raw iter_ms", out.timed_ns / 1e6 / out.work, "ms"),
            ("raw setup_s", setup[0], "s"),
            ("calls", len(iter_ms), "count"),
        ],
    }


def train_demo_traced(root: Path, seed: int) -> dict:
    train_demo(default_demo_config(iterations=10, seed=seed ^ WARM_SALT))
    seeds = list(itertools.islice(_train_seeds(seed), TRAIN_PREFIX_CALLS))

    def run(chunk, out, tracer):
        train = train_demo if tracer is None else tracer.span("sgrpo.train_demo", train_demo)
        for s in chunk:
            _train_call(s, out, train)

    return _paired(_chunks(seeds, 1), run)


WORKLOADS = {
    "corpus_groups": (corpus_groups, corpus_groups_traced),
    "serve_mixed": (serve_mixed, serve_mixed_traced),
    "train_demo": (train_demo_workload, train_demo_traced),
}
