"""Benchmark for foleq: three seeded workloads, end to end or traced.

Run from the root of a checkout (the directory holding ``src/foleq`` and
``BENCHMARK.json``):

    python3 perfbench/run.py --workload corpus_groups --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1
    python3 perfbench/run.py --ladder

``--workload all`` runs the three workloads one after another, each in a
fresh interpreter, and prints each one's report.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` runs a fixed
prefix of the same inputs untraced and then traced, reports the per-layer
split and the tracing overhead, prints the exact-count ladders, and writes
the spans to ``.perfbench_out/``.  Every run checks the program's outputs
against the oracle.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Every workload reports the same end-to-end metrics, so their names are
workload-neutral; what an operation is depends on the workload:

    metric       corpus_groups        serve_mixed        train_demo
    ops_per_s    pairs per second     requests per sec.  iterations per sec.
    op_p50_ms    corpus_le call p50   request p50        ms/iteration, call p50
    op_tail_ms   corpus_le call p90   request p98        ms/iteration, call p75

The workload-specific names (``pairs_per_s``, ``group_p90_ms``,
``req_p99_us``, ``iter_ms``, ``fail_ratio``, ...) are printed as report
lines above the result.

End-to-end times are rescaled to a reference host speed measured by a
calibration loop run between operations (see ``hostspeed.py``), because
the shared hosts this runs on drift in speed by a quarter within a minute;
the raw wall-clock figures are printed beside them.  The benchmark pins
itself, and the processes it starts, to one CPU so that the calibration
measures the CPU the work runs on.

``correct`` is false when the program returned a wrong output: a score the
oracle disagrees with, a score for unparseable text, a badly framed reply,
or (traced) a digest that differs from the untraced pass.  ``failed``
counts those plus the operations that returned no answer for an input
inside the caps (the known ``CapExceeded`` and deep-negation defects), so
``failed / attempted`` is the workload's fail ratio.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

WORKLOAD_NAMES = ("corpus_groups", "serve_mixed", "train_demo")
SERVICE_OUTCOMES = ("score", "warning", "BAD_REQUEST", "CAP_EXCEEDED", "INTERNAL")
SHARE_KEYS = (
    "repeated_pair", "reference_shared_in_group", "flat_chain", "similar_named_ref",
    "original_mode", "degenerate", "unparseable", "malformed", "overrides",
)


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _environment() -> list[str]:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return [
        f"env python={platform.python_version()} numpy={numpy.__version__}",
        f"env nproc={len(os.sched_getaffinity(0))} cpu_count={os.cpu_count()} cpu={cpu!r}",
        f"env platform={platform.platform()}",
    ]


def _shares(out) -> list[str]:
    base = out.shares["pairs"] or out.shares["requests"]
    if not base:  # train_demo samples its own inputs; the traced run counts them
        return []
    return [f"share {key} = {out.shares[key] / base:.4f} of {base}" for key in SHARE_KEYS]


def _judgement(out, label: str) -> list[str]:
    lines = [
        f"{label} attempted = {out.attempted}",
        f"{label} failed = {out.failed}",
        f"{label} fail_ratio = {out.failed / out.attempted:.6f}",
        f"{label} wrong_outputs = {out.wrong_count}",
    ]
    for defect, count in sorted(out.defects.items()):
        lines.append(f"{label} known_defect {defect!r} = {count}")
    for key, count in sorted(out.outcomes.items()):
        lines.append(f"{label} outcome {key} = {count}")
    for reason in out.unexpected:
        lines.append(f"{label} WRONG {reason}")
    lines.append(f"{label} digest = {out.digest_hex()} over {out.digest_ops} ops")
    return lines


def _layer_metrics(result: dict) -> dict[str, float]:
    tracer, out, plain = result["tracer"], result["outcome"], result["plain"]
    total, own, calls = tracer.totals()
    counts = tracer.counts

    def ms(ns: int) -> float:
        return ns / 1e6

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    scored = counts["le_score.ok"]
    lev_lookups = counts["levenshtein.hits"] + counts["levenshtein.misses"]
    refs, rewards = tracer.reference_parses, tracer.rewards
    metrics = {
        "syntax.lex_ms": ms(own["syntax.lex"]),
        "syntax.parse_ms": ms(own["syntax.parse"]),
        "syntax.canonicalize_ms": ms(own["syntax.canonicalize"]),
        "syntax.bracketing_ms": ms(own["syntax.bracketing"]),
        "syntax.atoms_of_ms": ms(own["syntax.atoms_of"]),
        "syntax.trees_per_pair": ratio(counts["trees"], scored),
        "similarity.cosine_calls": calls["similarity.cosine"],
        "similarity.cosine_ms": ms(own["similarity.cosine"]),
        "similarity.levenshtein_calls": tracer.leaf_calls["similarity.levenshtein"],
        "similarity.levenshtein_hit_ratio": ratio(counts["levenshtein.hits"], lev_lookups),
        "equivalence.le_score_calls": calls["equivalence.le_score"],
        "equivalence.le_score_self_ms": ms(own["equivalence.le_score"]),
        "equivalence.graph_ms": ms(own["equivalence.graph"]),
        "equivalence.bind_optimized_ms": ms(own["equivalence.bind_optimized"]),
        "equivalence.bind_original_ms": ms(own["equivalence.bind_original"]),
        "equivalence.bindings_per_pair": ratio(counts["bindings"], scored),
        "equivalence.rows_per_pair": ratio(counts["rows"], scored),
        "equivalence.ref_parse_distinct_ratio": ratio(len(set(refs)), len(refs)),
        "equivalence.cap_exceeded": counts["cap_exceeded"],
        "equivalence.truncated": counts["truncated"],
        "corpus.bleu_ms": ms(total["corpus.bleu"]),
        "corpus.failures": counts["corpus.failures"],
        "sgrpo.sample_ms": ms(total["sgrpo.sample"]),
        "sgrpo.reward_ms": ms(total["sgrpo.reward"]),
        "sgrpo.objective_ms": ms(total["sgrpo.objective"]),
        "sgrpo.gradient_ms": ms(total["sgrpo.gradient"]),
        "sgrpo.reward_calls": len(rewards),
        "sgrpo.reward_distinct_ratio": ratio(len(set(rewards)), len(rewards)),
        "sgrpo.reward_parse_fail_ratio": ratio(counts["reward.parse_fail"], len(rewards)),
        "service.wire_ms": ms(total["service.handle_line"] - total["service.handle_request"]),
        "service.handle_ms": ms(total["service.handle_request"]),
        "service.encode_ms": ms(total["service.encode"]),
        "service.reference_reparse_calls": counts["reference_reparse"],
    }
    for code in SERVICE_OUTCOMES:
        metrics[f"service.outcome.{code}"] = out.outcomes[code]
    metrics["trace.slowdown"] = plain.rate() / out.rate()
    metrics["trace.spans"] = len(tracer.spans)
    return metrics


def _span_table(tracer) -> list[str]:
    total, own, calls = tracer.totals()
    whole = sum(own.values())
    lines = ["span                              calls     total_ms      self_ms  self_share"]
    for name in sorted(own, key=own.get, reverse=True):
        lines.append(
            f"span {name:<28} {calls[name]:>8} {total[name] / 1e6:>12.3f} {own[name] / 1e6:>12.3f} "
            f"{own[name] / whole:>10.4f}"
        )
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ladder", action="store_true", help="print only the exact-count ladders")
    args = parser.parse_args()
    if args.workload is None and not args.ladder:
        parser.error("--workload is required")
    if args.workload == "all":
        status = 0
        for name in WORKLOAD_NAMES:
            command = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(args.trace)]
            returncode = subprocess.run(command).returncode
            status = status or returncode
        return status

    root = Path.cwd()
    if not (root / "src" / "foleq" / "__init__.py").is_file():
        _fail(f"no foleq package under {root / 'src'}; run from the root of a checkout")
    try:
        spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        _fail(f"cannot read BENCHMARK.json: {exc}")
    sys.path.insert(0, str(root / "src"))

    import ladder
    import workloads

    if args.ladder:
        for line in ladder.ladder_lines():
            print(line)
        return 0

    for line in _environment():
        print(line)
    # One CPU for the benchmark, its server and its probes: the host-speed
    # calibration then measures the CPU the work runs on.
    cpu = max(os.sched_getaffinity(0))
    try:
        os.sched_setaffinity(0, {cpu})
        print(f"env pinned_cpu={cpu}")
    except OSError as exc:
        print(f"env pinned_cpu=none ({exc})")
    print(f"run workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    measure, traced = workloads.WORKLOADS[args.workload]
    lines: list[str] = []
    if args.trace:
        result = traced(root, args.seed)
        out, plain = result["outcome"], result["plain"]
        metrics = _layer_metrics(result)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        correct = out.wrong_count == 0 and plain.wrong_count == 0 and out.digest_hex() == plain.digest_hex()
        lines.append(
            f"pairing untraced = {plain.rate():.3f}/s traced = {out.rate():.3f}/s "
            f"slowdown = {metrics['trace.slowdown']:.4f} over {out.work} ops"
        )
        lines += _judgement(plain, "untraced") + _judgement(out, "traced")
        lines += _span_table(result["tracer"])
        lines += ladder.ladder_lines()
        out_dir = root / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{args.workload}.jsonl.gz"
        result["tracer"].write(spans_path)
        lines.append(f"spans written to {spans_path.relative_to(root)}")
    else:
        result = measure(root, args.seed, args.seconds)
        out = result["outcome"]
        metrics = result["metrics"]
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        correct = out.wrong_count == 0
        lines += [f"metric {name} = {value:.6g} {unit}" for name, value, unit in result["report"]]
        lines += _judgement(out, "check")
        lines += _shares(out)
        if out.shares["stopped_at_wall_cap"]:
            lines.append(f"note the measured phase hit the wall cap after {out.work} units of work")
    if set(metrics) != set(units):
        _fail(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    for line in lines:
        print(line)
    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
