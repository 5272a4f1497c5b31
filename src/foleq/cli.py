"""Command-line front end.

Subcommands:
  parse       print the syntax tree and canonical rendering of one formula
  score       score a single pair or a corpus file
  serve       run the line-delimited JSON scoring service
  train-demo  run the small policy-optimization demonstration

Exit codes: 0 success, 1 usage error, 2 data error (unreadable or
unparseable input, an unwritable output path or a socket path that cannot
be bound).  Diagnostics go to stderr; results go to stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from .corpus import EvalPair, corpus_le, decode_json, load_pairs, open_text
from .equivalence import MODES
from .service import CAP_EXCEEDED, BindError, ScoreRequest, ServiceConfig, handle_request, serve, serve_socket
from .service import typed_value
from .syntax import FormulaError, canonicalize, parse, render

USAGE_ERROR = 1
DATA_ERROR = 2


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="foleq", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", required=True)

    p_parse = sub.add_parser("parse", help="parse one formula and print its tree")
    p_parse.add_argument("formula")
    p_parse.add_argument(
        "--input-mode",
        choices=("precedence", "fully-parenthesized"),
        default="precedence",
        help="how to read under-parenthesized input",
    )

    p_score = sub.add_parser("score", help="score a pair or a corpus")
    p_score.add_argument("prediction", nargs="?")
    p_score.add_argument("reference", nargs="?")
    p_score.add_argument("--pred-file", help="predictions file, or combined pairs file")
    p_score.add_argument("--ref-file", help="references file aligned line-by-line with --pred-file")
    p_score.add_argument("--format", choices=("jsonl", "tsv"),
                         help="combined pairs file format when --ref-file is absent (default jsonl)")
    p_score.add_argument("--mode", choices=MODES)
    p_score.add_argument("--threshold", type=float)
    p_score.add_argument("--chunk-size", type=int)
    p_score.add_argument("--max-atoms", type=int)
    p_score.add_argument("--config", help="flat JSON config file")
    p_score.add_argument("--out", help="write per-pair results as JSON lines")

    p_serve = sub.add_parser("serve", help="run the scoring service")
    transport = p_serve.add_mutually_exclusive_group(required=True)
    transport.add_argument("--stdio", action="store_true")
    transport.add_argument("--socket", metavar="PATH")
    p_serve.add_argument("--config", help="flat JSON config file")

    p_demo = sub.add_parser("train-demo", help="run the toy training loop")
    p_demo.add_argument("--config", help="JSON config (iterations, learning_rate, seed, ...)")
    p_demo.add_argument("--trace", help="write per-iteration records as JSON lines")
    p_demo.add_argument("--iterations", type=int)
    p_demo.add_argument("--learning-rate", type=float)
    p_demo.add_argument("--seed", type=int)

    return top


def _load_config_file(path: str) -> dict:
    with open_text(path) as handle:
        raw = decode_json(handle.read())
    if not isinstance(raw, dict):
        raise ValueError("config file must hold a JSON object")
    return raw


def _config(args, flags, build, label: str):
    """``build`` of the ``--config`` file overlaid with the set ``flags``,
    or None after saying on stderr, after ``label``, why it is bad."""
    try:
        mapping = _load_config_file(args.config) if args.config else {}
        mapping.update((flag, getattr(args, flag)) for flag in flags if getattr(args, flag) is not None)
        return build(mapping)
    except (OSError, ValueError, TypeError, OverflowError) as exc:
        print(f"{label}: {exc}", file=sys.stderr)
        return None


def _writable(path: str) -> bool:
    """Whether ``path`` can be opened for writing, after saying on stderr
    why not; it is checked before the work whose results it takes."""
    try:
        open_text(path, "w").close()
        return True
    except OSError as exc:
        print(f"cannot write {path}: {exc}", file=sys.stderr)
        return False


def _cmd_parse(args) -> int:
    try:
        tree = parse(args.formula, mode=args.input_mode)
    except FormulaError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return DATA_ERROR
    print(repr(tree))
    print(render(canonicalize(tree)))
    return 0


def _score_single(args, config: ServiceConfig) -> int:
    """Score one pair as the service does and report its answer: a warning
    or ``CAP_EXCEEDED`` scores 0 with a warning, any other error exits 2."""
    response = handle_request(ScoreRequest("cli", "le_score", args.prediction, args.reference), config)
    error = response.error
    if error is not None and error["code"] == CAP_EXCEEDED:
        reason, message = "cap exceeded", error["message"]
    elif error is not None:
        print(error["message"], file=sys.stderr)
        return DATA_ERROR
    elif "warning" in response.detail:
        reason, _, message = response.detail["warning"].partition(": ")
    else:
        print(json.dumps(response.detail, ensure_ascii=False))
        return 0
    print(f"warning: {reason}, scoring 0: {message}", file=sys.stderr)
    print(json.dumps({"score": 0.0, "mode": config.mode}, ensure_ascii=False))
    return 0


def _read_aligned(pred_path: str, ref_path: str):
    with open_text(pred_path) as handle:
        preds = [line.rstrip("\n") for line in handle]
    with open_text(ref_path) as handle:
        refs = [line.rstrip("\n") for line in handle]
    if len(preds) != len(refs):
        raise ValueError(
            f"line counts differ: {len(preds)} predictions vs {len(refs)} references"
        )
    return [EvalPair(str(i), p, r) for i, (p, r) in enumerate(zip(preds, refs))]


def _cmd_score(args) -> int:
    config = _config(args, ("mode", "threshold", "max_atoms", "chunk_size"), ServiceConfig.from_mapping, "bad config")
    if config is None:
        return DATA_ERROR

    if args.format is not None and (args.ref_file or not args.pred_file):
        print("--format needs --pred-file without --ref-file", file=sys.stderr)
        return USAGE_ERROR
    if args.prediction is not None and args.reference is not None and not args.pred_file:
        for option, given in (("--ref-file", args.ref_file), ("--out", args.out)):
            if given:
                print(f"{option} needs --pred-file", file=sys.stderr)
                return USAGE_ERROR
        return _score_single(args, config)
    if not args.pred_file:
        print("score needs either two formulas or --pred-file", file=sys.stderr)
        return USAGE_ERROR
    if args.prediction is not None:
        print("give either positional formulas or files, not both", file=sys.stderr)
        return USAGE_ERROR

    try:
        if args.ref_file:
            pairs = _read_aligned(args.pred_file, args.ref_file)
            load_failures: list = []
        else:
            pairs, load_failures = load_pairs(args.pred_file, fmt=args.format or "jsonl")
    except (OSError, ValueError) as exc:
        print(f"cannot read pairs: {exc}", file=sys.stderr)
        return DATA_ERROR
    for lineno, message in load_failures:
        print(f"warning: line {lineno}: {message}", file=sys.stderr)
    if not pairs:
        print("no valid pairs found", file=sys.stderr)
        return DATA_ERROR
    if args.out and not _writable(args.out):
        return DATA_ERROR

    report = corpus_le(pairs, mode=config.mode, config=config.le, bleu_config=config.bleu)
    summary = {
        "pairs": len(pairs),
        "mean_le": report.mean_le,
        "bleu": report.bleu,
        "failures": len(report.failures) + len(load_failures),
    }
    print(json.dumps(summary, ensure_ascii=False))
    if args.out:
        # failures follow the input order of the None slots in per_pair;
        # ids need not be unique, so pair them by position, not by id.
        errors = iter(message for _, message in report.failures)
        with open_text(args.out, "w") as handle:
            for pair, item in zip(pairs, report.per_pair):
                record: dict = {"id": pair.id}
                if item is None:
                    record["score"] = 0.0
                    record["error"] = next(errors)
                else:
                    record.update(item.to_dict())
                handle.write(json.dumps(record, ensure_ascii=False) + "\n")
    return 0


def _cmd_serve(args) -> int:
    config = _config(args, (), ServiceConfig.from_mapping, "bad config")
    if config is None:
        return DATA_ERROR
    if args.stdio:
        # As on the socket: a byte-order mark at the start is skipped, bytes
        # that are not UTF-8 read as U+FFFD, and a lone surrogate from a JSON
        # escape is written back as that escape.
        for stream, encoding, errors in ((sys.stdin, "utf-8-sig", "replace"), (sys.stdout, None, "backslashreplace")):
            reconfigure = getattr(stream, "reconfigure", None)
            if reconfigure is not None:
                reconfigure(encoding=encoding, errors=errors)
        serve(sys.stdin, sys.stdout, config)
        return 0
    try:
        serve_socket(args.socket, config)
    except BindError as exc:
        print(f"cannot bind {args.socket}: {exc}", file=sys.stderr)
        return DATA_ERROR
    return 0


def _cmd_train_demo(args) -> int:
    from .sgrpo import train_demo, write_trace  # numpy loads on the training path only

    config = _config(args, ("iterations", "learning_rate", "seed"), _demo_config_from_mapping, "bad demo config")
    if config is None or (args.trace and not _writable(args.trace)):
        return DATA_ERROR
    trace = train_demo(config)
    if args.trace:
        write_trace(trace, args.trace)
    first, last = trace[0], trace[-1]
    print(json.dumps({
        "iterations": len(trace),
        "first_mean_reward": first["mean_reward"],
        "final_mean_reward": last["mean_reward"],
        "final_objective": last["objective"],
    }))
    return 0


def _demo_config_from_mapping(raw: dict):
    from .sgrpo import default_demo_config

    known = {"iterations", "learning_rate", "seed", "vocab", "references", "group_size"}
    unknown = set(raw) - known
    if unknown:
        raise ValueError(f"unknown keys: {sorted(unknown)}")
    base = default_demo_config()
    for key in ("vocab", "references"):
        if key in raw and not (isinstance(raw[key], list) and all(isinstance(v, str) for v in raw[key])):
            raise ValueError(f"{key} must be a list of strings")
    learning_rate = typed_value(raw, "learning_rate", (int, float), "a number", base.hp.learning_rate)
    # Compared before conversion, so no integer overflows; nan and the
    # infinities are Hyperparams' to refuse.
    if isinstance(learning_rate, int) and abs(learning_rate) > sys.float_info.max:
        raise ValueError("learning_rate must lie within the float range")
    hp = replace(
        base.hp,
        learning_rate=float(learning_rate),
        seed=typed_value(raw, "seed", int, "an integer", base.hp.seed),
        group_size=typed_value(raw, "group_size", int, "an integer", base.hp.group_size),
    )
    config = replace(
        base,
        vocab=tuple(raw.get("vocab", base.vocab)),
        references=tuple(raw.get("references", base.references)),
        iterations=typed_value(raw, "iterations", int, "an integer", base.iterations),
        hp=hp,
    )
    config.prompts()  # every reference must be sgrpo.SEQUENCE_LENGTH tokens of the vocab
    return config


def run_cli(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit status 2 for usage problems; fold that into the
        # documented usage-error code and keep --help's success status
        return 0 if exc.code == 0 else USAGE_ERROR
    handlers = {
        "parse": _cmd_parse,
        "score": _cmd_score,
        "serve": _cmd_serve,
        "train-demo": _cmd_train_demo,
    }
    return handlers[args.command](args)


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
