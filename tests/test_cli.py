import io
import json
import math
import socket
import sys
from dataclasses import replace

import pytest

from foleq.cli import _demo_config_from_mapping, run_cli
from foleq.corpus import BleuConfig, EvalPair, corpus_bleu, corpus_le
from foleq.sgrpo import default_demo_config
from foleq.syntax import MAX_TOKENS
from test_service import BOM_LINES, NOT_UTF8_LINES, check_bom_answers, check_not_utf8_answers


def run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- parse subcommand ------------------------------------------------------------

def test_parse_prints_tree_and_canonical_form(capsys):
    code, out, err = run(capsys, "parse", "forall x (P(x) -> Q(x))")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("Quantified('forall', 'x', Binary('implies'")
    assert lines[1] == "∀v1 (P(v1) → Q(v1))"


def test_parse_fully_parenthesized_mode(capsys):
    code, out, _ = run(capsys, "parse", "((A & B) | C)", "--input-mode", "fully-parenthesized")
    assert code == 0
    code, _, err = run(capsys, "parse", "(A & B | C)", "--input-mode", "fully-parenthesized")
    assert code == 2
    assert "parse error" in err


def test_parse_error_exits_2(capsys):
    code, out, err = run(capsys, "parse", "((")
    assert code == 2
    assert "parse error" in err
    assert not out


def test_parse_prints_a_tree_at_the_token_cap(capsys):
    depth = MAX_TOKENS - 1
    code, out, err = run(capsys, "parse", "¬" * depth + "A")
    assert code == 0
    assert out.splitlines() == ["Not(" * depth + "Atom('A')" + ")" * depth, "¬" * depth + "A"]
    assert "Traceback" not in err


# --- usage errors -----------------------------------------------------------------

def test_unknown_flag_exits_1(capsys):
    code, _, _ = run(capsys, "score", "A", "A", "--frobnicate")
    assert code == 1


def test_missing_subcommand_exits_1(capsys):
    code, _, _ = run(capsys)
    assert code == 1


def test_unknown_subcommand_exits_1(capsys):
    code, _, _ = run(capsys, "transmogrify")
    assert code == 1


def test_help_exits_0(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert "score" in out


def test_score_without_inputs_exits_1(capsys):
    code, _, err = run(capsys, "score")
    assert code == 1
    assert "pred-file" in err


def test_score_rejects_mixed_positional_and_file(tmp_path, capsys):
    pred = tmp_path / "p.txt"
    pred.write_text("A\n", encoding="utf-8")
    code, _, _ = run(capsys, "score", "A", "B", "--pred-file", str(pred))
    assert code == 1


# --- single-pair scoring -------------------------------------------------------------

def test_score_pair(capsys):
    code, out, _ = run(capsys, "score", "A -> B", "~A | B")
    assert code == 0
    data = json.loads(out)
    assert data["score"] == 1.0
    assert data["mode"] == "optimized"


def test_score_pair_original_mode(capsys):
    code, out, _ = run(capsys, "score", "P(a)", "Q(b)", "--mode", "original")
    assert code == 0
    assert json.loads(out)["score"] == 1.0


def test_score_unparseable_prediction_warns_and_scores_zero(capsys):
    code, out, err = run(capsys, "score", "((", "A")
    assert code == 0
    assert json.loads(out)["score"] == 0.0
    assert "unparseable prediction" in err


def test_score_cap_exceeded_prediction_warns_with_the_cap(capsys):
    prediction = " ∧ ".join(f"X{i}" for i in range(15))
    code, out, err = run(capsys, "score", prediction, "A ∧ B")
    assert code == 0
    assert json.loads(out)["score"] == 0.0
    assert "unparseable" not in err
    assert "cap exceeded, scoring 0: 17 combined atoms exceeds the truth-table cap 16" in err


def test_score_unparseable_reference_is_data_error(capsys):
    code, out, err = run(capsys, "score", "A", "((")
    assert code == 2
    assert "unparseable reference" in err


@pytest.mark.parametrize(
    "deep", ["(" * 600 + "A" + ")" * 600, " → ".join(["A"] * 1200)], ids=["parentheses", "chain"]
)
def test_over_long_reference_is_data_error(capsys, deep):
    code, out, err = run(capsys, "score", "A", deep)
    assert code == 2
    assert not out
    assert err.startswith("unparseable reference: formula has ")
    assert "Traceback" not in err
    code, out, err = run(capsys, "parse", deep)
    assert code == 2
    assert err.startswith("parse error: formula has ")


def test_score_threshold_flag(capsys):
    code, out, _ = run(capsys, "score", "Pred(x)", "Predicate(x)", "--threshold", "0.4")
    assert json.loads(out)["score"] == 1.0
    code, out, _ = run(capsys, "score", "Pred(x)", "Predicate(x)")
    assert json.loads(out)["score"] == 0.5


# --- corpus scoring --------------------------------------------------------------------

FIXTURE = [
    {"id": "good", "prediction": "A ∧ B", "reference": "B ∧ A"},
    {"id": "half", "prediction": "P(a)", "reference": "P(a) ∧ Q(a)"},
    {"id": "broken", "prediction": "((", "reference": "A"},
]


def test_score_jsonl_corpus_matches_library(tmp_path, capsys):
    path = tmp_path / "pairs.jsonl"
    path.write_text("\n".join(json.dumps(r) for r in FIXTURE) + "\n", encoding="utf-8")
    code, out, _ = run(capsys, "score", "--pred-file", str(path))
    assert code == 0
    summary = json.loads(out)
    pairs = [EvalPair(r["id"], r["prediction"], r["reference"]) for r in FIXTURE]
    oracle = corpus_le(pairs)
    assert summary["mean_le"] == pytest.approx(oracle.mean_le)
    assert summary["bleu"] == corpus_bleu(pairs)
    assert summary["pairs"] == 3
    assert summary["failures"] == 1


def test_score_corpus_summary_bleu_reads_the_configured_smoothing(tmp_path, capsys):
    # No prediction shares a 3-gram with its reference, so the summary's
    # BLEU is 0 without smoothing and corpus_bleu's smoothed value with it.
    rows = [
        {"id": "a", "prediction": "A ∧ A ∧ A", "reference": "A ∧ B"},
        {"id": "b", "prediction": "B ∧ A", "reference": "A ∧ B"},
    ]
    path = tmp_path / "pairs.jsonl"
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
    pairs = [EvalPair(r["id"], r["prediction"], r["reference"]) for r in rows]
    code, out, _ = run(capsys, "score", "--pred-file", str(path))
    assert code == 0
    assert json.loads(out)["bleu"] == 0.0
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"bleu_smoothing": 0.01}), encoding="utf-8")
    code, out, _ = run(capsys, "score", "--pred-file", str(path), "--config", str(config_path))
    assert code == 0
    smoothed = corpus_bleu(pairs, BleuConfig(0.01))
    assert smoothed > 0.0
    assert json.loads(out)["bleu"] == smoothed


def test_score_corpus_out_file(tmp_path, capsys):
    path = tmp_path / "pairs.jsonl"
    path.write_text("\n".join(json.dumps(r) for r in FIXTURE) + "\n", encoding="utf-8")
    out_path = tmp_path / "per-pair.jsonl"
    code, _, _ = run(capsys, "score", "--pred-file", str(path), "--out", str(out_path))
    assert code == 0
    rows = [json.loads(line) for line in out_path.read_text(encoding="utf-8").splitlines()]
    assert [row["id"] for row in rows] == ["good", "half", "broken"]
    assert rows[0]["score"] == 1.0
    assert rows[1]["score"] == 0.75
    assert rows[2]["score"] == 0.0 and "error" in rows[2]


def test_score_out_file_keeps_each_error_with_its_row_when_ids_repeat(tmp_path, capsys):
    path = tmp_path / "pairs.jsonl"
    rows = [
        {"id": "x", "prediction": "((", "reference": "A"},
        {"id": "x", "prediction": "B", "reference": "A $"},
    ]
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
    out_path = tmp_path / "per-pair.jsonl"
    code, _, _ = run(capsys, "score", "--pred-file", str(path), "--out", str(out_path))
    assert code == 0
    written = [json.loads(line) for line in out_path.read_text(encoding="utf-8").splitlines()]
    assert written == [
        {"id": "x", "score": 0.0, "error": "unexpected end of input"},
        {"id": "x", "score": 0.0, "error": "unexpected character '$' (offset 2)"},
    ]


@pytest.mark.parametrize("layout", ["jsonl", "tsv", "aligned"])
def test_score_fails_only_the_row_with_a_byte_that_is_not_utf8(tmp_path, capsys, layout):
    preds, refs = tmp_path / "preds", tmp_path / "refs"
    if layout == "jsonl":
        preds.write_bytes(b'{"prediction": "A \xff", "reference": "A"}\n{"prediction": "B", "reference": "B"}\n')
        argv = ["--pred-file", str(preds)]
    elif layout == "tsv":
        preds.write_bytes(b"A \xff\tA\nB\tB\n")
        argv = ["--pred-file", str(preds), "--format", "tsv"]
    else:
        preds.write_bytes(b"A \xff\nB\n")
        refs.write_bytes(b"A\nB\n")
        argv = ["--pred-file", str(preds), "--ref-file", str(refs)]
    out_path = tmp_path / "per-pair.jsonl"
    code, out, err = run(capsys, "score", *argv, "--out", str(out_path))
    assert (code, err) == (0, "")
    summary = json.loads(out)
    assert (summary["pairs"], summary["failures"], summary["mean_le"]) == (2, 1, 0.5)
    rows = [json.loads(line) for line in out_path.read_text(encoding="utf-8").splitlines()]
    assert rows[0]["error"] == "unexpected character '\ufffd' (offset 2)"
    assert rows[1]["score"] == 1.0


@pytest.mark.parametrize("layout", ["jsonl", "tsv", "aligned"])
def test_score_reads_a_byte_order_mark_as_no_content(tmp_path, capsys, layout):
    preds, refs = tmp_path / "preds", tmp_path / "refs"
    if layout == "jsonl":
        rows = ['{"prediction": "A", "reference": "A"}', '{"prediction": "B", "reference": "B"}']
        preds.write_text("\ufeff" + "\n".join(rows) + "\n", encoding="utf-8")
        argv = ["--pred-file", str(preds)]
    elif layout == "tsv":
        preds.write_text("\ufeffA\tA\nB\tB\n", encoding="utf-8")
        argv = ["--pred-file", str(preds), "--format", "tsv"]
    else:
        preds.write_text("\ufeffA\nB\n", encoding="utf-8")
        refs.write_text("\ufeffA\nB\n", encoding="utf-8")
        argv = ["--pred-file", str(preds), "--ref-file", str(refs)]
    out_path = tmp_path / "per-pair.jsonl"
    code, out, err = run(capsys, "score", *argv, "--out", str(out_path))
    assert (code, err) == (0, "")
    summary = json.loads(out)
    assert (summary["pairs"], summary["failures"], summary["mean_le"]) == (2, 0, 1.0)
    # --out is written without a mark
    assert out_path.read_bytes().startswith(b'{"id": "0", "score": 1.0')


def test_score_reads_a_config_file_that_starts_with_a_byte_order_mark(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text("\ufeff" + json.dumps({"threshold": 0.4}), encoding="utf-8")
    code, out, err = run(capsys, "score", "Pred(x)", "Predicate(x)", "--config", str(config_path))
    assert (code, err) == (0, "")
    assert json.loads(out)["score"] == 1.0


def test_score_reports_malformed_rows_before_finding_no_valid_pair(tmp_path, capsys):
    path = tmp_path / "pairs.jsonl"
    path.write_text('not json\n{"prediction": 1}\n', encoding="utf-8")
    code, out, err = run(capsys, "score", "--pred-file", str(path))
    assert (code, out) == (2, "")
    assert err.splitlines() == [
        "warning: line 1: invalid json: Expecting value",
        "warning: line 2: prediction and reference must be strings",
        "no valid pairs found",
    ]


def test_score_out_writes_a_lone_surrogate_id_as_its_escape(tmp_path, capsys):
    path = tmp_path / "pairs.jsonl"
    path.write_text('{"id": "\\ud800", "prediction": "A", "reference": "A"}\n', encoding="utf-8")
    out_path = tmp_path / "per-pair.jsonl"
    code, _, err = run(capsys, "score", "--pred-file", str(path), "--out", str(out_path))
    assert (code, err) == (0, "")
    text = out_path.read_text(encoding="utf-8")
    assert text.startswith('{"id": "\\ud800", "score": 1.0')
    assert json.loads(text)["id"] == "\ud800"


def test_score_tsv_corpus(tmp_path, capsys):
    path = tmp_path / "pairs.tsv"
    path.write_text("A ∧ B\tB ∧ A\nx9\t¬¬A\tA\n", encoding="utf-8")
    code, out, _ = run(capsys, "score", "--pred-file", str(path), "--format", "tsv")
    assert code == 0
    assert json.loads(out)["mean_le"] == 1.0


def test_score_aligned_files(tmp_path, capsys):
    (tmp_path / "preds.txt").write_text("A ∧ B\n¬¬C\n", encoding="utf-8")
    (tmp_path / "refs.txt").write_text("B ∧ A\nC\n", encoding="utf-8")
    code, out, _ = run(
        capsys, "score",
        "--pred-file", str(tmp_path / "preds.txt"),
        "--ref-file", str(tmp_path / "refs.txt"),
    )
    assert code == 0
    assert json.loads(out)["mean_le"] == 1.0


def test_score_aligned_files_length_mismatch(tmp_path, capsys):
    (tmp_path / "preds.txt").write_text("A\nB\n", encoding="utf-8")
    (tmp_path / "refs.txt").write_text("A\n", encoding="utf-8")
    code, _, err = run(
        capsys, "score",
        "--pred-file", str(tmp_path / "preds.txt"),
        "--ref-file", str(tmp_path / "refs.txt"),
    )
    assert code == 2
    assert "line counts differ" in err


def test_score_unwritable_out_file_is_data_error_before_scoring(tmp_path, capsys):
    path = tmp_path / "pairs.jsonl"
    path.write_text("\n".join(json.dumps(r) for r in FIXTURE) + "\n", encoding="utf-8")
    out_path = tmp_path / "absent" / "per-pair.jsonl"
    code, out, err = run(capsys, "score", "--pred-file", str(path), "--out", str(out_path))
    assert (code, out) == (2, "")
    assert err.startswith(f"cannot write {out_path}: ")
    assert "Traceback" not in err


def test_score_missing_file_is_data_error(tmp_path, capsys):
    code, _, err = run(capsys, "score", "--pred-file", str(tmp_path / "absent.jsonl"))
    assert code == 2


def test_score_corpus_with_config_file(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"threshold": 0.4, "mode": "optimized"}), encoding="utf-8")
    code, out, _ = run(capsys, "score", "Pred(x)", "Predicate(x)", "--config", str(config_path))
    assert code == 0
    assert json.loads(out)["score"] == 1.0


def test_score_out_with_a_single_pair_is_a_usage_error(tmp_path, capsys):
    out_path = tmp_path / "single.out"
    code, out, err = run(capsys, "score", "A", "A", "--out", str(out_path))
    assert (code, out, err) == (1, "", "--out needs --pred-file\n")
    assert not out_path.exists()


def test_score_ref_file_with_a_single_pair_is_a_usage_error(tmp_path, capsys):
    ref_path = tmp_path / "refs.txt"
    ref_path.write_text("B\n", encoding="utf-8")
    code, out, err = run(capsys, "score", "A", "A", "--ref-file", str(ref_path))
    assert (code, out, err) == (1, "", "--ref-file needs --pred-file\n")


@pytest.mark.parametrize("files", [False, True])
def test_score_format_without_a_combined_pairs_file_is_a_usage_error(tmp_path, capsys, files):
    """``--format`` names the layout of a combined pairs file, so it is
    refused, not ignored, beside two formulas or aligned files."""
    if files:
        (tmp_path / "preds.txt").write_text("A\n", encoding="utf-8")
        (tmp_path / "refs.txt").write_text("A\n", encoding="utf-8")
        argv = ["--pred-file", str(tmp_path / "preds.txt"), "--ref-file", str(tmp_path / "refs.txt")]
    else:
        argv = ["A", "A"]
    code, out, err = run(capsys, "score", *argv, "--format", "tsv")
    assert (code, out, err) == (1, "", "--format needs --pred-file without --ref-file\n")


def test_bad_config_file_is_data_error(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"volume": 11}), encoding="utf-8")
    code, _, err = run(capsys, "score", "A", "A", "--config", str(config_path))
    assert code == 2
    assert "bad config" in err


@pytest.mark.parametrize("command", [["score", "A", "A"], ["serve", "--stdio"]])
def test_ngram_sizes_in_a_config_file_is_an_unknown_key(tmp_path, monkeypatch, capsys, command):
    """The n-gram sizes are the constant ``similarity.NGRAM_SIZES``, not a
    setting, so a config file that names them is refused."""
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"ngram_sizes": [2, 3]}), encoding="utf-8")
    monkeypatch.setattr(sys, "stdin", io.StringIO(""))
    code, out, err = run(capsys, *command, "--config", str(config_path))
    assert (code, out, err) == (2, "", "bad config: unknown config keys: ['ngram_sizes']\n")


@pytest.mark.parametrize("command", [["score", "A", "A"], ["serve", "--stdio"]])
@pytest.mark.parametrize(
    "content",
    [
        {"chunk_size": None},
        {"chunk_size": True},
        {"chunk_size": 2.7},
        {"max_atoms": "3"},
        {"max_atoms": 0},
        {"max_atoms": 64},
        {"mode": "fast"},
        {"threshold": "0.5"},
        {"threshold": 10**400},
        {"bleu_smoothing": True},
        {"bleu_smoothing": "0.01"},
        {"bleu_smoothing": 5},
        {"bleu_smoothing": math.inf},
        {"bleu_smoothing": math.nan},
    ],
)
def test_wrong_typed_config_value_is_data_error(tmp_path, monkeypatch, capsys, command, content):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(content), encoding="utf-8")
    monkeypatch.setattr(sys, "stdin", io.StringIO(""))
    code, out, err = run(capsys, *command, "--config", str(config_path))
    assert code == 2
    assert err.startswith("bad config: ")
    (key,) = content
    assert key in err
    assert "Traceback" not in err
    assert not out


# --- serve subcommand ---------------------------------------------------------------------

def test_serve_stdio(monkeypatch, capsys):
    lines = [
        json.dumps({"id": "q1", "op": "le_score", "prediction": "A ∧ B", "reference": "B ∧ A"}),
        json.dumps({"op": "shutdown"}),
    ]
    monkeypatch.setattr(sys, "stdin", io.StringIO("\n".join(lines) + "\n"))
    code = run_cli(["serve", "--stdio"])
    out = capsys.readouterr().out
    assert code == 0
    responses = [json.loads(line) for line in out.splitlines()]
    assert responses[0]["id"] == "q1"
    assert responses[0]["score"] == 1.0


def test_serve_stdio_under_strict_decoding_outlives_requests_that_are_not_utf8(monkeypatch):
    lines = [*NOT_UTF8_LINES, json.dumps({"id": "q2", "op": "le_score", "prediction": "A", "reference": "A"}).encode()]
    out = io.BytesIO()
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"".join(lines) + b"\n"), encoding="utf-8"))
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(out, encoding="utf-8", newline="\n"))
    assert run_cli(["serve", "--stdio"]) == 0
    sys.stdout.flush()
    answers = [json.loads(line) for line in out.getvalue().splitlines()]
    check_not_utf8_answers(answers[:4])
    assert answers[4]["id"] == "q2" and answers[4]["score"] == 1.0


def test_serve_stdio_skips_a_byte_order_mark_at_the_start_only(monkeypatch):
    out = io.BytesIO()
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"".join(BOM_LINES)), encoding="utf-8"))
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(out, encoding="utf-8", newline="\n"))
    assert run_cli(["serve", "--stdio"]) == 0
    sys.stdout.flush()
    check_bom_answers([json.loads(line) for line in out.getvalue().splitlines()])


def test_serve_socket_on_an_existing_path_is_data_error_and_keeps_the_file(tmp_path, capsys):
    path = tmp_path / "stale.sock"
    path.write_text("not a socket", encoding="utf-8")
    code, out, err = run(capsys, "serve", "--socket", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"cannot bind {path}: ")
    assert path.read_text(encoding="utf-8") == "not a socket"


def test_serve_socket_error_after_binding_is_not_a_bind_error(tmp_path, monkeypatch):
    def refuse(self, backlog):
        raise OSError("listen refused")

    monkeypatch.setattr(socket.socket, "listen", refuse)
    path = tmp_path / "scoring.sock"
    with pytest.raises(OSError, match="listen refused") as caught:
        run_cli(["serve", "--socket", str(path)])
    assert type(caught.value) is OSError
    assert not path.exists()


def test_serve_requires_transport(capsys):
    code, _, _ = run(capsys, "serve")
    assert code == 1


# --- train-demo subcommand -------------------------------------------------------------------

def test_train_demo_writes_trace(tmp_path, capsys):
    trace_path = tmp_path / "trace.jsonl"
    code, out, _ = run(
        capsys, "train-demo", "--iterations", "3", "--learning-rate", "0.2",
        "--trace", str(trace_path),
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["iterations"] == 3
    records = [json.loads(line) for line in trace_path.read_text(encoding="utf-8").splitlines()]
    assert len(records) == 3
    assert records[0]["iter"] == 0


def test_train_demo_unwritable_trace_is_data_error_before_training(tmp_path, capsys):
    trace_path = tmp_path / "absent" / "trace.jsonl"
    code, out, err = run(capsys, "train-demo", "--iterations", "2", "--trace", str(trace_path))
    assert (code, out) == (2, "")
    assert err.startswith(f"cannot write {trace_path}: ")
    assert "Traceback" not in err


def test_train_demo_config_file(tmp_path, capsys):
    config_path = tmp_path / "demo.json"
    config_path.write_text(json.dumps({"iterations": 2, "seed": 3}), encoding="utf-8")
    code, out, _ = run(capsys, "train-demo", "--config", str(config_path))
    assert code == 0
    assert json.loads(out)["iterations"] == 2


def test_train_demo_rejects_unknown_config_keys(tmp_path, capsys):
    config_path = tmp_path / "demo.json"
    config_path.write_text(json.dumps({"iterations": 2, "rocket": True}), encoding="utf-8")
    code, _, err = run(capsys, "train-demo", "--config", str(config_path))
    assert code == 2
    assert "unknown keys" in err


def test_train_demo_config_sets_vocab_references_and_group_size(tmp_path, capsys):
    raw = {
        "iterations": 2,
        "seed": 3,
        "vocab": ["(", ")", "P", "Q", "x", "¬", "∧"],
        "references": ["( P ( x ) ∧ ¬ Q ( x ) )"],
        "group_size": 4,
    }
    base = default_demo_config(iterations=2, seed=3)
    assert _demo_config_from_mapping(raw) == replace(
        base,
        vocab=tuple(raw["vocab"]),
        references=tuple(raw["references"]),
        hp=replace(base.hp, group_size=4),
    )
    config_path = tmp_path / "demo.json"
    config_path.write_text(json.dumps(raw), encoding="utf-8")
    code, out, _ = run(capsys, "train-demo", "--config", str(config_path))
    assert code == 0
    assert json.loads(out)["iterations"] == 2

    config_path.write_text(json.dumps(dict(raw, group_size=1)), encoding="utf-8")
    code, _, err = run(capsys, "train-demo", "--config", str(config_path))
    assert code == 2
    assert "group_size must be at least 2" in err


@pytest.mark.parametrize("learning_rate", ["nan", "inf", "-inf"])
def test_train_demo_non_finite_learning_rate_is_a_data_error(capsys, learning_rate):
    code, out, err = run(capsys, "train-demo", "--iterations", "3", f"--learning-rate={learning_rate}")
    assert (code, out) == (2, "")
    assert err == f"bad demo config: learning_rate must be finite, not {learning_rate}\n"


def test_train_demo_negative_seed_is_a_data_error(capsys):
    code, out, err = run(capsys, "train-demo", "--iterations", "3", "--seed", "-1")
    assert (code, out) == (2, "")
    assert err == "bad demo config: seed must be non-negative\n"


@pytest.mark.parametrize(
    "content, message",
    [
        ('{"iterations": 1e400}', "iterations must be an integer, not inf"),
        ('{"seed": 1e400}', "seed must be an integer, not inf"),
        ('{"group_size": -1e400}', "group_size must be an integer, not -inf"),
        ('{"learning_rate": NaN}', "learning_rate must be finite, not nan"),
        ('{"learning_rate": -1e308}', "learning_rate must be non-negative, not -1e+308"),
        ('{"iterations": 2.7}', "iterations must be an integer, not 2.7"),
        ('{"iterations": true}', "iterations must be an integer, not True"),
        ('{"seed": 1.9}', "seed must be an integer, not 1.9"),
        ('{"group_size": 2.9}', "group_size must be an integer, not 2.9"),
        ('{"group_size": 1000000000000000}', "group_size must be at most 1024"),
        ('{"group_size": 1000000000000000000}', "group_size must be at most 1024"),
        ('{"group_size": 100000000000000000000}', "group_size must be at most 1024"),
        ('{"learning_rate": "0.1"}', "learning_rate must be a number, not '0.1'"),
        ('{"learning_rate": 1' + "0" * 400 + "}", "learning_rate must lie within the float range"),
        ("not json", "Expecting value: line 1 column 1 (char 0)"),
        ("[2]", "config file must hold a JSON object"),
    ],
)
def test_train_demo_overflowing_config_is_a_data_error(tmp_path, capsys, content, message):
    config_path = tmp_path / "demo.json"
    config_path.write_text(content, encoding="utf-8")
    code, out, err = run(capsys, "train-demo", "--config", str(config_path))
    assert (code, out) == (2, "")
    assert err == f"bad demo config: {message}\n"


@pytest.mark.parametrize("content", ["[" * 100_000, '{"seed": -' + "9" * 5000 + "}"], ids=["deep", "huge"])
def test_train_demo_hostile_config_is_a_data_error(tmp_path, capsys, content):
    # A config nested past the decoder's depth, and a seed past the
    # interpreter's digit limit (negative where no limit applies).
    config_path = tmp_path / "demo.json"
    config_path.write_text(content, encoding="utf-8")
    code, out, err = run(capsys, "train-demo", "--config", str(config_path))
    assert (code, out) == (2, "")
    assert err.startswith("bad demo config: ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "content, message",
    [
        ({"references": ["P ( x )"]}, "reference must be exactly 12 tokens: 'P ( x )'"),
        ({"references": ["( P ( x ) → ¬ Z ( x ) )"]}, "reference tokens not in vocab: ['Z']"),
        ({"references": "( P ( x ) → ¬ Q ( x ) )"}, "references must be a list of strings"),
        ({"references": [["P"]]}, "references must be a list of strings"),
        ({"vocab": "()PQRx¬∧∨→∀y"}, "vocab must be a list of strings"),
        ({"vocab": ["(", ")", 1]}, "vocab must be a list of strings"),
        ({"vocab": ["P", "Q", "P"]}, "vocab tokens must be distinct"),
        ({"references": []}, "at least one reference formula is required"),
    ],
)
def test_train_demo_bad_prompts_are_a_data_error(tmp_path, capsys, content, message):
    config_path = tmp_path / "demo.json"
    config_path.write_text(json.dumps(dict(content, iterations=2)), encoding="utf-8")
    code, out, err = run(capsys, "train-demo", "--config", str(config_path))
    assert (code, out) == (2, "")
    assert err == f"bad demo config: {message}\n"
