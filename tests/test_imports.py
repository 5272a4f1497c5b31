"""The import boundary: parsing, scoring and serving load neither numpy nor
the trainer, the trainer's names stay importable from ``foleq``, and no
module of the package imports another's private name.

Each entry point runs in a fresh interpreter under ``-X importtime``,
which writes one stderr line per module the run imports."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import foleq

SRC = str(Path(foleq.__file__).resolve().parents[1])

TRAINER_NAMES = (
    "Hyperparams", "ObjectiveParts", "PolicyParams", "PromptSpec", "SampleGroup", "TrainDemoConfig",
    "default_demo_config", "group_advantages", "kl_estimate", "objective_gradient", "sample_group",
    "sft_term", "sgrpo_objective", "train_demo",
)

SCORE_LINE = '{"id": "a", "op": "le_score", "prediction": "A", "reference": "A"}\n'
CORPUS = "import foleq; print(foleq.corpus_le([foleq.EvalPair('a', 'P(x) ∧ Q', 'Q ∧ P(x)')]).mean_le)"


def _run(*args: str, stdin: str = "") -> tuple[subprocess.CompletedProcess, set[str]]:
    """Run ``python -X importtime *args`` and return it with the names of
    the modules it imported."""
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        input=stdin, capture_output=True, text=True, encoding="utf-8", env=env, timeout=60,
    )
    imported = {
        line.rsplit("|", 1)[1].strip() for line in done.stderr.splitlines() if line.startswith("import time:")
    }
    return done, imported


@pytest.mark.parametrize(
    "args, stdin, expected",
    [
        (("-m", "foleq", "serve", "--stdio"), SCORE_LINE, '{"id": "a", "score": 1.0'),
        (("-m", "foleq", "score", "A", "A"), "", '{"score": 1.0'),
        (("-m", "foleq", "parse", "A"), "", "Atom('A')\nA\n"),
        (("-c", CORPUS), "", "1.0\n"),
    ],
    ids=["serve_stdio", "score", "parse", "corpus_le"],
)
def test_scoring_paths_leave_numpy_and_the_trainer_unloaded(args, stdin, expected):
    done, imported = _run(*args, stdin=stdin)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith(expected)
    assert "Traceback" not in done.stderr
    assert "foleq.equivalence" in imported  # the listing saw the scorer load
    assert "numpy" not in imported
    assert "foleq.sgrpo" not in imported


def test_train_demo_still_loads_the_trainer():
    done, imported = _run("-m", "foleq", "train-demo", "--iterations", "2")
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["iterations"] == 2
    assert {"numpy", "foleq.sgrpo"} <= imported


def test_trainer_names_are_the_sgrpo_objects_in_a_fresh_interpreter():
    names = ", ".join(TRAINER_NAMES)
    check = (
        f"from foleq import {names}\n"
        "import foleq, foleq.sgrpo\n"
        f"for name in {TRAINER_NAMES!r}:\n"
        "    assert getattr(foleq, name) is getattr(foleq.sgrpo, name), name\n"
        "print('ok')\n"
    )
    done, imported = _run("-c", check)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "ok\n"
    assert "numpy" in imported
    assert set(TRAINER_NAMES) <= set(dir(foleq))


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'foleq' has no attribute 'nope'"):
        foleq.nope
    assert not hasattr(foleq, "write_trace")  # an sgrpo name foleq never exported
    with pytest.raises(ImportError):
        from foleq import nope  # noqa: F401


def test_star_import_binds_every_export_in_a_fresh_interpreter():
    check = (
        "from foleq import *\n"
        "import types, foleq\n"
        f"assert set({TRAINER_NAMES!r}) <= set(foleq.__all__)\n"
        "missing = [name for name in foleq.__all__ if name not in globals()]\n"
        "assert not missing, missing\n"
        "public = {n for n, v in vars(foleq).items() if not n.startswith('_') and not isinstance(v, types.ModuleType)}\n"
        "assert public <= set(foleq.__all__), public - set(foleq.__all__)\n"
        "print('ok')\n"
    )
    done, imported = _run("-c", check)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "ok\n"
    assert "numpy" in imported  # binding the trainer names loads it


def test_no_module_imports_another_modules_private_name():
    private = []
    for path in sorted(Path(SRC, "foleq").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level:
                private += [f"{path.name}: {alias.name}" for alias in node.names if alias.name.startswith("_")]
    assert private == []
