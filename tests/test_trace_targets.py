"""The benchmark tracer swaps timing wrappers into foleq module attributes by
name; entering it here fails fast when one of those names is gone."""

import importlib.util
from pathlib import Path

import foleq.service

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_tracer_installs_and_restores_every_patch_target():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    original = foleq.service.le_score
    with spans.Tracer().installed():
        assert foleq.service.le_score is not original
    assert foleq.service.le_score is original
