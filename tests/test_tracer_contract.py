"""The benchmark's tracer wraps adsim names by attribute; they must all exist."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_name_the_tracer_wraps_exists(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # dataclasses look it up
    spec.loader.exec_module(spans)
    wrapped = [(owner, attr) for _, owner, attr in spans.STAGES + spans.COUNTED]
    assert len(wrapped) > 10
    missing = [(owner.__name__, attr) for owner, attr in wrapped if attr not in owner.__dict__]
    assert missing == []
