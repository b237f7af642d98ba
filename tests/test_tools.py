"""Smoke test for the scripts under ``tools/``, which no other test runs."""

from __future__ import annotations

import importlib.util
import random
from pathlib import Path

SCALING = Path(__file__).resolve().parent.parent / "tools" / "scaling.py"


def _load_scaling():
    spec = importlib.util.spec_from_file_location("scaling", SCALING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_scaling_times_every_stage():
    scaling = _load_scaling()
    times = scaling.stage_times(scaling.relabeled_drum(8, random.Random(1)))
    assert set(times) == set(scaling.STAGES)
    assert all(t >= 0 for t in times.values())
