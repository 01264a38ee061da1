"""Shared fixtures for the benchmark harness.

``bench_tables.py`` regenerates every paper table, extension and
ablation, asserts its reproduced *shape* (orderings, monotonicity,
stability) and records the rendered table under ``benchmarks/results/``
so a run leaves diffable artifacts behind; the other ``bench_*.py``
files hold gates.

Scale: ``bench`` by default (2.5x below the paper's Table 2, finishes in
seconds per figure).  Set ``REPRO_BENCH_SCALE=paper`` for the full-scale
run recorded in EXPERIMENTS.md.
"""

from __future__ import annotations

import os
import pathlib
from typing import Optional

import pytest

from repro.experiments.runner import ExperimentContext, FigureResult

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def bench_scale() -> str:
    return os.environ.get("REPRO_BENCH_SCALE", "bench")


@pytest.fixture(scope="session")
def context() -> ExperimentContext:
    """One collection shared by every figure benchmark."""
    return ExperimentContext(scale=bench_scale())


@pytest.fixture(scope="session")
def record_figure():
    """Write a reproduced figure's table to benchmarks/results/<name>.txt
    (default name: the figure id, lower-cased, spaces and punctuation
    dropped)."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def _record(figure: FigureResult, name: Optional[str] = None) -> str:
        text = figure.as_text()
        slug = name or (
            figure.figure_id.lower()
            .replace(" ", "")
            .replace("(", "")
            .replace(")", "")
            .replace(":", "")
        )
        path = RESULTS_DIR / f"{slug}.txt"
        path.write_text(text + "\n", encoding="utf-8")
        print("\n" + text)
        return text

    return _record
