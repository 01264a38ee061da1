"""Shared fixtures for the benchmark harness.

Each benchmark regenerates one paper table/figure (or an ablation),
asserts the reproduced *shape* (orderings, monotonicity, stability) and
records the rendered table under ``benchmarks/results/`` so a run leaves
diffable artifacts behind.

Scale: ``bench`` by default (2.5x below the paper's Table 2, finishes in
seconds per figure).  Set ``REPRO_BENCH_SCALE=paper`` for the full-scale
run recorded in EXPERIMENTS.md.
"""

from __future__ import annotations

import os
import pathlib

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
    """Write a reproduced figure's table to benchmarks/results/<id>.txt."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def _record(figure: FigureResult) -> str:
        text = figure.as_text()
        slug = (
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


def assert_strictly_cheaper(two_tier_values, one_tier_values) -> None:
    """Two-tier must beat one-tier at every sweep point."""
    for two, one in zip(two_tier_values, one_tier_values):
        assert two < one, f"two-tier {two} not below one-tier {one}"


def relative_spread(values) -> float:
    """(max - min) / mean -- the figure-11 stability measure."""
    mean = sum(values) / len(values)
    return (max(values) - min(values)) / mean if mean else 0.0
