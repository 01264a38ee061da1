"""Wall-clock hygiene: deterministic packages never *call* the clock.

The simulator's timeline is channel byte-time; a stray ``time.time()``
(or a fresh ``datetime.now()``) inside the deterministic core would
leak wall-clock into reproducible runs.  This sweep parses every module
of the deterministic packages and rejects direct *calls* to wall-clock
functions.  Passing a clock function around is fine -- injectable
defaults like ``MetricsRegistry(clock=time.perf_counter)`` (a
reference, not a call) are the sanctioned pattern, and ``repro.net``
takes its clocks via exactly that kind of injection
(:class:`repro.net.clock.ClockAdapter`).
"""

from __future__ import annotations

import ast
import pathlib

import pytest

import repro

SRC_ROOT = pathlib.Path(repro.__file__).parent

#: Packages whose behaviour must be a pure function of their inputs.
DETERMINISTIC_PACKAGES = [
    "xmlkit",
    "xpath",
    "filtering",
    "dataguide",
    "index",
    "broadcast",
    "client",
    "sim",
    "control",
    "faults",
    "baselines",
    "analysis",
    "tools",
]

#: ``module attribute`` pairs that read the wall clock when called.
WALL_CLOCK_CALLS = {
    ("time", "time"),
    ("time", "monotonic"),
    ("time", "perf_counter"),
    ("time", "process_time"),
    ("time", "monotonic_ns"),
    ("time", "time_ns"),
    ("time", "perf_counter_ns"),
}


def _deterministic_modules():
    for package in DETERMINISTIC_PACKAGES:
        for path in sorted((SRC_ROOT / package).rglob("*.py")):
            yield path


def _wall_clock_calls(tree: ast.AST):
    """Direct ``time.<fn>()`` / ``datetime.now()`` / ``date.today()``
    call sites (references passed as values are deliberately allowed)."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not isinstance(func, ast.Attribute):
            continue
        if isinstance(func.value, ast.Name):
            if (func.value.id, func.attr) in WALL_CLOCK_CALLS:
                yield node
            if func.value.id in ("datetime", "date") and func.attr in (
                "now",
                "utcnow",
                "today",
            ):
                yield node


@pytest.mark.parametrize(
    "path",
    list(_deterministic_modules()),
    ids=lambda p: str(p.relative_to(SRC_ROOT)),
)
def test_no_wall_clock_calls(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    offenders = [
        f"{path.relative_to(SRC_ROOT)}:{node.lineno}"
        for node in _wall_clock_calls(tree)
    ]
    assert not offenders, (
        "wall-clock call in a deterministic package (inject a clock "
        f"instead): {offenders}"
    )


def test_sweep_covers_the_deterministic_core():
    """The package list tracks reality: every repro subpackage is either
    swept or explicitly exempt (entry points and the layers whose whole
    point is real time / real IO)."""
    exempt = {
        "obs",  # spans time real phases; clock injectable for tests
        "net",  # live daemon; paced by an injectable ClockAdapter
        "experiments",  # figure runner prints elapsed wall time
    }
    packages = {
        child.name
        for child in SRC_ROOT.iterdir()
        if child.is_dir() and (child / "__init__.py").exists()
    }
    assert packages == set(DETERMINISTIC_PACKAGES) | exempt


def test_detector_catches_a_call():
    """The sweep is only trustworthy if the detector actually fires."""
    tree = ast.parse("import time\nstamp = time.time()\n")
    assert list(_wall_clock_calls(tree))
    tree = ast.parse("import time\nclock = time.perf_counter\n")
    assert not list(_wall_clock_calls(tree))


@pytest.mark.parametrize(
    "path",
    sorted((SRC_ROOT / "obs" / "telemetry").glob("*.py")),
    ids=lambda p: str(p.relative_to(SRC_ROOT)),
)
def test_telemetry_modules_are_clock_injected(path):
    """``repro.obs`` is exempt from the package sweep, but the telemetry
    plane is held to the stricter standard anyway: every timestamp it
    emits comes from an injected clock (``EventLog(clock=...)``,
    ``QueryTracer(clock)``), never from a direct wall-clock call -- that
    is what keeps telemetry-on runs byte-identical and replayable."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    offenders = [
        f"{path.relative_to(SRC_ROOT)}:{node.lineno}"
        for node in _wall_clock_calls(tree)
    ]
    assert not offenders, (
        f"telemetry module calls the wall clock directly: {offenders}"
    )
