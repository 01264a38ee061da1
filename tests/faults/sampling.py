"""Randomized fault plans for the chaos property tests.

``tests/faults/test_chaos.py``, ``test_adaptive_chaos.py`` and
``test_plan.py`` draw their plans here; nothing outside the tests
samples plans.
"""

from __future__ import annotations

import random

from repro.faults.plan import FaultPlan


def sample_fault_plan(seed: int) -> FaultPlan:
    """A randomized-but-deterministic plan for the chaos property tests.

    Every knob is drawn from a range wide enough to exercise all four
    injection points yet bounded so a small simulation still drains
    shortly after the fault window closes.
    """
    rng = random.Random(f"sample-fault-plan:{seed}")
    return FaultPlan(
        seed=seed,
        fault_cycles=rng.randint(2, 6),
        uplink_drop_prob=rng.uniform(0.0, 0.6),
        uplink_ack_drop_prob=rng.uniform(0.0, 0.4),
        uplink_delay_bytes=rng.choice((0, 64, 512)),
        retry_backoff_bytes=rng.choice((128, 512, 1024)),
        retry_max_attempts=rng.randint(2, 5),
        corrupt_prob=rng.uniform(0.0, 0.3),
        erase_prob=rng.uniform(0.0, 0.3),
        checksum=True,
        overload_prob=rng.uniform(0.0, 0.5),
        doc_add_prob=rng.uniform(0.0, 0.5),
        doc_remove_prob=rng.uniform(0.0, 0.5),
    )
