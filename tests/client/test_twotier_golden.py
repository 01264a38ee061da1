"""Golden regression for the one two-tier client.

The digests below were captured at the parent commit (a4aedb0) from the
classes :class:`~repro.client.twotier.TwoTierClient` replaced: the plain
client (lossless K=None), the lossy client (``loss_prob`` and the chaos
run) and the single-tuner multi-channel client (K=4, with and without
losses; its records then carried a protocol name of their own).  Each is
a SHA-256 over the sorted per-session ``(query, access, tuning,
index_lookup, cycles_listened, result_doc_count)`` tuples of a seeded
``small_setup`` run, so any drift in what the merged client listens to,
charges or defers shows up as a digest mismatch.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.faults.plan import FaultPlan
from repro.sim.config import small_setup
from repro.sim.simulation import run_simulation

K4 = dict(num_data_channels=4, channel_allocation="demand")

GOLDEN = {
    "lossless": (
        {},
        "c014a895bc2380a11e1218b3d990dca883c0489508916e7b11e0c2fdd6e3e7ed",
    ),
    "lossy": (
        dict(loss_prob=0.01),
        "456a7b31b0647638d6f1bdba4ea745e334bb9a39209f1323d532736085931773",
    ),
    "k4": (
        K4,
        "57669e8d118e667ca38e3d57ad067d9f8ead5179720caace9dc9e9e9a957987e",
    ),
    "lossy-k4": (
        dict(loss_prob=0.01, **K4),
        "b0849eb0bc4bc2ea3ba1b256aa8dc211ee45b7e1803c36735a9bab9a7c86b6fa",
    ),
    "chaos": (
        dict(faults=FaultPlan()),
        "010d6cacd5c9c1c64f65940c94d5b424e2c4473b301beda02c01be424b191c50",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_two_tier_records_match_parent(name):
    overrides, want = GOLDEN[name]
    result = run_simulation(small_setup(**overrides))
    assert result.completed
    rows = sorted(
        (
            record.query_text,
            record.access_bytes,
            record.tuning_bytes,
            record.index_lookup_bytes,
            record.cycles_listened,
            record.result_doc_count,
        )
        for record in result.records_for("two-tier")
    )
    assert len(rows) == small_setup().total_queries()
    assert hashlib.sha256(repr(rows).encode("utf-8")).hexdigest() == want
