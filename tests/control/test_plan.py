"""Plan objects: validation, shape comparison, wire form."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.control import ControlConfig, CyclePlan


class TestControlConfig:
    def test_defaults_validate(self):
        ControlConfig()

    @pytest.mark.parametrize(
        "overrides",
        [
            {"k_min": 0},
            {"k_min": 3, "k_max": 2},
            {"k_max": 256},
            {"cooldown_cycles": -1},
            {"grow_backlog_factor": 0.0},
            {"shrink_idle_frac": 1.5},
            {"shrink_backlog_factor": -1.0},
            {"policy_switch_margin": -0.1},
            {"policy_patience": 0},
            {"hot_set_size": -1},
            {"hot_min_queries": 0},
            {"shed_backlog_factor": 0.0},
            {"retry_after_cycles": 0},
        ],
    )
    def test_bad_knobs_rejected(self, overrides):
        """An out-of-range knob is a ValueError.  The eight control-law
        thresholds are module constants now, so naming one is no knob
        at all: a TypeError."""
        knobs = {field.name for field in dataclasses.fields(ControlConfig)}
        with pytest.raises(ValueError if set(overrides) <= knobs else TypeError):
            ControlConfig(**overrides)

    def test_frozen(self):
        config = ControlConfig()
        with pytest.raises(Exception):
            config.k_max = 8  # type: ignore[misc]


class TestCyclePlan:
    def test_bad_channel_count_rejected(self):
        with pytest.raises(ValueError):
            CyclePlan(cycle_number=0, num_channels=0, allocation="balanced")

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            CyclePlan(cycle_number=0, num_channels=1, allocation="chaotic")

    def test_duplicate_hot_docs_rejected(self):
        with pytest.raises(ValueError):
            CyclePlan(
                cycle_number=0,
                num_channels=2,
                allocation="demand",
                hot_doc_ids=(3, 3),
            )

    def test_same_shape_ignores_cycle_number_and_reason(self):
        a = CyclePlan(0, 2, "balanced", hot_doc_ids=(1,), reason="grow-k:2")
        b = CyclePlan(9, 2, "balanced", hot_doc_ids=(1,), reason="steady")
        assert a.same_shape(b) and b.same_shape(a)

    @pytest.mark.parametrize(
        "other",
        [
            CyclePlan(0, 3, "balanced", hot_doc_ids=(1,)),
            CyclePlan(0, 2, "demand", hot_doc_ids=(1,)),
            CyclePlan(0, 2, "balanced", hot_doc_ids=(2,)),
            CyclePlan(0, 2, "balanced", hot_doc_ids=(1,), shed=True),
        ],
    )
    def test_same_shape_detects_every_field(self, other):
        base = CyclePlan(0, 2, "balanced", hot_doc_ids=(1,))
        assert not base.same_shape(other)

    def test_header_minimal_form_is_stable(self):
        """A steady plan's wire form carries only K and the policy --
        optional keys stay absent so static-shaped headers never grow."""
        header = CyclePlan(4, 2, "round-robin").header()
        assert header == {"k": 2, "policy": "round-robin"}

    def test_header_optional_keys(self):
        header = CyclePlan(
            4, 3, "demand", hot_doc_ids=(7, 2), shed=True
        ).header()
        assert header == {
            "k": 3,
            "policy": "demand",
            "hot": [7, 2],
            "shed": True,
        }

    def test_header_json_round_trips(self):
        header = CyclePlan(1, 2, "balanced", hot_doc_ids=(5,)).header()
        assert json.loads(json.dumps(header)) == header
