"""One channel-shape rule, checked by every entry point.

``check_channel_shape`` holds the rule: K >= 1, K > 1 needs the two-tier
scheme, the allocation policy is known, and a hot set needs K >= 2.
Each place that configures or builds a channel layout must refuse the
shapes it refused before the rule had one home -- so each case below
names an entry point and one bad shape it must turn into ``ValueError``.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.broadcast.multichannel import allocate_channels, check_channel_shape
from repro.broadcast.program import IndexScheme, build_cycle_program
from repro.broadcast.server import BroadcastServer, DocumentStore
from repro.control import AdaptiveController, ControlConfig, CyclePlan
from repro.sim.config import small_setup
from repro.xpath.parser import parse_query
from tests.xpath.test_evaluator import paper_documents

ONE_TIER = IndexScheme.ONE_TIER


def _server(**kwargs):
    return BroadcastServer(DocumentStore(paper_documents()), **kwargs)


def _plan(num_channels, allocation="balanced", hot=()):
    """A plan as ``apply_plan`` reads it, unchecked by ``CyclePlan``."""
    return SimpleNamespace(
        num_channels=num_channels, allocation=allocation, hot_doc_ids=hot
    )


def _built(**kwargs):
    server = _server()
    server.submit(parse_query("/a//c"), 0)
    cycle = server.build_cycle()
    return build_cycle_program(0, cycle.pci, cycle.doc_ids, server.store, **kwargs)


def _allocated(num_channels, policy="balanced", hot=()):
    store = DocumentStore(paper_documents())
    return allocate_channels(
        sorted(store.by_id), store, num_channels, policy, hot_doc_ids=hot
    )


BAD_SHAPES = {
    "config/no-channel": lambda: small_setup(num_data_channels=0),
    "config/one-tier-K2": lambda: small_setup(num_data_channels=2, scheme=ONE_TIER),
    "config/policy": lambda: small_setup(channel_allocation="nope"),
    "server/no-channel": lambda: _server(num_data_channels=0),
    "server/one-tier-K2": lambda: _server(num_data_channels=2, scheme=ONE_TIER),
    "server/policy": lambda: _server(channel_allocation="nope"),
    "apply_plan/no-channel": lambda: _server().apply_plan(_plan(0)),
    "apply_plan/one-tier-K2": lambda: _server(scheme=ONE_TIER).apply_plan(_plan(2)),
    "apply_plan/policy": lambda: _server().apply_plan(_plan(2, "nope")),
    "apply_plan/hot-K1": lambda: _server().apply_plan(_plan(1, hot=(0,))),
    "plan/no-channel": lambda: CyclePlan(0, 0, "balanced"),
    "plan/policy": lambda: CyclePlan(0, 2, "nope"),
    "controller/policy": lambda: AdaptiveController(
        ControlConfig(),
        DocumentStore(paper_documents()),
        cycle_data_capacity=1_000,
        base_allocation="nope",
    ),
    "program/no-channel": lambda: _built(num_channels=0),
    "program/one-tier-K2": lambda: _built(num_channels=2, scheme=ONE_TIER),
    "program/policy": lambda: _built(allocation="nope"),
    "allocate/no-channel": lambda: _allocated(0),
    "allocate/policy": lambda: _allocated(2, "nope"),
    "allocate/hot-K1": lambda: _allocated(1, hot=(0,)),
}


@pytest.mark.parametrize("case", sorted(BAD_SHAPES))
def test_every_entry_point_refuses_its_bad_shapes(case):
    with pytest.raises(ValueError):
        BAD_SHAPES[case]()


@pytest.mark.parametrize(
    "shape",
    [
        dict(num_channels=0),
        dict(num_channels=2, two_tier=False),
        dict(num_channels=2, policy="nope"),
        dict(num_channels=1, hot=True),
    ],
    ids=repr,
)
def test_the_rule_refuses_each_bad_shape(shape):
    with pytest.raises(ValueError):
        check_channel_shape(**shape)


@pytest.mark.parametrize(
    "shape",
    [
        dict(num_channels=1),
        dict(num_channels=1, two_tier=False, policy="demand"),
        dict(num_channels=2, policy="round-robin", hot=True),
    ],
    ids=repr,
)
def test_the_rule_accepts_good_shapes(shape):
    check_channel_shape(**shape)
