"""Control-plane plan objects: what the controller decides, per cycle.

The adaptive control plane (:mod:`repro.control.controller`) closes the
loop from observed demand to broadcast configuration.  Its decisions are
carried by :class:`CyclePlan` -- an immutable per-cycle record of the
channel count K, the allocation policy, the hot set promoted onto the
fast-repeat channel, and whether the admission governor is shedding cold
queries.  :class:`ControlConfig` holds the (static) knobs of the control
laws; it travels inside :class:`~repro.sim.config.SimulationConfig` so
the simulator and the live daemon construct identical controllers.

Everything here is deterministic data: no clocks, no randomness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.broadcast.multichannel import ALLOCATION_POLICIES


@dataclass(frozen=True)
class ControlConfig:
    """Knobs of the adaptive broadcast controller.

    The defaults are deliberately conservative: a static workload under
    an adaptive controller should converge to the static plan within a
    few cycles and then sit still (hysteresis + cooldown), because every
    plan change costs the client population a re-tune.
    """

    #: channel-count band the K controller may move within
    k_min: int = 1
    k_max: int = 4
    #: cycles that must pass between two K changes (hysteresis)
    cooldown_cycles: int = 2
    #: grow K when the requested backlog exceeds this multiple of the
    #: current per-cycle air capacity (more demand than air time)
    grow_backlog_factor: float = 1.5
    #: shrink K when the idle fraction of the data phase exceeds this
    #: (channels padding air while the longest one finishes)
    shrink_idle_frac: float = 0.35
    #: ... and the backlog fits in this multiple of the *shrunk* capacity
    shrink_backlog_factor: float = 0.9
    #: switch allocation policy when the counterfactual regret (access cost
    #: of the current policy vs the best policy on the same schedule)
    #: exceeds this fraction ...
    policy_switch_margin: float = 0.05
    #: ... for this many consecutive cycles (anti-flapping patience)
    policy_patience: int = 2
    #: max documents promoted onto the fast-repeat hot channel; 0
    #: disables hot promotion
    hot_set_size: int = 0
    #: minimum distinct pending queries demanding a document before it
    #: qualifies as hot
    hot_min_queries: int = 3
    #: shed cold queries when the backlog exceeds this multiple of the
    #: current per-cycle air capacity (admission governor)
    shed_backlog_factor: float = 6.0
    #: how many cycles a shed query is asked to stay away (RETRY_AFTER)
    retry_after_cycles: int = 1

    def __post_init__(self) -> None:
        if self.k_min < 1:
            raise ValueError("k_min must be at least 1")
        if self.k_max < self.k_min:
            raise ValueError("k_max must be >= k_min")
        if self.k_max > 255:
            raise ValueError("k_max must fit the 1-byte channel field")
        if self.cooldown_cycles < 0:
            raise ValueError("cooldown_cycles must be non-negative")
        if self.grow_backlog_factor <= 0:
            raise ValueError("grow_backlog_factor must be positive")
        if not 0.0 <= self.shrink_idle_frac <= 1.0:
            raise ValueError("shrink_idle_frac must be in [0, 1]")
        if self.shrink_backlog_factor <= 0:
            raise ValueError("shrink_backlog_factor must be positive")
        if self.policy_switch_margin < 0:
            raise ValueError("policy_switch_margin must be non-negative")
        if self.policy_patience < 1:
            raise ValueError("policy_patience must be at least 1")
        if self.hot_set_size < 0:
            raise ValueError("hot_set_size must be non-negative")
        if self.hot_min_queries < 1:
            raise ValueError("hot_min_queries must be at least 1")
        if self.shed_backlog_factor <= 0:
            raise ValueError("shed_backlog_factor must be positive")
        if self.retry_after_cycles < 1:
            raise ValueError("retry_after_cycles must be at least 1")


@dataclass(frozen=True)
class CyclePlan:
    """One cycle's broadcast configuration, as decided by the controller.

    ``cycle_number`` is the first cycle the plan applies to.  The plan is
    advertised in the ``CYCLE_BEGIN`` header (see :meth:`header`) so a
    tuned client learns about K/policy changes before the cycle's index
    airs and can re-tune mid-session.
    """

    cycle_number: int
    num_channels: int
    allocation: str
    #: documents promoted onto the fast-repeat channel (re-aired every
    #: cycle while demanded); empty tuple disables the hot channel
    hot_doc_ids: Tuple[int, ...] = ()
    #: admission governor state: cold queries get ``RETRY_AFTER``
    shed: bool = False
    #: human-readable why (diagnostics / EventLog), e.g. "grow-k:backlog"
    reason: str = "steady"

    def __post_init__(self) -> None:
        if self.num_channels < 1:
            raise ValueError("num_channels must be at least 1")
        if self.allocation not in ALLOCATION_POLICIES:
            raise ValueError(
                f"unknown allocation policy {self.allocation!r}; "
                f"choose from {ALLOCATION_POLICIES}"
            )
        if len(set(self.hot_doc_ids)) != len(self.hot_doc_ids):
            raise ValueError("hot_doc_ids must not repeat")

    def same_shape(self, other: "CyclePlan") -> bool:
        """True when *other* configures the broadcast identically
        (``cycle_number``/``reason`` excluded)."""
        return (
            self.num_channels == other.num_channels
            and self.allocation == other.allocation
            and self.hot_doc_ids == other.hot_doc_ids
            and self.shed == other.shed
        )

    def header(self) -> Dict[str, object]:
        """Compact wire form for the ``CYCLE_BEGIN`` header's ``plan`` key."""
        form: Dict[str, object] = {
            "k": self.num_channels,
            "policy": self.allocation,
        }
        if self.hot_doc_ids:
            form["hot"] = list(self.hot_doc_ids)
        if self.shed:
            form["shed"] = True
        return form
