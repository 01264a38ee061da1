"""Control-plane plan objects: what the controller decides, per cycle.

The adaptive control plane (:mod:`repro.control.controller`) closes the
loop from observed demand to broadcast configuration.  Its decisions are
carried by :class:`CyclePlan` -- an immutable per-cycle record of the
channel count K, the allocation policy, the hot set promoted onto the
fast-repeat channel, and whether the admission governor is shedding cold
queries.  :class:`ControlConfig` holds the knobs a run may set (the K
band, the cooldown, the hot-set size); it travels inside
:class:`~repro.sim.config.SimulationConfig` so the simulator and the
live daemon construct identical controllers.

Everything here is deterministic data: no clocks, no randomness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.broadcast.multichannel import check_channel_shape


@dataclass(frozen=True)
class ControlConfig:
    """Knobs of the adaptive broadcast controller.

    The defaults are deliberately conservative: a static workload under
    an adaptive controller should converge to the static plan within a
    few cycles and then sit still (hysteresis + cooldown), because every
    plan change costs the client population a re-tune.  The control
    laws' thresholds are constants of :mod:`repro.control.controller`.
    """

    #: channel-count band the K controller may move within
    k_min: int = 1
    k_max: int = 4
    #: cycles that must pass between two K changes (hysteresis)
    cooldown_cycles: int = 2
    #: max documents promoted onto the fast-repeat hot channel; 0
    #: disables hot promotion
    hot_set_size: int = 0

    def __post_init__(self) -> None:
        if self.k_min < 1:
            raise ValueError("k_min must be at least 1")
        if self.k_max < self.k_min:
            raise ValueError("k_max must be >= k_min")
        if self.k_max > 255:
            raise ValueError("k_max must fit the 1-byte channel field")
        if self.cooldown_cycles < 0:
            raise ValueError("cooldown_cycles must be non-negative")
        if self.hot_set_size < 0:
            raise ValueError("hot_set_size must be non-negative")


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
        check_channel_shape(self.num_channels, self.allocation)
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
