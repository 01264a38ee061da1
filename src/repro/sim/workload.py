"""Query arrival workload.

The paper parameterises load as N_Q, "the number of queries submitted to
the server during the broadcasting period of each cycle".  Cycle lengths
are only known as the simulation unfolds, so arrivals are generated
lazily: when cycle *k* starts broadcasting, :class:`WorkloadBuilder`
draws fresh queries with arrival times uniform over that cycle's byte
span; they become eligible at cycle *k+1*.  An initial batch at time 0
primes the very first cycle.

Arrivals stop after the configured arrival window so a run can drain and
every client's session completes (the experiments average over complete
sessions).

Scenario workloads (``SimulationConfig.scenario``) reshape the stream
the adaptive control plane is judged on -- all deterministic per
``query_seed`` (same seed, same arrival schedule; property-tested):

* ``"flash"`` -- a flash crowd: the middle third of the arrival window
  bursts to ``scenario_intensity``  x N_Q arrivals per cycle, the rest
  stays at N_Q.
* ``"diurnal"`` -- a diurnal load wave: the per-cycle quota follows an
  integer triangle wave with period ``scenario_period`` between N_Q and
  ``scenario_intensity`` x N_Q (a triangle rather than a sinusoid keeps
  the quota arithmetic exactly reproducible across platforms).
* ``"drift"`` -- popularity drift: the arrival *rate* stays N_Q, but
  query popularity concentrates on a hot slice of the document
  collection that advances every ``scenario_period`` cycles, so the
  demanded hot set moves while total load does not.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.xmlkit.model import XMLDocument
from repro.xpath.ast import XPathQuery
from repro.xpath.generator import QueryGenerator, QueryWorkloadConfig
from repro.sim.config import SimulationConfig

#: number of document slices the drift scenario rotates its hot spot over
DRIFT_SLICES = 4
#: probability an arrival under drift targets the current hot slice
DRIFT_FOCUS = 0.8


@dataclass(frozen=True)
class ArrivalPlan:
    """One scheduled query arrival."""

    arrival_time: int
    query: XPathQuery


class WorkloadBuilder:
    """Draws query arrivals cycle by cycle."""

    def __init__(
        self, documents: Sequence[XMLDocument], config: SimulationConfig
    ) -> None:
        self.config = config
        generator_config = QueryWorkloadConfig(
            seed=config.query_seed,
            wildcard_descendant_prob=config.wildcard_prob,
            max_depth=config.max_query_depth,
            zipf_theta=config.zipf_theta,
        )
        self._generator = QueryGenerator(documents, generator_config)
        self._rng = random.Random(config.query_seed ^ 0x5EED)
        self._cycles_issued = 0
        #: drift scenario: one generator per document slice, so queries
        #: can be focused on the hot slice of the moment.  Slices follow
        #: the collection's document order; seeds derive from query_seed
        #: so the whole stream is reproducible.
        self._slice_generators: List[QueryGenerator] = []
        if config.scenario == "drift":
            documents = list(documents)
            slice_count = min(DRIFT_SLICES, len(documents))
            for index in range(slice_count):
                chunk = documents[index::slice_count]
                self._slice_generators.append(
                    QueryGenerator(
                        chunk,
                        QueryWorkloadConfig(
                            seed=config.query_seed ^ (0xD21F7 + index),
                            wildcard_descendant_prob=config.wildcard_prob,
                            max_depth=config.max_query_depth,
                            zipf_theta=config.zipf_theta,
                        ),
                    )
                )

    @property
    def exhausted(self) -> bool:
        """True once the arrival window has been fully issued."""
        return self._cycles_issued >= self.config.arrival_cycles

    def cycle_quota(self, cycle_index: int) -> int:
        """How many queries arrive during arrival-cycle *cycle_index*.

        The scenario envelope: N_Q for the paper's constant-rate stream
        and the drift scenario, between N_Q and ``scenario_intensity`` x
        N_Q for flash and diurnal (see the module docstring).  Pure and
        integer-deterministic -- the property tests pin it.
        """
        config = self.config
        n_q = config.n_q
        scenario = config.scenario
        if scenario is None or scenario == "drift":
            return n_q
        peak = max(n_q, int(n_q * config.scenario_intensity))
        if scenario == "flash":
            lo = config.arrival_cycles // 3
            hi = max(lo + 1, (2 * config.arrival_cycles) // 3)
            return peak if lo <= cycle_index < hi else n_q
        # diurnal: integer triangle wave, period scenario_period, valley
        # n_q at phase 0, peak at phase period//2.
        period = config.scenario_period
        phase = cycle_index % period
        half = period // 2
        level = phase if phase <= half else period - phase
        return n_q + ((peak - n_q) * level) // max(half, 1)

    def _draw_query(self, cycle_index: int) -> XPathQuery:
        if not self._slice_generators:
            return self._generator.generate()
        hot = (cycle_index // self.config.scenario_period) % len(
            self._slice_generators
        )
        if self._rng.random() < DRIFT_FOCUS:
            return self._slice_generators[hot].generate()
        return self._generator.generate()

    def initial_batch(self) -> List[ArrivalPlan]:
        """The cycle-0 arrival quota at time 0, priming the first cycle."""
        return self._issue(0, 0)

    def arrivals_during(self, start_time: int, end_time: int) -> List[ArrivalPlan]:
        """One cycle's arrival quota, uniform over its broadcast span.

        Returns an empty list once the arrival window is exhausted.
        """
        if end_time <= start_time:
            raise ValueError("cycle span must be non-empty")
        return self._issue(start_time, end_time)

    def _issue(self, start_time: int, end_time: int) -> List[ArrivalPlan]:
        if self.exhausted:
            return []
        cycle_index = self._cycles_issued
        self._cycles_issued += 1
        plans: List[ArrivalPlan] = []
        for _ in range(self.cycle_quota(cycle_index)):
            if end_time > start_time:
                time = self._rng.randint(start_time, end_time - 1)
            else:
                time = start_time
            plans.append(
                ArrivalPlan(
                    arrival_time=time, query=self._draw_query(cycle_index)
                )
            )
        plans.sort(key=lambda plan: plan.arrival_time)
        return plans
