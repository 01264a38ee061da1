"""Deterministic process-level chaos for the sharded serving tier.

Two halves, mirroring :mod:`repro.net.loadgen`'s pure-plan / live-run
split so the *schedule* is testable without ever forking a worker:

* :func:`build_chaos_schedule` is **pure**: from a shard count, a time
  horizon and a seed it derives a :class:`ChaosSchedule` -- a sorted
  sequence of :class:`ChaosAction` faults.  Every shard is guaranteed
  at least one ``kill`` (placed away from the edges of the horizon so
  the victim has admitted work to lose and time to recover), and the
  same seed always yields the byte-identical schedule.
* :class:`ChaosController` executes a schedule against a live
  :class:`~repro.net.cluster.ClusterSupervisor`: ``kill`` is a real
  ``SIGKILL`` (no atexit, no flushes -- the crash the journal is
  for), ``pause`` wedges a worker with ``SIGSTOP``/``SIGCONT`` (what
  the supervisor's heartbeat sweep escalates), and ``reset`` opens a
  connection to the worker and aborts it with an RST (the torn-dialogue
  case clients and the router must absorb).

The safety side lives in :func:`audit_journal` /
:func:`assert_recovery`: after a chaos run drains, every per-shard
journal must account for every admitted query (``admit`` reaches
``done``; no ``(client_key, query)`` admitted twice within one epoch).
A violation raises :class:`ChaosViolation` -- an ``AssertionError``
subclass, so a failing invariant fails the test that ran the chaos.
"""

from __future__ import annotations

import asyncio
import dataclasses
import pathlib
import random
import signal
import socket
import struct
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.net.clock import ClockAdapter, MonotonicClock
from repro.tools.persist import JournalState, load_journal

__all__ = [
    "ChaosAction",
    "ChaosSchedule",
    "ChaosController",
    "ChaosViolation",
    "build_chaos_schedule",
    "audit_journal",
    "assert_recovery",
]

#: fault kinds the controller knows how to inject
CHAOS_KINDS = ("kill", "pause", "reset")


class ChaosViolation(AssertionError):
    """A safety invariant (no lost/duplicated query) did not hold."""


@dataclasses.dataclass(frozen=True)
class ChaosAction:
    """One scheduled fault against one shard."""

    #: offset in seconds from the start of the chaos run
    at_s: float
    #: ``kill`` | ``pause`` | ``reset``
    kind: str
    shard: int
    #: ``pause`` only: seconds between SIGSTOP and SIGCONT
    duration_s: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in CHAOS_KINDS:
            raise ValueError(f"unknown chaos kind {self.kind!r}")
        if self.at_s < 0 or self.duration_s < 0:
            raise ValueError("chaos times must be non-negative")


@dataclasses.dataclass(frozen=True)
class ChaosSchedule:
    """A deterministic fault schedule (sorted by ``at_s``)."""

    seed: int
    horizon_s: float
    actions: Tuple[ChaosAction, ...] = ()

    def describe(self) -> Dict:
        kinds: Dict[str, int] = {}
        for action in self.actions:
            kinds[action.kind] = kinds.get(action.kind, 0) + 1
        return {
            "seed": self.seed,
            "horizon_s": self.horizon_s,
            "actions": len(self.actions),
            "kinds": kinds,
        }


def build_chaos_schedule(
    num_shards: int,
    horizon_s: float,
    *,
    seed: int = 1,
    kills_per_shard: int = 1,
    extra_actions: int = 0,
    pause_duration_s: float = 0.2,
) -> ChaosSchedule:
    """Derive a deterministic schedule that kills every shard.

    The guaranteed kills land in the middle ``[0.2, 0.8]`` band of the
    horizon: late enough that the victim has admitted queries to lose,
    early enough that the supervisor's restart and the journal replay
    happen while the load is still running.  ``extra_actions`` adds
    seeded ``pause``/``reset`` faults anywhere in the band.
    """
    if num_shards < 1:
        raise ValueError("num_shards must be at least 1")
    if horizon_s <= 0:
        raise ValueError("horizon_s must be positive")
    if kills_per_shard < 1:
        raise ValueError("kills_per_shard must be at least 1")
    rng = random.Random(seed)
    lo, hi = 0.2 * horizon_s, 0.8 * horizon_s
    actions: List[ChaosAction] = []
    for shard in range(num_shards):
        for _ in range(kills_per_shard):
            actions.append(
                ChaosAction(at_s=rng.uniform(lo, hi), kind="kill", shard=shard)
            )
    for _ in range(extra_actions):
        kind = rng.choice(("pause", "reset"))
        actions.append(
            ChaosAction(
                at_s=rng.uniform(lo, hi),
                kind=kind,
                shard=rng.randrange(num_shards),
                duration_s=pause_duration_s if kind == "pause" else 0.0,
            )
        )
    actions.sort(key=lambda a: (a.at_s, a.shard, a.kind))
    return ChaosSchedule(
        seed=seed, horizon_s=horizon_s, actions=tuple(actions)
    )


class ChaosController:
    """Apply a :class:`ChaosSchedule` to a live supervised cluster.

    Runs alongside the supervisor's ``monitor()`` task and the load:
    the controller injects faults, the monitor heals them.  Every
    applied fault is recorded in :attr:`applied` for post-mortem.
    """

    def __init__(
        self,
        supervisor,
        schedule: ChaosSchedule,
        *,
        clock: Optional[ClockAdapter] = None,
    ) -> None:
        self.supervisor = supervisor
        self.schedule = schedule
        self._clock = clock or MonotonicClock()
        #: ``{"at_s", "kind", "shard", "ok", "detail"}`` per action
        self.applied: List[Dict] = []

    async def run(
        self, *, on_event: Optional[Callable[[Dict], None]] = None
    ) -> List[Dict]:
        """Inject every scheduled fault at its offset; returns the log."""
        t0 = self._clock.now()
        pauses: List[asyncio.Task] = []
        for action in self.schedule.actions:
            delay = action.at_s - (self._clock.now() - t0)
            if delay > 0:
                await asyncio.sleep(delay)
            record = self._apply(action, pauses)
            self.applied.append(record)
            if on_event is not None:
                on_event(record)
        if pauses:
            await asyncio.gather(*pauses, return_exceptions=True)
        return self.applied

    def _apply(
        self, action: ChaosAction, pauses: List[asyncio.Task]
    ) -> Dict:
        record = {
            "at_s": action.at_s,
            "kind": action.kind,
            "shard": action.shard,
            "ok": True,
            "detail": "",
        }
        try:
            if action.kind == "kill":
                self._kill(action.shard)
            elif action.kind == "pause":
                pauses.append(
                    asyncio.get_running_loop().create_task(
                        self._pause(action.shard, action.duration_s)
                    )
                )
            elif action.kind == "reset":
                self._reset(action.shard)
        except (OSError, ProcessLookupError, IndexError) as exc:
            record["ok"] = False
            record["detail"] = f"{type(exc).__name__}: {exc}"
        return record

    def _proc(self, shard: int):
        return self.supervisor.procs[shard]

    def _kill(self, shard: int) -> None:
        """SIGKILL: no handlers, no flushes -- the journal's whole case."""
        proc = self._proc(shard)
        if proc.poll() is None:
            proc.kill()

    async def _pause(self, shard: int, duration_s: float) -> None:
        """SIGSTOP now, SIGCONT later: a hung-but-alive worker."""
        proc = self._proc(shard)
        if proc.poll() is not None:
            return
        proc.send_signal(signal.SIGSTOP)
        try:
            await asyncio.sleep(duration_s)
        finally:
            if proc.poll() is None:
                try:
                    proc.send_signal(signal.SIGCONT)
                except (OSError, ProcessLookupError):
                    pass

    def _reset(self, shard: int) -> None:
        """Open a connection to the worker and slam it shut with RST.

        ``SO_LINGER`` with a zero timeout turns ``close()`` into an
        abortive release, so the worker sees ``ECONNRESET`` on a live
        session socket -- the same torn dialogue a crashing client (or
        a mid-splice router death) produces.
        """
        worker = self.supervisor.workers[shard]
        sock = socket.create_connection(
            (worker.host, worker.port), timeout=1.0
        )
        try:
            sock.setsockopt(
                socket.SOL_SOCKET,
                socket.SO_LINGER,
                struct.pack("ii", 1, 0),
            )
        finally:
            sock.close()


def audit_journal(
    path: Union[str, pathlib.Path],
    *,
    state: Optional[JournalState] = None,
) -> Dict:
    """Account for one shard's journal after a drained chaos run.

    Returns ``{"admits", "done", "outstanding", "duplicate_admits",
    "resumes", "torn_tail"}``.  ``duplicate_admits`` lists every
    ``(client_key, query)`` admitted more than once *within a single
    epoch section* -- re-admission across epochs is exactly what crash
    resume does and is not a duplicate.
    """
    loaded = state if state is not None else load_journal(path)
    per_epoch: Dict[Tuple[Optional[int], str, int], int] = {}
    for entry in loaded.admits:
        key = (entry.client_key, entry.query, entry.epoch)
        per_epoch[key] = per_epoch.get(key, 0) + 1
    duplicates = [
        {"client_key": key[0], "query": key[1], "epoch": key[2], "count": n}
        for key, n in sorted(
            per_epoch.items(), key=lambda item: (str(item[0][0]), item[0][1])
        )
        if n > 1 and key[0] is not None
    ]
    return {
        "admits": len(loaded.admits),
        "done": len(loaded.done_ids),
        "outstanding": len(loaded.outstanding),
        "duplicate_admits": duplicates,
        "resumes": loaded.resumes,
        "torn_tail": loaded.torn_tail,
    }


def assert_recovery(
    journal_paths: Sequence[Union[str, pathlib.Path]],
) -> List[Dict]:
    """No admitted query lost, none double-admitted: the chaos contract.

    Call after the load has fully drained (every session satisfied or
    accounted for).  Every journal must show zero outstanding entries
    -- an outstanding admit at this point is a query the cluster
    acknowledged and then lost.  Raises :class:`ChaosViolation` with
    the offending shard and keys; returns the per-shard audits.
    """
    audits: List[Dict] = []
    for shard, path in enumerate(journal_paths):
        audit = audit_journal(path)
        audits.append(audit)
        if audit["outstanding"]:
            state = load_journal(path)
            lost = [
                {"query_id": e.query_id, "query": e.query, "key": e.client_key}
                for e in state.outstanding
            ]
            raise ChaosViolation(
                f"shard {shard}: {audit['outstanding']} admitted "
                f"quer{'y' if audit['outstanding'] == 1 else 'ies'} never "
                f"satisfied after recovery: {lost}"
            )
        if audit["duplicate_admits"]:
            raise ChaosViolation(
                f"shard {shard}: duplicate admissions within one epoch: "
                f"{audit['duplicate_admits']}"
            )
    return audits
