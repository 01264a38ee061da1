"""Broadcast-trace export and analysis.

A trace is JSON Lines: a ``meta`` record, one ``cycle`` record per
broadcast cycle and one ``client`` record per completed session.  Traces
make runs diffable, graphable with external tooling, and comparable
across code versions without re-running the simulator.

Format 3, the only one read or written:

* ``cycle`` and ``client`` records are the run's
  :class:`~repro.broadcast.server.CycleRecord` and
  :class:`~repro.sim.results.ClientRecord` read through one key table
  each (:data:`CYCLE_KEYS`, :data:`CLIENT_KEYS`), which is also what
  :func:`load_trace` requires of them;
* ``client`` records carry the byte breakdown (``probe_bytes``,
  ``index_bytes``, ``offset_bytes``, ``doc_bytes``);
* observed runs (see :mod:`repro.obs`) add ``phase_seconds`` to each
  ``cycle`` record -- wall-clock seconds per server phase of that
  cycle's construction -- and one ``metrics`` record with the run's full
  metrics-registry snapshot (counters, gauges, histograms, spans);
* ``query_trace`` records: one per traced wire query -- the causally
  linked span tree (submit -> admit -> queue -> build -> on_air ->
  tune) plus its additive latency ``components``, produced by
  :meth:`repro.obs.telemetry.tracing.QueryTrace.to_record`;
* ``event`` records: structured event-log lines captured during a run.

Every record is validated against the required keys of its kind, with
``file:line`` context on failure.
"""

from __future__ import annotations

import json
import pathlib
from operator import attrgetter
from typing import Dict, List, Mapping, Sequence, Union

from repro.sim.results import SimulationResult

PathLike = Union[str, pathlib.Path]

_FORMAT_VERSION = 3

#: ``cycle`` record key -> the :class:`~repro.broadcast.server.CycleRecord`
#: attribute it carries (dotted paths read through ``pruning``)
CYCLE_KEYS: Dict[str, str] = {
    "cycle": "cycle_number",
    "start": "start_time",
    "total_bytes": "total_bytes",
    "data_bytes": "data_bytes",
    "doc_count": "scheduled_docs",
    "pending": "pending_count",
    "ci_bytes": "pruning.bytes_before",
    "pci_bytes": "pruning.bytes_after",
    "first_tier_bytes": "pci_first_tier_bytes",
    "offset_list_bytes": "offset_list_bytes",
}

#: ``client`` record key -> the :class:`~repro.sim.results.ClientRecord`
#: field it carries
CLIENT_KEYS: Dict[str, str] = {
    "query": "query_text",
    "protocol": "protocol",
    "arrival": "arrival_time",
    "result_docs": "result_doc_count",
    "cycles": "cycles_listened",
    "probe_bytes": "probe_bytes",
    "index_bytes": "index_bytes",
    "offset_bytes": "offset_bytes",
    "doc_bytes": "doc_bytes",
    "index_lookup_bytes": "index_lookup_bytes",
    "tuning_bytes": "tuning_bytes",
    "access_bytes": "access_bytes",
}

#: keys every record of a kind must carry (validated on load)
_REQUIRED_KEYS: Dict[str, tuple] = {
    "meta": ("format", "collection_bytes", "document_count", "completed"),
    "cycle": tuple(CYCLE_KEYS),
    "client": tuple(CLIENT_KEYS),
    "metrics": ("snapshot",),
    "query_trace": ("trace_id", "query", "spans", "components"),
    "event": ("event",),
}


def trace_form(record: object, keys: Mapping[str, str]) -> Dict[str, object]:
    """*record* read through a key table: ``{key: record.<path>}``."""
    return {key: attrgetter(path)(record) for key, path in keys.items()}


def _meta(**fields: object) -> Dict[str, object]:
    return dict(fields, kind="meta", format=_FORMAT_VERSION)


def trace_records(result: SimulationResult) -> List[Dict]:
    """The records a trace of *result* holds, ``meta`` first: what
    :func:`export_trace` writes and what ``repro stats`` reports from."""
    records: List[Dict] = [
        _meta(
            collection_bytes=result.collection_bytes,
            document_count=result.document_count,
            completed=result.completed,
        )
    ]
    for cycle in result.cycles:
        record = dict(trace_form(cycle, CYCLE_KEYS), kind="cycle")
        if cycle.phase_seconds:
            record["phase_seconds"] = dict(cycle.phase_seconds)
        records.append(record)
    records += [
        dict(trace_form(client, CLIENT_KEYS), kind="client")
        for client in result.clients
    ]
    if result.metrics is not None:
        records.append({"kind": "metrics", "snapshot": result.metrics})
    return records


def _write(file_path: PathLike, records: List[Dict]) -> pathlib.Path:
    path = pathlib.Path(file_path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    return path


def export_query_traces(
    traces: Sequence,
    file_path: PathLike,
    collection_bytes: int = 0,
    document_count: int = 0,
    events: Sequence[Dict] = (),
) -> pathlib.Path:
    """Write wire-query traces as a standalone trace file.

    ``traces`` are :class:`repro.obs.telemetry.tracing.QueryTrace`
    objects (or prebuilt ``query_trace`` record dicts); ``events`` are
    optional structured event-log dicts to embed alongside them.  The
    result loads with :func:`load_trace` and renders with
    ``python -m repro stats --trace``.
    """
    records = [
        _meta(
            collection_bytes=collection_bytes,
            document_count=document_count,
            completed=len(traces),
        )
    ]
    records += [t if isinstance(t, dict) else t.to_record() for t in traces]
    records += [dict(event, kind="event") for event in events]
    return _write(file_path, records)


def export_trace(result: SimulationResult, file_path: PathLike) -> pathlib.Path:
    """Write one finished run as a JSONL trace."""
    return _write(file_path, trace_records(result))


def _validate_record(record: Dict, path: pathlib.Path, line_number: int) -> None:
    kind = record["kind"]
    required = _REQUIRED_KEYS.get(kind)
    if required is None:
        raise ValueError(
            f"{path}:{line_number}: unknown record kind {kind!r} "
            f"(expected one of {sorted(_REQUIRED_KEYS)})"
        )
    missing = [key for key in required if key not in record]
    if missing:
        raise ValueError(
            f"{path}:{line_number}: {kind} record missing required "
            f"key(s): {', '.join(missing)}"
        )


def load_trace(file_path: PathLike) -> List[Dict]:
    """Read a format-3 trace back as a list of validated records.

    Every record must name a known ``kind`` and carry that kind's
    required keys; violations raise :class:`ValueError` with
    ``file:line`` context instead of surfacing later as a bare
    ``KeyError`` from the report builder.  A trace of an older format
    is refused the same way: re-export it.
    """
    path = pathlib.Path(file_path)
    numbered: List[tuple] = []
    for line_number, raw in enumerate(
        path.read_text(encoding="utf-8").splitlines(), start=1
    ):
        if not raw.strip():
            continue
        try:
            record = json.loads(raw)
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"{path}:{line_number}: bad JSON: {exc}") from exc
        if not isinstance(record, dict) or not isinstance(record.get("kind"), str):
            raise ValueError(f"{path}:{line_number}: record without a string 'kind'")
        numbered.append((line_number, record))
    if not numbered or numbered[0][1]["kind"] != "meta":
        raise ValueError(f"{path}: trace must start with a meta record")
    line_number, meta = numbered[0]
    # An int, not merely equal to one (``True == 1`` and ``3.0 == 3``).
    if type(meta.get("format")) is not int or meta["format"] != _FORMAT_VERSION:
        raise ValueError(
            f"{path}:{line_number}: unsupported trace format "
            f"{meta.get('format')!r} (this version reads format "
            f"{_FORMAT_VERSION}; re-export the trace)"
        )
    for line_number, record in numbered:
        _validate_record(record, path, line_number)
    return [record for _, record in numbered]
