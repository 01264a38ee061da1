"""Prometheus/OpenMetrics exposition for a registry snapshot.

Four layers, each usable on its own:

* :func:`stat` declares one operational number *once*, as a field of a
  stats dataclass carrying its own exposition; :func:`stat_families`,
  :func:`stat_status`, :func:`status_total_keys` and :func:`stat_table`
  render ``/metrics`` families, the ``STATUS`` payload, the router's
  cluster totals and the ``docs/OBSERVABILITY.md`` table from it;

* :func:`render_openmetrics` turns a :meth:`MetricsRegistry.snapshot`
  dict into OpenMetrics text (counters, gauges, histograms, plus span
  aggregates synthesised as ``span_*`` families);
* :func:`lint_openmetrics` validates exposition text against the
  OpenMetrics grammar -- used by CI to gate the daemon's endpoint;
* :class:`MetricsHTTPServer` serves ``/metrics`` and ``/healthz`` from
  an asyncio event loop with nothing but the stdlib.  Rendering happens
  synchronously between awaits, so a scrape always sees a consistent
  snapshot even while cycle builds are mutating the registry.
"""

from __future__ import annotations

import asyncio
import inspect
import json
import re
from dataclasses import dataclass, field, fields
from typing import (
    Any,
    Awaitable,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

__all__ = [
    "CONTENT_TYPE",
    "Family",
    "MetricsHTTPServer",
    "OpenMetricsError",
    "lint_openmetrics",
    "merge_expositions",
    "render_openmetrics",
    "scrape",
    "stat",
    "stat_families",
    "stat_status",
    "stat_table",
    "status_total_keys",
]

#: Content type advertised by ``/metrics`` (OpenMetrics 1.0 text).
CONTENT_TYPE = "application/openmetrics-text; version=1.0.0; charset=utf-8"

_NAME_OK = re.compile(r"[^a-zA-Z0-9_:]")


class OpenMetricsError(ValueError):
    """Exposition text violates the OpenMetrics grammar."""


@dataclass
class Family:
    """One metric family to merge into the rendered exposition.

    Lets callers expose plain-integer state (the daemon's
    :class:`~repro.net.daemon.DaemonStats`) alongside the registry
    without round-tripping it through counters.
    """

    name: str
    type: str  # "counter" | "gauge"
    #: ``(labels, value)`` samples; labels may be empty
    samples: List[Tuple[Dict[str, str], float]] = field(default_factory=list)
    help: str = ""

    def add(self, value: float, **labels: str) -> "Family":
        self.samples.append((labels, value))
        return self


@dataclass(frozen=True)
class _StatSpec:
    metric: Optional[str]
    kind: str
    status: Optional[str]
    total: bool
    labels: Dict[str, str]


def stat(
    metric: Optional[str] = None,
    kind: str = "counter",
    *,
    status: Optional[str] = None,
    total: bool = False,
    **labels: str,
) -> Any:
    """Declare one operational stat as a dataclass field (default 0).

    *metric*/*kind*/*labels* are its ``/metrics`` series (``None`` = not
    exported), *status* its key in the ``STATUS`` payload (``None`` =
    not reported; fields sharing a key are summed into it) and *total*
    whether a front door adds that key up across its shards.
    """
    return field(
        default=0, metadata={"stat": _StatSpec(metric, kind, status, total, labels)}
    )


def _stat_specs(stats: Any) -> List[Tuple[str, _StatSpec]]:
    """``(field name, declaration)`` of a stats dataclass (or instance)."""
    return [
        (f.name, f.metadata["stat"]) for f in fields(stats) if "stat" in f.metadata
    ]


def stat_families(stats: Any, **labels: str) -> List[Family]:
    """The declared ``/metrics`` families of a stats object, each sample
    additionally carrying *labels*."""
    families: Dict[str, Family] = {}
    for name, spec in _stat_specs(stats):
        if spec.metric is not None:
            families.setdefault(spec.metric, Family(spec.metric, spec.kind)).add(
                int(getattr(stats, name)), **spec.labels, **labels
            )
    return list(families.values())


def stat_status(stats: Any) -> Dict[str, Any]:
    """The declared ``STATUS`` entries of a stats object, in field order."""
    status: Dict[str, Any] = {}
    for name, spec in _stat_specs(stats):
        if spec.status is not None:
            value = getattr(stats, name)
            status[spec.status] = (
                status[spec.status] + value if spec.status in status else value
            )
    return status


def status_total_keys(stats: Any) -> Tuple[str, ...]:
    """The ``STATUS`` keys declared summable across shards."""
    keys = [s.status for _, s in _stat_specs(stats) if s.total and s.status]
    return tuple(dict.fromkeys(keys))


def stat_table(*stat_classes: Any) -> str:
    """The markdown table of every declared stat (the generated block of
    ``docs/OBSERVABILITY.md``; a test keeps the two identical)."""
    rows = ["| stat | `/metrics` series | `STATUS` key |", "|---|---|---|"]
    for cls in stat_classes:
        for name, spec in _stat_specs(cls):
            series = "—"
            if spec.metric is not None:
                suffix = "_total" if spec.kind == "counter" else ""
                series = f"`{_sanitize(spec.metric)}{suffix}{_label_text(spec.labels)}`"
                series += f" ({spec.kind})"
            key = f"`{spec.status}`" if spec.status else "—"
            key += " (summed by the router)" if spec.total else ""
            rows.append(f"| `{cls.__name__}.{name}` | {series} | {key} |")
    return "\n".join(rows) + "\n"


def _sanitize(name: str) -> str:
    """Map registry metric names (dotted) onto OpenMetrics names."""
    clean = _NAME_OK.sub("_", name)
    if not clean or clean[0].isdigit():
        clean = "_" + clean
    return clean


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if isinstance(value, bool):  # pragma: no cover - defensive
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _split_key(key: str) -> Tuple[str, Dict[str, str]]:
    """Invert :func:`repro.obs.registry.metric_key`."""
    if "{" not in key:
        return key, {}
    name, _, rest = key.partition("{")
    labels: Dict[str, str] = {}
    body = rest.rstrip("}")
    # metric_key renders ``k="v"`` pairs comma-joined; values never
    # contain quotes in practice, but split conservatively anyway.
    for match in re.finditer(r'(\w+)="((?:[^"\\]|\\.)*)"', body):
        labels[match.group(1)] = match.group(2)
    return name, labels


def _label_text(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{k}="{_escape_label(str(v))}"' for k, v in sorted(labels.items())
    )
    return "{" + inner + "}"


def _strip_total(name: str) -> str:
    return name[: -len("_total")] if name.endswith("_total") else name


def render_openmetrics(
    snapshot: Dict[str, Dict],
    extra_families: Sequence[Family] = (),
) -> str:
    """Render a registry snapshot as OpenMetrics exposition text.

    ``snapshot`` is the dict returned by
    :meth:`repro.obs.registry.MetricsRegistry.snapshot` (keys:
    ``counters``, ``gauges``, ``histograms``, ``spans``).  Span
    aggregates are synthesised into ``span_seconds`` /
    ``span_self_seconds`` / ``span_calls`` counter families and
    ``span_min_seconds`` / ``span_max_seconds`` gauges, labelled by
    span name.  ``extra_families`` are appended verbatim (after name
    sanitisation) -- the daemon uses this for its plain-int stats.
    """
    lines: List[str] = []

    # Group samples by family so each family gets exactly one TYPE line.
    counters: Dict[str, List[str]] = {}
    for key, value in sorted(snapshot.get("counters", {}).items()):
        raw_name, labels = _split_key(key)
        family = _strip_total(_sanitize(raw_name))
        counters.setdefault(family, []).append(
            f"{family}_total{_label_text(labels)} {_format_value(value)}"
        )
    for family, samples in counters.items():
        lines.append(f"# TYPE {family} counter")
        lines.extend(samples)

    gauges: Dict[str, List[str]] = {}
    for key, value in sorted(snapshot.get("gauges", {}).items()):
        raw_name, labels = _split_key(key)
        family = _sanitize(raw_name)
        gauges.setdefault(family, []).append(
            f"{family}{_label_text(labels)} {_format_value(value)}"
        )
    for family, samples in gauges.items():
        lines.append(f"# TYPE {family} gauge")
        lines.extend(samples)

    histograms: Dict[str, List[str]] = {}
    for key, hist in sorted(snapshot.get("histograms", {}).items()):
        raw_name, labels = _split_key(key)
        family = _sanitize(raw_name)
        samples = histograms.setdefault(family, [])
        cumulative = 0
        for bound, count in zip(hist["bounds"], hist["counts"]):
            cumulative += count
            le = dict(labels, le=_format_value(float(bound)))
            samples.append(
                f"{family}_bucket{_label_text(le)} {cumulative}"
            )
        cumulative += hist["counts"][len(hist["bounds"])] if len(
            hist["counts"]
        ) > len(hist["bounds"]) else 0
        inf = dict(labels, le="+Inf")
        samples.append(f"{family}_bucket{_label_text(inf)} {cumulative}")
        samples.append(
            f"{family}_count{_label_text(labels)} {hist['count']}"
        )
        samples.append(
            f"{family}_sum{_label_text(labels)} {_format_value(hist['sum'])}"
        )
    for family, samples in histograms.items():
        lines.append(f"# TYPE {family} histogram")
        lines.extend(samples)

    spans = snapshot.get("spans", {})
    if spans:
        span_rows = sorted(spans.items())

        def _span_family(family: str, kind: str, pick) -> None:
            lines.append(f"# TYPE {family} {kind}")
            suffix = "_total" if kind == "counter" else ""
            for name, agg in span_rows:
                label = _label_text({"span": name})
                lines.append(
                    f"{family}{suffix}{label} {_format_value(pick(agg))}"
                )

        _span_family("span_seconds", "counter", lambda a: a["total_seconds"])
        _span_family(
            "span_self_seconds", "counter", lambda a: a["self_seconds"]
        )
        _span_family("span_calls", "counter", lambda a: a["count"])
        _span_family("span_min_seconds", "gauge", lambda a: a["min_seconds"])
        _span_family("span_max_seconds", "gauge", lambda a: a["max_seconds"])

    for fam in extra_families:
        family = _sanitize(fam.name)
        if fam.type == "counter":
            family = _strip_total(family)
        lines.append(f"# TYPE {family} {fam.type}")
        suffix = "_total" if fam.type == "counter" else ""
        for labels, value in fam.samples:
            lines.append(
                f"{family}{suffix}{_label_text(labels)} {_format_value(value)}"
            )

    lines.append("# EOF")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# exposition merging (the cluster front door's /metrics aggregation)


def _parse_label_body(body: str) -> Dict[str, str]:
    labels: Dict[str, str] = {}
    for match in re.finditer(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"', body):
        labels[match.group(1)] = match.group(2)
    return labels


def _inject_labels(line: str, extra: Dict[str, str]) -> str:
    """Add ``extra`` labels to one sample line (existing labels win)."""
    match = _SAMPLE_RE.match(line)
    if match is None:
        raise OpenMetricsError(f"unparseable sample line {line!r}")
    existing = _parse_label_body(match.group("labels") or "")
    merged = {**{k: v for k, v in extra.items() if k not in existing}, **existing}
    tail = f" {match.group('timestamp')}" if match.group("timestamp") else ""
    return (
        f"{match.group('name')}{_label_text(merged)} "
        f"{match.group('value')}{tail}"
    )


def merge_expositions(
    parts: Sequence[Tuple[Dict[str, str], str]]
) -> str:
    """Merge several OpenMetrics documents into one lint-clean document.

    ``parts`` is a sequence of ``(labels, exposition_text)`` pairs; the
    labels are injected into every sample of that part (samples already
    carrying a label keep their own value).  Families appearing in more
    than one part are merged under a **single** ``# TYPE`` line -- the
    linter rejects duplicate declarations -- and a family declared with
    conflicting types raises.  This is how the cluster front door
    aggregates per-worker scrapes: each worker's exposition is
    relabelled ``shard="i"`` and merged with the router's own families.

    ``HELP``/``UNIT`` comment lines are dropped (none of our renderers
    emit them); ``# EOF`` terminators are stripped and a single one is
    re-appended.
    """
    family_types: Dict[str, str] = {}
    family_samples: Dict[str, List[str]] = {}
    order: List[str] = []
    for labels, text in parts:
        local: Dict[str, str] = {}
        for line in text.split("\n"):
            if not line or line == "# EOF":
                continue
            if line.startswith("#"):
                pieces = line.split(" ")
                if len(pieces) >= 4 and pieces[1] == "TYPE":
                    name, ftype = pieces[2], pieces[3]
                    local[name] = ftype
                    known = family_types.get(name)
                    if known is None:
                        family_types[name] = ftype
                        family_samples[name] = []
                        order.append(name)
                    elif known != ftype:
                        raise OpenMetricsError(
                            f"family {name!r} declared as both "
                            f"{known!r} and {ftype!r}"
                        )
                continue
            name_only = line.split("{", 1)[0].split(" ", 1)[0]
            family = _match_family(name_only, local)
            if family is None:
                raise OpenMetricsError(
                    f"sample {name_only!r} precedes its TYPE declaration"
                )
            family_samples[family].append(
                _inject_labels(line, labels) if labels else line
            )
    lines: List[str] = []
    for family in order:
        lines.append(f"# TYPE {family} {family_types[family]}")
        lines.extend(family_samples[family])
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# linter

_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^{}]*)\})?"
    r" (?P<value>-?(?:[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?|\+Inf|-Inf|NaN))"
    r"(?: (?P<timestamp>[0-9.+-eE]+))?$"
)
_LABEL_RE = re.compile(r'^[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\.)*"$')
_TYPES = {
    "counter",
    "gauge",
    "histogram",
    "summary",
    "unknown",
    "info",
    "stateset",
}
#: sample-name suffixes each family type may use
_SUFFIXES = {
    "counter": ("_total", "_created"),
    "gauge": ("",),
    "unknown": ("",),
    "info": ("_info",),
    "stateset": ("",),
    "histogram": ("_bucket", "_count", "_sum", "_created"),
    "summary": ("", "_count", "_sum", "_created"),
}


def _match_family(name: str, families: Dict[str, str]) -> Optional[str]:
    """Find the declared family a sample name belongs to."""
    best = None
    for family, ftype in families.items():
        for suffix in _SUFFIXES[ftype]:
            if name == family + suffix:
                if best is None or len(family) > len(best):
                    best = family
    return best


def lint_openmetrics(text: str) -> None:
    """Validate OpenMetrics exposition text; raise on violations.

    Checks the line grammar (TYPE/HELP/UNIT comments, sample syntax,
    label syntax), that every sample belongs to a previously declared
    family with a suffix legal for its type, that ``# EOF`` terminates
    the document, that histogram ``_bucket`` series carry an ``le``
    label, are cumulative, and include ``+Inf``.  Raises
    :class:`OpenMetricsError` listing every offending line.
    """
    errors: List[str] = []
    families: Dict[str, str] = {}
    bucket_runs: Dict[str, List[float]] = {}
    lines = text.split("\n")
    if not text.endswith("\n"):
        errors.append("document must end with a newline")
    body = lines[:-1] if lines and lines[-1] == "" else lines
    if not body or body[-1] != "# EOF":
        errors.append("document must terminate with '# EOF'")
    for lineno, line in enumerate(body, 1):
        if line == "# EOF":
            if lineno != len(body):
                errors.append(f"line {lineno}: content after '# EOF'")
            continue
        if line.startswith("#"):
            parts = line.split(" ", 3)
            if len(parts) < 3 or parts[1] not in ("TYPE", "HELP", "UNIT"):
                errors.append(f"line {lineno}: malformed comment {line!r}")
                continue
            if parts[1] == "TYPE":
                if len(parts) != 4 or parts[3] not in _TYPES:
                    errors.append(
                        f"line {lineno}: bad TYPE declaration {line!r}"
                    )
                    continue
                family = parts[2]
                if family in families:
                    errors.append(
                        f"line {lineno}: family {family!r} declared twice"
                    )
                families[family] = parts[3]
            continue
        if not line:
            errors.append(f"line {lineno}: blank line")
            continue
        match = _SAMPLE_RE.match(line)
        if not match:
            errors.append(f"line {lineno}: unparseable sample {line!r}")
            continue
        name = match.group("name")
        labels_text = match.group("labels")
        labels: Dict[str, str] = {}
        if labels_text:
            for pair in re.split(r",(?=[a-zA-Z_])", labels_text):
                if not _LABEL_RE.match(pair):
                    errors.append(
                        f"line {lineno}: bad label pair {pair!r}"
                    )
                else:
                    key, _, value = pair.partition("=")
                    labels[key] = value.strip('"')
        family = _match_family(name, families)
        if family is None:
            errors.append(
                f"line {lineno}: sample {name!r} has no TYPE declaration"
            )
            continue
        if families[family] == "histogram" and name == family + "_bucket":
            if "le" not in labels:
                errors.append(
                    f"line {lineno}: histogram bucket missing 'le' label"
                )
            else:
                series = name + _label_text(
                    {k: v for k, v in labels.items() if k != "le"}
                )
                le = labels["le"]
                bound = float("inf") if le == "+Inf" else float(le)
                run = bucket_runs.setdefault(series, [])
                value = float(match.group("value"))
                if run and value < run[-1][1]:
                    errors.append(
                        f"line {lineno}: bucket counts not cumulative"
                    )
                run.append((bound, value))
    for series, run in bucket_runs.items():
        if not run or run[-1][0] != float("inf"):
            errors.append(f"histogram series {series!r} missing '+Inf' bucket")
    if errors:
        raise OpenMetricsError(
            "invalid OpenMetrics exposition:\n  " + "\n  ".join(errors)
        )


# --------------------------------------------------------------------------
# HTTP endpoint

_MAX_REQUEST_BYTES = 8192


class MetricsHTTPServer:
    """Minimal asyncio HTTP/1.0-style server for ``/metrics`` + ``/healthz``.

    ``metrics_fn`` returns the exposition text; ``health_fn`` returns
    ``(status_code, payload_dict)`` -- the daemon maps draining onto
    503 so orchestrators stop routing scrapes/clients at drain time.
    A synchronous ``metrics_fn`` runs with no awaits between snapshot
    and render, which is what makes a daemon scrape a consistent
    point-in-time view of the registry.  ``metrics_fn`` may instead be
    an async callable (the cluster front door fans a scrape out to its
    workers); such an endpoint is an aggregation, not a point-in-time
    snapshot, by construction.
    """

    def __init__(
        self,
        metrics_fn: Callable[[], Union[str, Awaitable[str]]],
        health_fn: Callable[[], Tuple[int, Dict]],
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.metrics_fn = metrics_fn
        self.health_fn = health_fn
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None

    async def start(self) -> int:
        """Bind and start serving; returns the bound port."""
        self._server = await asyncio.start_server(
            self._handle, host=self.host, port=self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self.port

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                raw = await asyncio.wait_for(
                    reader.readuntil(b"\r\n\r\n"), timeout=5.0
                )
            except (
                asyncio.IncompleteReadError,
                asyncio.LimitOverrunError,
                asyncio.TimeoutError,
            ):
                return
            request_line = raw.split(b"\r\n", 1)[0].decode(
                "latin-1", "replace"
            )
            parts = request_line.split(" ")
            if len(parts) < 2:
                self._respond(writer, 400, "text/plain", "bad request\n")
                return
            method, path = parts[0], parts[1]
            path = path.split("?", 1)[0]
            if method != "GET":
                self._respond(
                    writer, 405, "text/plain", "method not allowed\n"
                )
            elif path == "/metrics":
                # Synchronous snapshot+render: no await may separate a
                # registry read from its serialisation.  An *async*
                # metrics_fn (front-door aggregation over remote
                # workers) is awaited instead.
                body = self.metrics_fn()
                if inspect.isawaitable(body):
                    body = await body
                self._respond(writer, 200, CONTENT_TYPE, body)
            elif path == "/healthz":
                code, payload = self.health_fn()
                self._respond(
                    writer,
                    200 if code == 200 else code,
                    "application/json",
                    json.dumps(payload, sort_keys=True) + "\n",
                )
            else:
                self._respond(writer, 404, "text/plain", "not found\n")
            await writer.drain()
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    @staticmethod
    def _respond(
        writer: asyncio.StreamWriter,
        status: int,
        content_type: str,
        body: str,
    ) -> None:
        reason = {
            200: "OK",
            400: "Bad Request",
            404: "Not Found",
            405: "Method Not Allowed",
            503: "Service Unavailable",
        }.get(status, "OK")
        payload = body.encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(payload)}\r\n"
            "Connection: close\r\n"
            "\r\n"
        )
        writer.write(head.encode("latin-1") + payload)


async def scrape(
    host: str, port: int, path: str = "/metrics"
) -> Tuple[int, str]:
    """One-shot HTTP GET against a :class:`MetricsHTTPServer`.

    Returns ``(status_code, body)``.  Used by tests, CI and the
    benchmark harness -- no external HTTP client required.
    """
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(
            f"GET {path} HTTP/1.1\r\nHost: {host}\r\n"
            "Connection: close\r\n\r\n".encode("latin-1")
        )
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):  # pragma: no cover
            pass
    head, _, body = raw.partition(b"\r\n\r\n")
    status_line = head.split(b"\r\n", 1)[0].decode("latin-1", "replace")
    try:
        status = int(status_line.split(" ")[1])
    except (IndexError, ValueError):
        raise OSError(f"malformed HTTP response: {status_line!r}")
    return status, body.decode("utf-8", "replace")
