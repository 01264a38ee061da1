"""Disk persistence for collections, workloads, and query journals.

Layout of a saved collection directory::

    <dir>/manifest.json        {"format": 1, "documents": [{"doc_id", "file", "name"}...]}
    <dir>/doc-00000.xml        one serialized document per file

Workloads are plain text, one XPath query per line (``#`` comments and
blank lines ignored), so they are hand-editable.

Everything round-trips exactly: documents are re-parsed with the
library's own parser and compared structurally in tests.

:class:`QueryJournal` is the per-shard write-ahead journal behind the
daemon's crash-resume path: one JSON record per line, appended and
flushed *before* an uplink ``ACK`` leaves the socket (``admit``) and
after a cycle carrying the query's last document has fully streamed
(``done``).  A worker killed with ``SIGKILL`` therefore loses at most
work it never acknowledged; every admitted-but-unsatisfied query is
recoverable as ``admits - dones``.  Records::

    {"kind": "journal", "format": 1}                            # header
    {"kind": "admit", "query_id": 3, "query": "//nitf",
     "arrival": 120, "client_key": 7}                           # pre-ACK
    {"kind": "done", "query_id": 3}                             # post-cycle
    {"kind": "resume", "epoch": 2, "replayed": 4}               # on boot

A torn final line (the record being written when the process died) is
tolerated and dropped; corruption anywhere else raises.  The journal is
compacted on resume: the daemon re-admits the outstanding entries, then
one atomic rewrite leaves a fresh epoch section holding them under their
new query ids.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib
from typing import IO, Any, Dict, List, Optional, Sequence, Union

from repro.xmlkit.model import XMLDocument
from repro.xmlkit.parser import parse_document
from repro.xmlkit.serialize import serialize_document
from repro.xpath.ast import XPathQuery
from repro.xpath.parser import parse_query

PathLike = Union[str, pathlib.Path]

_MANIFEST = "manifest.json"
_FORMAT_VERSION = 1

JOURNAL_FORMAT = 1


def save_collection(documents: Sequence[XMLDocument], directory: PathLike) -> pathlib.Path:
    """Write a collection (documents + manifest) to *directory*."""
    if not documents:
        raise ValueError("refusing to save an empty collection")
    path = pathlib.Path(directory)
    path.mkdir(parents=True, exist_ok=True)
    entries = []
    for doc in documents:
        filename = f"doc-{doc.doc_id:05d}.xml"
        (path / filename).write_text(serialize_document(doc), encoding="utf-8")
        entries.append({"doc_id": doc.doc_id, "file": filename, "name": doc.name})
    manifest = {"format": _FORMAT_VERSION, "documents": entries}
    (path / _MANIFEST).write_text(
        json.dumps(manifest, indent=2) + "\n", encoding="utf-8"
    )
    return path


def load_collection(directory: PathLike) -> List[XMLDocument]:
    """Load a collection saved by :func:`save_collection`.

    The manifest is outside input: anything but the layout above --
    wrong types, a ``bool`` posing as an ``int``, a doc id outside the
    air index's 2-byte field, a file outside *directory*, a document
    that does not parse -- raises ``ValueError`` naming the manifest and
    the entry, never anything else.
    """
    path = pathlib.Path(directory)
    manifest_path = path / _MANIFEST
    if not manifest_path.exists():
        raise FileNotFoundError(f"no {_MANIFEST} in {path}")
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"{manifest_path}: not a JSON manifest ({exc})") from exc
    if not isinstance(manifest, dict):
        raise ValueError(f"{manifest_path}: the manifest is not a JSON object")
    version = manifest.get("format")
    if type(version) is not int or version != _FORMAT_VERSION:
        raise ValueError(f"{manifest_path}: unsupported collection format {version!r}")
    entries = manifest.get("documents")
    if not isinstance(entries, list) or not entries:
        raise ValueError(f"{manifest_path}: 'documents' is not a non-empty list")
    base = path.resolve()
    documents: List[XMLDocument] = []
    seen = set()
    for index, entry in enumerate(entries):
        where = f"{manifest_path}: entry {index}"
        try:
            doc_id = _typed(entry["doc_id"], int)
            name = _typed(entry.get("name", ""), str)
            target = (path / _typed(entry["file"], str)).resolve()
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{where}: malformed ({exc!r})") from exc
        if not 0 <= doc_id <= 0xFFFF:  # the index's 2-byte doc-id field
            raise ValueError(f"{where}: doc id {doc_id} does not fit 2 bytes")
        if doc_id in seen:
            raise ValueError(f"{where}: manifest repeats doc id {doc_id}")
        if base not in target.parents:
            raise ValueError(f"{where}: file {entry['file']!r} is outside {path}")
        seen.add(doc_id)
        try:
            text = target.read_text(encoding="utf-8")
            documents.append(parse_document(text, doc_id=doc_id, name=name))
        except (OSError, ValueError) as exc:
            raise ValueError(f"{where}: {entry['file']}: {exc}") from exc
    return documents


def save_workload(queries: Sequence[XPathQuery], file_path: PathLike) -> pathlib.Path:
    """Write a workload as one query per line."""
    path = pathlib.Path(file_path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = ["# repro workload: one XPath query per line"]
    lines.extend(str(query) for query in queries)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def load_workload(file_path: PathLike) -> List[XPathQuery]:
    """Load a workload saved by :func:`save_workload` (or hand-written)."""
    path = pathlib.Path(file_path)
    queries: List[XPathQuery] = []
    for line_number, raw in enumerate(
        path.read_text(encoding="utf-8").splitlines(), start=1
    ):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            queries.append(parse_query(line))
        except ValueError as exc:
            raise ValueError(f"{path}:{line_number}: {exc}") from exc
    return queries


@dataclasses.dataclass(frozen=True)
class JournalEntry:
    """One outstanding (admitted, not yet satisfied) journaled query."""

    query_id: int
    query: str
    arrival: int
    client_key: Optional[int] = None
    epoch: int = 0


@dataclasses.dataclass
class JournalState:
    """Decoded journal contents, ready for replay and audit.

    ``outstanding`` preserves admission order -- replaying it through
    ``server.submit`` reproduces the dead worker's pending set exactly
    (same arrivals, same relative order, fresh query ids).
    """

    outstanding: List[JournalEntry] = dataclasses.field(default_factory=list)
    admits: List[JournalEntry] = dataclasses.field(default_factory=list)
    done_ids: List[int] = dataclasses.field(default_factory=list)
    resumes: int = 0
    torn_tail: bool = False


class QueryJournal:
    """Append-only write-ahead journal of admitted queries.

    Durability contract: every record is flushed to the OS before the
    call returns, which survives ``SIGKILL`` of the process (the kernel
    owns the page cache).  Pass ``durable=True`` to also ``fsync`` each
    record, extending the guarantee to machine crashes at a substantial
    per-record cost; the chaos harness only kills processes, so the
    default is the cheap mode.
    """

    def __init__(self, path: PathLike, *, durable: bool = False) -> None:
        self.path = pathlib.Path(path)
        self.durable = durable
        self._file: Optional[IO[str]] = None

    # -- lifecycle ---------------------------------------------------

    def open(self) -> None:
        """Open for appending, writing the format header if new."""
        if self._file is not None:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fresh = not self.path.exists() or self.path.stat().st_size == 0
        self._file = open(self.path, "a", encoding="utf-8")
        if fresh:
            self._append({"kind": "journal", "format": JOURNAL_FORMAT})

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None

    # -- writes ------------------------------------------------------

    def record_admit(
        self,
        query_id: int,
        query: str,
        arrival: int,
        client_key: Optional[int] = None,
        *,
        epoch: int = 0,
    ) -> None:
        self._append(
            {
                "kind": "admit",
                "query_id": query_id,
                "query": query,
                "arrival": arrival,
                "client_key": client_key,
                "epoch": epoch,
            }
        )

    def record_done(self, query_id: int) -> None:
        self._append({"kind": "done", "query_id": query_id})

    def _append(self, record: Dict) -> None:
        if self._file is None:
            raise RuntimeError("journal is not open")
        self._file.write(json.dumps(record, separators=(",", ":")) + "\n")
        self._file.flush()
        if self.durable:
            os.fsync(self._file.fileno())

    # -- reads -------------------------------------------------------

    def load(self) -> JournalState:
        return load_journal(self.path)

    def compact(self, outstanding: Sequence[JournalEntry], *, epoch: int) -> None:
        """Rewrite the journal to header + resume marker + *outstanding*.

        Called at the end of crash-resume, *after* the daemon re-admitted
        the old journal's outstanding entries: *outstanding* is those
        admissions under their new query ids.  The rewrite goes through
        a temp file + ``os.replace``, so every instant has either the
        old journal or the complete new one -- never a journal missing
        an acknowledged query, never a half-written file.
        """
        if self._file is not None:
            raise RuntimeError("compact before open(), not after")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        records: List[Dict] = [
            {"kind": "journal", "format": JOURNAL_FORMAT},
            {"kind": "resume", "epoch": epoch, "replayed": len(outstanding)},
            *({"kind": "admit", **dataclasses.asdict(entry)} for entry in outstanding),
        ]
        tmp = self.path.with_suffix(self.path.suffix + ".tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record, separators=(",", ":")) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self.path)


def load_journal(path: PathLike) -> JournalState:
    """Decode a journal file into admits/dones/outstanding.

    A journal that does not exist yet decodes as empty.  The *final*
    line is allowed to be torn (truncated JSON from a mid-write kill)
    and is dropped; a malformed line anywhere else -- bad JSON, a record
    that is not an object, a missing or wrong-typed field -- is
    corruption and raises ``ValueError`` with ``path:line``, never
    anything else.
    """
    journal_path = pathlib.Path(path)
    state = JournalState()
    if not journal_path.exists():
        return state
    lines = journal_path.read_text(encoding="utf-8").splitlines()
    open_admits: Dict[int, JournalEntry] = {}
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except (json.JSONDecodeError, RecursionError) as exc:
            if number == len(lines):
                state.torn_tail = True
                break
            raise ValueError(f"{journal_path}:{number}: corrupt record") from exc
        try:
            kind = record["kind"]
            if kind == "journal":
                if record["format"] != JOURNAL_FORMAT:
                    raise ValueError(f"unsupported format {record['format']!r}")
            elif kind == "admit":
                key = record.get("client_key")
                entry = JournalEntry(
                    query_id=_typed(record["query_id"], int),
                    query=_typed(record["query"], str),
                    arrival=_typed(record["arrival"], int),
                    client_key=None if key is None else _typed(key, int),
                    epoch=_typed(record.get("epoch", 0), int),
                )
                state.admits.append(entry)
                open_admits[entry.query_id] = entry
            elif kind == "done":
                query_id = _typed(record["query_id"], int)
                state.done_ids.append(query_id)
                open_admits.pop(query_id, None)
            elif kind == "resume":
                state.resumes += 1
                # a resume marker means everything before it was either
                # replayed (and re-admitted after it) or already done
                open_admits.clear()
            else:
                raise ValueError(f"unknown record kind {kind!r}")
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(
                f"{journal_path}:{number}: malformed journal record ({exc!r})"
            ) from exc
    state.outstanding = list(open_admits.values())
    return state


def _typed(value: object, kind: type) -> Any:
    """*value* if it is a *kind* (and no ``bool`` posing as an ``int``)."""
    if not isinstance(value, kind) or isinstance(value, bool):
        raise TypeError(f"expected {kind.__name__}, got {value!r}")
    return value
