"""The uplink codec: one grammar, one endpoint loop, one round trip.

:mod:`repro.net.wire` owns the downlink (the cycle frames that come
*down*); this module owns the other half of the paper's on-demand model
(Figure 1, section 2.1): the command lines clients send *up* and the
reply lines they get back.  Daemon, router, supervisor, client and tests
all speak through it -- nobody else builds or splits a line.

**Grammar.**  One UTF-8 line per :attr:`~repro.net.framing.FrameKind.TEXT`
frame, tokens separated by whitespace, verb case-insensitive::

    SUBMIT [AT=<int>] [KEY=<int>] [SHARD=<int>] [TRACE=[<id>]] <xpath>
        -> ACK <query_id> <arrival> [TRACE=<id>]
         | RETRY_AFTER <hint> [TRACE=<id>]
         | ERR <message>
    TUNE [SHARD=<int>]    -> TUNED <json object> | RETRY_AFTER <hint> | ERR ...
    RECV [SHARD=<int>] <query_id> <cycle> <d1,d2,...|->        (no reply)
    STATUS                -> STATUS <json object>
    BYE                   -> BYE                    (the server then closes)
    pushed, unasked, to the connection whose SUBMIT carried TRACE=:
                          TRACE <id> <json object>

*Options* are the leading ``NAME=value`` tokens, recognised **by name**,
upper-case only; a name the verb does not take (or takes twice) is an
``ERR`` on every verb, never silently skipped.  The option scan stops at
the first token beginning with ``/`` -- ``parse_query`` only accepts
absolute paths, so a query such as ``//nitf[@id=1]`` can never be taken
for an option -- and everything from there on is the query text, handed
to the caller unparsed (XPath is the daemon's business).

``AT`` stamps a scripted arrival byte-time (replay, differential tests;
without it the daemon stamps the current on-air position).  ``KEY``
routes the admission through the server's idempotent-uplink dedup.
``SHARD`` pins the command to one cluster shard: the router routes by it
and the worker re-validates it.  ``TRACE`` requests end-to-end tracing
(empty value: the daemon mints the id) and is echoed on ``ACK`` /
``RETRY_AFTER`` only to clients that sent it.  ``TUNE`` joins the
downlink (``TUNED`` carries the channel model); ``RECV`` reports what a
client holds so far, for the ack barrier of the cycle on air.

The ``TRACE`` line is the one line a server sends without being asked
(:class:`Timeline`): the daemon-side stamps of a traced query, pushed
just ahead of the ``CYCLE_END`` of each cycle that could have completed
it.  It travels beside the cycle, never inside it, so every subscriber
receives the same cycle bytes; it is never the answer to a command, and
a client that does not know it skips it like any stray TEXT line.

A line outside the grammar raises :class:`UplinkSyntaxError`, whose text
is the ``ERR`` message; the parsers raise nothing else and look at no
more than :data:`MAX_LINE_CHARS` characters.
"""

from __future__ import annotations

import asyncio
import contextlib
import enum
import json
from dataclasses import dataclass
from typing import Awaitable, Callable, Dict, FrozenSet, Optional, Union

from repro.net.framing import FrameError, FrameKind, encode_text, read_frame

__all__ = [
    "Ack",
    "Bye",
    "Command",
    "Err",
    "MAX_LINE_CHARS",
    "Reply",
    "RetryAfter",
    "Status",
    "Timeline",
    "Tuned",
    "UplinkSyntaxError",
    "Verb",
    "format_command",
    "format_reply",
    "parse_command",
    "parse_reply",
    "round_trip",
    "serve_connection",
]

#: longest line either parser will look at (a RECV naming ~150k documents)
MAX_LINE_CHARS = 1 << 20


class UplinkSyntaxError(ValueError):
    """A line is outside the grammar; ``str()`` is the ``ERR`` message."""


class Verb(enum.Enum):
    SUBMIT = "SUBMIT"
    TUNE = "TUNE"
    RECV = "RECV"
    STATUS = "STATUS"
    BYE = "BYE"


#: the option names a verb takes (default: none), in the order written
_OPTIONS = {
    Verb.SUBMIT: ("AT", "KEY", "SHARD", "TRACE"),
    Verb.TUNE: ("SHARD",),
    Verb.RECV: ("SHARD",),
}


@dataclass(frozen=True)
class Command:
    """One parsed uplink command."""

    verb: Verb
    at: Optional[int] = None
    key: Optional[int] = None
    shard: Optional[int] = None
    #: ``None`` = untraced; ``""`` = traced, the daemon mints the id
    trace: Optional[str] = None
    #: SUBMIT: the XPath text, unparsed
    query: str = ""
    #: RECV: whose acknowledgement, for which cycle, holding which documents
    query_id: int = 0
    cycle: int = 0
    docs: FrozenSet[int] = frozenset()


@dataclass(frozen=True)
class Ack:
    query_id: int
    arrival: int
    trace: Optional[str] = None


@dataclass(frozen=True)
class RetryAfter:
    hint: int
    trace: Optional[str] = None


@dataclass(frozen=True)
class Err:
    message: str


@dataclass(frozen=True)
class Tuned:
    info: Dict


@dataclass(frozen=True)
class Status:
    info: Dict


@dataclass(frozen=True)
class Bye:
    pass


@dataclass(frozen=True)
class Timeline:
    """A pushed trace timeline (never a command's reply)."""

    trace: str
    #: the daemon's stamps, as ``QueryTracer.cycle_entries`` shapes them
    entry: Dict


Reply = Union[Ack, RetryAfter, Err, Tuned, Status, Bye, Timeline]


# --------------------------------------------------------------------------
# Grammar


def parse_command(line: str) -> Command:
    """Parse one command line; :class:`UplinkSyntaxError` if malformed."""
    if len(line) > MAX_LINE_CHARS:
        raise UplinkSyntaxError("command line too long")
    tokens = line.split()
    word = tokens.pop(0).upper() if tokens else ""
    try:
        verb = Verb(word)
    except ValueError:
        raise UplinkSyntaxError(f"unknown command {word!r}") from None
    options: Dict[str, Union[int, str]] = {}
    while tokens and "=" in tokens[0] and not tokens[0].startswith("/"):
        name, _, value = tokens.pop(0).partition("=")
        if name not in _OPTIONS.get(verb, ()):
            raise UplinkSyntaxError(f"unknown {word} option {name!r}")
        if name.lower() in options:
            raise UplinkSyntaxError(f"duplicate {word} option {name!r}")
        options[name.lower()] = value if name == "TRACE" else _int(name, value)
    if verb is Verb.SUBMIT:
        if not tokens:
            raise UplinkSyntaxError("SUBMIT needs an XPath query")
        return Command(verb, query=" ".join(tokens), **options)
    if verb is Verb.RECV:
        if len(tokens) != 3:
            raise UplinkSyntaxError("RECV needs <query_id> <cycle> <d1,d2,...|->")
        docs = () if tokens[2] == "-" else tokens[2].split(",")
        return Command(
            verb,
            query_id=_int("RECV query_id", tokens[0]),
            cycle=_int("RECV cycle", tokens[1]),
            docs=frozenset(_int("RECV documents", doc) for doc in docs),
            **options,
        )
    if tokens:
        raise UplinkSyntaxError(f"{word} takes no arguments")
    return Command(verb, **options)


def format_command(command: Command) -> str:
    """The canonical line for *command* (what every client sends)."""
    parts = [command.verb.value]
    for name in _OPTIONS.get(command.verb, ()):
        value = getattr(command, name.lower())
        if value is not None:
            parts.append(f"{name}={value}")
    if command.verb is Verb.SUBMIT:
        parts.append(command.query)
    elif command.verb is Verb.RECV:
        docs = ",".join(str(doc) for doc in sorted(command.docs))
        parts += [str(command.query_id), str(command.cycle), docs or "-"]
    return " ".join(parts)


def parse_reply(line: str) -> Reply:
    """Parse one reply line; :class:`UplinkSyntaxError` if malformed."""
    if len(line) > MAX_LINE_CHARS:
        raise UplinkSyntaxError("reply line too long")
    word, _, rest = line.partition(" ")
    if word == "ERR":
        return Err(rest)
    if word in ("TUNED", "STATUS", "TRACE"):
        if word == "TRACE":
            trace_id, _, rest = rest.partition(" ")
        try:
            info = json.loads(rest)
        except (ValueError, RecursionError):
            info = None
        if not isinstance(info, dict):
            raise UplinkSyntaxError(f"{word} payload is not a JSON object")
        if word == "TRACE":
            return Timeline(trace_id, info)
        return Tuned(info) if word == "TUNED" else Status(info)
    tokens = rest.split()
    trace: Optional[str] = None
    if word in ("ACK", "RETRY_AFTER") and tokens and tokens[-1].startswith("TRACE="):
        trace = tokens.pop()[len("TRACE=") :]
    if word == "ACK" and len(tokens) == 2:
        return Ack(
            _int("ACK query_id", tokens[0]), _int("ACK arrival", tokens[1]), trace
        )
    if word == "RETRY_AFTER" and len(tokens) == 1:
        return RetryAfter(_int("RETRY_AFTER hint", tokens[0]), trace)
    if word == "BYE" and not tokens:
        return Bye()
    raise UplinkSyntaxError(f"malformed reply {line[:80]!r}")


def format_reply(reply: Reply) -> str:
    """The line a server puts on the wire for *reply*."""
    if isinstance(reply, (Ack, RetryAfter)):
        head = (
            f"ACK {reply.query_id} {reply.arrival}"
            if isinstance(reply, Ack)
            else f"RETRY_AFTER {reply.hint}"
        )
        return head if reply.trace is None else f"{head} TRACE={reply.trace}"
    if isinstance(reply, Err):
        return f"ERR {reply.message}"
    if isinstance(reply, Tuned):
        return "TUNED " + json.dumps(reply.info)
    if isinstance(reply, Status):
        return "STATUS " + json.dumps(reply.info)
    if isinstance(reply, Timeline):
        return f"TRACE {reply.trace} " + json.dumps(reply.entry, separators=(",", ":"))
    return "BYE"


def _int(what: str, text: str) -> int:
    try:
        if len(text) > 20:  # beyond 64 bits: refuse before int() does the work
            raise ValueError
        return int(text)
    except ValueError:
        raise UplinkSyntaxError(f"{what} must be an integer") from None


# --------------------------------------------------------------------------
# Transport: the server's endpoint loop and the one-shot client


async def serve_connection(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    handle: Callable[[Command], Awaitable[Optional[Reply]]],
    on_error: Callable[[Err], None],
) -> None:
    """Serve one uplink connection until the peer leaves.

    Each frame is checked (TEXT, UTF-8, grammar) and the parsed command
    handed to *handle*, whose reply is written back (``None`` = no reply).
    Anything outside the grammar is answered ``ERR`` without reaching
    *handle*; every ``ERR`` sent, the handler's included, is first shown
    to *on_error*.  Returns on EOF, a torn frame or a failed write, after
    a ``BYE`` reply, or once *handle* has closed the writer itself (a
    spliced or evicted session).  The caller owns and closes the socket.
    """
    while not writer.is_closing():
        try:
            kind, payload = await read_frame(reader)
        except (asyncio.IncompleteReadError, ConnectionError, OSError):
            return
        reply: Optional[Reply]
        try:
            if kind is not FrameKind.TEXT:
                raise UplinkSyntaxError("uplink frames must be TEXT")
            command = parse_command(payload.decode("utf-8"))
        except UnicodeDecodeError:
            reply = Err("command is not UTF-8")
        except UplinkSyntaxError as exc:
            reply = Err(str(exc))
        else:
            reply = await handle(command)
        if reply is None:
            continue
        if isinstance(reply, Err):
            on_error(reply)
        try:
            writer.write(encode_text(format_reply(reply)))
            await writer.drain()
        except (ConnectionError, OSError):
            return
        if isinstance(reply, Bye):
            return


async def round_trip(host: str, port: int, line: str) -> str:
    """Connect, send one line, read the TEXT reply line, close.

    Lines go out and come back raw so callers can probe with malformed
    commands; pair with :func:`format_command` / :func:`parse_reply` for
    a typed exchange.  Raises ``OSError`` / ``IncompleteReadError`` when
    the peer is unreachable or hangs up, :class:`FrameError` when it
    answers with anything but one TEXT frame.
    """
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(encode_text(line))
        await writer.drain()
        kind, payload = await read_frame(reader)
        if kind is not FrameKind.TEXT:
            raise FrameError(f"expected a TEXT reply, got a {kind.name} frame")
        return payload.decode("utf-8")
    finally:
        writer.close()
        with contextlib.suppress(ConnectionError, OSError):
            await writer.wait_closed()
