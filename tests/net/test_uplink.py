"""The uplink codec: grammar, hostile lines, endpoint loop, round trip.

The downlink has ``test_wire.py``; this is the same treatment for the
other direction.  Invariant for anything a peer can send (ROADMAP 4b): a
typed :class:`UplinkSyntaxError` (answered ``ERR`` on the socket) or a
clean drop -- never another exception, a hang or unbounded allocation.
"""

from __future__ import annotations

import asyncio
import time
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net.framing import FrameError, FrameKind, encode_frame, encode_text, read_frame
from repro.net.uplink import (
    MAX_LINE_CHARS,
    Ack,
    Bye,
    Command,
    Err,
    RetryAfter,
    Status,
    Timeline,
    Tuned,
    UplinkSyntaxError,
    Verb,
    format_command,
    format_reply,
    parse_command,
    parse_reply,
    round_trip,
    serve_connection,
)

# --------------------------------------------------------------------------
# strategies: every value the grammar can express

ints = st.integers(min_value=-(10**12), max_value=10**12)
maybe_int = st.none() | ints
#: an id / host token: no whitespace (tokens are whitespace-separated)
tokens = st.text(
    alphabet=st.characters(blacklist_categories=("Z", "C")), min_size=1, max_size=12
)
queries = st.lists(tokens, min_size=1, max_size=4).map(lambda t: "/" + " ".join(t))
json_objects = st.dictionaries(
    st.text(max_size=6),
    st.none() | st.booleans() | ints | st.text(max_size=8) | st.lists(ints, max_size=3),
    max_size=4,
)

commands = st.one_of(
    st.builds(
        Command,
        st.just(Verb.SUBMIT),
        at=maybe_int,
        key=maybe_int,
        shard=maybe_int,
        trace=st.none() | st.just("") | tokens,
        query=queries,
    ),
    st.builds(Command, st.just(Verb.TUNE), shard=maybe_int),
    st.builds(
        Command,
        st.just(Verb.RECV),
        shard=maybe_int,
        query_id=ints,
        cycle=ints,
        docs=st.frozensets(st.integers(0, 10**6), max_size=8),
    ),
    st.builds(Command, st.sampled_from([Verb.STATUS, Verb.BYE])),
)

trace_echo = st.none() | st.just("") | tokens
replies = st.one_of(
    st.builds(Ack, ints, ints, trace_echo),
    st.builds(RetryAfter, ints, trace_echo),
    st.builds(Err, st.text(alphabet=st.characters(blacklist_categories=("C",)), max_size=40)),
    st.builds(Tuned, json_objects),
    st.builds(Status, json_objects),
    st.builds(Timeline, tokens, json_objects),
    st.just(Bye()),
)


def _mutate(line: str, cut: int, junk: str, mode: int) -> str:
    cut %= len(line) + 1
    if mode == 0:
        return line[:cut] + junk + line[cut:]  # insert
    if mode == 1:
        return line[:cut]  # truncate
    return line[:cut] + junk + line[cut + 1 :]  # overwrite


mutations = st.tuples(st.integers(0, 10**6), st.text(max_size=6), st.integers(0, 2))


class TestRoundTrip:
    @given(commands)
    def test_command_round_trips(self, command):
        assert parse_command(format_command(command)) == command

    @given(replies)
    def test_reply_round_trips(self, reply):
        assert parse_reply(format_reply(reply)) == reply


class TestHostileLines:
    """parse_* raise UplinkSyntaxError and nothing else."""

    @given(st.text(max_size=200))
    def test_arbitrary_text(self, line):
        for parse in (parse_command, parse_reply):
            try:
                parse(line)
            except UplinkSyntaxError:
                pass

    @given(commands, mutations)
    def test_mutated_commands(self, command, mutation):
        try:
            parse_command(_mutate(format_command(command), *mutation))
        except UplinkSyntaxError:
            pass

    @given(replies, mutations)
    def test_mutated_replies(self, reply, mutation):
        try:
            parse_reply(_mutate(format_reply(reply), *mutation))
        except UplinkSyntaxError:
            pass

    def test_megabyte_recv_is_bounded(self):
        """A 1 MB doc list parses (or is refused) in bounded time and
        memory; one character past the cap is refused unread."""
        docs = ",".join(str(n % 977) for n in range(MAX_LINE_CHARS // 4))
        line = f"RECV 1 2 {docs}"
        assert 900_000 < len(line) <= MAX_LINE_CHARS
        tracemalloc.start()
        started = time.perf_counter()
        command = parse_command(line)
        elapsed = time.perf_counter() - started
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert command.docs == frozenset(range(977))
        assert peak < 64 * len(line), f"{peak} bytes for a {len(line)}-byte line"
        assert elapsed < 5.0
        with pytest.raises(UplinkSyntaxError, match="too long"):
            parse_command("RECV 1 2 " + "7," * MAX_LINE_CHARS)
        with pytest.raises(UplinkSyntaxError, match="too long"):
            parse_reply("ERR " + "x" * MAX_LINE_CHARS)
        with pytest.raises(UplinkSyntaxError, match="too long"):
            parse_reply('TRACE t1 {"pad": "' + "x" * MAX_LINE_CHARS + '"}')

    def test_huge_integers_are_refused_not_converted(self):
        started = time.perf_counter()
        for line in ("RECV 1 2 " + "9" * 500_000, "SUBMIT AT=" + "9" * 500_000 + " //a"):
            with pytest.raises(UplinkSyntaxError, match="must be an integer"):
                parse_command(line)
        with pytest.raises(UplinkSyntaxError):
            parse_reply("ACK " + "9" * 500_000 + " 0")
        assert time.perf_counter() - started < 2.0

    @pytest.mark.parametrize(
        "line",
        [
            "TUNED " + "[" * 100_000 + "]" * 100_000,  # would blow the recursion limit
            'STATUS {"a":' * 50_000,
            "TUNED [1, 2]",
            "STATUS 7",
            "TUNED",
            "TRACE t1 " + "[" * 100_000 + "]" * 100_000,
            "TRACE t1 [1, 2]",
            "TRACE t1 7",
            "TRACE t1",
            "TRACE",
            'TRACE t1 {"cycle": 1} trailing',
            "ACK 1",
            "ACK 1 2 3",
            "ACK one 2",
            "RETRY_AFTER",
            # the retired front-door redirect verb, well-formed or not
            "MOVED 0 host",
            "MOVED 0 host port",
            "MOVED 0 127.0.0.1 9",
            "BYE now",
            "NOPE",
            "",
        ],
    )
    def test_malformed_replies(self, line):
        with pytest.raises(UplinkSyntaxError):
            parse_reply(line)


class TestGrammar:
    def test_options_are_recognised_by_name_not_by_equals_sign(self):
        """The parent took any leading token *containing* ``=`` for an
        option, so these never reached the XPath parser."""
        assert parse_command("SUBMIT //nitf[@id=1]") == Command(
            Verb.SUBMIT, query="//nitf[@id=1]"
        )
        assert parse_command('SUBMIT AT=5 KEY=2 //nitf[@a="x"] /b') == Command(
            Verb.SUBMIT, at=5, key=2, query='//nitf[@a="x"] /b'
        )

    def test_trace_empty_means_mint(self):
        assert parse_command("SUBMIT TRACE= //a").trace == ""
        assert parse_command("SUBMIT TRACE=t9 //a").trace == "t9"
        assert parse_command("SUBMIT //a").trace is None

    def test_verbs_are_case_insensitive_and_whitespace_is_free(self):
        assert parse_command("  status ") == Command(Verb.STATUS)
        assert parse_command("submit   AT=1    //a") == Command(
            Verb.SUBMIT, at=1, query="//a"
        )

    def test_recv(self):
        assert parse_command("RECV 3 9 -") == Command(Verb.RECV, query_id=3, cycle=9)
        assert parse_command("RECV SHARD=1 3 9 4,2").docs == frozenset({2, 4})
        assert format_command(
            Command(Verb.RECV, query_id=3, cycle=9, docs=frozenset({4, 2}))
        ) == "RECV 3 9 2,4"

    @pytest.mark.parametrize(
        "line, message",
        [
            ("", "unknown command ''"),
            ("FROB 1", "unknown command 'FROB'"),
            ("SUBMIT", "SUBMIT needs an XPath query"),
            ("SUBMIT AT=5", "SUBMIT needs an XPath query"),
            ("SUBMIT AT=x //a", "AT must be an integer"),
            ("SUBMIT KEY=1.5 //a", "KEY must be an integer"),
            ("SUBMIT SHARD= //a", "SHARD must be an integer"),
            ("SUBMIT FOO=1 //a", "unknown SUBMIT option 'FOO'"),
            ("SUBMIT at=5 //a", "unknown SUBMIT option 'at'"),
            ("SUBMIT AT=1 AT=2 //a", "duplicate SUBMIT option 'AT'"),
            ("TUNE shard=1", "unknown TUNE option 'shard'"),
            ("TUNE FOO=1", "unknown TUNE option 'FOO'"),
            ("TUNE AT=1", "unknown TUNE option 'AT'"),
            ("TUNE now", "TUNE takes no arguments"),
            ("STATUS SHARD=1", "unknown STATUS option 'SHARD'"),
            ("BYE bye", "BYE takes no arguments"),
            ("RECV 1 2", "RECV needs <query_id> <cycle> <d1,d2,...|->"),
            ("RECV 1 2 3,x", "RECV documents must be an integer"),
            ("RECV KEY=1 1 2 -", "unknown RECV option 'KEY'"),
        ],
    )
    def test_errors_are_typed_and_worded(self, line, message):
        with pytest.raises(UplinkSyntaxError) as caught:
            parse_command(line)
        assert str(caught.value) == message

    def test_reply_lines(self):
        assert format_reply(Ack(3, 40)) == "ACK 3 40"
        assert format_reply(Ack(3, 40, "t1")) == "ACK 3 40 TRACE=t1"
        assert format_reply(RetryAfter(7, "")) == "RETRY_AFTER 7 TRACE="
        assert parse_reply("ERR two  spaces kept") == Err("two  spaces kept")
        assert parse_reply('TUNED {"num_channels": 2}') == Tuned({"num_channels": 2})
        pushed = Timeline("t7", {"query_id": 3, "cycle": 2, "submit": 0.25})
        assert format_reply(pushed) == 'TRACE t7 {"query_id":3,"cycle":2,"submit":0.25}'
        assert parse_reply(format_reply(pushed)) == pushed


# --------------------------------------------------------------------------
# transport


async def _with_endpoint(handle, body):
    """Run *body(port, errors)* against a server looping serve_connection."""
    errors = []

    async def accept(reader, writer):
        try:
            await serve_connection(reader, writer, handle, errors.append)
        finally:
            writer.close()

    server = await asyncio.start_server(accept, "127.0.0.1", 0)
    try:
        return await body(server.sockets[0].getsockname()[1], errors)
    finally:
        server.close()
        await server.wait_closed()


def _run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=30))


class TestEndpointLoop:
    def test_hostile_frames_get_err_and_the_session_survives(self):
        seen = []

        async def handle(command):
            seen.append(command)
            if command.verb is Verb.RECV:
                return None
            if command.verb is Verb.BYE:
                return Bye()
            return Status({"ok": True})

        async def body(port, errors):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            replies = []
            for frame in (
                encode_frame(FrameKind.DOC, b"not a command"),
                encode_frame(FrameKind.TEXT, b"\xff\xfe"),
                encode_text("SUBMIT at=1 //a"),
                encode_text("RECV 1 2 -"),  # no reply: the next line answers
                encode_text("STATUS"),
                encode_text("BYE"),
            ):
                writer.write(frame)
            await writer.drain()
            for _ in range(5):
                kind, payload = await read_frame(reader)
                assert kind is FrameKind.TEXT
                replies.append(payload.decode("utf-8"))
            assert await reader.read() == b"", "the server closes after BYE"
            writer.close()
            return replies, [e.message for e in errors]

        replies, errors = _run(_with_endpoint(handle, body))
        assert replies == [
            "ERR uplink frames must be TEXT",
            "ERR command is not UTF-8",
            "ERR unknown SUBMIT option 'at'",
            'STATUS {"ok": true}',
            "BYE",
        ]
        assert errors == [line[4:] for line in replies[:3]]
        assert [c.verb for c in seen] == [Verb.RECV, Verb.STATUS, Verb.BYE]

    def test_torn_frame_is_a_clean_drop(self):
        async def handle(command):  # pragma: no cover - never reached
            raise AssertionError(command)

        async def body(port, errors):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(b"\xff\xff\xff\xff garbage length prefix")
            await writer.drain()
            assert await reader.read() == b""
            writer.close()
            return errors

        assert _run(_with_endpoint(handle, body)) == []

    def test_handler_errors_are_shown_to_on_error(self):
        async def handle(command):
            return Err("admission closed")

        async def body(port, errors):
            reply = await round_trip("127.0.0.1", port, "SUBMIT //a")
            return reply, errors

        reply, errors = _run(_with_endpoint(handle, body))
        assert reply == "ERR admission closed"
        assert errors == [Err("admission closed")]


class TestRoundTripHelper:
    def test_non_text_reply_is_a_frame_error(self):
        async def run():
            async def accept(reader, writer):
                await read_frame(reader)
                writer.write(encode_frame(FrameKind.SERVER_BYE, b""))
                await writer.drain()
                writer.close()

            server = await asyncio.start_server(accept, "127.0.0.1", 0)
            try:
                with pytest.raises(FrameError, match="SERVER_BYE"):
                    await round_trip(
                        "127.0.0.1", server.sockets[0].getsockname()[1], "STATUS"
                    )
            finally:
                server.close()
                await server.wait_closed()

        _run(run())

    def test_unreachable_peer_is_an_oserror(self):
        async def run():
            server = await asyncio.start_server(lambda r, w: None, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            server.close()
            await server.wait_closed()
            with pytest.raises(OSError):
                await round_trip("127.0.0.1", port, "STATUS")

        _run(run())
