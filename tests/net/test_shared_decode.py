"""Co-located decoders decode each cycle once and follow it byte for byte.

:class:`~repro.net.wire.CycleDecoder` shares one decode per
``CYCLE_BEGIN`` among the decoders of a process.  Three properties are
pinned here:

* under the paced pattern (every subscriber begins a cycle before any
  ends it) the full decode runs once per cycle, not once per subscriber;
* a following decoder fed any corrupted stream -- a flipped byte in any
  frame, a dropped, duplicated or reordered frame, a truncated cycle, a
  CYCLE_BEGIN inside an open cycle -- ends exactly like a decoder that
  shares nothing: the same cycle signatures, or the same exception class
  at the same frame, and never the cached cycle;
* the shared LRU never holds more than ``_SHARED_MAX`` entries.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.broadcast.program import IndexScheme, program_signature
from repro.broadcast.server import DocumentStore
from repro.net.framing import FrameKind
from repro.net.wire import CycleDecoder, encode_cycle
from repro.sim.config import small_setup
from repro.sim.simulation import make_server

@pytest.fixture(scope="module")
def store(nitf_docs):
    return DocumentStore(nitf_docs[:30])


def _frames(store, queries, **overrides):
    config = small_setup(document_count=30, cycle_data_capacity=6_000, **overrides)
    server = make_server(config, store)
    for query in queries:
        try:
            server.submit(query, arrival_time=0)
        except ValueError:
            continue
    cycle = server.build_cycle()
    assert cycle is not None
    return [(frame.kind, frame.payload) for frame in encode_cycle(cycle, store)]


@pytest.fixture(scope="module")
def cycles(store, nitf_queries):
    """Three distinct cycles: one-tier, two-tier K=1 and two-tier K=2."""
    return [
        _frames(store, nitf_queries[:6], scheme=IndexScheme.ONE_TIER),
        _frames(store, nitf_queries[6:12]),
        _frames(store, nitf_queries[:8], num_data_channels=2),
    ]


def _copy(payload: bytes) -> bytes:
    """The same bytes in a new object, as a second socket would read them."""
    return bytes(bytearray(payload))


def _decode(frames, **kwargs):
    decoder = CycleDecoder(**kwargs)
    result = None
    for kind, payload in frames:
        result = decoder.feed(kind, _copy(payload))
    assert result is not None
    return result


def test_paced_subscribers_decode_each_cycle_once(cycles, monkeypatch):
    """Five subscribers fed three cycles round-robin, one frame at a time,
    run the full decode once per cycle and all get that one cycle."""
    finishes = []
    finish = CycleDecoder._finish
    monkeypatch.setattr(
        CycleDecoder, "_finish", lambda self: finishes.append(1) or finish(self)
    )
    CycleDecoder._shared_cycles.clear()
    decoders = [CycleDecoder() for _ in range(5)]
    for frames in cycles:
        del finishes[:]
        results = []
        for kind, payload in frames:
            for decoder in decoders:
                result = decoder.feed(kind, _copy(payload))
                if result is not None:
                    results.append(result)
        assert len(finishes) == 1
        assert len(results) == len(decoders)
        assert all(result is results[0] for result in results)
        header = json.loads(frames[0][1])
        assert program_signature(results[0]) == header["signature"]
        assert all(d.last_header["signature"] == header["signature"] for d in decoders)


def _outcome(decoder, frames):
    """``(frame, signature)`` per returned cycle, then ``(frame, error
    class)`` if one was raised; plus the cycles themselves."""
    trail, returned = [], []
    for at, (kind, payload) in enumerate(frames):
        try:
            cycle = decoder.feed(kind, _copy(payload))
        except Exception as exc:  # noqa: BLE001 - the class is the outcome
            trail.append((at, type(exc)))
            break
        if cycle is not None:
            trail.append((at, program_signature(cycle)))
            returned.append(cycle)
    return trail, returned


@st.composite
def _corruptions(draw, frames):
    """One corrupted copy of *frames*; the byte flip is drawn per frame
    so that every frame is flipped once per example."""
    count = len(frames)
    case = draw(
        st.sampled_from(["flip", "drop", "duplicate", "reorder", "truncate", "begin"])
    )
    if case == "flip":
        variants = []
        for at, (kind, payload) in enumerate(frames):
            # Half the flips land in the first line: a DOC frame's head.
            last = len(payload) - 1
            position = draw(st.integers(0, min(last, 96)) | st.integers(0, last))
            mask = draw(st.integers(1, 255))
            flipped = bytearray(payload)
            flipped[position] ^= mask
            variants.append(frames[:at] + [(kind, bytes(flipped))] + frames[at + 1 :])
        return variants
    at = draw(st.integers(0, count - 1))
    if case == "drop":
        return [frames[:at] + frames[at + 1 :]]
    if case == "duplicate":
        return [frames[: at + 1] + frames[at:]]
    if case == "reorder":
        other = draw(st.integers(0, count - 1).filter(lambda i: i != at))
        swapped = list(frames)
        swapped[at], swapped[other] = swapped[other], swapped[at]
        return [swapped]
    if case == "truncate":
        return [frames[:at]]
    return [frames[: max(at, 1)] + [frames[0]] + frames[max(at, 1) :]]


@given(data=st.data())
def test_a_follower_ends_like_a_decoder_that_shares_nothing(cycles, data):
    frames = cycles[data.draw(st.integers(0, len(cycles) - 1))]
    verify = data.draw(st.booleans())
    for corrupted in data.draw(_corruptions(frames)):
        # The clean stream decoded first: the follower has an entry.
        shared = _decode(frames, verify=verify)
        expected, _ = _outcome(CycleDecoder(verify=verify, share=False), corrupted)
        got, returned = _outcome(CycleDecoder(verify=verify), corrupted)
        assert got == expected
        # Only a stream that starts with the clean cycle's exact frames
        # (a duplicated CYCLE_END) gets the shared cycle.
        if corrupted[: len(frames)] != frames:
            assert all(cycle is not shared for cycle in returned)


@given(data=st.data())
def test_a_recorder_overtaken_mid_cycle_ends_like_a_decoder_that_shares_nothing(
    cycles, data
):
    """A decoder still recording when another finishes checks what it
    recorded against that decode: it returns the shared cycle only for
    the same bytes, and otherwise ends as the full decode does (a
    malformed DOC head it recorded is raised when it catches up)."""
    frames = cycles[data.draw(st.integers(0, len(cycles) - 1))]
    variants = data.draw(_corruptions(frames))
    corrupted = variants[data.draw(st.integers(0, len(variants) - 1))]
    overtaken_at = data.draw(st.integers(1, len(corrupted) or 1))
    CycleDecoder._shared_cycles.clear()
    first = CycleDecoder()
    first.feed(*frames[0])
    expected, _ = _outcome(CycleDecoder(share=False), corrupted)
    recorder = CycleDecoder()
    got, returned = _outcome(recorder, corrupted[:overtaken_at])
    if not got or isinstance(got[-1][1], str):
        for kind, payload in frames[1:]:
            shared = first.feed(kind, _copy(payload))
        assert shared is not None
        later, returned_later = _outcome(recorder, corrupted[overtaken_at:])
        got += [(at + overtaken_at, outcome) for at, outcome in later]
        returned += returned_later
        if corrupted[: len(frames)] != frames:
            assert all(cycle is not shared for cycle in returned)
    assert [outcome for _, outcome in got] == [outcome for _, outcome in expected]
    assert all(mine >= theirs for (mine, _), (theirs, _) in zip(got, expected))


def test_a_recorder_overtaken_by_the_same_bytes_gets_the_shared_cycle(cycles):
    frames = cycles[1]
    CycleDecoder._shared_cycles.clear()
    first, second = CycleDecoder(), CycleDecoder()
    for kind, payload in frames[:3]:
        first.feed(kind, _copy(payload))
        second.feed(kind, _copy(payload))
    for kind, payload in frames[3:]:
        shared = first.feed(kind, _copy(payload))
    for kind, payload in frames[3:]:
        mine = second.feed(kind, _copy(payload))
    assert mine is shared


def test_the_shared_lru_is_bounded(cycles):
    """Every distinct header takes an entry, and the LRU drops the oldest
    past ``_SHARED_MAX``; the newest stays."""
    CycleDecoder._shared_cycles.clear()
    begin = json.loads(cycles[1][0][1])
    for variant in range(3 * CycleDecoder._SHARED_MAX):
        header = json.dumps({**begin, "unread": variant}).encode("utf-8")
        _decode([(FrameKind.CYCLE_BEGIN, header)] + cycles[1][1:])
        assert len(CycleDecoder._shared_cycles) <= CycleDecoder._SHARED_MAX
        assert (True, header) in CycleDecoder._shared_cycles
