"""Unit tests for the service's frame path pieces.

- :class:`~repro.service.mailbox.Mailbox`, the one-consumer FIFO behind
  every client reply slot, transaction event stream and server outbox;
- :class:`~repro.service.server.MemoryReader`, the memory transport's
  line buffer, held to :meth:`asyncio.StreamReader.readline`'s
  contract by a differential against a real ``StreamReader``;
- the cached-codec ``encode_frame``/``decode_frame``, held to the
  ``json.dumps``/``json.loads`` forms they replace.
"""

import asyncio
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.driver.asyncio_driver import AsyncioDriver
from repro.errors import WireFormatError
from repro.service import GTMService, ServiceConfig
from repro.service.mailbox import Mailbox, QueueFull
from repro.service.protocol import MAX_FRAME_BYTES, decode_frame, encode_frame
from repro.service.server import (
    MemoryReader,
    ServiceServer,
    _Connection,
    memory_pair,
)


def run(coro):
    return asyncio.run(coro)


# ---------------------------------------------------------------------------
# Mailbox
# ---------------------------------------------------------------------------


class TestMailbox:
    def test_fifo(self):
        async def check():
            box = Mailbox()
            assert box.empty() and box.qsize() == 0
            for item in ("a", "b", "c"):
                box.put_nowait(item)
            assert box.qsize() == 3 and not box.empty()
            assert [await box.get() for _ in range(3)] == ["a", "b", "c"]
            assert box.empty()
        run(check())

    def test_parked_getter_wakes_one_turn_after_put(self):
        async def check():
            box = Mailbox()
            got = []

            async def consumer():
                got.append(await box.get())

            task = asyncio.ensure_future(consumer())
            await asyncio.sleep(0)          # the consumer parks
            box.put_nowait("x")
            assert got == []                # woken, not yet run
            await asyncio.sleep(0)
            assert got == ["x"]
            await task
        run(check())

    def test_bound_raises_queue_full(self):
        box = Mailbox(maxsize=2)
        box.put_nowait(1)
        box.put_nowait(2)
        with pytest.raises(QueueFull):
            box.put_nowait(3)
        assert box.qsize() == 2
        assert issubclass(QueueFull, asyncio.QueueFull)

    def test_full_outbox_detaches_the_connection(self):
        async def check():
            service = GTMService(AsyncioDriver(),
                                 config=ServiceConfig(max_outbox=2))
            server = ServiceServer(service)
            reader, writer = memory_pair()[1]
            conn = _Connection(server, reader, writer)
            assert isinstance(conn.outbox, Mailbox)
            for _ in range(3):
                conn.sink({"type": "pong"})
            assert conn._overflowed and conn._closing
            assert conn.outbox.qsize() == 2
            assert service.metrics.counter(
                "service_outbox_overflows").value() == 1.0
        run(check())

    def test_cancelled_parked_getter_loses_no_item(self):
        async def check():
            box = Mailbox()
            getter = asyncio.ensure_future(box.get())
            await asyncio.sleep(0)          # parked
            getter.cancel()
            await asyncio.sleep(0)
            assert getter.cancelled()
            box.put_nowait("kept")
            assert box.qsize() == 1
            assert await box.get() == "kept"
        run(check())

    def test_getter_cancelled_after_its_wakeup_loses_no_item(self):
        async def check():
            box = Mailbox()
            getter = asyncio.ensure_future(box.get())
            await asyncio.sleep(0)          # parked
            box.put_nowait("kept")          # wakes it ...
            getter.cancel()                 # ... but it never runs
            with pytest.raises(asyncio.CancelledError):
                await getter
            assert box.qsize() == 1
            assert await box.get() == "kept"
        run(check())

    def test_a_second_parked_consumer_is_refused(self):
        async def check():
            box = Mailbox()
            first = asyncio.ensure_future(box.get())
            await asyncio.sleep(0)
            with pytest.raises(RuntimeError):
                await box.get()
            box.put_nowait(1)
            assert await first == 1
        run(check())


# ---------------------------------------------------------------------------
# MemoryReader
# ---------------------------------------------------------------------------


async def _drain_lines(reader):
    """Every readline outcome up to and including EOF's ``b""``."""
    outcomes = []
    while True:
        try:
            line = await reader.readline()
        except ValueError as exc:
            outcomes.append(("ValueError", str(exc)))
            continue
        outcomes.append(("line", line))
        if not line:
            return outcomes


class TestMemoryReader:
    def test_partial_writes_complete_one_line(self):
        async def check():
            reader = MemoryReader()
            task = asyncio.ensure_future(reader.readline())
            reader.feed_data(b'{"type":')
            await asyncio.sleep(0)
            await asyncio.sleep(0)
            assert not task.done()          # woke, found no newline
            reader.feed_data(b'"ping"}\n')
            assert await task == b'{"type":"ping"}\n'
        run(check())

    def test_one_write_of_many_lines(self):
        async def check():
            reader = MemoryReader()
            reader.feed_data(b"a\nbb\nccc")
            reader.feed_eof()
            assert await _drain_lines(reader) == [
                ("line", b"a\n"), ("line", b"bb\n"), ("line", b"ccc"),
                ("line", b"")]
        run(check())

    def test_over_limit_line_raises_and_is_discarded(self):
        async def check():
            reader = MemoryReader(limit=8)
            reader.feed_data(b"0123456789\nok\n")
            with pytest.raises(ValueError):
                await reader.readline()
            assert await reader.readline() == b"ok\n"
        run(check())

    def test_over_limit_without_newline_raises(self):
        async def check():
            reader = MemoryReader(limit=8)
            task = asyncio.ensure_future(reader.readline())
            reader.feed_data(b"0123")
            await asyncio.sleep(0)
            reader.feed_data(b"456789")
            with pytest.raises(ValueError):
                await task
        run(check())

    def test_eof_wakes_a_parked_reader(self):
        async def check():
            reader = MemoryReader()
            task = asyncio.ensure_future(reader.readline())
            await asyncio.sleep(0)
            reader.feed_data(b"partial")
            reader.feed_eof()
            assert await task == b"partial"
            assert await reader.readline() == b""
        run(check())

    def test_data_after_eof_is_dropped(self):
        async def check():
            reader = MemoryReader()
            reader.feed_eof()
            reader.feed_data(b"late\n")
            assert await reader.readline() == b""
        run(check())

    def test_default_limit_is_the_frame_cap(self):
        async def check():
            reader = MemoryReader()
            reader.feed_data(b"x" * MAX_FRAME_BYTES + b"\n")
            assert len(await reader.readline()) == MAX_FRAME_BYTES + 1
            reader.feed_data(b"x" * (MAX_FRAME_BYTES + 1) + b"\n")
            with pytest.raises(ValueError):
                await reader.readline()
        run(check())

    @settings(max_examples=150, deadline=None)
    @given(chunks=st.lists(st.binary(max_size=12).map(
               lambda b: b.replace(b"\x00", b"\n")), max_size=12),
           limit=st.integers(1, 16))
    def test_matches_stream_reader(self, chunks, limit):
        """Chunk by chunk, with the reader parked between writes, both
        readers yield the same lines and the same limit errors."""
        async def play(reader):
            task = asyncio.ensure_future(_drain_lines(reader))
            for chunk in chunks:
                await asyncio.sleep(0)
                reader.feed_data(chunk)
            await asyncio.sleep(0)
            reader.feed_eof()
            return await task

        async def check():
            ours = await play(MemoryReader(limit=limit))
            theirs = await play(asyncio.StreamReader(limit=limit))
            assert ours == theirs
        run(check())


# ---------------------------------------------------------------------------
# the cached codec
# ---------------------------------------------------------------------------


def reference_encode(frame):
    data = json.dumps(frame, separators=(",", ":"),
                      ensure_ascii=False).encode("utf-8")
    if len(data) + 1 > MAX_FRAME_BYTES:
        raise WireFormatError(
            f"frame of {len(data)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit")
    return data + b"\n"


def reference_decode(line):
    if isinstance(line, bytes) and len(line) > MAX_FRAME_BYTES:
        raise WireFormatError(
            f"frame of {len(line)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit")
    try:
        frame = json.loads(line)
    except (ValueError, UnicodeDecodeError) as exc:
        raise WireFormatError(f"frame is not valid JSON: {exc}") from None
    if not isinstance(frame, dict):
        raise WireFormatError(
            f"frame must be a JSON object, got {type(frame).__name__}")
    if not isinstance(frame.get("type"), str):
        raise WireFormatError("frame has no string 'type' field")
    return frame


def outcome(fn, arg):
    try:
        return ("ok", fn(arg))
    except WireFormatError as exc:
        return ("WireFormatError", str(exc))


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=10)
frames = st.dictionaries(st.text(max_size=6), json_values, max_size=5)


class TestCodec:
    @given(frames)
    def test_encode_matches_json_dumps(self, frame):
        assert outcome(encode_frame, frame) == \
            outcome(reference_encode, frame)

    @given(frames)
    def test_round_trip(self, frame):
        frame = {**frame, "type": "ping"}
        assert decode_frame(encode_frame(frame)) == frame

    @settings(max_examples=300)
    @given(st.one_of(
        st.binary(max_size=24),
        st.binary(max_size=24).map(lambda b: b"{" + b),
        frames.map(lambda f: json.dumps(f).encode("utf-8")),
        frames.map(lambda f: json.dumps(f).encode("utf-16")),
        frames.map(lambda f: json.dumps(f).encode("utf-16-le")),
        frames.map(lambda f: json.dumps(f).encode("utf-32")),
        frames.map(lambda f: b"\xef\xbb\xbf" + json.dumps(f).encode()),
        st.text(max_size=24),
    ))
    def test_decode_matches_json_loads(self, line):
        assert outcome(decode_frame, line) == \
            outcome(reference_decode, line)

    @pytest.mark.parametrize("line", [
        b'{"type":"ping"}\n',
        '{"type":"ping"}'.encode("utf-16-le"),
        b'{"type":"p\xed\xa0\x80"}',        # a lone surrogate, passed
        b'{"type":"\xff"}',                 # not UTF-8
        b"{\x00",
        b"{",
        b'{"type":1}',
        b"[]",
    ])
    def test_decode_edge_cases_match(self, line):
        assert outcome(decode_frame, line) == \
            outcome(reference_decode, line)
