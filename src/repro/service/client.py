"""An asyncio client for the GTM wire protocol.

The client owns one transport and runs one background reader task that
routes inbound frames:

- a frame whose ``re`` matches an outstanding request resolves that
  request's reply mailbox (a *mailbox*, not a future, because a queued
  op produces two frames under one id: ``queued`` now, ``granted``
  when the admission layer regrants);
- ``committed``/``aborted`` pushes for a known transaction land in
  that transaction's event mailbox (how a ``commit-pending`` resolves,
  and how an op waiting on a grant learns its transaction was wounded);
- everything else (``shutdown``, unsolicited errors) goes to ``inbox``.

Every slot is a :class:`~repro.service.mailbox.Mailbox`: one consumer,
woken through one future.

``error`` frames resolve to the exception class they encode
(:func:`~repro.service.protocol.frame_to_exception`), so a server-side
:class:`~repro.errors.ProtocolError` raises as a ProtocolError here —
the taxonomy crosses the wire intact.
"""

from __future__ import annotations

import asyncio
import itertools
from typing import Any

from repro.errors import GTMError
from repro.service.mailbox import Mailbox
from repro.service.protocol import (
    decode_frame,
    encode_frame,
    frame_to_exception,
)


class ConnectionLost(GTMError):
    """The transport died while a request was outstanding."""


class ServiceClient:
    """One connection's view of the service."""

    def __init__(self, reader: Any, writer: Any) -> None:
        self.reader = reader
        self.writer = writer
        self.token: str | None = None
        #: the last ``welcome`` frame (awake verdicts, outage outcomes).
        self.last_welcome: dict[str, Any] | None = None
        self.inbox = Mailbox()
        self.shutdown_seen = False
        self._sequence = itertools.count(1)
        self._replies: dict[Any, Mailbox] = {}
        self._txn_events: dict[str, Mailbox] = {}
        self._lost = False
        self._reader_task = asyncio.ensure_future(self._read_loop())

    # -- plumbing -------------------------------------------------------

    async def _read_loop(self) -> None:
        try:
            while True:
                line = await self.reader.readline()
                if not line:
                    break
                try:
                    frame = decode_frame(line)
                except GTMError:
                    continue  # a hostile/buggy server; drop the line
                self._route(frame)
        except (OSError, ConnectionError, ValueError):
            pass
        finally:
            self._lost = True
            poison = {"type": "error", "code": "gtm/error",
                      "message": "connection lost"}
            for mailbox in self._replies.values():
                mailbox.put_nowait(poison)
            for mailbox in self._txn_events.values():
                mailbox.put_nowait(poison)
            self.inbox.put_nowait(poison)

    def _route(self, frame: dict[str, Any]) -> None:
        re = frame.get("re")
        if re is not None and re in self._replies:
            self._replies[re].put_nowait(frame)
            return
        if frame.get("type") == "shutdown":
            self.shutdown_seen = True
        txn = frame.get("txn")
        if (txn is not None and frame.get("type") in
                ("committed", "aborted", "granted")
                and txn in self._txn_events):
            self._txn_events[txn].put_nowait(frame)
            return
        self.inbox.put_nowait(frame)

    def _check_reply(self, frame: dict[str, Any]) -> dict[str, Any]:
        if frame.get("type") == "error":
            if frame.get("message") == "connection lost" and (
                    "code" in frame and self._lost):
                raise ConnectionLost("connection lost mid-request")
            raise frame_to_exception(frame)
        return frame

    async def _send(self, frame: dict[str, Any]) -> None:
        if self._lost:
            raise ConnectionLost("transport is gone")
        try:
            self.writer.write(encode_frame(frame))
            await self.writer.drain()
        except (OSError, ConnectionError) as exc:
            self._lost = True
            raise ConnectionLost(str(exc)) from None

    async def request(self, frame: dict[str, Any]) -> dict[str, Any]:
        """Send one request and await its direct reply."""
        fid = next(self._sequence)
        frame = {**frame, "id": fid}
        replies = self._replies[fid] = Mailbox()
        try:
            await self._send(frame)
            return self._check_reply(await replies.get())
        finally:
            self._replies.pop(fid, None)

    async def _request_followed(self, frame: dict[str, Any],
                                txn_id: str,
                                pending_type: str) -> dict[str, Any]:
        """Request whose reply may be provisional (``queued`` /
        ``commit-pending``): wait for the follow-up frame — the regrant
        or the deferred outcome — racing it against the transaction's
        event stream (an abort push while parked must not hang us)."""
        fid = next(self._sequence)
        frame = {**frame, "id": fid}
        replies = self._replies[fid] = Mailbox()
        events = self._txn_events.get(txn_id)
        try:
            await self._send(frame)
            reply = self._check_reply(await replies.get())
            if reply.get("type") != pending_type:
                return reply
            if events is None:
                return self._check_reply(await replies.get())
            get_reply = asyncio.ensure_future(replies.get())
            get_event = asyncio.ensure_future(events.get())
            done, pending = await asyncio.wait(
                {get_reply, get_event},
                return_when=asyncio.FIRST_COMPLETED)
            for task in pending:
                task.cancel()
            if get_reply in done and get_event in done:
                # Both raced in: keep the reply, re-queue the event.
                events.put_nowait(get_event.result())
            winner = (get_reply if get_reply in done
                      else get_event).result()
            return self._check_reply(winner)
        finally:
            self._replies.pop(fid, None)

    # -- protocol verbs -------------------------------------------------

    async def hello(self, token: str | None = None) -> dict[str, Any]:
        frame: dict[str, Any] = {"type": "hello"}
        if token is not None:
            frame["token"] = token
        welcome = await self.request(frame)
        self.token = welcome["token"]
        self.last_welcome = welcome
        return welcome

    def adopt(self, txn_id: str) -> None:
        """Start routing pushes for a transaction begun on an earlier
        connection (reconnect with surviving work)."""
        if txn_id not in self._txn_events:
            self._txn_events[txn_id] = Mailbox()

    def release(self, txn_id: str) -> None:
        self._txn_events.pop(txn_id, None)

    async def begin(self, txn_id: str | None = None) -> str:
        frame: dict[str, Any] = {"type": "begin"}
        if txn_id is not None:
            frame["txn"] = txn_id
        reply = await self.request(frame)
        txn = reply["txn"]
        self.adopt(txn)
        return txn

    async def op(self, txn_id: str, op: str, object_name: str,
                 operand: Any = None,
                 member: str = "value") -> dict[str, Any]:
        """⟨op, X, A⟩ through to its *final* outcome: ``granted`` or
        ``aborted`` (a ``queued`` reply is awaited through)."""
        frame = {"type": "op", "txn": txn_id, "op": op,
                 "object": object_name, "member": member}
        if operand is not None:
            frame["operand"] = operand
        result = await self._request_followed(frame, txn_id, "queued")
        if result.get("type") == "aborted":
            self.release(txn_id)
        return result

    async def commit(self, txn_id: str) -> dict[str, Any]:
        """⟨commit, A⟩ through to ``committed`` or ``aborted``."""
        result = await self._request_followed(
            {"type": "commit", "txn": txn_id}, txn_id, "commit-pending")
        self.release(txn_id)
        return result

    async def abort(self, txn_id: str) -> dict[str, Any]:
        result = await self.request({"type": "abort", "txn": txn_id})
        self.release(txn_id)
        return result

    async def sleep(self) -> dict[str, Any]:
        return await self.request({"type": "sleep"})

    async def awake(self) -> dict[str, Any]:
        return await self.request({"type": "awake"})

    async def ping(self) -> dict[str, Any]:
        return await self.request({"type": "ping"})

    async def bye(self) -> dict[str, Any]:
        reply = await self.request({"type": "bye"})
        await self.close()
        return reply

    # -- teardown -------------------------------------------------------

    async def close(self) -> None:
        """Close the transport (abrupt unless ``bye`` was sent first)."""
        self._lost = True
        try:
            self.writer.close()
            await self.writer.wait_closed()
        except (OSError, ConnectionError):
            pass
        self._reader_task.cancel()
        try:
            await self._reader_task
        except (asyncio.CancelledError, Exception):
            pass

    def drop(self) -> None:
        """Abandon the transport without closing handshakes — the
        load harness's simulated connection loss."""
        self._lost = True
        try:
            self.writer.close()
        except (OSError, ConnectionError):
            pass
        self._reader_task.cancel()
