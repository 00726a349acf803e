"""A one-consumer FIFO hand-off for the service's in-process queues.

The client's reply slots and transaction event streams and the
server's per-connection outbox each have synchronous producers (frame
routing, the service sink) and exactly one awaiting consumer.
:class:`asyncio.Queue` serves any number of getters and putters, and
pays for it on every frame: a getter deque, a putter deque, a
finished-event and the task-accounting counters.  A :class:`Mailbox`
keeps the items and at most one parked getter future.

The wake-up is the one :class:`asyncio.Queue` performs: ``put_nowait``
resolves the parked future, so the consumer resumes one loop turn
later, after every callback already scheduled.  A consumer that is
cancelled while parked (or after its future resolved but before it
ran) leaves the items where they are.
"""

from __future__ import annotations

import asyncio
from asyncio import QueueFull
from collections import deque
from typing import Any

__all__ = ["Mailbox", "QueueFull"]


class Mailbox:
    """FIFO of items with one consumer; ``maxsize > 0`` bounds it."""

    __slots__ = ("_items", "_getter", "_maxsize")

    def __init__(self, maxsize: int = 0) -> None:
        self._items: deque[Any] = deque()
        #: the parked consumer's future, or None.
        self._getter: asyncio.Future | None = None
        self._maxsize = maxsize

    def qsize(self) -> int:
        return len(self._items)

    def empty(self) -> bool:
        return not self._items

    def put_nowait(self, item: Any) -> None:
        """Append ``item``; raises :class:`QueueFull` at the bound."""
        if 0 < self._maxsize <= len(self._items):
            raise QueueFull
        self._items.append(item)
        getter = self._getter
        if getter is not None:
            self._getter = None
            if not getter.done():
                getter.set_result(None)

    async def get(self) -> Any:
        """Remove and return the first item, parking until one exists."""
        items = self._items
        while not items:
            if self._getter is not None and not self._getter.done():
                raise RuntimeError("Mailbox.get: another consumer is "
                                   "already waiting")
            getter = asyncio.get_running_loop().create_future()
            self._getter = getter
            try:
                await getter
            except BaseException:
                getter.cancel()
                if self._getter is getter:
                    self._getter = None
                raise
        return items.popleft()
