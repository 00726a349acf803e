"""Object-to-shard routing and the federation's merged lock directory.

Partitioning is a stable crc32 of the object name modulo the shard
count (Python's salted ``hash`` would shuffle partitions across
processes and break every digest).  :meth:`ObjectRouter.index_of` is
the one place that rule lives: it routes lock-table registration,
admission, commit staging and version publication, so one shard owns
*all* state for an object — the property the commitment-ordering
argument in docs/PERFORMANCE.md section 10 rests on.
"""

from __future__ import annotations

import zlib
from typing import Iterable, Iterator

from repro.errors import GTMError
from repro.core.admission import LockTable
from repro.core.objects import ManagedObject

__all__ = ["ObjectRouter", "FederationDirectory"]


class ObjectRouter:
    """Stable name -> shard-index routing for N federation shards."""

    __slots__ = ("shard_count",)

    def __init__(self, shard_count: int) -> None:
        if shard_count < 1:
            raise GTMError(
                f"federation shard count must be >= 1, got {shard_count}")
        self.shard_count = shard_count

    def index_of(self, name: str) -> int:
        """The owning shard's index; total and stable per name."""
        return zlib.crc32(name.encode("utf-8")) % self.shard_count


class FederationDirectory:
    """The federation's merged object directory.

    Built *over* the per-shard lock tables the federation shards own:
    registering here lands the object in the owning shard's table
    (routed by :meth:`ObjectRouter.index_of`), and the shared ``_order``
    list keeps iteration in registration order regardless of shard
    count — what keeps reports and final-value dumps byte-stable.  The
    ``shards`` tuple feeds the observability layer's per-shard
    occupancy snapshot.
    """

    def __init__(self, tables: Iterable[LockTable]) -> None:
        self.shards: tuple[LockTable, ...] = tuple(tables)
        self.router = ObjectRouter(len(self.shards))
        #: registration order, shared across shards (stable iteration).
        self._order: list[str] = []

    def shard_of(self, name: str) -> LockTable:
        return self.shards[self.router.index_of(name)]

    def register(self, obj: ManagedObject) -> ManagedObject:
        self.shard_of(obj.name).register(obj)
        self._order.append(obj.name)
        return obj

    def get(self, name: str) -> ManagedObject:
        return self.shard_of(name).get(name)

    def __contains__(self, name: str) -> bool:
        return name in self.shard_of(name)

    def __len__(self) -> int:
        return len(self._order)

    def __iter__(self) -> Iterator[str]:
        return iter(self._order)

    @property
    def objects(self) -> dict[str, ManagedObject]:
        """Merged name -> object view, in registration order.

        Built per access; use :meth:`get`/:meth:`values` on hot paths.
        """
        return {name: self.get(name) for name in self._order}

    def values(self) -> tuple[ManagedObject, ...]:
        return tuple(self.get(name) for name in self._order)
