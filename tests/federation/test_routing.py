"""Property tests for object-to-shard routing (federation satellite).

The federation's correctness argument starts with the partition: one
shard owns *all* state for an object, so these tests pin that the crc32
routing is total (every name lands on exactly one shard), stable across
router instances and the merged directory (which routes through the
same :meth:`ObjectRouter.index_of`), and that directory iteration
follows registration order for any shard count — what keeps reports and
final-value dumps byte-stable.
"""

import random
import zlib

import pytest

from repro.core.admission import LockTable
from repro.core.gtm import GTMConfig
from repro.errors import GTMError
from repro.federation import build_transaction_manager
from repro.federation.routing import FederationDirectory, ObjectRouter

SHARD_COUNTS = (1, 2, 3, 4, 8)


def _names(count, seed):
    rng = random.Random(seed)
    return [f"obj-{rng.randrange(10 ** 6):06d}-{index}"
            for index in range(count)]


@pytest.mark.parametrize("shard_count", SHARD_COUNTS)
def test_every_object_routes_to_exactly_one_shard(shard_count):
    """The partition is disjoint and complete: each registered object
    lives in exactly one shard's lock table, and no object is lost."""
    names = _names(64, seed=11)
    manager = build_transaction_manager(GTMConfig(gtm_shards=shard_count))
    for name in names:
        manager.create_object(name, value=1)
    tables = manager.lock_table.shards
    for name in names:
        owners = [index for index, table in enumerate(tables)
                  if name in table]
        assert len(owners) == 1
        assert owners[0] == ObjectRouter(shard_count).index_of(name)
    assert sum(len(table) for table in tables) == len(names)


@pytest.mark.parametrize("shard_count", SHARD_COUNTS)
def test_routing_is_stable_and_matches_the_lock_table_scheme(shard_count):
    """Two routers agree with each other, with the raw crc32 formula,
    and with the lock table the federation directory picks."""
    first = ObjectRouter(shard_count)
    second = ObjectRouter(shard_count)
    directory = FederationDirectory(
        LockTable() for _ in range(shard_count))
    for name in _names(100, seed=23):
        expected = zlib.crc32(name.encode("utf-8")) % shard_count
        assert first.index_of(name) == expected
        assert second.index_of(name) == expected
        assert directory.shard_of(name) is directory.shards[expected]


def test_iteration_follows_registration_order_for_any_shard_count():
    """Directory iteration (and the merged ``objects`` view) is the
    registration order, identically for every shard count."""
    names = _names(48, seed=5)
    random.Random(7).shuffle(names)
    for shard_count in SHARD_COUNTS:
        manager = build_transaction_manager(
            GTMConfig(gtm_shards=shard_count))
        for name in names:
            manager.create_object(name, value=0)
        assert list(manager.lock_table) == names
        assert list(manager.objects) == names


def test_duplicate_registration_is_rejected():
    manager = build_transaction_manager(GTMConfig(gtm_shards=4))
    manager.create_object("x", value=1)
    with pytest.raises(GTMError):
        manager.create_object("x", value=2)


def test_invalid_shard_configurations_are_rejected():
    with pytest.raises(GTMError):
        ObjectRouter(0)
    with pytest.raises(GTMError):
        FederationDirectory(())
