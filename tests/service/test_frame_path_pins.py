"""Pinned outcome digests of deterministic memory-transport rounds.

Closed-loop sessions talk to a :class:`ServiceServer` over the memory
transport on one asyncio loop.  Nothing waits on the wall clock: an
outage is a fixed number of loop turns, so every round is a pure
function of its plan and of the order in which the loop runs its
callbacks.  That order is what the frame path decides — how many loop
turns a reply, a push or an outbox hand-off takes to reach its
consumer — so any change to it moves which transaction wins a
conflict, and with it the digest.  The pinned values were taken from
the code that used ``asyncio.Queue`` for every hand-off and
``asyncio.StreamReader`` for the memory transport's read end; the
leaner frame path must reproduce them byte for byte.

Drops happen only after a transaction's first op, so no round commits
a transaction without operations.
"""

import asyncio
import hashlib
import random

import pytest

from repro.driver.asyncio_driver import AsyncioDriver
from repro.errors import GTMError, ProtocolError, TokenInUse
from repro.service import GTMService, ServiceConfig
from repro.service.client import ServiceClient
from repro.service.protocol import error_code
from repro.service.server import ServiceServer, memory_connector

#: event-loop turns a dropped session stays away.
OUTAGE_TURNS = 16


def make_plans(name, seed, sessions, txns, ops_per_txn, objects, mix,
               drop_every):
    """Per session: ``[(ops, drop_at)]``; ``drop_at`` is None or >= 1."""
    names = [f"o{i:02d}" for i in range(objects)]
    ops = [op for op, _ in mix]
    weights = [weight for _, weight in mix]
    plans = []
    for session in range(sessions):
        rng = random.Random(f"{name}:{seed}:{session}")
        plan = []
        for txn in range(txns):
            steps = []
            for obj in rng.sample(names, ops_per_txn):
                op = rng.choices(ops, weights)[0]
                operand = None if op == "read" else rng.randrange(1, 10)
                steps.append((op, obj, operand))
            drop_at = None
            if (session * txns + txn) % drop_every == 0:
                drop_at = rng.randrange(1, ops_per_txn)
            plan.append((tuple(steps), drop_at))
        plans.append(plan)
    return plans


class _Session:
    def __init__(self, connector):
        self.connector = connector
        self.client = None
        self.token = None

    async def run(self, plan, results):
        self.client = ServiceClient(*await self.connector())
        await self.client.hello()
        self.token = self.client.token
        for ops, drop_at in plan:
            results.append(await self._transaction(ops, drop_at))
        await self.client.bye()

    async def _transaction(self, ops, drop_at):
        txn = await self.client.begin()
        try:
            for index, (op, obj, operand) in enumerate(ops):
                if index == drop_at:
                    if not await self._outage(txn):
                        return f"{txn}:aborted:sleep-conflict"
                    break
                reply = await self.client.op(txn, op, obj, operand)
                if reply["type"] == "aborted":
                    return f"{txn}:aborted:{reply.get('reason', '')}"
            reply = await self.client.commit(txn)
        except GTMError as exc:
            cause = error_code(exc)
            if isinstance(exc, ProtocolError):
                cause += f":{exc.event}"
            try:
                await self.client.abort(txn)
            except GTMError:
                pass
            return f"{txn}:error:{cause}"
        return f"{txn}:{reply['type']}:{reply.get('reason', '')}"

    async def _outage(self, txn):
        self.client.drop()
        for _ in range(OUTAGE_TURNS):
            await asyncio.sleep(0)
        while True:
            client = ServiceClient(*await self.connector())
            try:
                await client.hello(self.token)
                break
            except TokenInUse:
                await client.close()
                await asyncio.sleep(0)
        self.client = client
        verdicts = {v["txn"]: v["survived"]
                    for v in client.last_welcome["awake"]}
        if verdicts[txn]:
            client.adopt(txn)
        return verdicts[txn]


def play_round(plans, objects, ldbs_backend):
    """Serve one round; returns (digest, outcome counts)."""
    async def serve():
        service = GTMService(AsyncioDriver(), config=ServiceConfig(
            retire_finished=True, ldbs_backend=ldbs_backend))
        for i in range(objects):
            service.create_object(f"o{i:02d}", value=1)
        server = ServiceServer(service)
        connector = memory_connector(server)
        per_session = [[] for _ in plans]
        await asyncio.gather(*(
            _Session(connector).run(plan, results)
            for plan, results in zip(plans, per_session)))
        await server.shutdown()
        return service, per_session

    service, per_session = asyncio.run(serve())
    h = hashlib.sha256()
    counts = {}
    for results in per_session:
        for result in results:
            h.update(f"{result};".encode())
            kind = result.split(":", 2)[1]
            counts[kind] = counts.get(kind, 0) + 1
    h.update(repr(service.gtm.history.commit_order).encode())
    for name in sorted(service.gtm.objects):
        h.update(f"{name}={service.gtm.object(name).permanent!r};"
                 .encode())
    return h.hexdigest()[:16], counts


ROUNDS = {
    # conflicting classes on few objects: queued ops, regrants,
    # deadlock victims, sleep conflicts.
    "hot": dict(
        plan=dict(name="hot", seed=1, sessions=48, txns=4, ops_per_txn=3,
                  objects=12,
                  mix=(("read", 1), ("add", 1), ("assign", 1), ("mul", 1)),
                  drop_every=6),
        ldbs_backend=None,
        digest="cc4210de2b4bfae9"),
    # mostly commuting ops over a memory LDBS: every commit runs an
    # SST, and the assigns still queue.
    "ldbs": dict(
        plan=dict(name="ldbs", seed=1, sessions=32, txns=6,
                  ops_per_txn=3, objects=12,
                  mix=(("read", 2), ("add", 5), ("assign", 1)),
                  drop_every=7),
        ldbs_backend="memory",
        digest="7d834a5eeca1f563"),
}


@pytest.mark.parametrize("name", sorted(ROUNDS))
def test_round_digest_is_pinned(name):
    spec = ROUNDS[name]
    plans = make_plans(**spec["plan"])
    digest, counts = play_round(plans, spec["plan"]["objects"],
                                spec["ldbs_backend"])
    assert counts.get("error", 0) == 0, counts
    assert counts.get("committed", 0) > 0, counts
    assert digest == spec["digest"], counts


def test_round_repeats_in_one_process():
    spec = ROUNDS["hot"]
    plans = make_plans(**spec["plan"])
    first = play_round(plans, spec["plan"]["objects"], None)
    assert play_round(plans, spec["plan"]["objects"], None) == first
