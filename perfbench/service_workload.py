"""The live-service workloads, ``svc-hot`` and ``svc-commute``.

One round builds a :class:`~repro.service.core.GTMService`, serves it
through a :class:`~repro.service.server.ServiceServer` over the memory
transport, and drives it with one closed-loop session coroutine per
simulated mobile client, all on one asyncio loop in one thread.  A
session sends its next request only after the previous reply.

The session loop is written for this benchmark rather than reusing
``repro.service.load``, because that loop has three defects that make
its outcome counts vary from run to run (see ``NOTES.md``):

- ``harness/token-in-use-final``: it treats ``TokenInUse`` on resume
  as final.  The error is transient — the server has not yet seen the
  old transport's EOF — so a session yields to the loop and retries.
- ``harness/wall-clock-outage``: it models an outage as a wall-clock
  sleep, so CPU speed changes the interleaving.  Here an outage is a
  fixed number of event-loop turns.
- ``harness/object-repeat``: it draws a transaction's objects with
  replacement, and the resulting ``already granted`` protocol errors
  were counted as aborts.  Here the objects are drawn without
  replacement.

With all three fixed, a round is a pure function of the seed: the
commit, abort and error counts repeat exactly.
"""

from __future__ import annotations

import asyncio
import hashlib
import random
from collections import Counter
from dataclasses import dataclass, field

from repro.check.oracle import check_episode, record_gtm
from repro.driver.asyncio_driver import AsyncioDriver
from repro.errors import GTMError, ProtocolError, TokenInUse
from repro.service.client import ConnectionLost, ServiceClient
from repro.service.core import GTMService, ServiceConfig
from repro.service.protocol import error_code
from repro.service.server import ServiceServer, memory_connector
from checks import CheckFailed
from hostspeed import clock
from tracing import StepTimed


@dataclass(frozen=True)
class ServiceShape:
    """The fixed shape of one service workload."""

    name: str
    sessions: int
    txns_per_session: int
    ops_per_txn: int
    objects: int
    #: wire op name -> relative weight.
    mix: tuple[tuple[str, int], ...]
    #: share of transactions that drop the connection mid-flight.
    drop_prob: float
    #: event-loop turns a dropped session stays away.
    outage_turns: int
    #: LDBS backend name, or None for a virtual service (no SSTs).
    ldbs_backend: str | None


SVC_HOT = ServiceShape(
    name="svc-hot", sessions=256, txns_per_session=5, ops_per_txn=4,
    objects=48, mix=(("read", 1), ("add", 1), ("assign", 1), ("mul", 1)),
    drop_prob=0.15, outage_turns=32, ldbs_backend=None)

SVC_COMMUTE = ServiceShape(
    name="svc-commute", sessions=128, txns_per_session=12, ops_per_txn=4,
    objects=48, mix=(("read", 3), ("add", 7)),
    drop_prob=0.15, outage_turns=32, ldbs_backend="memory")

SHAPES = {shape.name: shape for shape in (SVC_HOT, SVC_COMMUTE)}

#: Objects start at 1 and every operand is positive, so values stay
#: nonzero and multiplicative reconciliation stays defined.
INITIAL_VALUE = 1


@dataclass(frozen=True)
class TxnPlan:
    """One transaction a session will run."""

    #: (op, object, operand) in program order; operand None for reads.
    ops: tuple[tuple[str, str, int | None], ...]
    #: index of the op before which the connection drops, or None.
    drop_at: int | None


def object_name(index: int) -> str:
    return f"o{index:03d}"


def make_plans(shape: ServiceShape, seed: int,
               sub: int) -> list[list[TxnPlan]]:
    """Every session's transactions for sub-workload ``sub`` of
    ``seed``: a pure function of the two.

    Drops are stratified: exactly ``drop_prob`` of all transactions
    drop, at randomly chosen transactions, and the drop positions
    cycle through every op index in shuffled order — so each position
    gets its exact share and only the interleaving varies by seed.
    """
    names = [object_name(i) for i in range(shape.objects)]
    ops = [op for op, _ in shape.mix]
    weights = [weight for _, weight in shape.mix]
    slots = [(session, txn) for session in range(shape.sessions)
             for txn in range(shape.txns_per_session)]
    rng = random.Random(f"{shape.name}:{seed}:{sub}:drops")
    dropped = rng.sample(slots, round(shape.drop_prob * len(slots)))
    positions = [i % shape.ops_per_txn for i in range(len(dropped))]
    rng.shuffle(positions)
    drop_at = dict(zip(dropped, positions))
    plans: list[list[TxnPlan]] = []
    for session in range(shape.sessions):
        rng = random.Random(f"{shape.name}:{seed}:{sub}:{session}")
        txns = []
        for txn in range(shape.txns_per_session):
            # Without replacement: a repeat of one object in one
            # transaction is a protocol error, not a workload property.
            objects = rng.sample(names, shape.ops_per_txn)
            steps = []
            for obj in objects:
                op = rng.choices(ops, weights)[0]
                operand = None if op == "read" else rng.randrange(1, 10)
                steps.append((op, obj, operand))
            txns.append(TxnPlan(tuple(steps),
                                drop_at.get((session, txn))))
        plans.append(txns)
    return plans


@dataclass
class TxnResult:
    txn: str
    #: "committed", "aborted" or "error".
    outcome: str
    #: abort reason or wire error code ("" when committed).
    cause: str
    #: ops the service granted and applied before the outcome.
    applied: tuple[tuple[str, str, int | None], ...]
    #: wall seconds from ``begin`` sent to ``committed`` received.
    latency_s: float


@dataclass
class RoundStats:
    results: list[TxnResult] = field(default_factory=list)
    resume_retries: int = 0
    resumes: int = 0


class _Session:
    """One closed-loop mobile client."""

    def __init__(self, shape: ServiceShape, connector,
                 stats: RoundStats) -> None:
        self.shape = shape
        self.connector = connector
        self.stats = stats
        self.client: ServiceClient | None = None
        self.token: str | None = None

    async def run(self, plan: list[TxnPlan]) -> None:
        self.client = ServiceClient(*await self.connector())
        await self.client.hello()
        self.token = self.client.token
        for txn_plan in plan:
            self.stats.results.append(await self._transaction(txn_plan))
        await self.client.bye()

    async def _transaction(self, plan: TxnPlan) -> TxnResult:
        started = clock()
        txn = await self.client.begin()
        applied: list[tuple[str, str, int | None]] = []

        def result(outcome: str, cause: str = "") -> TxnResult:
            latency = clock() - started
            return TxnResult(txn, outcome, cause, tuple(applied), latency)

        try:
            for index, (op, obj, operand) in enumerate(plan.ops):
                if index == plan.drop_at:
                    survived = await self._outage(txn)
                    if not survived:
                        return result("aborted", "sleep-conflict")
                    break  # the resumed client commits what survived
                reply = await self.client.op(txn, op, obj, operand)
                if reply["type"] == "aborted":
                    return result("aborted", reply.get("reason", ""))
                applied.append((op, obj, operand))
            reply = await self.client.commit(txn)
        except ConnectionLost:
            raise  # the memory transport never drops on its own
        except GTMError as exc:
            await self._abandon(txn)
            cause = error_code(exc)
            if isinstance(exc, ProtocolError):
                cause += f":{exc.event}"
            return result("error", cause)
        if reply["type"] == "committed":
            return result("committed")
        return result("aborted", reply.get("reason", ""))

    async def _outage(self, txn: str) -> bool:
        """Drop the transport, stay away, resume; True if ``txn``
        survived its ⟨awake⟩."""
        self.client.drop()
        for _ in range(self.shape.outage_turns):
            await asyncio.sleep(0)
        while True:
            client = ServiceClient(*await self.connector())
            try:
                await client.hello(self.token)
                break
            except TokenInUse:
                # The server has not processed the old transport's EOF
                # yet: transient, retry after one loop turn.
                await client.close()
                self.stats.resume_retries += 1
                await asyncio.sleep(0)
        self.client = client
        self.stats.resumes += 1
        for verdict in client.last_welcome["awake"]:
            if verdict["txn"] == txn:
                if verdict["survived"]:
                    client.adopt(txn)
                return verdict["survived"]
        raise CheckFailed(
            f"{txn} missing from the awake verdicts of its resume: "
            f"{client.last_welcome}")

    async def _abandon(self, txn: str) -> None:
        """After an error frame, abort the transaction if it still
        lives server-side (it may hold grants others wait for)."""
        try:
            await self.client.abort(txn)
        except ConnectionLost:
            raise
        except GTMError:
            pass  # already finished: nothing to release


@dataclass
class RoundOutcome:
    """Everything one round produced, for metrics and checks."""

    setup_s: float
    measured_s: float
    oracle_s: float
    stats: RoundStats
    counts: dict[str, int]
    digest: str


def build_service(shape: ServiceShape) -> GTMService:
    service = GTMService(AsyncioDriver(), config=ServiceConfig(
        retire_finished=True, ldbs_backend=shape.ldbs_backend))
    for index in range(shape.objects):
        service.create_object(object_name(index), value=INITIAL_VALUE)
    return service


async def _serve(shape: ServiceShape, plans: list[list[TxnPlan]],
                 tracer) -> tuple[float, float, GTMService, RoundStats,
                                  dict | None]:
    setup_start = clock()
    service = build_service(shape)
    setup_s = clock() - setup_start
    server = ServiceServer(service)
    connector = memory_connector(server)
    stats = RoundStats()
    sessions = [_Session(shape, connector, stats).run(plan)
                for plan in plans]
    if tracer is not None:
        sessions = [StepTimed(tracer, "client", s) for s in sessions]
    measured_start = clock()
    await asyncio.gather(*sessions)
    measured_s = clock() - measured_start
    ldbs_rows = (service.backend.dump().get("gtm_objects", {})
                 if service.backend is not None else None)
    await server.shutdown()
    return setup_s, measured_s, service, stats, ldbs_rows


def run_round(shape: ServiceShape, plans: list[list[TxnPlan]],
              tracer=None) -> RoundOutcome:
    """One full round: set up, drive every session, check the result.

    With a ``tracer`` (and :func:`tracing.installed` active) the session
    coroutines are spanned per resumption as the ``client`` layer.
    """
    setup_s, measured_s, service, stats, ldbs_rows = asyncio.run(
        _serve(shape, plans, tracer))
    oracle_start = clock()
    oracle = check_episode(record_gtm(service.gtm))
    oracle_s = clock() - oracle_start
    if not oracle.serializable:
        raise CheckFailed(f"{shape.name}: oracle found no serial order "
                          f"({oracle.mismatches[:3]})")
    _check_outcomes(shape, service, stats, ldbs_rows)
    counts = Counter(f"{r.outcome}:{r.cause}" if r.cause else r.outcome
                     for r in stats.results)
    counts["resumes"] = stats.resumes
    return RoundOutcome(setup_s, measured_s, oracle_s, stats,
                        dict(sorted(counts.items())),
                        _digest(service, stats))


def _check_outcomes(shape: ServiceShape, service: GTMService,
                    stats: RoundStats, ldbs_rows) -> None:
    expected = shape.sessions * shape.txns_per_session
    if len(stats.results) != expected:
        raise CheckFailed(f"{shape.name}: {len(stats.results)} of "
                          f"{expected} transactions finished")
    committed = {r.txn for r in stats.results if r.outcome == "committed"}
    logged = set(service.gtm.history.commit_order)
    if committed != logged:
        raise CheckFailed(
            f"{shape.name}: client saw {len(committed)} commits, the "
            f"GTM logged {len(logged)}")
    if shape.ldbs_backend is None:
        return
    # Every op here commutes (read, add): each object's final value is
    # its initial value plus the committed add operands.
    expected_values = {object_name(i): INITIAL_VALUE
                       for i in range(shape.objects)}
    for r in stats.results:
        if r.outcome == "committed":
            for op, obj, operand in r.applied:
                if op == "add":
                    expected_values[obj] += operand
                elif op != "read":
                    raise CheckFailed(f"unexpected op {op!r}")
    for name, value in expected_values.items():
        permanent = service.gtm.object(name).permanent_value()
        if permanent != value:
            raise CheckFailed(f"{name}: permanent value {permanent}, "
                              f"committed adds give {value}")
        row = ldbs_rows.get(name)
        if row is None or row["value"] != value:
            raise CheckFailed(f"{name}: LDBS row {row}, expected {value}")


def _digest(service: GTMService, stats: RoundStats) -> str:
    """Outcome digest: who committed, in which order, with what."""
    h = hashlib.sha256()
    for r in stats.results:
        h.update(f"{r.txn}:{r.outcome}:{r.cause};".encode())
    h.update(repr(service.gtm.history.commit_order).encode())
    for name in sorted(service.gtm.objects):
        h.update(f"{name}={service.gtm.object(name).permanent!r};"
                 .encode())
    return h.hexdigest()[:16]
