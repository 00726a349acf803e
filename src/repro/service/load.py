"""The concurrent-session load harness: ``python -m repro.service.load``.

Spawns N client coroutines against one in-process service (in-memory
streams by default — no fd per session — or real TCP with
``--transport tcp``).  Each session runs a begin → ops → commit loop
with seeded disconnect/reconnect churn: a fraction of transactions
drop the connection mid-flight, sleep out the outage, reconnect with
the session token, and try to finish the surviving work — exercising
⟨sleep⟩/⟨awake⟩/BTO under real concurrency instead of simulated time.

Besides commits, aborts and drops, the report's metrics count
``load_awakes`` (transactions a resume woke), ``load_fresh_identities``
(sessions restarted because their token died) and ``load_errors`` (by
wire code, plus the event for protocol errors).

When every session finishes, the run is handed to the serializability
oracle (:mod:`repro.check.oracle`): the service is only correct if the
concurrent outcome is explained by a serial order.  The report —
sustained txn/s, commit latency p50/p95/p99, outcome counts, oracle
verdict — is written to ``BENCH_service.json``; a non-serializable
outcome (or zero commits) exits non-zero so CI fails loudly.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import random
import sys
import time
from dataclasses import asdict, dataclass
from typing import Any

from repro.errors import GTMError, ProtocolError, SessionError, TokenInUse
from repro.check.oracle import check_episode, record_gtm
from repro.driver.asyncio_driver import AsyncioDriver
from repro.obs.registry import MetricsRegistry
from repro.service.client import ConnectionLost, ServiceClient
from repro.service.core import GTMService, ServiceConfig
from repro.service.protocol import error_code
from repro.service.server import (
    ServiceServer,
    memory_connector,
    tcp_connector,
)

#: Commit-latency histogram edges in *milliseconds* of wall time.  The
#: in-memory transport commits in tens of microseconds and a TCP churn
#: run under load reaches seconds, so the ladder spans both; fixed
#: edges keep merged snapshots byte-identical run to run.
LATENCY_MS_BUCKETS: tuple[float, ...] = (
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0,
    100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0)


@dataclass
class LoadConfig:
    """One load run's shape."""

    sessions: int = 200
    #: transactions each session must *finish* (commit or abort).
    transactions: int = 10
    ops_per_txn: int = 4
    objects: int = 64
    #: probability a transaction drops the connection mid-flight.
    drop_prob: float = 0.1
    #: seconds a dropped session stays away before reconnecting.
    reconnect_delay: float = 0.01
    #: server-side BTO timeout (keep > reconnect_delay or everything
    #: the churn touches gets aborted).
    bto_timeout: float = 30.0
    transport: str = "memory"  # "memory" | "tcp"
    seed: int = 42
    out: str = "BENCH_service.json"


_OPS = ("read", "add", "assign", "mul")


async def _run_session(index: int, cfg: LoadConfig, connector,
                       metrics: MetricsRegistry) -> None:
    rng = random.Random(f"{cfg.seed}:{index}")
    loop = asyncio.get_event_loop()
    client = ServiceClient(*await connector())
    await client.hello()
    token = client.token
    finished = 0
    try:
        while finished < cfg.transactions:
            started = loop.time()
            txn: str | None = None
            try:
                txn = await client.begin()
            except ConnectionLost:
                try:
                    client = await _reconnect(client, connector,
                                              token, cfg, metrics)
                except SessionError:
                    client, token = await _fresh_identity(connector,
                                                          metrics)
                continue
            drop_at = (rng.randrange(cfg.ops_per_txn)
                       if rng.random() < cfg.drop_prob else None)
            # Distinct objects: a second invocation on an object the
            # transaction already holds is a protocol error, not load.
            targets = rng.sample(range(cfg.objects), cfg.ops_per_txn)
            outcome: str | None = None
            try:
                for op_index in range(cfg.ops_per_txn):
                    if op_index == drop_at:
                        client.drop()
                        metrics.counter("load_drops").inc()
                        await asyncio.sleep(cfg.reconnect_delay)
                        client = await _reconnect(
                            client, connector, token, cfg, metrics)
                        outcome = await _finish_after_outage(
                            client, txn)
                        break
                    op = _OPS[rng.randrange(len(_OPS))]
                    obj = f"o{targets[op_index]:05d}"
                    operand = (None if op == "read"
                               else rng.randrange(1, 10))
                    reply = await client.op(txn, op, obj, operand)
                    if reply["type"] == "aborted":
                        outcome = "aborted"
                        break
                else:
                    reply = await client.commit(txn)
                    outcome = ("committed"
                               if reply["type"] == "committed"
                               else "aborted")
            except ConnectionLost:
                # The transport died under us (e.g. server push race
                # after an overflow): resume and settle the txn.
                metrics.counter("load_drops").inc()
                await asyncio.sleep(cfg.reconnect_delay)
                try:
                    client = await _reconnect(client, connector,
                                              token, cfg, metrics)
                    outcome = await _finish_after_outage(client, txn)
                except SessionError:
                    client, token = await _fresh_identity(connector,
                                                          metrics)
                    outcome = "aborted"
            except SessionError:
                # The token died during the outage (BTO expiry or
                # close): the in-flight work is gone; new identity.
                client, token = await _fresh_identity(connector, metrics)
                outcome = "aborted"
            except GTMError as exc:
                # A semantic failure (e.g. reconciliation undefined):
                # the transaction cannot finish — abort it.
                cause = error_code(exc)
                if isinstance(exc, ProtocolError):
                    cause += f":{exc.event}"
                metrics.counter("load_errors").inc(label=cause)
                try:
                    await client.abort(txn)
                except Exception:
                    pass
                outcome = "aborted"
            finished += 1
            if outcome == "committed":
                metrics.counter("load_committed").inc()
                metrics.histogram(
                    "load_commit_latency_ms",
                    LATENCY_MS_BUCKETS).observe(
                        (loop.time() - started) * 1000.0)
            else:
                metrics.counter("load_aborted").inc()
    finally:
        try:
            await client.bye()
        except Exception:
            await client.close()


async def _fresh_identity(connector, metrics: MetricsRegistry
                          ) -> tuple[ServiceClient, str]:
    """The old token is dead; start over as a new session."""
    metrics.counter("load_fresh_identities").inc()
    client = ServiceClient(*await connector())
    await client.hello()
    return client, client.token


async def _reconnect(old: ServiceClient, connector, token: str,
                     cfg: LoadConfig,
                     metrics: MetricsRegistry) -> ServiceClient:
    """Open a fresh transport and resume the session token."""
    await old.close()
    while True:
        client = ServiceClient(*await connector())
        try:
            welcome = await client.hello(token)
            metrics.counter("load_awakes").inc(
                len(welcome.get("awake", ())))
            return client
        except ConnectionLost:
            await client.close()
            await asyncio.sleep(cfg.reconnect_delay)
        except TokenInUse:
            # Transient: the server has not yet seen the old
            # transport's EOF.  Retry after one loop turn.
            await client.close()
            await asyncio.sleep(0)
        except SessionError:
            # Expired (BTO) or closed: the old work is gone; the
            # caller treats in-flight txns as aborted via the welcome.
            await client.close()
            raise


async def _finish_after_outage(client: ServiceClient,
                               txn: str) -> str:
    """After ⟨awake⟩, settle the surviving transaction's fate."""
    welcome = client.last_welcome or {}
    for entry in welcome.get("awake", ()):
        if entry["txn"] == txn:
            if not entry["survived"]:
                return "aborted"
            client.adopt(txn)
            try:
                reply = await client.commit(txn)
            except ConnectionLost:
                return "aborted"
            return ("committed" if reply["type"] == "committed"
                    else "aborted")
    outcome = welcome.get("finished", {}).get(txn)
    if outcome is not None:
        return outcome
    # Not sleeping, not finished: it never obtained a grant, so the
    # drop left it Active server-side; abort it explicitly.
    client.adopt(txn)
    try:
        await client.abort(txn)
    except Exception:
        pass
    return "aborted"


async def run_load(cfg: LoadConfig) -> dict[str, Any]:
    """Run one load campaign; returns the (oracle-checked) report."""
    if cfg.ops_per_txn > cfg.objects:
        raise ValueError(
            f"ops_per_txn ({cfg.ops_per_txn}) exceeds objects "
            f"({cfg.objects}): a transaction touches distinct objects")
    driver = AsyncioDriver()
    service = GTMService(driver, config=ServiceConfig(
        bto_timeout=cfg.bto_timeout, retire_finished=True))
    # Start at 1, and the op mix only adds/assigns/multiplies positive
    # operands — values stay nonzero, keeping multiplicative
    # reconciliation (undefined for X_read == 0) well-posed.
    for index in range(cfg.objects):
        service.create_object(f"o{index:05d}", value=1)
    server = ServiceServer(service)
    if cfg.transport == "tcp":
        host, port = await server.start_tcp()
        connector = tcp_connector(host, port)
    else:
        connector = memory_connector(server)

    # One shared registry instead of per-session stat objects: sessions
    # are coroutines on one loop, so counter/histogram updates need no
    # locking, and the report reads the same instruments a deployment
    # would scrape.
    metrics = MetricsRegistry()
    wall_start = time.perf_counter()
    await asyncio.gather(*(
        _run_session(index, cfg, connector, metrics)
        for index in range(cfg.sessions)))
    elapsed = time.perf_counter() - wall_start
    await server.shutdown()

    committed = int(metrics.counter("load_committed").total())
    aborted = int(metrics.counter("load_aborted").total())
    drops = int(metrics.counter("load_drops").total())
    latency = metrics.histogram("load_commit_latency_ms",
                                LATENCY_MS_BUCKETS)

    def _quantile(q: float) -> float | None:
        value = latency.quantile(q)
        return None if value is None else round(value, 3)

    oracle = check_episode(record_gtm(service.gtm))
    report = {
        "config": asdict(cfg),
        "sessions": cfg.sessions,
        "elapsed_s": round(elapsed, 3),
        "committed": committed,
        "aborted": aborted,
        "drops": drops,
        "txn_per_s": round(committed / elapsed, 1) if elapsed else 0.0,
        "latency_ms": {
            "p50": _quantile(0.50),
            "p95": _quantile(0.95),
            "p99": _quantile(0.99),
        },
        "oracle": {
            "serializable": oracle.serializable,
            "committed": oracle.committed,
            "orders_tried": oracle.orders_tried,
        },
        "metrics": metrics.snapshot(),
    }
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service.load",
        description="Concurrent-session load harness for the GTM "
                    "service (oracle-checked).")
    defaults = LoadConfig()
    parser.add_argument("--sessions", type=int,
                        default=defaults.sessions)
    parser.add_argument("--transactions", type=int,
                        default=defaults.transactions,
                        help="transactions per session")
    parser.add_argument("--ops-per-txn", type=int,
                        default=defaults.ops_per_txn)
    parser.add_argument("--objects", type=int, default=defaults.objects)
    parser.add_argument("--drop-prob", type=float,
                        default=defaults.drop_prob)
    parser.add_argument("--reconnect-delay", type=float,
                        default=defaults.reconnect_delay)
    parser.add_argument("--bto-timeout", type=float,
                        default=defaults.bto_timeout)
    parser.add_argument("--transport", choices=("memory", "tcp"),
                        default=defaults.transport)
    parser.add_argument("--seed", type=int, default=defaults.seed)
    parser.add_argument("--out", default=defaults.out,
                        help="report path (JSON)")
    args = parser.parse_args(argv)
    cfg = LoadConfig(
        sessions=args.sessions, transactions=args.transactions,
        ops_per_txn=args.ops_per_txn, objects=args.objects,
        drop_prob=args.drop_prob,
        reconnect_delay=args.reconnect_delay,
        bto_timeout=args.bto_timeout, transport=args.transport,
        seed=args.seed, out=args.out)

    report = asyncio.run(run_load(cfg))
    with open(cfg.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")

    print(f"sessions={report['sessions']} "
          f"committed={report['committed']} "
          f"aborted={report['aborted']} drops={report['drops']} "
          f"txn/s={report['txn_per_s']}")
    print(f"latency ms p50={report['latency_ms']['p50']} "
          f"p95={report['latency_ms']['p95']} "
          f"p99={report['latency_ms']['p99']}")
    print(f"oracle serializable={report['oracle']['serializable']} "
          f"({report['oracle']['committed']} committed)")
    if not report["oracle"]["serializable"] or not report["committed"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
