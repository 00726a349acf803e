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
concurrent outcome is explained by a serial order.  Each run reports
sustained txn/s, commit latency p50/p95/p99 (and how many samples
overflowed the histogram), outcome counts and the oracle verdict.

``--sessions`` takes one count or a curve (``128,512,2000``) and
``--repeats N`` runs every point N times; ``BENCH_service.json`` gets
each point's median and quartiles of txn/s, commit p50/p99 and wall
time, its runs, and the CPU count.  A non-serializable outcome (or a
run with zero commits) exits non-zero so CI fails loudly.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import random
import statistics
import sys
import time
from dataclasses import asdict, dataclass, replace
from typing import Any

from repro.errors import GTMError, ProtocolError, SessionError, TokenInUse
from repro.check.oracle import check_episode, record_gtm
from repro.driver.asyncio_driver import AsyncioDriver
from repro.obs.registry import Histogram, MetricsRegistry
from repro.service.client import ConnectionLost, ServiceClient
from repro.service.core import GTMService, ServiceConfig
from repro.service.protocol import error_code
from repro.service.server import (
    ServiceServer,
    memory_connector,
    tcp_connector,
)

#: Commit-latency histogram edges in *milliseconds* of wall time: the
#: Renard R10 ladder (ten log-spaced edges per decade, each step
#: ~1.26×, so an interpolated quantile is off by at most ~26%) from
#: 10 µs to 800 s.  The in-memory transport commits in tens of
#: microseconds, while an overloaded run (thousands of sessions) keeps
#: commits waiting for minutes, so the ladder runs up to the BTO scale;
#: fixed edges keep merged snapshots byte-identical run to run.
#: Samples beyond the top edge are counted as ``overflow`` in the
#: report, where only their maximum is known.
LATENCY_MS_BUCKETS: tuple[float, ...] = tuple(
    round(mantissa * 10.0 ** exponent, 6)
    for exponent in range(-2, 6)
    for mantissa in (1.0, 1.25, 1.6, 2.0, 2.5, 3.15, 4.0, 5.0, 6.3, 8.0))


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


def latency_summary(latency: Histogram) -> dict[str, Any]:
    """Commit-latency p50/p95/p99 plus the count past the top edge."""

    def _quantile(q: float) -> float | None:
        value = latency.quantile(q)
        return None if value is None else round(value, 3)

    return {"p50": _quantile(0.50), "p95": _quantile(0.95),
            "p99": _quantile(0.99), "overflow": latency.counts[-1]}


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
    oracle = check_episode(record_gtm(service.gtm))
    report = {
        "config": asdict(cfg),
        "sessions": cfg.sessions,
        "elapsed_s": round(elapsed, 3),
        "committed": committed,
        "aborted": aborted,
        "drops": drops,
        "txn_per_s": round(committed / elapsed, 1) if elapsed else 0.0,
        "latency_ms": latency_summary(latency),
        "oracle": {
            "serializable": oracle.serializable,
            "committed": oracle.committed,
            "orders_tried": oracle.orders_tried,
        },
        "metrics": metrics.snapshot(),
    }
    return report


def _spread(values: list[float]) -> dict[str, float] | None:
    """Median and quartiles of repeated measurements (None if empty)."""
    if not values:
        return None
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": round(median, 3), "q1": round(q1, 3),
            "q3": round(q3, 3)}


def _curve_point(sessions: int,
                 runs: list[dict[str, Any]]) -> dict[str, Any]:
    """One sessions-curve point: the spread of its repeated runs."""

    def spread(pick) -> dict[str, float] | None:
        return _spread([value for value in map(pick, runs)
                        if value is not None])

    return {
        "sessions": sessions,
        "txn_per_s": spread(lambda run: run["txn_per_s"]),
        "commit_p50_ms": spread(lambda run: run["latency_ms"]["p50"]),
        "commit_p99_ms": spread(lambda run: run["latency_ms"]["p99"]),
        "elapsed_s": spread(lambda run: run["elapsed_s"]),
        "runs": runs,
    }


async def run_curve(cfg: LoadConfig, sessions: list[int],
                    repeats: int = 1) -> dict[str, Any]:
    """Run ``cfg`` at each session count, ``repeats`` times each.

    Runs execute one after another on one loop, so each has the whole
    process to itself; the CPU count is recorded because wall-clock
    throughput means little without it.
    """
    points = []
    for count in sessions:
        runs = [await run_load(replace(cfg, sessions=count))
                for _ in range(repeats)]
        points.append(_curve_point(count, runs))
    config = asdict(cfg)
    config["sessions"] = list(sessions)
    config["repeats"] = repeats
    return {"config": config, "cpu_count": os.cpu_count(),
            "points": points}


def _session_counts(text: str) -> list[int]:
    """argparse type: one positive count or a comma-separated list."""
    try:
        counts = [int(part) for part in text.split(",")]
    except ValueError:
        counts = []
    if not counts or min(counts) < 1:
        raise argparse.ArgumentTypeError(
            f"expected positive session counts such as 128,512,2000, "
            f"got {text!r}")
    return counts


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service.load",
        description="Concurrent-session load harness for the GTM "
                    "service (oracle-checked).")
    defaults = LoadConfig()
    parser.add_argument("--sessions", type=_session_counts,
                        default=[defaults.sessions],
                        help="session count, or a comma-separated "
                             "curve such as 128,512,2000")
    parser.add_argument("--repeats", type=int, default=1,
                        help="runs per session count (the report "
                             "gives their median and quartiles)")
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
    if args.repeats < 1:
        parser.error(f"--repeats must be at least 1, got {args.repeats}")
    cfg = LoadConfig(
        sessions=args.sessions[0], transactions=args.transactions,
        ops_per_txn=args.ops_per_txn, objects=args.objects,
        drop_prob=args.drop_prob,
        reconnect_delay=args.reconnect_delay,
        bto_timeout=args.bto_timeout, transport=args.transport,
        seed=args.seed, out=args.out)

    curve = asyncio.run(run_curve(cfg, args.sessions, args.repeats))
    with open(cfg.out, "w", encoding="utf-8") as handle:
        json.dump(curve, handle, indent=2, sort_keys=True)
        handle.write("\n")

    print(f"cpu_count={curve['cpu_count']} repeats={args.repeats}")
    for point in curve["points"]:
        committed = sum(run["committed"] for run in point["runs"])
        aborted = sum(run["aborted"] for run in point["runs"])
        print(f"sessions={point['sessions']} "
              f"committed={committed} aborted={aborted} "
              f"txn/s={_fmt(point['txn_per_s'])} "
              f"p50 ms={_fmt(point['commit_p50_ms'])} "
              f"p99 ms={_fmt(point['commit_p99_ms'])} "
              f"elapsed s={_fmt(point['elapsed_s'])}")
    failed = [run for point in curve["points"] for run in point["runs"]
              if not run["oracle"]["serializable"] or not run["committed"]]
    for run in failed:
        print(f"FAILED sessions={run['sessions']}: oracle "
              f"serializable={run['oracle']['serializable']}, "
              f"{run['committed']} committed")
    return 1 if failed else 0


def _fmt(spread: dict[str, float] | None) -> str:
    if spread is None:
        return "n/a"
    return f"{spread['median']} [{spread['q1']}, {spread['q3']}]"


if __name__ == "__main__":
    sys.exit(main())
