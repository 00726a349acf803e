"""Live-service load benchmark — an extension experiment.

The discrete-event experiments measure the GTM under *simulated* time;
this one measures the same manager behind the asyncio wire protocol
under *wall-clock* concurrency: hundreds of concurrent sessions over
in-memory duplex streams, seeded disconnect/reconnect churn exercising
⟨sleep⟩/⟨awake⟩, and the serializability oracle judging the final
history.  The numbers (txn/s, commit-latency percentiles) are
hardware-dependent — the oracle verdict and the outcome accounting are
not, and both are asserted as shape checks.

The report is also written to ``BENCH_service.json`` so CI can archive
the service's throughput/latency profile next to ``BENCH_gtm.json``.
"""

from __future__ import annotations

import asyncio
import json
from pathlib import Path
from typing import Any

from repro.metrics.report import render_table
from repro.service.load import LoadConfig, run_curve

#: The benchmark's fixed shape: big enough that admission queueing,
#: deferred commits and awake revalidation all occur, small enough to
#: finish in seconds inside CI.
BENCH_CONFIG = LoadConfig(sessions=128, transactions=4, ops_per_txn=4,
                          objects=48, drop_prob=0.15,
                          reconnect_delay=0.002, bto_timeout=30.0,
                          transport="memory", seed=42,
                          out="BENCH_service.json")


def render(report: dict[str, Any]) -> str:
    latency = report["latency_ms"]
    rows = [[
        report["sessions"], report["committed"], report["aborted"],
        report["drops"], report["txn_per_s"], latency["p50"],
        latency["p95"], latency["p99"],
    ]]
    return render_table(
        ["sessions", "committed", "aborted", "drops", "txn/s",
         "p50 (ms)", "p95 (ms)", "p99 (ms)"],
        rows,
        title="Service load harness (in-memory transport, seeded "
              "churn)")


def shape_checks(report: dict[str, Any]) -> dict[str, bool]:
    """Machine-independent correctness properties of the run."""
    config = report["config"]
    expected = config["sessions"] * config["transactions"]
    return {
        "oracle_serializable": bool(report["oracle"]["serializable"]),
        "every_transaction_settled":
            report["committed"] + report["aborted"] == expected,
        "commits_occurred": report["committed"] > 0,
        "churn_occurred": report["drops"] > 0,
        "oracle_saw_every_commit":
            report["oracle"]["committed"] == report["committed"],
    }


def main(jobs: int | str = 1) -> str:
    # jobs is accepted for CLI uniformity; the load is one event loop.
    del jobs
    curve = asyncio.run(run_curve(BENCH_CONFIG, [BENCH_CONFIG.sessions]))
    report = curve["points"][0]["runs"][0]
    Path(BENCH_CONFIG.out).write_text(
        json.dumps(curve, indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
    checks = shape_checks(report)
    lines = [render(report), "",
             f"oracle: serializable={report['oracle']['serializable']} "
             f"committed={report['oracle']['committed']} "
             f"orders_tried={report['oracle']['orders_tried']}",
             f"wrote {BENCH_CONFIG.out}", "", "shape checks:"]
    lines.extend(f"  {name}: {'PASS' if ok else 'FAIL'}"
                 for name, ok in checks.items())
    return "\n".join(lines)
