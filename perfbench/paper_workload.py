"""The paper workload, ``paper-fig3``: Section VI-B at one Fig. 3 point.

One round generates the paper's emulated workload (α = 0.7, β = 0.1,
1000 transactions over 5 objects) and runs it through both
:class:`~repro.schedulers.GTMScheduler` and
:class:`~repro.schedulers.TwoPLScheduler` — the GTM core and the 2PL
baseline with no service, no asyncio and no codec.

The emulation runs on virtual time, so its commit latency is the
emulated one: each committed GTM transaction's arrival-to-commit time,
read from the run's public metrics collector (the execution time of
the paper's Section VI-B).  It is a property of the protocol, like the
abort share, and no program speed-up moves it.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass

from checks import CheckFailed
from hostspeed import clock
from repro.check.oracle import check_episode, record_baseline, record_gtm
from repro.schedulers import (
    GTMScheduler,
    GTMSchedulerConfig,
    TwoPLScheduler,
    TwoPLSchedulerConfig,
)
from repro.workload.generator import (
    PaperWorkloadConfig,
    generate_paper_workload,
)

ALPHA = 0.7
BETA = 0.1
N_TRANSACTIONS = 1000


def workload_config(seed: int, sub: int) -> PaperWorkloadConfig:
    """Sub-workload ``sub`` of ``seed``: the repetition seeding of
    ``repro.bench.experiments.fig3`` (seed + 7919 * repetition)."""
    return PaperWorkloadConfig(n_transactions=N_TRANSACTIONS,
                               alpha=ALPHA, beta=BETA,
                               seed=seed + 7919 * sub)


def setup(seed: int, sub: int):
    return generate_paper_workload(workload_config(seed, sub)).workload


@dataclass
class PaperRound:
    setup_s: float
    gtm_run_s: float
    twopl_run_s: float
    oracle_s: float
    #: emulated arrival-to-commit seconds of each committed GTM txn.
    latencies: list[float]
    gtm_committed: int
    gtm_aborted: int
    twopl_committed: int
    counts: dict[str, int]
    digest: str


def run_round(seed: int, sub: int) -> PaperRound:
    setup_start = clock()
    workload = setup(seed, sub)
    setup_s = clock() - setup_start

    gtm_scheduler = GTMScheduler(GTMSchedulerConfig())
    start = clock()
    gtm = gtm_scheduler.run(workload)
    gtm_run_s = clock() - start
    start = clock()
    twopl = TwoPLScheduler(TwoPLSchedulerConfig()).run(workload)
    twopl_run_s = clock() - start

    oracle_start = clock()
    verdicts = (check_episode(record_gtm(gtm_scheduler.last_gtm)),
                check_episode(record_baseline(workload, twopl)))
    oracle_s = clock() - oracle_start
    for scheduler, verdict in zip(("gtm", "2pl"), verdicts):
        if not verdict.serializable:
            raise CheckFailed(f"paper-fig3: {scheduler} run is not "
                              f"serializable ({verdict.mismatches[:3]})")
    for result in (gtm, twopl):
        stats = result.stats
        if stats.unfinished or stats.total != N_TRANSACTIONS:
            raise CheckFailed(f"paper-fig3: {result.scheduler} left "
                              f"{stats.unfinished} unfinished of "
                              f"{stats.total}")
    latencies = [t.execution_time for t in gtm.collector.committed()]

    counts: Counter[str] = Counter()
    digest = hashlib.sha256()
    for result in (gtm, twopl):
        name = result.scheduler
        counts[f"{name}:committed"] = result.stats.committed
        for reason, count in result.stats.abort_reasons.items():
            counts[f"{name}:aborted:{reason}"] = count
        digest.update(f"{name}:{sorted(result.final_values.items())!r};"
                      .encode())
    return PaperRound(
        setup_s=setup_s, gtm_run_s=gtm_run_s, twopl_run_s=twopl_run_s,
        oracle_s=oracle_s, latencies=latencies,
        gtm_committed=gtm.stats.committed,
        gtm_aborted=gtm.stats.aborted,
        twopl_committed=twopl.stats.committed,
        counts=dict(sorted(counts.items())),
        digest=digest.hexdigest()[:16])
