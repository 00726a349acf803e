"""Benchmark entry point.

    python3 perfbench/run.py --workload svc-hot --seed 1 --seconds 20 --trace 0

Run from the repository root; the program is imported from ``src/``.
One run repeats its workload in cycles of rounds — each round a pure
function of the seed and a sub-workload index — until ``--seconds`` of
measured time have passed.  It checks every round's outputs, and
checks that every repeat of a sub-workload reproduces its outcome
counts and digest.  Every timing is reported in reference seconds: its
wall time scaled by how fast a fixed CPU loop ran while it was taken
(see ``hostspeed``), so a slow period of the host does not read as a
slow program.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs
half the time untraced and half with spans around every layer's entry
points, reports the per-layer metrics (per traced round), writes the
spans to ``perfbench/out/`` and states the tracing overhead against
the untraced half.  The line before the result carries the
environment, the outcome counts of every sub-workload (failures by
cause) and the measured time of every round.
See ``NOTES.md`` for the workloads, metrics and known defects.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from array import array
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import hostspeed
from checks import CheckFailed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Every untraced round adds standalone set-ups after its own until its
#: set-ups add up to this many wall seconds; setup_s is the median of
#: them all, so it samples the host across the whole run, as the other
#: timings do (a virtual svc-hot service builds in 0.3 ms).  The first
#: round's own set-up is left out: in a fresh process every build
#: re-faults the heap, which measures the allocator, not the set-up.
SETUP_SECONDS_PER_ROUND = 0.025

#: Timings are reported as on a host where one pass of
#: ``hostspeed.kernel`` takes this long: a wall time ``t`` taken while
#: the kernel's passes took ``k`` seconds on average reads as
#: ``t * (REFERENCE_KERNEL_S / k) ** KERNEL_ELASTICITY``.
REFERENCE_KERNEL_S = 0.0007
#: A slow period of the host slows the benchmark more than the kernel:
#: regressing log round time on log kernel time over 30 runs of
#: svc-hot and svc-commute gave slopes of 1.17 to 1.37.
KERNEL_ELASTICITY = 1.3


@dataclass
class Round:
    """One round, reduced to what the metrics and checks need."""

    setup_s: float
    #: wall seconds of the measured phase (the load, or both schedulers).
    measured_s: float
    oracle_s: float
    committed: int
    attempted: int
    #: transactions the GTM aborted (the paper-fig3 share: GTM only).
    aborted: int
    #: transactions that ended in an error frame.
    errors: int
    #: the base of abort_ratio and error_ratio (paper-fig3: GTM only).
    ratio_base: int
    #: per committed transaction: wall seconds (service workloads) or
    #: emulated seconds (paper-fig3, see the benches' ``wall_latencies``).
    #: An array, so that keeping every round's samples adds little to
    #: the peak RSS the run reports.
    latencies: array
    counts: dict[str, int]
    digest: str
    extra: dict[str, float] = field(default_factory=dict)
    #: wall seconds of the standalone set-ups measure() adds.
    extra_setups: list[float] = field(default_factory=list)
    #: reference seconds per wall second in this round; set by
    #: measure() from the host speed sampled during the round.
    scale: float = 1.0


class ServiceBench:
    #: sub-workloads per cycle (see measure()).  svc-hot's commit
    #: latencies depend on its inputs more than svc-commute's do: with
    #: 4, its commit_p50_ms still moved by 15% from seed to seed.
    cycles = {"svc-hot": 8, "svc-commute": 4}
    #: the latency samples are wall times, scaled like every timing.
    wall_latencies = True

    def __init__(self, workload: str, seed: int) -> None:
        import service_workload
        self.mod = service_workload
        self.shape = service_workload.SHAPES[workload]
        self.cycle = self.cycles[workload]
        self.plans = [service_workload.make_plans(self.shape, seed, sub)
                      for sub in range(self.cycle)]

    def setup_once(self) -> float:
        async def build() -> float:
            start = hostspeed.clock()
            service = self.mod.build_service(self.shape)
            elapsed = hostspeed.clock() - start
            if service.backend is not None:
                service.backend.close()
            return elapsed
        return asyncio.run(build())

    def round(self, sub: int, tracer=None) -> Round:
        outcome = self.mod.run_round(self.shape, self.plans[sub], tracer)
        results = outcome.stats.results
        committed = [r for r in results if r.outcome == "committed"]
        return Round(
            setup_s=outcome.setup_s, measured_s=outcome.measured_s,
            oracle_s=outcome.oracle_s, committed=len(committed),
            attempted=len(results),
            aborted=sum(r.outcome == "aborted" for r in results),
            errors=sum(r.outcome == "error" for r in results),
            ratio_base=len(results),
            latencies=array("d", (r.latency_s for r in committed)),
            counts=outcome.counts, digest=outcome.digest,
            extra={"resume_retries": outcome.stats.resume_retries})


class PaperBench:
    cycle = 32
    #: the emulator's virtual-time latencies are not scaled.
    wall_latencies = False

    def __init__(self, seed: int) -> None:
        import paper_workload
        self.mod = paper_workload
        self.seed = seed

    def setup_once(self) -> float:
        start = hostspeed.clock()
        self.mod.setup(self.seed, 0)
        return hostspeed.clock() - start

    def round(self, sub: int, tracer=None) -> Round:
        r = self.mod.run_round(self.seed, sub)
        return Round(
            setup_s=r.setup_s, measured_s=r.gtm_run_s + r.twopl_run_s,
            oracle_s=r.oracle_s,
            committed=r.gtm_committed + r.twopl_committed,
            attempted=2 * self.mod.N_TRANSACTIONS,
            aborted=r.gtm_aborted, errors=0,
            ratio_base=self.mod.N_TRANSACTIONS,
            latencies=array("d", r.latencies),
            counts=r.counts, digest=r.digest,
            extra={"gtm_run_s": r.gtm_run_s,
                   "twopl_run_s": r.twopl_run_s})


def make_bench(workload: str, seed: int):
    if workload == "paper-fig3":
        return PaperBench(seed)
    return ServiceBench(workload, seed)


def scale_of(samples: list[float], kernel_means: list[float]) -> float:
    """Reference seconds per wall second, from a stretch's kernel
    samples; a stretch too short to hold one takes the last mean."""
    if samples:
        kernel_means.append(statistics.fmean(samples))
    elif not kernel_means:
        kernel_means.append(hostspeed.calibrate())
    return (REFERENCE_KERNEL_S / kernel_means[-1]) ** KERNEL_ELASTICITY


def measure(bench, seconds: float, references: dict[int, tuple],
            kernel_means: list[float], tracer=None) -> list[Round]:
    """Whole cycles of rounds until ``seconds`` of measured wall time.

    Round ``i`` plays sub-workload ``i % bench.cycle``, so a run
    averages over several independent inputs of its seed, each the
    same number of times.  A sub-workload's first round files its
    outcome counts and digest in ``references``; every later round of
    it must reproduce them.  Untraced rounds add standalone set-ups
    (see SETUP_SECONDS_PER_ROUND).  The host speed is sampled during
    every round, and the round's mean kernel time is appended to
    ``kernel_means``.
    """
    rounds: list[Round] = []
    measured = 0.0
    while measured < seconds or len(rounds) % bench.cycle:
        gc.collect()
        sub = len(rounds) % bench.cycle
        hostspeed.take()
        with hostspeed.sampling():
            r = bench.round(sub, tracer)
            if tracer is None:
                timed = r.setup_s if rounds else 0.0
                while timed + sum(r.extra_setups) < SETUP_SECONDS_PER_ROUND:
                    r.extra_setups.append(bench.setup_once())
        r.scale = scale_of(hostspeed.take(), kernel_means)
        reference = references.setdefault(sub, (r.counts, r.digest))
        if (r.counts, r.digest) != reference:
            raise CheckFailed(
                f"sub-workload {sub} did not repeat: {r.counts} "
                f"{r.digest} vs {reference}")
        rounds.append(r)
        measured += r.measured_s
    return rounds


def reference_s(rounds: list[Round]) -> float:
    """Measured time of ``rounds`` in reference seconds."""
    return sum(r.measured_s * r.scale for r in rounds)


def quantile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank quantile of an ascending list."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def rule_of_succession(hits: int, trials: int) -> float:
    """(k + 1) / (n + 2): a share that reads small, never 0."""
    return (hits + 1) / (trials + 2)


def end_to_end(rounds: list[Round], bench, setups: list[float],
               peak_kib: int) -> dict:
    # The first cycle holds every sub-workload once, and its counts
    # repeat exactly, so the shares are exact for the seed.
    first = rounds[:bench.cycle]
    aborted = sum(r.aborted for r in first)
    errors = sum(r.errors for r in first)
    base = sum(r.ratio_base for r in first)
    latencies = sorted(x * (r.scale if bench.wall_latencies else 1.0)
                       for r in rounds for x in r.latencies)
    committed = sum(r.committed for r in rounds)
    return {
        "goodput_txn_s": (committed / reference_s(rounds), "1/s"),
        "commit_p50_ms": (quantile(latencies, 0.50) * 1e3, "ms"),
        "commit_p99_ms": (quantile(latencies, 0.99) * 1e3, "ms"),
        "abort_ratio": (rule_of_succession(aborted, base), "ratio"),
        "error_ratio": (rule_of_succession(errors, base), "ratio"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_kib / 1024.0, "MB"),
    }


def per_layer(tracer, untraced: list[Round], traced: list[Round]) -> dict:
    from tracing import GTM_VERBS
    n = len(traced)
    calls, counts = tracer.calls, tracer.counts
    # The spans cover the traced rounds, so their times take those
    # rounds' mean scale, weighted by measured time.
    traced_scale = reference_s(traced) / sum(r.measured_s for r in traced)
    self_s = {name: value * traced_scale
              for name, value in tracer.self_s.items()}
    self_s = defaultdict(float, self_s)

    def per_round(value: float) -> float:
        return value / n

    def share(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    waits = sorted(w * traced_scale for w in tracer.loop_waits)
    committed = sum(r.committed for r in traced)

    def goodput(rounds: list[Round]) -> float:
        return sum(r.committed for r in rounds) / reference_s(rounds)

    metrics = {
        "deadlock.search.calls": per_round(calls["deadlock.search"]),
        "deadlock.search.self_s": per_round(self_s["deadlock.search"]),
        "deadlock.cycles_per_search": share(counts["deadlock.cycles"],
                                            calls["deadlock.search"]),
        "admission.self_s": per_round(self_s["admission"]),
        "admission.repolice.calls": per_round(
            calls["admission.repolice"]),
        "admission.repolice.self_s": per_round(
            self_s["admission.repolice"]),
        "session.purge.calls": per_round(calls["session.purge"]),
        "session.purge.self_s": per_round(self_s["session.purge"]),
        "session.resume_retries": per_round(sum(
            r.extra.get("resume_retries", 0) for r in traced)),
        "protocol.calls": per_round(calls["protocol"]),
        "protocol.self_s": per_round(self_s["protocol"]),
        "protocol.bytes_per_commit": share(counts["protocol.bytes"],
                                           committed),
        "service.frames": per_round(counts["service.frames"]),
        "service.self_s": per_round(self_s["service"]),
        "service.loop_wait_p99_ms": (quantile(waits, 0.99) * 1e3
                                     if waits else 0.0),
    }
    for verb in GTM_VERBS:
        metrics[f"gtm.{verb}.calls"] = per_round(calls[f"gtm.{verb}"])
        metrics[f"gtm.{verb}.self_s"] = per_round(self_s[f"gtm.{verb}"])
    metrics.update({
        "gtm.invoke.queued_ratio": share(counts["gtm.invoke.queued"],
                                         calls["gtm.invoke"]),
        "commit.self_s": per_round(self_s["commit"]),
        "commit.reconcile.calls": per_round(counts["commit.reconcile"]),
        "commit.deferred": per_round(counts["commit.deferred"]),
        "sleep.calls": per_round(counts["sleep.sleeps"]),
        "sleep.self_s": per_round(self_s["sleep"]),
        "sleep.awake_conflict_ratio": share(
            counts["sleep.awake_conflicts"],
            counts["sleep.revalidations"]),
        "sst.calls": per_round(calls["sst"]),
        "sst.self_s": per_round(self_s["sst"]),
        "sst.retries": per_round(counts["sst.retries"]),
        "client.self_s": per_round(self_s["client"]),
        "sim.gtm_run_s": statistics.median(
            r.extra.get("gtm_run_s", 0.0) * r.scale for r in untraced),
        "sim.twopl_run_s": statistics.median(
            r.extra.get("twopl_run_s", 0.0) * r.scale for r in untraced),
        "locks.acquire.calls": per_round(calls["locks.acquire"]),
        "locks.acquire.self_s": per_round(self_s["locks.acquire"]),
        "oracle_s": statistics.median(r.oracle_s * r.scale
                                      for r in untraced),
        "trace.overhead_ratio": goodput(untraced) / goodput(traced) - 1.0,
    })
    return metrics


#: unit of each per-layer metric, by name suffix.
def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio") or name.endswith("_per_search"):
        return "ratio"
    if name.endswith("bytes_per_commit"):
        return "B/commit"
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("svc-hot", "svc-commute", "paper-fig3"))
    parser.add_argument("--seed", type=int, default=2008)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure under {src}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    wall_start = time.perf_counter()
    env = {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "reference_kernel_s": REFERENCE_KERNEL_S,
        "kernel_s_before": hostspeed.calibrate(),
    }
    kernel_means: list[float] = []
    bench = make_bench(args.workload, args.seed)
    correct = True
    problem = None
    rounds: list[Round] = []
    traced: list[Round] = []
    tracer = None
    references: dict[int, tuple] = {}
    try:
        if args.trace:
            from tracing import Tracer, installed
            rounds = measure(bench, args.seconds / 2, references,
                             kernel_means)
            tracer = Tracer()
            with installed(tracer):
                traced = measure(bench, args.seconds / 2, references,
                                 kernel_means, tracer)
        else:
            rounds = measure(bench, args.seconds, references, kernel_means)
        # Read before the metrics' own lists are built.
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    except Exception as exc:  # any failure, not only a check, fails the run
        traceback.print_exc()
        correct = False
        problem = f"{type(exc).__name__}: {exc}"

    all_rounds = rounds + traced
    details = {
        "workload": args.workload, "seed": args.seed, "env": env,
        "rounds": len(rounds), "traced_rounds": len(traced),
        "round_measured_s": [r.measured_s for r in all_rounds],
        "round_scale": [r.scale for r in all_rounds],
        "kernel_mean_s": kernel_means,
        "counts_per_sub_workload": {
            sub: counts for sub, (counts, _) in references.items()},
        "digests": {sub: digest
                    for sub, (_, digest) in references.items()},
        "problem": problem,
    }
    metrics: dict[str, dict] = {}
    if correct:
        if args.trace:
            spans_path = (HERE / "out" /
                          f"spans-{args.workload}-seed{args.seed}.tsv.gz")
            details["spans"] = tracer.write(str(spans_path))
            details["spans_file"] = str(spans_path.relative_to(ROOT))
            for name, value in per_layer(tracer, rounds, traced).items():
                metrics[name] = {"value": value, "unit": layer_unit(name)}
        else:
            latencies = sum(len(r.latencies) for r in rounds)
            details["commit_samples"] = latencies
            details["samples_beyond_p99"] = latencies - math.ceil(
                0.99 * latencies)
            details["wall_goodput_txn_s"] = (
                sum(r.committed for r in rounds)
                / sum(r.measured_s for r in rounds))
            setups = ([r.setup_s * r.scale for r in rounds[1:]]
                      + [wall * r.scale for r in rounds
                         for wall in r.extra_setups])
            details["setup_samples"] = len(setups)
            for name, (value, unit) in end_to_end(
                    rounds, bench, setups, peak_kib).items():
                metrics[name] = {"value": value, "unit": unit}
    details["process_cpu_s"] = time.process_time()
    details["wall_s"] = time.perf_counter() - wall_start
    print(json.dumps(details, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, sum(r.attempted for r in all_rounds)),
        "failed": sum(r.errors for r in all_rounds),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
