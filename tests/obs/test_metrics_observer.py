"""MetricsObserver: deferred materialization and bus-driven counts."""

from types import SimpleNamespace

import pytest

from repro.check.fuzzer import FuzzConfig, generate_episode
from repro.check.runner import run_campaign, run_episode
from repro.core.admission import LockTable
from repro.core.gtm import GlobalTransactionManager, GTMConfig
from repro.core.opclass import add, assign, multiply
from repro.federation import build_transaction_manager
from repro.metrics.collectors import MetricsCollector, TimelineObserver
from repro.obs.observers import MetricsObserver
from repro.obs.registry import MetricsRegistry


def txn(txn_id="T"):
    return SimpleNamespace(txn_id=txn_id)


class TestDeferredMaterialization:
    def test_counts_absent_until_finalize(self):
        registry = MetricsRegistry()
        observer = MetricsObserver(registry)
        observer.on_begin(txn("A"), 0.0)
        observer.on_global_commit(txn("A"), 2.0)
        assert registry.snapshot() == {}
        observer.finalize(MetricsCollector())
        snap = registry.snapshot()
        assert snap["gtm_txn_begins"]["series"] == {"": 1.0}
        assert snap["gtm_commits"]["series"] == {"": 1.0}

    def test_zero_valued_instruments_skipped(self):
        registry = MetricsRegistry()
        observer = MetricsObserver(registry)
        observer.on_begin(txn("A"), 0.0)
        observer.finalize(MetricsCollector())
        # no grants/waits/aborts happened -> those names never register
        # (absent and zero merge identically downstream)
        assert list(registry.snapshot()) == ["gtm_txn_begins"]

    def test_finalize_is_idempotent(self):
        registry = MetricsRegistry()
        observer = MetricsObserver(registry)
        observer.on_begin(txn("A"), 0.0)
        observer.finalize(MetricsCollector())
        observer.finalize(MetricsCollector())
        assert registry.counter("gtm_txn_begins").total() == 1.0

    def test_labelled_series(self):
        registry = MetricsRegistry()
        observer = MetricsObserver(registry)
        observer.on_global_abort(txn("A"), 1.0, "deadlock-victim")
        observer.on_global_abort(txn("B"), 2.0, "deadlock-victim")
        observer.on_awake(txn("C"), 3.0, True)
        observer.on_awake(txn("D"), 4.0, False)
        observer.on_revalidate(txn("E"), None, True, 5.0)
        observer.finalize(MetricsCollector())
        snap = registry.snapshot()
        assert snap["gtm_aborts"]["series"] == {"deadlock-victim": 2.0}
        assert snap["gtm_awakes"]["series"] == {"sleep-conflict": 1.0,
                                                "survived": 1.0}
        assert snap["gtm_revalidations"]["series"] == {"conflicted": 1.0}


class TestLockTableSnapshot:
    def test_flat_table_reports_one_shard(self):
        registry = MetricsRegistry()
        observer = MetricsObserver(registry)
        table = LockTable()
        table.register(SimpleNamespace(name="X"))
        table.register(SimpleNamespace(name="Y"))
        observer.snapshot_lock_table(table)
        assert registry.gauge("gtm_lock_shard_occupancy") \
            .value("shard0") == 2.0

    def test_sharded_table_reports_per_shard(self):
        registry = MetricsRegistry()
        observer = MetricsObserver(registry)
        manager = build_transaction_manager(GTMConfig(gtm_shards=4))
        for name in ("A", "B", "C", "D", "E"):
            manager.create_object(name, value=0)
        observer.snapshot_lock_table(manager.lock_table)
        gauge = registry.gauge("gtm_lock_shard_occupancy")
        total = sum(gauge.value(f"shard{i}") for i in range(4))
        assert total == 5.0


class TestBusDrivenMetrics:
    def test_reconcile_rules_labelled_by_op_class(self):
        gtm = GlobalTransactionManager()
        registry = MetricsRegistry()
        observer = gtm.subscribe(MetricsObserver(registry))
        gtm.create_object("X", value=10)
        gtm.create_object("Y", value=10)
        gtm.begin("T1")
        gtm.invoke("T1", "X", add(5))
        gtm.apply("T1", "X", add(5))
        gtm.begin("T2")
        gtm.invoke("T2", "Y", multiply(2))
        gtm.apply("T2", "Y", multiply(2))
        for txn_id in ("T1", "T2"):
            gtm.request_commit(txn_id)
        gtm.pump_commits()
        observer.finalize(MetricsCollector())
        snap = registry.snapshot()
        assert snap["gtm_reconciliations"]["series"] == {"eq1": 1.0,
                                                         "eq2": 1.0}
        assert snap["gtm_commits"]["series"] == {"": 2.0}

    def test_contended_run_counts_waits_and_pumps(self):
        gtm = GlobalTransactionManager()
        registry = MetricsRegistry()
        collector = MetricsCollector()
        gtm.subscribe(TimelineObserver(collector))
        observer = gtm.subscribe(MetricsObserver(registry))
        gtm.create_object("X", value=10)
        gtm.begin("T1")
        assert gtm.invoke("T1", "X", assign(1)) == "granted"
        gtm.begin("T2")
        assert gtm.invoke("T2", "X", assign(2)) == "queued"
        gtm.apply("T1", "X", assign(1))
        gtm.request_commit("T1")
        gtm.pump_commits()
        collector.finalize(gtm.now())
        observer.finalize(collector)
        snap = registry.snapshot()
        assert snap["gtm_waits"]["series"] == {"": 1.0}
        assert snap["gtm_grants"]["series"][""] >= 2.0
        assert snap["gtm_pump_passes"]["series"][""] >= 1.0
        assert snap["gtm_wait_seconds"]["count"] == 1


class TestIntervalHistograms:
    def test_histograms_match_collector_intervals(self):
        """gtm_wait_seconds / gtm_sleep_seconds are folded from the
        timelines' closed intervals: across an observed campaign their
        count and sum equal the intervals the collectors recorded."""
        config = FuzzConfig(scheduler="gtm", max_objects=2, max_txns=12)
        episodes = 30
        report = run_campaign(config, seed=2008, episodes=episodes,
                              observe=True)
        expected = {"wait": [], "sleep": []}
        for index in range(episodes):
            outcome = run_episode(generate_episode(config, 2008, index))
            for timeline in outcome.result.collector.timelines.values():
                for kind, start, end in timeline.intervals:
                    expected[kind].append(end - start)
        metrics = report.metrics.metrics
        for kind, durations in expected.items():
            assert durations, f"campaign recorded no {kind} intervals"
            histogram = metrics[f"gtm_{kind}_seconds"]
            assert histogram["count"] == len(durations)
            assert histogram["sum"] == pytest.approx(sum(durations),
                                                     rel=1e-12)
            assert histogram["min"] == min(durations)
            assert histogram["max"] == max(durations)
