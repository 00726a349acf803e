"""End-to-end tests over real asyncio transports.

Everything the session tests prove under the simulator is proven here
under the wall-clock driver: full client conversations over both the
in-memory duplex pair and real TCP sockets, drop ⇒ ⟨sleep⟩ ⇒ reconnect
⇒ ⟨awake⟩, backpressure-by-disconnection, graceful shutdown, and a
small in-process load campaign validated by the serializability
oracle.  (No pytest-asyncio here: each test drives its own loop via
``asyncio.run``.)
"""

import asyncio
import json

import pytest

from repro.errors import GTMError, TokenInUse, WireFormatError
from repro.driver.asyncio_driver import AsyncioDriver
from repro.service import GTMService, ServiceConfig
from repro.service.client import ConnectionLost, ServiceClient
from repro.obs.registry import Histogram
from repro.service.load import (
    LATENCY_MS_BUCKETS,
    LoadConfig,
    latency_summary,
    main as load_main,
    run_curve,
    run_load,
)
from repro.service.server import (
    MemoryWriter,
    ServiceServer,
    _Connection,
    memory_connector,
    memory_pair,
    tcp_connector,
)


def run(coro):
    return asyncio.run(coro)


def make_server(**config) -> tuple[GTMService, ServiceServer]:
    service = GTMService(AsyncioDriver(), config=ServiceConfig(**config))
    return service, ServiceServer(service)


async def settle() -> None:
    """Yield a few times so server-side tasks observe stream events."""
    for _ in range(10):
        await asyncio.sleep(0)


class TestMemoryTransport:
    def test_full_conversation(self):
        async def check():
            service, server = make_server()
            service.create_object("x", value=10)
            client = ServiceClient(*server.connect_memory())
            welcome = await client.hello()
            assert welcome["type"] == "welcome"
            txn = await client.begin()
            reply = await client.op(txn, "add", "x", 5)
            assert reply["type"] == "granted"
            assert reply["value"] == 15
            reply = await client.commit(txn)
            assert reply["type"] == "committed"
            assert (await client.ping())["type"] == "pong"
            await client.bye()
            await server.shutdown()
            assert service.gtm.object("x").permanent_value() == 15
        run(check())

    def test_two_clients_conflict_queues_then_grants(self):
        async def check():
            service, server = make_server()
            service.create_object("x", value=0)
            a = ServiceClient(*server.connect_memory())
            b = ServiceClient(*server.connect_memory())
            await a.hello()
            await b.hello()
            txn_a = await a.begin()
            txn_b = await b.begin()
            assert (await a.op(txn_a, "assign", "x", 1))["type"] == \
                "granted"
            # b's conflicting assign parks; a's commit releases it and
            # the late grant push resolves b's op() await.
            op_b = asyncio.ensure_future(b.op(txn_b, "assign", "x", 2))
            await settle()
            assert not op_b.done()
            assert (await a.commit(txn_a))["type"] == "committed"
            granted = await asyncio.wait_for(op_b, timeout=5.0)
            assert granted["type"] == "granted"
            assert (await b.commit(txn_b))["type"] == "committed"
            await a.bye()
            await b.bye()
            await server.shutdown()
            assert service.gtm.object("x").permanent_value() == 2
        run(check())

    def test_transaction_without_operations_commits(self):
        """Regression (program/empty-commit): committing a transaction
        with no ops answered ``gtm/protocol`` — also when the drop came
        before its first op and it survived the ⟨awake⟩."""
        async def check():
            service, server = make_server()
            service.create_object("x", value=1)
            client = ServiceClient(*server.connect_memory())
            await client.hello()
            txn = await client.begin()
            assert (await client.commit(txn))["type"] == "committed"

            txn = await client.begin()
            client.drop()
            await settle()
            resumed = ServiceClient(*server.connect_memory())
            welcome = await resumed.hello(client.token)
            assert welcome["awake"] == [{"txn": txn, "survived": True}]
            resumed.adopt(txn)
            assert (await resumed.commit(txn))["type"] == "committed"
            await resumed.bye()
            await server.shutdown()
            assert len(service.gtm.history.commit_order) == 2
        run(check())

    def test_wire_errors_cross_as_taxonomy(self):
        async def check():
            service, server = make_server()
            client = ServiceClient(*server.connect_memory())
            await client.hello()
            txn = await client.begin()
            with pytest.raises(WireFormatError):
                await client.request({"type": "op", "txn": txn,
                                      "op": "increment"})
            with pytest.raises(GTMError):
                await client.request({"type": "commit",
                                      "txn": "not-mine"})
            await client.abort(txn)
            await client.bye()
            await server.shutdown()
        run(check())


class TestTCPTransport:
    def test_full_conversation_over_sockets(self):
        async def check():
            service, server = make_server()
            service.create_object("x", value=1)
            host, port = await server.start_tcp()
            connector = tcp_connector(host, port)
            client = ServiceClient(*await connector())
            await client.hello()
            txn = await client.begin()
            assert (await client.op(txn, "mul", "x", 3))["value"] == 3
            assert (await client.commit(txn))["type"] == "committed"
            await client.bye()
            await server.shutdown()
            assert service.gtm.object("x").permanent_value() == 3
        run(check())

    def test_drop_sleep_reconnect_awake_commit(self):
        async def check():
            service, server = make_server(bto_timeout=30.0)
            service.create_object("x", value=0)
            host, port = await server.start_tcp()
            connector = tcp_connector(host, port)
            client = ServiceClient(*await connector())
            await client.hello()
            token = client.token
            txn = await client.begin()
            await client.op(txn, "add", "x", 7)
            client.drop()
            await settle()

            resumed = ServiceClient(*await connector())
            welcome = await resumed.hello(token)
            assert welcome["resumed"] is True
            assert welcome["awake"] == [{"txn": txn, "survived": True}]
            resumed.adopt(txn)
            assert (await resumed.commit(txn))["type"] == "committed"
            await resumed.bye()
            await server.shutdown()
            assert service.gtm.object("x").permanent_value() == 7
        run(check())

    def test_double_connect_rejected(self):
        async def check():
            service, server = make_server()
            host, port = await server.start_tcp()
            connector = tcp_connector(host, port)
            first = ServiceClient(*await connector())
            await first.hello()
            second = ServiceClient(*await connector())
            with pytest.raises(TokenInUse):
                await second.hello(first.token)
            # the holder is unaffected
            assert (await first.ping())["type"] == "pong"
            await second.close()
            await first.bye()
            await server.shutdown()
        run(check())


class TestBackpressure:
    def test_outbox_overflow_forces_detach(self):
        async def check():
            service, server = make_server(max_outbox=2)
            reader, _ = memory_pair()[0]
            conn = _Connection(server, reader,
                               MemoryWriter(asyncio.StreamReader()))
            # no writer task draining: the third frame overflows
            for _ in range(3):
                conn.sink({"type": "pong"})
            assert conn._overflowed
            assert conn._closing
            assert service.metrics.counter(
                "service_outbox_overflows").value() == 1.0
            # overflow is terminal for the sink: further frames drop
            conn.sink({"type": "pong"})
            assert conn.outbox.qsize() == 2
        run(check())

    def test_overflowed_connection_sleeps_its_session(self):
        async def check():
            service, server = make_server(max_outbox=1)
            client_side, server_side = memory_pair()
            serve = asyncio.ensure_future(
                server._on_connection(*server_side))
            reader, writer = client_side
            from repro.service.protocol import encode_frame
            writer.write(encode_frame({"type": "hello", "id": 1}))
            await reader.readline()  # welcome
            # a burst the 1-frame outbox cannot absorb while the
            # writer task is parked behind an unread stream
            for fid in range(2, 8):
                writer.write(encode_frame({"type": "ping", "id": fid}))
            await asyncio.wait_for(serve, timeout=5.0)
            (session,) = service.sessions.values()
            assert not session.connected
            await server.shutdown()
        run(check())


class TestGracefulShutdown:
    def test_clients_get_shutdown_push_and_streams_close(self):
        async def check():
            service, server = make_server()
            host, port = await server.start_tcp()
            client = ServiceClient(*await tcp_connector(host, port)())
            await client.hello()
            txn = await client.begin()
            await server.shutdown()
            await settle()
            assert client.shutdown_seen
            # unfinished work was aborted server-side
            assert service.gtm.transaction(txn).state.terminal
            # and the listening socket is gone
            with pytest.raises((ConnectionError, OSError)):
                await tcp_connector(host, port)()
            await client.close()
        run(check())

    def test_hello_rejected_while_shutting_down(self):
        async def check():
            service, server = make_server()
            service.shutdown()
            client = ServiceClient(*server.connect_memory())
            with pytest.raises(GTMError, match="shutting down"):
                await client.hello()
            await client.close()
            await server.shutdown()
        run(check())


class TestInProcessLoad:
    def test_small_campaign_is_oracle_clean(self):
        cfg = LoadConfig(sessions=24, transactions=3, ops_per_txn=3,
                         objects=16, drop_prob=0.25,
                         reconnect_delay=0.001, seed=7)
        report = run(run_load(cfg))
        finished = report["committed"] + report["aborted"]
        assert finished == cfg.sessions * cfg.transactions
        assert report["committed"] > 0
        assert report["oracle"]["serializable"] is True

    def test_transactions_never_repeat_an_object(self):
        """Each transaction draws distinct objects, so no invoke hits
        ``ProtocolError: already granted`` (a repeat on an object the
        transaction already holds)."""
        cfg = LoadConfig(sessions=24, transactions=6, ops_per_txn=4,
                         objects=12, drop_prob=0.0, seed=7)
        report = run(run_load(cfg))
        errors = report["metrics"].get("load_errors", {"series": {}})
        assert "gtm/protocol:invoke" not in errors["series"]
        assert report["committed"] > 0

    def test_token_in_use_is_retried_not_abandoned(self):
        """With no reconnect delay the resume races the server's EOF
        handling and meets ``TokenInUse``; the harness retries it, so
        sleeping transactions are awakened and no live token is
        traded for a fresh identity."""
        cfg = LoadConfig(sessions=24, transactions=4, ops_per_txn=3,
                         objects=16, drop_prob=0.3, reconnect_delay=0.0,
                         seed=7)
        report = run(run_load(cfg))
        counters = {name: snap["series"].get("", 0.0)
                    for name, snap in report["metrics"].items()
                    if snap["kind"] == "counter"}
        assert counters["load_drops"] > 0
        assert counters["load_awakes"] > 0
        assert counters.get("load_fresh_identities", 0.0) == 0.0
        assert report["oracle"]["serializable"] is True

    def test_connection_lost_poisons_outstanding_requests(self):
        async def check():
            service, server = make_server()
            client = ServiceClient(*server.connect_memory())
            await client.hello()
            txn = await client.begin()
            request = asyncio.ensure_future(client.op(txn, "read", "x"))
            client.drop()
            with pytest.raises(ConnectionLost):
                await asyncio.wait_for(request, timeout=5.0)
            await settle()
            await server.shutdown()
        run(check())

    def test_memory_connector_matches_direct_connect(self):
        async def check():
            service, server = make_server()
            connector = memory_connector(server)
            client = ServiceClient(*await connector())
            assert (await client.hello())["type"] == "welcome"
            await client.bye()
            await server.shutdown()
        run(check())

    def test_report_counts_latency_overflow(self):
        cfg = LoadConfig(sessions=8, transactions=2, ops_per_txn=2,
                         objects=8, drop_prob=0.0, seed=7)
        report = run(run_load(cfg))
        assert report["latency_ms"]["overflow"] == 0


class TestLatencyHistogram:
    @staticmethod
    def histogram(samples):
        latency = Histogram("load_commit_latency_ms", LATENCY_MS_BUCKETS)
        for sample in samples:
            latency.observe(sample)
        return latency

    def test_tail_beyond_five_seconds_is_resolved(self):
        """Commits slower than 5 s land in real buckets, so p95 and p99
        are estimates below the maximum, not the maximum itself."""
        latency = self.histogram(6_000.0 * 1.03 ** i for i in range(100))
        summary = latency_summary(latency)
        assert summary["overflow"] == 0
        assert summary["p95"] < latency.max
        assert summary["p99"] < latency.max
        assert 5_000.0 < summary["p50"] < summary["p95"]

    def test_buckets_reach_bto_scale(self):
        assert LATENCY_MS_BUCKETS[-1] >= 600_000.0
        assert list(LATENCY_MS_BUCKETS) == sorted(set(LATENCY_MS_BUCKETS))

    def test_overflow_is_counted(self):
        latency = self.histogram([10.0, 900_000.0])
        summary = latency_summary(latency)
        assert summary["overflow"] == 1
        assert summary["p99"] == latency.max


class TestSessionsCurve:
    def test_curve_reports_spread_per_point(self):
        cfg = LoadConfig(sessions=1, transactions=2, ops_per_txn=2,
                         objects=8, drop_prob=0.0, seed=7)
        curve = run(run_curve(cfg, [4, 6], repeats=3))
        assert curve["config"]["sessions"] == [4, 6]
        assert curve["config"]["repeats"] == 3
        assert curve["cpu_count"]
        assert [point["sessions"] for point in curve["points"]] == [4, 6]
        for point in curve["points"]:
            assert len(point["runs"]) == 3
            assert all(run["sessions"] == point["sessions"]
                       for run in point["runs"])
            spread = point["txn_per_s"]
            assert spread["q1"] <= spread["median"] <= spread["q3"]
            assert point["commit_p99_ms"]["median"] > 0

    def test_cli_takes_a_sessions_list(self, tmp_path, capsys):
        out = tmp_path / "curve.json"
        assert load_main(["--sessions", "3,5", "--transactions", "2",
                          "--ops-per-txn", "2", "--objects", "8",
                          "--drop-prob", "0", "--seed", "7",
                          "--out", str(out)]) == 0
        curve = json.loads(out.read_text())
        assert [point["sessions"] for point in curve["points"]] == [3, 5]
        assert "sessions=5 " in capsys.readouterr().out

    def test_cli_rejects_a_malformed_list(self, capsys):
        with pytest.raises(SystemExit):
            load_main(["--sessions", "128,,512"])
        with pytest.raises(SystemExit):
            load_main(["--sessions", "0"])
        with pytest.raises(SystemExit):
            load_main(["--repeats", "0"])
