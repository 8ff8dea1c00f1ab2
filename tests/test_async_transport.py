"""Tests for the asyncio transport backend: the same programs that run
on the simulator run as real concurrent tasks, with bounded-queue
backpressure and graceful drain."""

import pytest

from repro.sim import OverlogProcess, Process
from repro.transport import AsyncCluster, Envelope, LocalAsyncTransport

ECHO_PROGRAM = """
program echo;
event(ping, 2);
event(pong, 2);
pong(@From, N) :- ping(From, N);
"""

COUNTER_PROGRAM = """
program counter;
event(pong, 2);
define(received, keys(0), {Int});
received(N) :- pong(_, N);
"""

# Compress virtual time: programs keep their simulator-scale timings.
SCALE = 20.0


@pytest.fixture
def cluster():
    c = AsyncCluster(time_scale=SCALE)
    yield c
    c.shutdown()


class TestAsyncEcho:
    def test_request_response_between_tasks(self, cluster):
        server = cluster.add(OverlogProcess("server", ECHO_PROGRAM))
        client = cluster.add(OverlogProcess("client", COUNTER_PROGRAM))
        server.inject("ping", ("client", 42))
        ok = cluster.run_until(
            lambda: client.runtime.rows("received") == [(42,)],
            max_time_ms=5000,
        )
        assert ok
        stats = cluster.transport.stats
        assert stats.envelopes_sent == stats.envelopes_delivered == 1
        assert stats.sent == stats.delivered == 1

    def test_request_response_over_tcp(self):
        with AsyncCluster(time_scale=SCALE, tcp=True) as cluster:
            server = cluster.add(OverlogProcess("server", ECHO_PROGRAM))
            client = cluster.add(OverlogProcess("client", COUNTER_PROGRAM))
            for i in range(5):
                server.inject("ping", ("client", i))
            ok = cluster.run_until(
                lambda: len(client.runtime.rows("received")) == 5,
                max_time_ms=5000,
            )
            assert ok
            assert sorted(client.runtime.rows("received")) == [
                (i,) for i in range(5)
            ]

    def test_timer_driven_program(self, cluster):
        node = cluster.add(
            OverlogProcess(
                "n1",
                """
                program beats;
                timer(t, 100);
                define(fired, keys(0), {Int, Int});
                fired(N, T) :- t(N, T);
                """,
            )
        )
        cluster.run_for(550)
        # Real time: allow scheduler slop around the 5-tick mark.
        assert 3 <= len(node.runtime.rows("fired")) <= 7

    def test_crash_and_restart(self, cluster):
        node = cluster.add(
            OverlogProcess(
                "n1",
                """
                program kv;
                define(store, keys(0), {Str, Int});
                event(put, 2);
                store(K, V) :- put(K, V);
                """,
            )
        )
        node.inject("put", ("a", 1))
        cluster.run_until(
            lambda: node.runtime.rows("store") == [("a", 1)], max_time_ms=2000
        )
        cluster.crash("n1")
        cluster.restart("n1")
        cluster.run_for(50)
        assert node.runtime.rows("store") == []

    def test_messages_to_crashed_node_dropped(self, cluster):
        server = cluster.add(OverlogProcess("server", ECHO_PROGRAM))
        cluster.add(OverlogProcess("client", COUNTER_PROGRAM))
        cluster.crash("client")
        server.inject("ping", ("client", 7))
        cluster.run_for(100)
        assert cluster.transport.stats.dropped_dead >= 1

    def test_partition_blocks_then_heal_restores(self, cluster):
        server = cluster.add(OverlogProcess("server", ECHO_PROGRAM))
        client = cluster.add(OverlogProcess("client", COUNTER_PROGRAM))
        cluster.partition(["server"], ["client"])
        server.inject("ping", ("client", 1))
        cluster.run_for(100)
        assert client.runtime.rows("received") == []
        assert cluster.transport.stats.dropped_partition >= 1
        cluster.heal()
        server.inject("ping", ("client", 2))
        ok = cluster.run_until(
            lambda: client.runtime.rows("received") == [(2,)],
            max_time_ms=5000,
        )
        assert ok


class _SlowSink(Process):
    def __init__(self, address):
        super().__init__(address)
        self.rows = []

    def handle_message(self, relation, row):
        self.rows.append(row)


class TestBackpressure:
    def test_bounded_queue_blocks_sender_never_drops(self):
        # Acceptance: a fast producer into a slow consumer with a tiny
        # bounded queue stalls (visible in the metrics registry) but
        # every delta still arrives exactly once.
        cluster = AsyncCluster(time_scale=SCALE)
        sink = _SlowSink("sink")
        cluster.processes[sink.address] = sink
        sink.attach(cluster)
        cluster.transport.register(
            sink.address,
            lambda env: cluster._deliver_envelope(sink, env),
            queue_size=2,
            min_dispatch_interval_ms=20,  # ~1ms real per delivery
        )
        producer = cluster.add(_SlowSink("producer"))
        total = 60
        # Sends outside a sending() scope flush one envelope each, so the
        # producer outruns the two-slot queue.
        for i in range(total):
            producer.send("sink", "x", (i,))
        ok = cluster.run_until(
            lambda: len(sink.rows) == total, max_time_ms=60_000
        )
        stats = cluster.transport.stats
        assert ok, f"only {len(sink.rows)}/{total} delivered"
        assert sink.rows == [(i,) for i in range(total)]  # FIFO, no loss
        assert stats.delivered == total
        assert stats.deltas_dropped == 0
        assert stats.backpressure_stalls > 0
        # The stall is observable through the cluster metrics registry.
        counters = cluster.metrics_snapshot()["nodes"]["transport"][
            "counters"
        ]
        assert counters["transport.backpressure_stalls"] > 0
        assert counters["transport.stalled_link.producer->sink"] > 0
        cluster.shutdown()


class TestDrain:
    def test_drain_flushes_in_flight_envelopes(self):
        cluster = AsyncCluster(time_scale=SCALE)
        sink = cluster.add(_SlowSink("sink"))
        producer = cluster.add(_SlowSink("producer"))
        with producer.sending():
            for i in range(200):
                producer.send("sink", "x", (i,))
        assert cluster.drain(timeout_ms=10_000)
        assert cluster.transport.in_flight == 0
        assert len(sink.rows) == 200
        cluster.shutdown()

    def test_shutdown_is_idempotent(self):
        cluster = AsyncCluster(time_scale=SCALE)
        cluster.add(_SlowSink("a"))
        cluster.shutdown()
        cluster.shutdown()


class TestAsyncTransportUnit:
    def test_batched_envelope_counts(self):
        cluster = AsyncCluster(time_scale=SCALE)
        sink = cluster.add(_SlowSink("sink"))
        transport: LocalAsyncTransport = cluster.transport
        transport.send(
            Envelope.make("ad-hoc", "sink", [("x", (i,)) for i in range(8)])
        )
        ok = cluster.run_until(lambda: len(sink.rows) == 8, max_time_ms=5000)
        assert ok
        assert transport.stats.envelopes_sent == 1
        assert transport.stats.sent == 8
        cluster.shutdown()

    def test_clock_advances_scaled(self):
        cluster = AsyncCluster(time_scale=100.0)
        t0 = cluster.now
        cluster.run_for(500)  # 5ms real
        assert cluster.now - t0 >= 400
        cluster.shutdown()
