"""Unit tests for the transport contract: envelopes, outbox batching,
wire codec, and envelope-level accounting shared by every backend."""

import pytest

from repro.transport import (
    Envelope,
    LatencyModel,
    Outbox,
    SimTransport,
    TransportStats,
    estimate_delta_size,
    estimate_row_size,
)
from repro.sim import Cluster, OverlogProcess, Simulator


class TestEnvelope:
    def test_make_computes_size(self):
        env = Envelope.make("a", "b", [("rel", (1, "xy"))])
        assert env.size_bytes == 16 + estimate_delta_size("rel", (1, "xy"))
        assert len(env) == 1

    def test_mids_must_parallel_deltas(self):
        with pytest.raises(ValueError):
            Envelope.make("a", "b", [("x", (1,))], mids=(1, 2))

    def test_items_pads_missing_mids(self):
        env = Envelope.make("a", "b", [("x", (1,)), ("y", (2,))])
        assert list(env.items()) == [("x", (1,), None), ("y", (2,), None)]

    def test_size_estimate_recurses_tuples(self):
        flat = estimate_row_size(("abc",))
        nested = estimate_row_size((("abc",),))
        assert nested == flat + 8

    def test_codec_roundtrip(self):
        env = Envelope.make(
            "n0",
            "n1",
            [("rel", (1, 2.5, "s", b"b", None, True, (3, "t")))],
            mids=(7,),
            seq=9,
        )
        back = Envelope.decode(env.encode())
        assert back == env
        assert back.size_bytes == env.size_bytes

    def test_codec_deterministic(self):
        env = Envelope.make("a", "b", [("x", (1,)), ("y", ("z",))], seq=3)
        assert env.encode() == Envelope.decode(env.encode()).encode()


class TestOutbox:
    def test_batches_one_envelope_per_destination(self):
        box = Outbox("src")
        box.add("b", "x", (1,))
        box.add("c", "x", (2,))
        box.add("b", "y", (3,))
        envs = box.flush()
        assert [(e.dst, e.deltas) for e in envs] == [
            ("b", (("x", (1,)), ("y", (3,)))),
            ("c", (("x", (2,)),)),
        ]
        assert len(box) == 0

    def test_seq_numbers_are_per_destination(self):
        box = Outbox("src")
        box.add("b", "x", (1,))
        box.flush()
        box.add("b", "x", (2,))
        box.add("c", "x", (3,))
        envs = box.flush()
        assert {(e.dst, e.seq) for e in envs} == {("b", 2), ("c", 1)}

    def test_clear_discards_unsent(self):
        box = Outbox("src")
        box.add("b", "x", (1,))
        box.clear()
        assert box.flush() == []

    def test_mids_ride_the_envelope(self):
        box = Outbox("src")
        box.add("b", "x", (1,), mid=11)
        box.add("b", "y", (2,), mid=None)
        (env,) = box.flush()
        assert env.mids == (11, None)


class TestSimTransportUnit:
    def make(self, **kw):
        sim = Simulator()
        net = SimTransport(sim, **kw)
        inbox = []
        net.register("b", lambda env: inbox.append(env))
        return sim, net, inbox

    def test_batched_envelope_single_trip(self):
        sim, net, inbox = self.make(latency=LatencyModel(2, 0))
        net.send(Envelope.make("a", "b", [("x", (i,)) for i in range(5)]))
        sim.run_until(10)
        assert len(inbox) == 1 and len(inbox[0]) == 5
        assert net.stats.envelopes_delivered == 1
        assert net.stats.delivered == 5

    def test_stats_is_transport_stats(self):
        _, net, _ = self.make()
        assert isinstance(net.stats, TransportStats)

    def test_record_sends_logs_deltas(self):
        sim, net, _ = self.make(latency=LatencyModel(1, 0))
        net.record_sends = True
        net.send(Envelope.make("a", "b", [("x", (1,)), ("y", (2,))]))
        assert net.sent_log == [("a", "b", "x", (1,)), ("a", "b", "y", (2,))]


COUNT_PROGRAM = """
program counts;
event(evt, 2);
define(seen, keys(0), {Int});
seen(N) :- evt(_, N);
"""

FANOUT_PROGRAM = """
program fanout;
event(go, 0);
event(evt, 2);
define(numbers, keys(0), {Int});
define(sink, keys(0), {Str});
evt(@S, N) :- go(), sink(S), numbers(N);
"""


def _fanout_node(address):
    node = OverlogProcess(address, FANOUT_PROGRAM)
    original = node.bootstrap

    def bootstrap():
        original()
        node.runtime.insert("sink", ("sink",))
        for i in range(4):
            node.runtime.insert("numbers", (i,))

    node.bootstrap = bootstrap
    return node


class TestFixpointBatching:
    def test_fixpoint_sends_batch_into_one_envelope(self):
        cluster = Cluster(latency=LatencyModel(1, 0))
        src = cluster.add(_fanout_node("src"))
        sink = cluster.add(OverlogProcess("sink", COUNT_PROGRAM))
        src.inject("go", ())
        cluster.run_for(50)
        assert sorted(sink.runtime.rows("seen")) == [(i,) for i in range(4)]
        stats = cluster.transport.stats
        assert stats.sent == 4
        assert stats.envelopes_sent == 1

    def test_batching_metrics_in_cluster_snapshot(self):
        cluster = Cluster(latency=LatencyModel(1, 0))
        src = cluster.add(_fanout_node("src"))
        cluster.add(OverlogProcess("sink", COUNT_PROGRAM))
        src.inject("go", ())
        cluster.run_for(50)
        counters = cluster.metrics_snapshot()["nodes"]["transport"]["counters"]
        assert counters["transport.envelopes_sent"] == 1
        assert counters["transport.deltas_sent"] == 4
        assert counters["transport.bytes_sent"] > 0


class TestCrashDiscardsOutbox:
    def test_unflushed_sends_lost_on_crash(self):
        cluster = Cluster(latency=LatencyModel(1, 0))
        src = cluster.add(_fanout_node("src"))
        cluster.add(OverlogProcess("sink", COUNT_PROGRAM))
        # Buffer sends by hand (no sending() scope flush) then crash.
        src._outbox.add("sink", "evt", (9,))
        cluster.crash("src")
        cluster.run_for(20)
        assert cluster.transport.stats.sent == 0
