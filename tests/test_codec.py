"""The TCP wire codec (repro.transport.codec) and the reader that uses it.

Three guarantees: every envelope whose values lie in the domain comes
back with identical values *and types*; anything outside the domain is
refused by the encoder; and no byte string makes ``decode`` do anything
but return an in-domain envelope or raise :class:`CodecError`.  Over
TCP, a hostile frame is counted by reason, its connection is closed,
and every other connection keeps delivering.
"""

import asyncio
import enum
import gc
import json
import logging
import math
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import OverlogProcess
from repro.transport import AsyncCluster, Envelope
from repro.transport.codec import (
    MAX_DEPTH,
    MAX_FRAME_BYTES,
    MAX_INT_BITS,
    VERSION,
    CodecError,
)

WIDEST = 2**MAX_INT_BITS - 1


def same(a, b) -> bool:
    """Equal values of identical types all the way down (floats by
    ``repr``, so nan equals nan and -0.0 differs from 0.0)."""
    if type(a) is not type(b):
        return False
    if type(a) is tuple:
        return len(a) == len(b) and all(map(same, a, b))
    if type(a) is float:
        return repr(a) == repr(b)
    return a == b


def in_domain(value, depth: int = 0) -> bool:
    if type(value) is tuple:
        return depth < MAX_DEPTH and all(in_domain(v, depth + 1) for v in value)
    if type(value) is int:
        return value.bit_length() <= MAX_INT_BITS
    return type(value) in (type(None), bool, float, str, bytes)


def round_trip(env: Envelope) -> Envelope:
    return Envelope.decode(env.encode())


def assert_same_envelope(back: Envelope, env: Envelope) -> None:
    assert same(
        (back.src, back.dst, back.deltas, back.mids, back.seq, back.size_bytes),
        (env.src, env.dst, env.deltas, env.mids, env.seq, env.size_bytes),
    )


def nested(depth: int):
    """A row whose tuples nest ``depth`` deep (a flat row is depth 1)."""
    value = 7
    for _ in range(depth - 1):
        value = (value,)
    return (value,)


# -- round trips ---------------------------------------------------------------

texts = st.text(st.characters(exclude_categories=())) | st.text(
    st.sampled_from(["a", "é", "\x00", "\ud83d", "\ude00", "\U0001f600", '"'])
)
scalars = (
    st.none()
    | st.booleans()
    | st.integers(-(2**70), 2**70)
    | st.integers(-WIDEST, WIDEST)
    | st.sampled_from([0, 1, -1, 2**63, -(2**63) - 1, WIDEST, -WIDEST])
    | st.floats()
    | st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1.0])
    | texts
    | st.binary()
)
values = st.recursive(
    scalars, lambda inner: st.lists(inner, max_size=4).map(tuple), max_leaves=24
)
rows = st.lists(values, max_size=6).map(tuple)


@st.composite
def envelopes(draw):
    deltas = draw(st.lists(st.tuples(texts, rows), max_size=6))
    mids = draw(
        st.just(())
        | st.lists(
            st.none() | st.integers(0, 2**40),
            min_size=len(deltas),
            max_size=len(deltas),
        )
    )
    return Envelope.make(
        draw(texts), draw(texts), deltas, mids, seq=draw(st.integers(0, 2**40))
    )


@settings(max_examples=150, deadline=None)
@given(envelopes())
def test_every_envelope_in_the_domain_round_trips_exactly(env):
    assert_same_envelope(round_trip(env), env)


@pytest.mark.parametrize(
    "value",
    [
        True,
        False,
        1,
        1.0,
        0,
        0.0,
        -0.0,
        math.nan,
        math.inf,
        -math.inf,
        2**64,
        -(2**64),
        WIDEST,
        -WIDEST,
        "",
        b"",
        "1",
        b"1",
        "\ud83d\ude00",  # two lone surrogates, not one emoji
        "\U0001f600",
        (),
        ((),),
        (1, (True, (None, b"\x00\xff"))),
    ],
    ids=repr,
)
def test_types_never_blur(value):
    env = Envelope.make("a", "b", [("r", (value,))])
    ((_, (back,)),) = round_trip(env).deltas
    assert same(back, value)


def test_nesting_up_to_the_depth_bound_round_trips():
    env = Envelope.make("a", "b", [("r", nested(MAX_DEPTH))])
    assert_same_envelope(round_trip(env), env)


# -- what the encoder refuses ----------------------------------------------------


class _Color(enum.IntEnum):
    RED = 1


class _Name(str):
    pass


@pytest.mark.parametrize(
    "value, reason",
    [
        ({1, 2}, "type"),
        (frozenset({1}), "type"),
        ([1, 2], "type"),
        ({"k": 1}, "type"),
        (bytearray(b"x"), "type"),
        (object(), "type"),
        (_Color.RED, "type"),
        (_Name("n"), "type"),
        ((1, ({1},)), "type"),
        (WIDEST + 1, "range"),
        (-WIDEST - 1, "range"),
        (nested(MAX_DEPTH + 1)[0], "depth"),
    ],
)
def test_values_outside_the_domain_are_unencodable(value, reason):
    env = Envelope.make("a", "b", [("r", ("ok", value))])
    with pytest.raises(CodecError) as err:
        env.encode()
    assert err.value.reason == reason


def test_a_row_that_is_not_a_tuple_is_unencodable():
    env = Envelope.make("a", "b", [("r", [1, 2])])
    with pytest.raises(CodecError, match="shape"):
        env.encode()


# -- what the decoder refuses ----------------------------------------------------

V = bytes((VERSION,))


@pytest.mark.parametrize(
    "frame, reason",
    [
        (b"", "version"),
        (b"('a', 'b', (), (), 1)", "version"),
        (bytes((VERSION + 1,)) + b'["a","b",1,0,[],[]]', "version"),
        (V + b'["a","b",1,0,[],[]', "malformed"),
        (V + b'["a","b",1,0,["r",[1,2]],[]]\xff', "malformed"),
        (V + b'["a","b",1,0,[],[]]["a","b",2,0,[],[]]', "malformed"),
        (V + b'["a","b",1,0,["r",[{"s":[1,2]}]],[]]', "malformed"),
        (V + b'["a","b",1,0,["r",[{"b":"!!"}]],[]]', "malformed"),
        (V + b'["a","b",1,0,["r",[{"b":"eA==","u":""}]],[]]', "malformed"),
        (V + b'["a","b",1,0,["r",1],[]]', "shape"),
        (V + b'["a","b",1,0,["r"],[]]', "shape"),
        (V + b'["a",2,1,0,[],[]]', "shape"),
        (V + b'["a","b",true,0,[],[]]', "shape"),
        (V + b'["a","b",1,-5,[],[]]', "shape"),
        (V + b'["a","b",1,0,[7,[1]],[]]', "shape"),
        (V + b'["a","b",1,0,["r",[1]],["x"]]', "shape"),
        (V + b'["a","b",1,0,["r",[1]],[null,null]]', "shape"),
        (V + b'{"b":"eA=="}', "shape"),
        (V + b'["a","b",1,0,["r",[%d]],[]]' % (WIDEST + 1), "range"),
        (V + b'["a","b",%d,0,[],[]]' % (WIDEST + 1), "range"),
        (V + b'["a","b",1,0,["r",[1]],[-%d]]' % (WIDEST + 1), "range"),
        (V + b'["a","b",1,0,["r",%s],[]]' % json.dumps(nested(MAX_DEPTH + 1)).encode(), "depth"),
        (V + b"[" * 100_000 + b"]" * 100_000, "depth"),
    ],
)
def test_hostile_frames_raise_only_codec_error(frame, reason):
    with pytest.raises(CodecError) as err:
        Envelope.decode(frame)
    assert err.value.reason == reason


def test_frames_longer_than_the_bound_are_refused():
    with pytest.raises(CodecError, match="oversize"):
        Envelope.decode(V + b" " * MAX_FRAME_BYTES)


def _random_value(rng: random.Random, depth: int = 1):
    roll = rng.random()
    if roll < 0.1 and depth < 4:
        return tuple(_random_value(rng, depth + 1) for _ in range(rng.randrange(4)))
    return rng.choice(
        [
            None,
            rng.random() < 0.5,
            rng.randrange(-(2**70), 2**70),
            rng.random() * 1e6,
            -0.0,
            math.inf,
            "".join(rng.choice("ab/é\ud800\"\\") for _ in range(rng.randrange(6))),
            rng.randbytes(rng.randrange(6)),
        ]
    )


def test_ten_thousand_mutated_frames_decode_or_raise_codec_error():
    rng = random.Random(20100413)
    frames = [
        Envelope.make(
            "client",
            "server",
            [
                (f"r{i}", tuple(_random_value(rng) for _ in range(rng.randrange(5))))
                for i in range(rng.randrange(1, 6))
            ],
            seq=n,
        ).encode()
        for n in range(64)
    ]
    outcomes = {"decoded": 0, "refused": 0}
    for _ in range(10_000):
        frame = bytearray(rng.choice(frames))
        kind = rng.randrange(4)
        if kind == 0:  # flip bits in a few bytes
            for _ in range(rng.randrange(1, 4)):
                frame[rng.randrange(len(frame))] ^= rng.randrange(1, 256)
        elif kind == 1:  # truncate
            del frame[rng.randrange(len(frame)) :]
        elif kind == 2:  # extend with junk
            frame += rng.randbytes(rng.randrange(1, 16))
        else:  # splice the head of one frame onto the tail of another
            other = rng.choice(frames)
            frame = frame[: rng.randrange(len(frame))] + other[rng.randrange(len(other)) :]
        try:
            env = Envelope.decode(bytes(frame))
        except CodecError:
            outcomes["refused"] += 1
            continue
        outcomes["decoded"] += 1
        assert type(env.src) is str and type(env.dst) is str
        assert type(env.seq) is int and type(env.size_bytes) is int
        assert all(type(rel) is str and in_domain(row) for rel, row in env.deltas)
        assert all(mid is None or type(mid) is int for mid in env.mids)
        hash(env.deltas)
    assert outcomes["decoded"] > 100 and outcomes["refused"] > 1000


# -- the TCP reader and sender ---------------------------------------------------

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

SCALE = 20.0


@pytest.fixture
def tcp_cluster(caplog):
    caplog.set_level(logging.ERROR, logger="asyncio")
    cluster = AsyncCluster(time_scale=SCALE, tcp=True)
    server = cluster.add(OverlogProcess("server", ECHO_PROGRAM))
    client = cluster.add(OverlogProcess("client", COUNTER_PROGRAM))
    yield cluster, server, client
    cluster.shutdown()
    gc.collect()  # an unretrieved task exception is logged when collected
    logged = caplog.get_records("call") + caplog.records
    assert not logged, [r.getMessage() for r in logged]


def _write_raw(cluster, address: str, data: bytes) -> bytes:
    """Write ``data`` on a fresh connection to ``address``'s listener and
    return whatever arrives before the listener hangs up."""
    port = cluster.transport._endpoints[address].port

    async def exchange() -> bytes:
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(data)
        await writer.drain()
        try:
            return await asyncio.wait_for(reader.read(), timeout=10)
        finally:
            writer.close()

    return cluster._loop.run_until_complete(exchange())


def _frame(body: bytes) -> bytes:
    return struct.pack(">I", len(body)) + body


def _ping(cluster, server, client, n: int) -> None:
    server.inject("ping", ("client", n))
    assert cluster.run_until(
        lambda: (n,) in client.runtime.rows("received"), max_time_ms=5000
    )


HOSTILE = {
    # (a) a frame the parser cannot read
    "malformed": _frame(V + b'["server","server",1,0,["ping"'),
    # (b) a header promising ~4 GiB
    "oversize": struct.pack(">I", 0xFFFFFFF0),
    # (c) a set where a value belongs (a tag the codec does not have) ...
    "malformed-set": _frame(
        V + b'["server","server",1,0,["ping",["client",{"set":[1,2]}]],[null]]'
    ),
    # ... and the old repr literal, which has no version byte
    "version": _frame(
        b"('server','server',(('ping',('client',{1,2})),),(None,),1)"
    ),
    "version-next": _frame(bytes((VERSION + 1,)) + b'["server","server",1,0,[],[]]'),
    "misaddressed": _frame(
        Envelope.make("mallory", "client", [("pong", ("x", 1))]).encode()
    ),
}


@pytest.mark.parametrize("name", sorted(HOSTILE))
def test_hostile_frame_is_counted_and_the_node_keeps_serving(tcp_cluster, name):
    cluster, server, client = tcp_cluster
    _ping(cluster, server, client, 1)  # the real links are up
    assert _write_raw(cluster, "server", HOSTILE[name]) == b""  # hung up
    reason = name.split("-")[0]
    stats = cluster.transport.stats
    assert stats.frames_rejected == 1
    counters = cluster.metrics_snapshot()["nodes"]["transport"]["counters"]
    assert counters[f"transport.rejected.{reason}"] == 1
    _ping(cluster, server, client, 2)  # other connections still deliver
    assert sorted(client.runtime.rows("received")) == [(1,), (2,)]
    assert stats.envelopes_delivered == stats.envelopes_sent == 2
    assert cluster.drain()


def test_unencodable_envelope_is_dropped_at_the_sender(tcp_cluster):
    cluster, server, client = tcp_cluster
    transport = cluster.transport
    transport.send(Envelope.make("client", "server", [("ping", ("client", {1, 2}))]))
    transport.send(Envelope.make("client", "server", [("ping", ("client", 3))]))
    assert cluster.run_until(
        lambda: client.runtime.rows("received") == [(3,)], max_time_ms=5000
    )
    assert transport.stats.dropped_unencodable == 1
    assert transport.stats.deltas_dropped == 1
    counters = cluster.metrics_snapshot()["nodes"]["transport"]["counters"]
    assert counters["transport.dropped.unencodable"] == 1
    assert cluster.drain()  # the dropped envelope came off the wire too
