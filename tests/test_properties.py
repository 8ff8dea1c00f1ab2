"""Property-based tests (hypothesis) on engine and substrate invariants."""

import string

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import empirical_cdf, percentile
from repro.boomfs.chunks import assemble_chunks, split_chunks
from repro.mapreduce.types import partition_for
from repro.overlog import OverlogRuntime
from repro.overlog.catalog import Table
from repro.overlog.ast import TableDecl
from repro.overlog.functions import stable_hash
from repro.sim import LatencyModel, Simulator
from repro.transport import SimTransport

settings.register_profile(
    "repro", suppress_health_check=[HealthCheck.too_slow], deadline=None
)
settings.load_profile("repro")

names = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=4)


class TestTableProperties:
    @given(
        st.lists(
            st.tuples(st.integers(-50, 50), st.integers(-5, 5)), max_size=60
        )
    )
    def test_primary_key_uniqueness(self, rows):
        table = Table(TableDecl("t", (0,), ("Int", "Int")))
        for row in rows:
            table.insert(row)
        keys = [row[0] for row in table.scan()]
        assert len(keys) == len(set(keys))

    @given(
        st.lists(
            st.tuples(st.integers(-50, 50), st.integers(-5, 5)), max_size=60
        )
    )
    def test_last_writer_wins(self, rows):
        table = Table(TableDecl("t", (0,), ("Int", "Int")))
        for row in rows:
            table.insert(row)
        expected = {}
        for key, value in rows:
            expected[key] = (key, value)
        assert sorted(table.scan()) == sorted(expected.values())

    @given(
        st.lists(
            st.tuples(st.integers(0, 20), st.integers(0, 3)), max_size=40
        ),
        st.lists(
            st.tuples(st.integers(0, 20), st.integers(0, 3)), max_size=40
        ),
    )
    def test_insert_then_delete_roundtrip(self, inserts, deletes):
        table = Table(TableDecl("t", (0, 1), ("Int", "Int")))
        for row in inserts:
            table.insert(row)
        for row in deletes:
            table.delete(row)
        remaining = set(table.scan())
        assert remaining == set(inserts) - set(deletes)


class TestEngineProperties:
    @given(
        st.lists(
            st.tuples(names, names), min_size=1, max_size=15, unique=True
        )
    )
    def test_transitive_closure_is_correct(self, links):
        rt = OverlogRuntime(
            """
            program tc;
            define(link, keys(0, 1), {Str, Str});
            define(path, keys(0, 1), {Str, Str});
            path(X, Y) :- link(X, Y);
            path(X, Z) :- link(X, Y), path(Y, Z);
            """
        )
        rt.insert_many("link", links)
        rt.tick()
        # Reference closure via repeated squaring over a set.
        closure = set(links)
        while True:
            extra = {
                (a, d)
                for a, b in closure
                for c, d in closure
                if b == c and (a, d) not in closure
            }
            if not extra:
                break
            closure |= extra
        assert set(rt.rows("path")) == closure

    @given(
        st.lists(
            st.tuples(names, st.integers(0, 100)), min_size=1, max_size=30
        )
    )
    def test_aggregates_match_python(self, rows):
        rt = OverlogRuntime(
            """
            program agg;
            define(v, keys(0, 1), {Str, Int});
            define(stats, keys(0), {Str, Int, Int, Int, Int});
            stats(K, count<X>, min<X>, max<X>, sum<X>) :- v(K, X);
            """
        )
        rt.insert_many("v", rows)
        rt.tick()
        grouped: dict[str, set[int]] = {}
        for k, x in rows:
            grouped.setdefault(k, set()).add(x)
        expected = {
            (k, len(xs), min(xs), max(xs), sum(xs)) for k, xs in grouped.items()
        }
        assert set(rt.rows("stats")) == expected

    @given(st.lists(st.integers(0, 50), min_size=1, max_size=30))
    def test_negation_partitions_universe(self, values):
        rt = OverlogRuntime(
            """
            program neg;
            define(all_v, keys(0), {Int});
            define(small, keys(0), {Int});
            define(big, keys(0), {Int});
            small(X) :- all_v(X), X < 25;
            big(X) :- all_v(X), notin small(X);
            """
        )
        rt.insert_many("all_v", [(v,) for v in values])
        rt.tick()
        small = {x for (x,) in rt.rows("small")}
        big = {x for (x,) in rt.rows("big")}
        assert small | big == set(values)
        assert not small & big

    @given(st.lists(st.tuples(names, st.integers(0, 9)), max_size=20), st.integers(0, 2**31))
    def test_fixpoint_deterministic(self, rows, seed):
        def run():
            rt = OverlogRuntime(
                """
                program det;
                define(src, keys(0, 1), {Str, Int});
                define(out, keys(0), {Str, Int});
                out(K, sum<V>) :- src(K, V);
                """,
                seed=seed,
            )
            rt.insert_many("src", rows)
            rt.tick()
            return sorted(rt.rows("out"))

        assert run() == run()


class TestChunkProperties:
    @given(st.binary(max_size=5000), st.integers(1, 700))
    def test_split_assemble_roundtrip(self, data, chunk_size):
        chunks = split_chunks(data, chunk_size)
        assert assemble_chunks(chunks) == data
        assert all(len(c) <= chunk_size for c in chunks)
        assert all(len(c) > 0 for c in chunks)

    @given(st.binary(min_size=1, max_size=5000), st.integers(1, 700))
    def test_chunk_count(self, data, chunk_size):
        chunks = split_chunks(data, chunk_size)
        expected = (len(data) + chunk_size - 1) // chunk_size
        assert len(chunks) == expected


class TestHashProperties:
    @given(st.text(max_size=30))
    def test_stable_hash_is_stable(self, s):
        assert stable_hash(s) == stable_hash(s)

    @given(st.text(max_size=30), st.integers(1, 16))
    def test_partition_in_range(self, key, n):
        assert 0 <= partition_for(key, n) < n


class TestCdfProperties:
    @given(st.lists(st.integers(-1000, 1000), min_size=1, max_size=200))
    def test_cdf_monotone_and_complete(self, values):
        cdf = empirical_cdf(values)
        assert cdf[-1][1] == 1.0
        fractions = [f for _, f in cdf]
        assert fractions == sorted(fractions)
        xs = [v for v, _ in cdf]
        assert xs == sorted(xs)

    @given(st.lists(st.integers(-1000, 1000), min_size=1, max_size=200))
    def test_percentile_bounds(self, values):
        assert min(values) <= percentile(values, 50) <= max(values)


class TestNetworkProperties:
    @given(st.integers(0, 2**31), st.integers(1, 40))
    def test_per_link_fifo_under_any_seed(self, seed, count):
        sim = Simulator()
        net = SimTransport(sim, latency=LatencyModel(1, 30), seed=seed)
        got = []
        net.register(
            "dst",
            lambda env: got.extend(row[0] for _, row, _ in env.items()),
        )
        for i in range(count):
            net.send_row("src", "dst", "m", (i,))
        sim.run_until(10_000)
        assert got == list(range(count))

    @given(st.integers(0, 2**31))
    def test_simulator_time_monotone(self, seed):
        import random

        rng = random.Random(seed)
        sim = Simulator()
        times = []
        for _ in range(30):
            sim.schedule(rng.randrange(1000), lambda: times.append(sim.now))
        sim.run_until(2000)
        assert times == sorted(times)
