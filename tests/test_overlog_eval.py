"""Unit tests for Overlog evaluation: joins, negation, aggregation,
primary-key updates, deletion rules, network heads, and fixpoints."""

import pytest

from repro.overlog import (
    CatalogError,
    EvaluationError,
    OverlogRuntime,
    StratificationError,
)


def make(src, address="me", **kw):
    return OverlogRuntime("program t;\n" + src, address=address, **kw)


class TestBasicDerivation:
    def test_copy_rule(self):
        rt = make(
            """
            define(a, keys(0), {Int});
            define(b, keys(0), {Int});
            b(X) :- a(X);
            """
        )
        rt.insert("a", (1,))
        rt.insert("a", (2,))
        rt.tick()
        assert sorted(rt.rows("b")) == [(1,), (2,)]

    def test_join(self):
        rt = make(
            """
            define(emp, keys(0), {Str, Str});
            define(dept, keys(0), {Str, Str});
            define(loc, keys(0), {Str, Str});
            loc(E, City) :- emp(E, D), dept(D, City);
            """
        )
        rt.install("emp", [("alice", "eng"), ("bob", "sales")])
        rt.install("dept", [("eng", "sf"), ("sales", "nyc")])
        rt.insert("emp", ("carol", "eng"))
        rt.tick()
        assert sorted(rt.rows("loc")) == [
            ("alice", "sf"),
            ("bob", "nyc"),
            ("carol", "sf"),
        ]

    def test_transitive_closure(self):
        rt = make(
            """
            define(link, keys(0, 1), {Str, Str});
            define(path, keys(0, 1), {Str, Str});
            path(X, Y) :- link(X, Y);
            path(X, Z) :- link(X, Y), path(Y, Z);
            """
        )
        rt.insert_many("link", [(chr(97 + i), chr(98 + i)) for i in range(5)])
        rt.tick()
        assert len(rt.rows("path")) == 15  # 5+4+3+2+1

    def test_self_join_with_repeated_variable(self):
        rt = make(
            """
            define(edge, keys(0, 1), {Str, Str});
            define(loopy, keys(0), {Str});
            loopy(X) :- edge(X, X);
            """
        )
        rt.install("edge", [("a", "a"), ("a", "b")])
        rt.insert("edge", ("b", "b"))
        rt.tick()
        assert sorted(rt.rows("loopy")) == [("a",), ("b",)]

    def test_constant_in_body_atom_filters(self):
        rt = make(
            """
            define(req, keys(0), {Int, Str});
            define(reads, keys(0), {Int});
            reads(I) :- req(I, "read");
            """
        )
        rt.insert_many("req", [(1, "read"), (2, "write"), (3, "read")])
        rt.tick()
        assert sorted(rt.rows("reads")) == [(1,), (3,)]

    def test_wildcards_do_not_bind(self):
        rt = make(
            """
            define(t3, keys(0), {Int, Int, Int});
            define(firsts, keys(0), {Int});
            firsts(X) :- t3(X, _, _);
            """
        )
        rt.insert_many("t3", [(1, 2, 3), (4, 5, 6)])
        rt.tick()
        assert sorted(rt.rows("firsts")) == [(1,), (4,)]


class TestAssignAndCond:
    def test_assignment_binds(self):
        rt = make(
            """
            define(n, keys(0), {Int});
            define(sq, keys(0, 1), {Int, Int});
            sq(X, Y) :- n(X), Y := X * X;
            """
        )
        rt.insert_many("n", [(2,), (3,)])
        rt.tick()
        assert sorted(rt.rows("sq")) == [(2, 4), (3, 9)]

    def test_assignment_to_bound_var_acts_as_filter(self):
        rt = make(
            """
            define(pair, keys(0, 1), {Int, Int});
            define(dbl, keys(0), {Int});
            dbl(X) :- pair(X, Y), Y := X * 2;
            """
        )
        rt.insert_many("pair", [(1, 2), (2, 5), (3, 6)])
        rt.tick()
        assert sorted(rt.rows("dbl")) == [(1,), (3,)]

    def test_condition_filters(self):
        rt = make(
            """
            define(n, keys(0), {Int});
            define(big, keys(0), {Int});
            big(X) :- n(X), X >= 10;
            """
        )
        rt.insert_many("n", [(5,), (10,), (15,)])
        rt.tick()
        assert sorted(rt.rows("big")) == [(10,), (15,)]

    def test_integer_division(self):
        rt = make(
            """
            define(n, keys(0), {Int});
            define(half, keys(0, 1), {Int, Int});
            half(X, Y) :- n(X), Y := X / 2;
            """
        )
        rt.insert("n", (7,))
        rt.tick()
        assert rt.rows("half") == [(7, 3)]

    def test_function_call(self):
        rt = make(
            """
            define(seg, keys(0, 1), {Str, Str});
            define(full, keys(0), {Str});
            full(P) :- seg(D, N), P := f_concat_path(D, N);
            """
        )
        rt.insert("seg", ("/a", "b"))
        rt.tick()
        assert rt.rows("full") == [("/a/b",)]

    def test_unbound_variable_in_head_raises(self):
        rt = make(
            """
            define(a, keys(0), {Int});
            define(b, keys(0, 1), {Int, Int});
            b(X, Y) :- a(X);
            """
        )
        rt.insert("a", (1,))
        with pytest.raises(EvaluationError, match="unbound"):
            rt.tick()


class TestNegation:
    def test_notin_filters(self):
        rt = make(
            """
            define(all, keys(0), {Int});
            define(banned, keys(0), {Int});
            define(ok, keys(0), {Int});
            ok(X) :- all(X), notin banned(X);
            """
        )
        rt.install("banned", [(2,)])
        rt.insert_many("all", [(1,), (2,), (3,)])
        rt.tick()
        assert sorted(rt.rows("ok")) == [(1,), (3,)]

    def test_notin_with_wildcard(self):
        rt = make(
            """
            define(chunk, keys(0), {Int});
            define(stored, keys(0, 1), {Str, Int});
            define(missing, keys(0), {Int});
            missing(C) :- chunk(C), notin stored(_, C);
            """
        )
        rt.install("chunk", [(1,), (2,)])
        rt.install("stored", [("dn1", 1)])
        rt.insert("chunk", (3,))
        rt.tick()
        assert sorted(rt.rows("missing")) == [(2,), (3,)]

    def test_unstratifiable_rejected(self):
        with pytest.raises(StratificationError):
            make(
                """
                define(p, keys(0), {Int});
                define(q, keys(0), {Int});
                p(X) :- q(X), notin p(X);
                """
            )

    def test_negation_sees_same_step_insertions(self):
        # `derived` is computed in a lower stratum than `report`, so the
        # negation sees tuples derived earlier in this same timestep.
        rt = make(
            """
            define(src, keys(0), {Int});
            define(derived, keys(0), {Int});
            define(report, keys(0), {Int});
            derived(X) :- src(X), X > 1;
            report(X) :- src(X), notin derived(X);
            """
        )
        rt.insert_many("src", [(1,), (2,)])
        rt.tick()
        assert rt.rows("report") == [(1,)]


class TestAggregation:
    def test_count_groups(self):
        rt = make(
            """
            define(hb, keys(0, 1), {Str, Int});
            define(cnt, keys(0), {Str, Int});
            cnt(A, count<C>) :- hb(A, C);
            """
        )
        rt.insert_many("hb", [("dn1", 1), ("dn1", 2), ("dn2", 3)])
        rt.tick()
        assert sorted(rt.rows("cnt")) == [("dn1", 2), ("dn2", 1)]

    def test_min_max_sum_avg(self):
        rt = make(
            """
            define(v, keys(0, 1), {Str, Int});
            define(stats, keys(0), {Str, Int, Int, Int, Float});
            stats(K, min<X>, max<X>, sum<X>, avg<X>) :- v(K, X);
            """
        )
        rt.insert_many("v", [("a", 1), ("a", 2), ("a", 3)])
        rt.tick()
        assert rt.rows("stats") == [("a", 1, 3, 6, 2.0)]

    def test_count_star(self):
        rt = make(
            """
            define(pair, keys(0, 1), {Str, Int});
            define(total, keys(0), {Str, Int});
            total(K, count<*>) :- pair(K, V);
            """
        )
        rt.insert_many("pair", [("x", 1), ("x", 2), ("y", 9)])
        rt.tick()
        assert sorted(rt.rows("total")) == [("x", 2), ("y", 1)]

    def test_count_distinct_values(self):
        # Two rows project onto the same aggregated value: count is distinct.
        rt = make(
            """
            define(t, keys(0, 1), {Str, Str, Int});
            define(c, keys(0), {Str, Int});
            c(K, count<V>) :- t(K, _, V);
            """
        )
        rt.insert_many("t", [("k", "a", 7), ("k", "b", 7)])
        rt.tick()
        assert rt.rows("c") == [("k", 1)]

    def test_aggregate_feeds_downstream_rule(self):
        rt = make(
            """
            define(hb, keys(0, 1), {Str, Int});
            define(cnt, keys(0), {Str, Int});
            define(overloaded, keys(0), {Str});
            cnt(A, count<C>) :- hb(A, C);
            overloaded(A) :- cnt(A, N), N >= 2;
            """
        )
        rt.insert_many("hb", [("dn1", 1), ("dn1", 2), ("dn2", 3)])
        rt.tick()
        assert rt.rows("overloaded") == [("dn1",)]

    def test_aggregate_over_empty_produces_nothing(self):
        rt = make(
            """
            define(v, keys(0, 1), {Str, Int});
            define(c, keys(0), {Str, Int});
            define(other, keys(0), {Int});
            c(K, count<X>) :- v(K, X);
            other(1) :- c(_, _);
            """
        )
        rt.tick()
        assert rt.rows("c") == []
        assert rt.rows("other") == []

    def test_aggregation_in_recursion_rejected(self):
        with pytest.raises(StratificationError):
            make(
                """
                define(p, keys(0), {Int});
                p(count<X>) :- p(X);
                """
            )

    def test_global_aggregate_no_group(self):
        rt = make(
            """
            define(v, keys(0), {Int});
            define(total, keys(), {Int});
            total(sum<X>) :- v(X);
            """
        )
        rt.insert_many("v", [(1,), (2,), (3,)])
        rt.tick()
        assert rt.rows("total") == [(6,)]


class TestPrimaryKeyUpdates:
    def test_insert_replaces_on_key_collision(self):
        rt = make("define(kv, keys(0), {Str, Int});")
        rt.insert("kv", ("a", 1))
        rt.tick()
        rt.insert("kv", ("a", 2))
        rt.tick()
        assert rt.rows("kv") == [("a", 2)]

    def test_replacement_during_fixpoint(self):
        rt = make(
            """
            define(raw, keys(0), {Str, Int});
            define(best, keys(0), {Str, Int});
            best(K, V) :- raw(K, V);
            """
        )
        # Both raw rows share the `best` key "a"; the table must end up with
        # exactly one of them (last writer wins within the fixpoint).
        rt.insert_many("raw", [("a", 1)])
        rt.tick()
        assert rt.rows("best") == [("a", 1)]
        rt.insert("raw", ("a", 5))
        rt.tick()
        assert rt.rows("best") == [("a", 5)]


class TestDeleteRules:
    def test_delete_rule(self):
        rt = make(
            """
            define(file, keys(0), {Int, Str});
            event(rm, 1);
            del delete file(I, N) :- rm(I), file(I, N);
            """
        )
        rt.install("file", [(1, "a"), (2, "b")])
        rt.insert("rm", (1,))
        result = rt.tick()
        assert rt.rows("file") == [(2, "b")]
        assert ("file", (1, "a")) in result.deletions

    def test_delete_applied_after_fixpoint(self):
        # The same step both reads the row (deriving `saw`) and deletes it.
        rt = make(
            """
            define(file, keys(0), {Int});
            define(saw, keys(0), {Int});
            event(rm, 1);
            saw(I) :- rm(I), file(I);
            del delete file(I) :- rm(I), file(I);
            """
        )
        rt.install("file", [(1,)])
        rt.insert("rm", (1,))
        rt.tick()
        assert rt.rows("saw") == [(1,)]
        assert rt.rows("file") == []

    def test_delete_of_absent_row_is_noop(self):
        rt = make(
            """
            define(file, keys(0), {Int});
            event(rm, 1);
            del delete file(I) :- rm(I);
            """
        )
        rt.insert("rm", (99,))
        result = rt.tick()
        assert result.deletions == []

    def test_delete_head_must_be_table(self):
        with pytest.raises(CatalogError):
            make(
                """
                event(e, 1);
                event(rm, 1);
                del delete e(I) :- rm(I);
                """
            )


class TestEventsAndNetwork:
    def test_events_do_not_persist(self):
        rt = make(
            """
            event(ping, 1);
            define(log, keys(0), {Int});
            log(X) :- ping(X);
            """
        )
        rt.insert("ping", (1,))
        rt.tick()
        rt.tick()
        assert rt.rows("log") == [(1,)]

    def test_derived_event_triggers_rules_same_step(self):
        rt = make(
            """
            event(a, 1);
            event(b, 1);
            define(out, keys(0), {Int});
            b(X) :- a(X);
            out(X) :- b(X);
            """
        )
        rt.insert("a", (7,))
        rt.tick()
        assert rt.rows("out") == [(7,)]

    def test_remote_head_becomes_send(self):
        rt = make(
            """
            event(req, 2);
            event(resp, 2);
            resp(@C, X) :- req(C, X);
            """,
            address="server",
        )
        rt.insert("req", ("client9", 42))
        result = rt.tick()
        assert result.sends == [("client9", "resp", ("client9", 42))]

    def test_local_address_head_stays_local(self):
        rt = make(
            """
            event(req, 2);
            define(local_log, keys(0, 1), {Str, Int});
            local_log(@C, X) :- req(C, X);
            """,
            address="server",
        )
        rt.insert("req", ("server", 1))
        result = rt.tick()
        assert result.sends == []
        assert rt.rows("local_log") == [("server", 1)]

    def test_sends_are_deduplicated(self):
        rt = make(
            """
            define(src, keys(0, 1), {Str, Int});
            event(out, 2);
            out(@D, X) :- src(D, X);
            """,
            address="server",
        )
        rt.insert_many("src", [("d1", 1), ("d1", 1)])
        result = rt.tick()
        assert result.sends == [("d1", "out", ("d1", 1))]


class TestTimers:
    def test_timer_fires_when_due(self):
        rt = make(
            """
            timer(hb, 100);
            define(beats, keys(0), {Int, Int});
            beats(N, T) :- hb(N, T);
            """
        )
        rt.tick(now=50)
        assert rt.rows("beats") == []
        rt.tick(now=100)
        assert rt.rows("beats") == [(1, 100)]
        rt.tick(now=350)  # catches up: fires 2 and 3
        assert len(rt.rows("beats")) == 3

    def test_next_timer_fire(self):
        rt = make("timer(hb, 100);")
        assert rt.next_timer_fire() == 100
        rt.tick(now=100)
        assert rt.next_timer_fire() == 200

    def test_clock_cannot_go_backwards(self):
        rt = make("define(x, keys(0), {Int});")
        rt.tick(now=10)
        with pytest.raises(ValueError):
            rt.tick(now=5)


class TestStatefulFunctions:
    def test_f_now(self):
        rt = make(
            """
            event(ping, 1);
            define(log, keys(0, 1), {Int, Int});
            log(X, T) :- ping(X), T := f_now();
            """
        )
        rt.insert("ping", (1,))
        rt.tick(now=777)
        assert rt.rows("log") == [(1, 777)]

    def test_f_newid_monotone(self):
        rt = make(
            """
            event(mk, 1);
            define(ids, keys(0), {Int, Int});
            ids(X, I) :- mk(X), I := f_newid();
            """
        )
        rt.insert_many("mk", [(1,), (2,)])
        rt.tick()
        ids = [i for _, i in rt.rows("ids")]
        assert len(set(ids)) == 2

    def test_f_rand_deterministic_under_seed(self):
        def draw(seed):
            rt = make(
                """
                event(go, 1);
                define(out, keys(0), {Int, Float});
                out(X, R) :- go(X), R := f_rand();
                """,
                seed=seed,
            )
            rt.insert("go", (1,))
            rt.tick()
            return rt.rows("out")[0][1]

        assert draw(7) == draw(7)
        assert draw(7) != draw(8)

    def test_f_localaddr(self):
        rt = make(
            """
            event(go, 1);
            define(me, keys(0), {Str});
            me(A) :- go(_), A := f_localaddr();
            """,
            address="node3",
        )
        rt.insert("go", (1,))
        rt.tick()
        assert rt.rows("me") == [("node3",)]


class TestValidation:
    def test_undeclared_relation_rejected(self):
        with pytest.raises(CatalogError):
            make("define(a, keys(0), {Int}); a(X) :- nothere(X);")

    def test_arity_mismatch_rejected(self):
        with pytest.raises(CatalogError):
            make("define(a, keys(0), {Int}); a(X, Y) :- a(X), a(Y);")

    def test_type_check_on_insert(self):
        rt = make("define(a, keys(0), {Int});")
        rt.insert("a", ("not an int",))
        with pytest.raises(CatalogError):
            rt.tick()

    def test_type_check_survives_the_stored_row_fast_path(self):
        # (1.0,) and (True,) equal the stored (1,) and hash like it, so
        # the no-op insert path finds them "already stored" — they must
        # be rejected all the same, and a genuine no-op stays a no-op.
        rt = make("define(a, keys(), {Int}); define(f, keys(), {Float});")
        table = rt.catalog.table("a")
        assert table.insert((1,)).inserted
        for impostor in ((1.0,), (True,)):
            with pytest.raises(CatalogError):
                table.insert(impostor)
        assert not table.insert((1,)).inserted
        assert table.rows_list() == [(1,)]
        # A Float column takes ints and floats alike: same row, no change.
        floats = rt.catalog.table("f")
        assert floats.insert((1,)).inserted
        assert not floats.insert((1.0,)).inserted
        with pytest.raises(CatalogError):
            floats.insert((True,))

    def test_cannot_derive_timer(self):
        with pytest.raises(CatalogError):
            make(
                """
                timer(hb, 100);
                define(x, keys(0), {Int});
                hb(N, T) :- x(N), T := 0;
                """
            )


class TestWatchers:
    def test_watcher_sees_new_tuples(self):
        rt = make(
            """
            define(a, keys(0), {Int});
            define(b, keys(0), {Int});
            b(X) :- a(X);
            """
        )
        seen = []
        rt.watch("b", seen.append)
        rt.insert("a", (1,))
        rt.tick()
        assert seen == [(1,)]
        rt.insert("a", (1,))  # duplicate: no new derivation
        rt.tick()
        assert seen == [(1,)]

    def test_watch_undeclared_relation_rejected(self):
        rt = make("define(a, keys(0), {Int});")
        with pytest.raises(CatalogError):
            rt.watch("zzz", lambda row: None)


class TestDeterminism:
    def test_same_seed_same_results(self):
        src = """
        define(link, keys(0, 1), {Str, Str});
        define(path, keys(0, 1), {Str, Str});
        define(cnt, keys(), {Int});
        path(X, Y) :- link(X, Y);
        path(X, Z) :- link(X, Y), path(Y, Z);
        cnt(count<*>) :- path(X, Y);
        """
        runs = []
        for _ in range(2):
            rt = make(src, seed=3)
            rt.insert_many(
                "link", [(f"n{i}", f"n{i+1}") for i in range(8)]
            )
            rt.tick()
            runs.append((sorted(rt.rows("path")), rt.rows("cnt")))
        assert runs[0] == runs[1]
        assert runs[0][1] == [(36,)]
