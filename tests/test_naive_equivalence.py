"""Semi-naive evaluation must agree with textbook naive evaluation on
deterministic programs — the core soundness property of the optimizer,
checked exhaustively with hypothesis-generated databases."""

import string

from hypothesis import given
from hypothesis import strategies as st

from repro.overlog import OverlogRuntime

names = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=3)

RECURSIVE = """
program p;
define(edge, keys(0, 1), {Str, Str});
define(reach, keys(0, 1), {Str, Str});
define(cnt, keys(0), {Str, Int});
define(isolated, keys(0), {Str});
reach(X, Y) :- edge(X, Y);
reach(X, Z) :- edge(X, Y), reach(Y, Z);
cnt(X, count<Y>) :- reach(X, Y);
isolated(X) :- edge(_, X), notin edge(X, _);
"""

STATEFUL = """
program q;
define(kv, keys(0), {Str, Int});
define(doubled, keys(0), {Str, Int});
event(bump, 2);
kv(K, V)@next :- bump(K, V), notin kv(K, _);
doubled(K, V * 2) :- kv(K, V);
del delete kv(K, V) :- bump(K, -1), kv(K, V), V > 100;
"""


def run_both(src, inserts, ticks=1):
    states = []
    for engine in ("source", "naive"):
        rt = OverlogRuntime(src, engine=engine)
        for rel, rows in inserts:
            rt.insert_many(rel, rows)
        rt.tick()
        for _ in range(ticks - 1):
            rt.tick()
        while rt.has_pending_work:
            rt.tick()
        snapshot = {
            table: sorted(rt.rows(table)) for table in rt.catalog.tables
        }
        states.append(snapshot)
    return states


class TestNaiveEquivalence:
    @given(st.lists(st.tuples(names, names), max_size=20))
    def test_recursive_program(self, edges):
        a, b = run_both(RECURSIVE, [("edge", edges)])
        assert a == b

    @given(
        st.lists(
            st.tuples(names, st.integers(-5, 200)), max_size=15
        )
    )
    def test_stateful_program_with_deferred_rules(self, bumps):
        a, b = run_both(STATEFUL, [("bump", bumps)])
        assert a == b

    def test_multi_step(self):
        src = """
        program chain;
        define(counter, keys(0), {Int, Int});
        event(go, 1);
        counter(0, 0)@next :- go(_), notin counter(0, _);
        counter(0, V + 1)@next :- counter(0, V), V < 5;
        """
        a, b = run_both(src, [("go", [(1,)])], ticks=3)
        assert a == b
        assert a["counter"] == [(0, 5)]
