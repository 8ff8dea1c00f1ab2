"""Differential testing of the evaluator engines.

Every seed generates a random Overlog program (multi-way joins, negation,
aggregates, deletion rules, deferred ``@next`` rules, ``@``-located heads,
wildcards, assignments, conditions) plus a random multi-timestep workload,
then runs it under four evaluator configurations:

* **source** — the default engine: every plan runs as generated Python
  source (repro.overlog.codegen),
* **interpreter** — ``engine="interpreter"``: the AST-walking
  semi-naive reference,
* **naive** — ``engine="naive"``: textbook full re-evaluation every
  round (:meth:`Evaluator._run_stratum_naive`), the ground-truth
  semantics,
* **observed** — the source engine with the provenance ledger and an
  aggressive 1-in-2 plan profiler attached (pure observers).

Observed must equal source in everything, and every derivation its
ledger recorded must replay: the recorded body rows, matched against the
rule's atoms by the interpreter's ``match_atom``, project the recorded
head row through ``eval_expr``.  Source must be
*indistinguishable* from the interpreter — identical table fixpoints,
sends, per-rule fire counts, derivation totals and semi-naive pass
counts — and both must agree with naive evaluation on fixpoints and send
sets (fire counts differ under naive evaluation by design: it re-derives
everything every round).

Programs are generated in layers so stratification always succeeds, and
use only deterministic builtins with modular arithmetic so every fixpoint
is finite and order-independent.  Rule heads use whole-row keys, so the
insertion-order-sensitive kind of primary-key displacement cannot occur;
the keyed table ``k0`` is written by the workload only, at most one row
per key per step, which displaces rows without any order to be sensitive
to, and every third seed copies it into the keyed ``dk`` — one row per
key per step again — so displacement also happens inside a pass, under
a ``notin`` no removal plan can answer.  Every other seed also negates a relation that a selective
delete rule empties a little at a time, so rows leave relations read
under ``notin`` (deletion and displacement) in a guaranteed share of the
programs and the removal-driven plans run in all four variants.  The
same seeds aggregate over that shrinking relation, every third seed
aggregates over ``k0`` and every fourth hides a column of the aggregated
relation behind a wildcard (or all of them), so retraction, displacement
and the distinct-bindings rule reach aggregate fold state too.
"""

import random

import pytest

from repro.overlog import OverlogRuntime
from repro.overlog.eval import eval_expr, match_atom
from repro.overlog.ast import (
    AggSpec,
    Assign,
    Atom,
    BinOp,
    Cond,
    Const,
    EventDecl,
    NotIn,
    Program,
    Rule,
    TableDecl,
    Var,
)

SEEDS = range(200)

LOCAL = "n0"
REMOTE = "n1"
INT_MOD = 7  # all generated arithmetic is mod 7: finite value domain


class ProgramGenerator:
    """Builds one random, stratifiable, deterministic Overlog program."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.decls: list = []
        self.rules: list[Rule] = []
        # (name, arity) of relations usable as rule bodies, in layer order:
        # a rule for a new relation only reads earlier entries, so negation
        # and aggregation edges can never close a cycle.
        self.sources: list[tuple[str, int]] = []
        self._var_counter = 0
        self._rule_counter = 0
        # The relation negate_deleted picked to negate and delete from.
        self.shrinking = None

    # -- naming -------------------------------------------------------------

    def fresh_var(self) -> Var:
        self._var_counter += 1
        return Var(f"V{self._var_counter}")

    def rule_name(self, kind: str) -> str:
        self._rule_counter += 1
        return f"r{self._rule_counter}_{kind}"

    # -- program skeleton ---------------------------------------------------

    def base_relations(self) -> None:
        # Whole-row keys (keys=()) give set semantics: no primary-key
        # displacement, hence no insertion-order sensitivity.
        for i in range(self.rng.randint(2, 3)):
            arity = self.rng.randint(2, 3)
            self.decls.append(TableDecl(f"t{i}", (), ("Int",) * arity))
            self.sources.append((f"t{i}", arity))
        # The keyed table: only the workload writes it (see workload()).
        self.decls.append(TableDecl("k0", (0,), ("Int", "Int")))
        self.sources.append(("k0", 2))
        self.decls.append(EventDecl("e0", 2))
        self.sources.append(("e0", 2))
        # Address book for @-located heads.
        self.decls.append(TableDecl("addr", (), ("Str",)))

    # -- body construction --------------------------------------------------

    def make_body(
        self, min_atoms: int = 1, max_atoms: int = 2, sources=None,
        first=None, hide: bool = False,
    ) -> tuple[list, list[Var]]:
        """A random join chain; returns (body elements, bound variables).
        ``first`` names the first atom's relation; ``hide`` puts a
        wildcard in one of its columns, or in all of them."""
        rng = self.rng
        body: list = []
        bound: list[Var] = []
        for n in range(rng.randint(min_atoms, max_atoms)):
            name, arity = rng.choice(sources or self.sources)
            hidden: tuple = ()
            if n == 0 and first is not None:
                name, arity = first
                if hide:
                    hidden = (
                        range(arity) if rng.random() < 0.3
                        else (rng.randrange(arity),)
                    )
            args = []
            for col in range(arity):
                roll = 0.0 if col in hidden else rng.random()
                if roll < 0.15:
                    args.append(Var("_"))  # wildcard joins need dedup
                elif roll < 0.35 and bound:
                    args.append(rng.choice(bound))  # join / repeat var
                elif roll < 0.45:
                    args.append(Const(rng.randrange(INT_MOD)))
                else:
                    v = self.fresh_var()
                    args.append(v)
                    bound.append(v)
            body.append(Atom(name, tuple(args)))
        if bound and rng.random() < 0.35:
            body.append(
                Cond(
                    BinOp(
                        rng.choice(("<", "<=", "!=", ">=")),
                        rng.choice(bound),
                        Const(rng.randrange(INT_MOD)),
                    )
                )
            )
        if bound and rng.random() < 0.35:
            v = self.fresh_var()
            body.append(
                Assign(
                    v,
                    BinOp(
                        "%",
                        BinOp(
                            rng.choice(("+", "*")),
                            rng.choice(bound),
                            Const(rng.randint(1, 3)),
                        ),
                        Const(INT_MOD),
                    ),
                )
            )
            bound.append(v)
        return body, bound

    def head_args(self, bound: list[Var], arity: int) -> tuple:
        rng = self.rng
        args = []
        for _ in range(arity):
            if bound and rng.random() < 0.85:
                args.append(rng.choice(bound))
            else:
                args.append(Const(rng.randrange(INT_MOD)))
        return tuple(args)

    # -- rule kinds ---------------------------------------------------------

    def add_join_rule(self, index: int) -> None:
        name = f"d{index}"
        arity = self.rng.randint(1, 2)
        body, bound = self.make_body()
        self.decls.append(TableDecl(name, (), ("Int",) * arity))
        self.rules.append(
            Rule(
                self.rule_name("join"),
                Atom(name, self.head_args(bound, arity)),
                tuple(body),
            )
        )
        self.sources.append((name, arity))

    def add_recursive_rule(self, index: int) -> None:
        """Transitive closure over a binary base relation (head projects
        body variables directly, so the fixpoint is finite)."""
        name = f"d{index}"
        base = self.rng.choice(
            [s for s in self.sources if s[1] >= 2 and s[0] != "e0"]
        )
        x, y, z = self.fresh_var(), self.fresh_var(), self.fresh_var()
        pad = (Var("_"),) * (base[1] - 2)
        self.decls.append(TableDecl(name, (), ("Int", "Int")))
        self.rules.append(
            Rule(
                self.rule_name("seed"),
                Atom(name, (x, y)),
                (Atom(base[0], (x, y) + pad),),
            )
        )
        self.rules.append(
            Rule(
                self.rule_name("rec"),
                Atom(name, (x, z)),
                (Atom(base[0], (x, y) + pad), Atom(name, (y, z))),
            )
        )
        self.sources.append((name, 2))

    def add_negation_rule(self, index: int, negate=None) -> None:
        """``negate`` names the relation to read under ``notin``; the rule
        then joins stored relations only (an event atom would make it
        deaf to removals) and negates on a bound first column, which is
        what a selective delete of ``negate`` unblocks."""
        name = f"d{index}"
        body, bound = self.make_body(
            sources=negate and [s for s in self.sources if s[0] != "e0"]
        )
        if not bound:
            self.add_join_rule(index)
            return
        neg_name, neg_arity = negate or self.rng.choice(self.sources)
        neg_args = []
        for col in range(neg_arity):
            roll = self.rng.random()
            if negate:
                roll = 0.0 if col == 0 else 0.6
            if roll < 0.5:
                neg_args.append(self.rng.choice(bound))
            elif roll < 0.75:
                neg_args.append(Var("_"))
            else:
                neg_args.append(Const(self.rng.randrange(INT_MOD)))
        body.append(NotIn(Atom(neg_name, tuple(neg_args))))
        arity = self.rng.randint(1, 2)
        self.decls.append(TableDecl(name, (), ("Int",) * arity))
        self.rules.append(
            Rule(
                self.rule_name("neg"),
                Atom(name, self.head_args(bound, arity)),
                tuple(body),
            )
        )
        self.sources.append((name, arity))

    def add_aggregate_rule(
        self, index: int, over=None, hide: bool = False
    ) -> None:
        """``over`` names a stored relation the body starts from; it then
        joins stored relations only, so the rule keeps fold state across
        steps (an event atom would make it fold each step afresh)."""
        name = f"d{index}"
        body, bound = self.make_body(
            min_atoms=2 if hide else 1,
            max_atoms=2,
            sources=over and [s for s in self.sources if s[0] != "e0"],
            first=over,
            hide=hide,
        )
        if len(bound) < 2:
            self.add_join_rule(index)
            return
        group, val = bound[0], bound[-1]
        func = self.rng.choice(("count", "sum", "min", "max", "avg", "list"))
        spec_var = Var("_") if func == "count" and self.rng.random() < 0.3 else val
        whole = func not in ("avg", "list")
        self.decls.append(
            TableDecl(name, (), ("Int", "Int" if whole else "Any"))
        )
        self.rules.append(
            Rule(
                self.rule_name("agg"),
                Atom(name, (group, AggSpec(func, spec_var))),
                tuple(body),
            )
        )
        if whole:
            # Later rules do modular arithmetic on what they read.
            self.sources.append((name, 2))

    def add_deferred_rule(self, index: int) -> None:
        name = f"d{index}"
        body, bound = self.make_body()
        arity = self.rng.randint(1, 2)
        self.decls.append(TableDecl(name, (), ("Int",) * arity))
        head = self.head_args(bound, arity)
        # Dedalus-style guard: stop re-deriving once the tuple is
        # materialized.  Without it, naive evaluation (no cross-step
        # activity gating) re-defers the same tuples every step and the
        # workload never quiesces.  Negating the rule's own head is legal
        # here because @next rules contribute no stratification edges.
        body.append(NotIn(Atom(name, head)))
        self.rules.append(
            Rule(
                self.rule_name("defer"),
                Atom(name, head),
                tuple(body),
                deferred=True,
            )
        )
        self.sources.append((name, arity))

    def stored_bases(self) -> list[tuple[str, int]]:
        return [s for s in self.sources if s[0][0] in "tk"]

    def add_delete_rule(self, target=None) -> None:
        """Delete from a base table, keyed off the event (bodies touch only
        base relations so the dependency graph stays acyclic-through-
        negation).  A given ``target`` loses only the rows whose first
        column the event names, so it shrinks over several steps."""
        selective = target is not None
        target, arity = target or self.rng.choice(self.stored_bases())
        vars_ = tuple(self.fresh_var() for _ in range(arity))
        ex, ey = vars_[0] if selective else self.fresh_var(), self.fresh_var()
        self.rules.append(
            Rule(
                self.rule_name("del"),
                Atom(target, vars_),
                (Atom("e0", (ex, ey)), Atom(target, vars_)),
                delete=True,
            )
        )

    def add_keyed_copy(self, index: int) -> None:
        """``dk``, keyed on its first column, copies ``k0``: a new ``k0``
        value displaces the ``dk`` row of its key inside a pass.  A rule
        over ``t0`` reads ``dk`` under a ``notin`` with a variable bound
        nowhere else, so no removal plan can answer the displaced row and
        the rule is re-evaluated in full.  Draws nothing from the RNG, so
        the rest of the program and the workload stay as they were."""
        k, v = self.fresh_var(), self.fresh_var()
        self.decls.append(TableDecl("dk", (0,), ("Int", "Int")))
        self.rules.append(
            Rule(self.rule_name("key"), Atom("dk", (k, v)), (Atom("k0", (k, v)),))
        )
        name, arity = self.sources[0]
        body = tuple(self.fresh_var() for _ in range(arity))
        self.decls.append(TableDecl(f"d{index}", (), ("Int",)))
        self.rules.append(
            Rule(
                self.rule_name("neg"),
                Atom(f"d{index}", body[:1]),
                (Atom(name, body), NotIn(Atom("dk", (body[0], self.fresh_var())))),
            )
        )

    def add_located_rule(self, index: int) -> None:
        """An ``@``-located head: rows whose first column is a remote
        address become sends, local ones insert locally.  A twin rule
        derives the same rows, so every send is deduplicated once."""
        name = f"dl{index}"
        body, bound = self.make_body(min_atoms=1, max_atoms=1)
        a = self.fresh_var()
        body.append(Atom("addr", (a,)))
        payload = bound[0] if bound else Const(0)
        self.decls.append(TableDecl(name, (), ("Str", "Int")))
        self.rules += [
            Rule(
                self.rule_name("loc"),
                Atom(name, (a, payload), loc=0),
                tuple(body),
            )
            for _twin in range(2)
        ]

    # -- top level ----------------------------------------------------------

    def generate(self, seed: int = 1) -> Program:
        self.base_relations()
        kinds = ["join", "recursive", "negation", "aggregate", "deferred"]
        n_derived = self.rng.randint(3, 5)
        for i in range(n_derived):
            kind = self.rng.choice(kinds)
            getattr(self, f"add_{kind}_rule")(i)
        hide = seed % 4 == 1
        if seed % 2 == 0:
            # A relation read under ``notin`` and folded by an aggregate
            # that also loses rows.
            self.shrinking = self.rng.choice(self.stored_bases())
            self.add_negation_rule(n_derived, negate=self.shrinking)
            self.add_delete_rule(target=self.shrinking)
            self.add_aggregate_rule(n_derived + 1, over=self.shrinking)
        if seed % 3 == 0:
            self.add_aggregate_rule(n_derived + 2, over=("k0", 2), hide=hide)
        elif hide:
            self.add_aggregate_rule(
                n_derived + 2, over=self.rng.choice(self.stored_bases()),
                hide=True,
            )
        if seed % 3 == 1:
            self.add_keyed_copy(n_derived + 3)
        if self.rng.random() < 0.6:
            self.add_delete_rule()
        if self.rng.random() < 0.6:
            self.add_located_rule(n_derived)
        return Program("generated", tuple(self.decls), tuple(self.rules))

    def workload(self) -> list[list[tuple[str, tuple]]]:
        """Random inbox batches: base facts up front, then event ticks."""
        rng = self.rng
        batches = []
        first = [
            (name, tuple(rng.randrange(INT_MOD) for _ in range(arity)))
            for name, arity in self.sources
            if name.startswith("t")
            for _ in range(rng.randint(3, 7))
        ]
        first.extend(self.keyed_rows(at_least=2))
        first.append(("addr", (LOCAL,)))
        first.append(("addr", (REMOTE,)))
        batches.append(first)
        for _ in range(rng.randint(1, 3)):
            batch = [
                ("e0", (rng.randrange(INT_MOD), rng.randrange(INT_MOD)))
                for _ in range(rng.randint(0, 3))
            ]
            if rng.random() < 0.4:
                name, arity = rng.choice(
                    [s for s in self.sources if s[0].startswith("t")]
                )
                batch.append(
                    (name, tuple(rng.randrange(INT_MOD) for _ in range(arity)))
                )
            batch.extend(self.keyed_rows())
            if self.shrinking is not None:
                # Name a first column the shrinking relation holds, so the
                # selective delete has something to delete.
                held = [r[0] for n, r in first if n == self.shrinking[0]]
                if held:
                    batch.append(("e0", (rng.choice(held), 0)))
            batches.append(batch)
        if self.shrinking is not None:
            # One more step, for the rows the last delete removed.
            batches.append([])
        return batches

    def keyed_rows(self, at_least: int = 0) -> list[tuple[str, tuple]]:
        """At most one ``k0`` row per key: new values displace old rows."""
        rng = self.rng
        return [
            ("k0", (key, rng.randrange(INT_MOD)))
            for key in rng.sample(range(INT_MOD), rng.randint(at_least, 4))
        ]


def run_variant(program, batches, **kwargs):
    rt = OverlogRuntime(program, address=LOCAL, **kwargs)
    sends = []
    steps = 0
    for batch in batches:
        for rel, row in batch:
            rt.insert(rel, row)
        result = rt.tick()
        sends.extend(result.sends)
        while rt.has_pending_work:
            steps += 1
            assert steps < 500, "generated program did not quiesce"
            result = rt.tick()
            sends.extend(result.sends)
    if rt.ledger is not None:
        assert_witnesses_replay(rt)
    return {
        "tables": {
            name: sorted(rt.rows(name)) for name in rt.catalog.tables
        },
        "sends": sorted(sends, key=repr),
        "rule_fires": dict(rt.evaluator.rule_fires),
        "derivations": rt.total_derivations,
        "stratum_iterations": dict(rt.evaluator.stratum_iteration_totals),
    }


def assert_witnesses_replay(rt):
    """Check every ``rule`` / ``send`` / ``next`` record against the
    interpreter, the reference the generated code is checked against:
    its body rows, one per positive atom in rule order, must match their
    atoms (assignments and conditions evaluated where they stand) and
    the binding must project the recorded head row.  Each witness row
    of an aggregate must match an atom of its relation."""
    rules = {rule.name: rule for rule in rt.evaluator.rules}
    fns = rt.functions
    for entry in rt.ledger.entries():
        if entry.kind not in ("rule", "send", "next"):
            continue
        rule = rules[entry.rule]
        if rule.is_aggregate:
            for rel, row in entry.body:
                assert any(
                    match_atom(atom, row, {}, fns) is not None
                    for atom in rule.positives if atom.name == rel
                ), (str(rule), entry)
            continue
        assert [rel for rel, _ in entry.body] == [
            atom.name for atom in rule.positives
        ], (str(rule), entry)
        rows = iter(row for _, row in entry.body)
        env = {}
        for elem in rule.body:
            if isinstance(elem, Atom):
                env = match_atom(elem, next(rows), env, fns)
                assert env is not None, (str(rule), entry, str(elem))
            elif isinstance(elem, Assign):
                value = eval_expr(elem.expr, env, fns)
                assert env.setdefault(elem.var.name, value) == value
            elif isinstance(elem, Cond):
                assert eval_expr(elem.expr, env, fns), (str(rule), entry)
        head = tuple(eval_expr(arg, env, fns) for arg in rule.head.args)
        assert head == entry.row, (str(rule), entry)


@pytest.mark.parametrize("seed", SEEDS)
def test_compiled_plans_match_reference_and_naive(seed):
    rng = random.Random(seed)
    gen = ProgramGenerator(rng)
    program = gen.generate(seed)
    batches = gen.workload()

    source = run_variant(program, batches)
    interpreter = run_variant(program, batches, engine="interpreter")
    naive = run_variant(program, batches, engine="naive")
    # The provenance ledger + sampled profiler must be pure observers:
    # with both enabled (and an aggressive 1-in-2 sampling rate so sampled
    # and unsampled executions interleave constantly), the engine must
    # stay bit-identical to its unobserved self.
    observed = run_variant(
        program,
        batches,
        provenance=True,
        profile=True,
        profile_sample_every=2,
    )
    assert observed == source, str(program)

    # The generated source must be indistinguishable from the interpreter,
    # down to per-rule fire counts and semi-naive pass counts.
    assert source == interpreter, str(program)

    # ... and both must agree with ground-truth naive evaluation on the
    # observable outcome.  Fire counts differ under naive re-derivation by
    # design, and so does send *multiplicity* across steps (naive mode
    # re-derives — and hence re-sends — located heads every step it finds
    # them active; the per-step send dedup only spans one step), so sends
    # are compared as sets against naive.
    assert source["tables"] == naive["tables"], str(program)
    assert set(source["sends"]) == set(naive["sends"]), str(program)


# -- what the seeds exercise ----------------------------------------------------

# Branches of the generated stratum drivers (codegen.generate_stratum_source)
# the seeds must keep reaching, each in at least MIN_SEEDS of them.
DRIVER_BRANCHES = (
    "idle skip",
    "aggregate gate",
    "removal plan",
    "full-dirty evaluation",
    "full fallback for removals",
    "constant column filters rows",
    "3+ passes",
    "pk displacement in a pass",
    "remote-send dedup",
    "deferred head",
    "delete head",
)
MIN_SEEDS = 10


def driver_branches(monkeypatch, program, batches) -> set[str]:
    """Which DRIVER_BRANCHES one source-engine run reaches, seen through
    the helpers the generated drivers call."""
    from repro.overlog import eval as ev_mod
    from repro.overlog.codegen import const_column

    hits: set[str] = set()
    Ev = ev_mod.Evaluator
    bind, catch_up, run_agg = Ev._bind_driver, Ev._catch_up, Ev._run_aggregate
    note, router, first_call = Ev._note_removed, Ev._router, ev_mod._first_call

    def bind_driver(self, index):
        driver, read = bind(self, index), self._stratum_exec[index]["read_rels"]

        def run(ev):
            if ev._active.isdisjoint(read):
                hits.add("idle skip")
            driver(ev)
            if ev._result.stratum_iterations[-1][1] >= 3:
                hits.add("3+ passes")

        return run

    def catch(self, index):
        full, removals = catch_up(self, index)
        readers = self._stratum_exec[index]["readers"]
        dirty = {r for rel in self._full_dirty for r in readers.get(rel, ())}
        if full & dirty:
            hits.add("full-dirty evaluation")
        if full - dirty:
            hits.add("full fallback for removals")
        if removals:
            hits.add("removal plan")
        return full, removals

    def aggregate(self, entry, events, index, acc):
        if events is not None:
            hits.add("aggregate gate")
        return run_agg(self, entry, events, index, acc)

    def note_removed(self, rel, row):
        if 0 <= self._cur_stratum < len(self.stratum_buckets):
            hits.add("pk displacement in a pass")
        return note(self, rel, row)

    def route_of(self, rule):
        route, loc = router(self, rule), rule.head.loc

        def counted(items, delta):
            if rule.deferred:
                hits.add("deferred head")
            elif rule.delete:
                hits.add("delete head")
            sends = len(self._result.sends)
            route(items, delta)
            if loc is not None and len(self._result.sends) - sends < sum(
                row[loc] != self.local_address for _rel, row in items
            ):
                hits.add("remote-send dedup")

        return counted

    def plan_of(ns, name, plan):
        fn, drive = first_call(ns, name, plan), plan.drive
        if not drive or drive[0] != "delta":
            return fn
        atom = plan.rule.positives[drive[1]]
        if const_column(atom)[0] is None:
            return fn

        def filtered(ev, rows, exclude):
            if len(rows) < len(exclude.get(atom.name, ())):
                hits.add("constant column filters rows")
            return fn(ev, rows, exclude)

        return filtered

    with monkeypatch.context() as m:
        m.setattr(Ev, "_bind_driver", bind_driver)
        m.setattr(Ev, "_catch_up", catch)
        m.setattr(Ev, "_run_aggregate", aggregate)
        m.setattr(Ev, "_note_removed", note_removed)
        m.setattr(Ev, "_router", route_of)
        m.setattr(ev_mod, "_first_call", plan_of)
        run_variant(program, batches)
    return hits


def test_the_seeds_exercise_every_driver_branch(monkeypatch):
    seeds = dict.fromkeys(DRIVER_BRANCHES, 0)
    for seed in SEEDS:
        gen = ProgramGenerator(random.Random(seed))
        program = gen.generate(seed)
        for branch in driver_branches(monkeypatch, program, gen.workload()):
            seeds[branch] += 1
    assert min(seeds.values()) >= MIN_SEEDS, seeds
