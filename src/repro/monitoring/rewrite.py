"""Metaprogrammed monitoring (the paper's third revision).

Because Overlog programs are data (tuples of rules), instrumentation is a
*program rewrite*: for every rule, synthesize a twin rule with the same
body whose head logs a ``trace_event`` tuple.  No component code changes;
the instrumented program is simply loaded instead of the original, with
twice the rules (tests/test_monitoring.py).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from ..overlog.ast import (
    Assign,
    Atom,
    Const,
    EventDecl,
    FuncCall,
    Program,
    Rule,
    Var,
    atom_vars,
    rule_vars,
)


def _body_bound_vars(rule: Rule) -> set[str]:
    """Variables a rule's body binds (positive atoms and assignments)."""
    bound: set[str] = set()
    for elem in rule.body:
        if isinstance(elem, Atom):
            bound |= atom_vars(elem)
        elif isinstance(elem, Assign):
            bound.add(elem.var.name)
    return bound

TRACE_RELATION = "trace_event"  # (kind, name, binding_fingerprint, now_ms)


def _fresh_var(taken: set[str], base: str = "TraceNow") -> Var:
    name = base
    counter = 0
    while name in taken:
        counter += 1
        name = f"{base}{counter}"
    return Var(name)


def _trace_decl() -> EventDecl:
    return EventDecl(name=TRACE_RELATION, arity=4)


def _fingerprint_expr(variables: Iterable[str]) -> FuncCall:
    """Hash of the rule's bound variables: distinguishes distinct firings
    of one rule within a step (events have set semantics, so identical
    trace tuples would collapse)."""
    ordered = tuple(Var(name) for name in sorted(variables))
    return FuncCall("f_hash", (FuncCall("f_list", ordered),))


def add_rule_tracing(
    program: Program, rule_names: Optional[Iterable[str]] = None
) -> Program:
    """Return a program in which each selected rule has a tracing twin.

    The twin shares the rule's entire body, so it fires exactly when the
    rule fires (same bindings), deriving
    ``trace_event("rule", <rule name>, f_now())``.

    Raises ``KeyError`` if ``rule_names`` mentions a rule the program does
    not define, and ``ValueError`` on double instrumentation (a
    ``trace_<name>`` twin already present).
    """
    known = {rule.name for rule in program.rules}
    selected = set(rule_names) if rule_names is not None else None
    if selected is not None:
        unknown = selected - known
        if unknown:
            raise KeyError(
                f"cannot trace unknown rule(s): {sorted(unknown)}"
            )
    new_rules: list[Rule] = list(program.rules)
    for rule in program.rules:
        if rule.name.startswith(("trace_", "tracerel_")):
            continue  # never instrument the instrumentation itself
        if selected is not None and rule.name not in selected:
            continue
        if f"trace_{rule.name}" in known:
            raise ValueError(
                f"rule {rule.name!r} is already traced "
                f"(twin trace_{rule.name} exists); rewrite is not idempotent"
            )
        now_var = _fresh_var(rule_vars(rule))
        trace_head = Atom(
            name=TRACE_RELATION,
            args=(
                Const("rule"),
                Const(rule.name),
                _fingerprint_expr(_body_bound_vars(rule)),
                now_var,
            ),
        )
        trace_body = rule.body + (
            Assign(var=now_var, expr=FuncCall("f_now", ())),
        )
        new_rules.append(
            Rule(name=f"trace_{rule.name}", head=trace_head, body=trace_body)
        )
    decls = program.decls
    if not any(
        isinstance(d, EventDecl) and d.name == TRACE_RELATION for d in decls
    ):
        decls = decls + (_trace_decl(),)
    return Program(name=f"{program.name}_traced", decls=decls, rules=tuple(new_rules))


def add_relation_tracing(program: Program, relations: Iterable[str]) -> Program:
    """Add a watcher rule per relation: every derived tuple also logs a
    ``trace_event("tuple", <relation>, now)``.

    Raises ``KeyError`` for an undeclared relation and ``ValueError`` on
    double instrumentation (a ``tracerel_<rel>`` rule already present).
    """
    arities: dict[str, int] = {}
    for decl in program.decls:
        arity = getattr(decl, "arity", None)
        if arity is not None:
            arities[decl.name] = arity
    existing = {rule.name for rule in program.rules}
    new_rules = list(program.rules)
    for rel in relations:
        if rel not in arities:
            raise KeyError(f"relation {rel!r} not declared in program")
        if f"tracerel_{rel}" in existing:
            raise ValueError(
                f"relation {rel!r} is already traced "
                f"(tracerel_{rel} exists); rewrite is not idempotent"
            )
        taken: set[str] = set()
        cols = []
        for i in range(arities[rel]):
            var = _fresh_var(taken, f"TraceCol{i}")
            taken.add(var.name)
            cols.append(var)
        cols = tuple(cols)
        now_var = _fresh_var(taken)
        body_atom = Atom(name=rel, args=cols)
        new_rules.append(
            Rule(
                name=f"tracerel_{rel}",
                head=Atom(
                    TRACE_RELATION,
                    (
                        Const("tuple"),
                        Const(rel),
                        _fingerprint_expr(v.name for v in cols),
                        now_var,
                    ),
                ),
                body=(body_atom, Assign(now_var, FuncCall("f_now", ()))),
            )
        )
    decls = program.decls
    if not any(
        isinstance(d, EventDecl) and d.name == TRACE_RELATION for d in decls
    ):
        decls = decls + (_trace_decl(),)
    return Program(
        name=f"{program.name}_reltraced", decls=decls, rules=tuple(new_rules)
    )


@dataclass
class TraceCollector:
    """Gathers trace_event tuples from a runtime; attach with
    ``collector.attach(runtime)`` after the process is constructed."""

    events: list[tuple[str, str, int, int]] = field(default_factory=list)

    def attach(self, runtime) -> None:
        runtime.watch(TRACE_RELATION, self._record)

    def _record(self, row: tuple) -> None:
        self.events.append(row)

    def _counts(self, kind: str) -> dict[str, int]:
        counts: dict[str, int] = {}
        for k, name, _fp, _t in self.events:
            if k == kind:
                counts[name] = counts.get(name, 0) + 1
        return counts

    def rule_counts(self) -> dict[str, int]:
        return self._counts("rule")

    def relation_counts(self) -> dict[str, int]:
        return self._counts("tuple")
