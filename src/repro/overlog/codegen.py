"""Source-code generation: the evaluator's engine.

Every cached plan (:mod:`repro.overlog.plan`) runs as Python source: one
flat ``exec``-generated function per (rule × drive × output shape),
following the execution order ``plan.body_order`` hands in, where

* body atoms become **nested loops and ``if`` guards**, so a binding
  costs no intermediate environment list;
* variable bindings become **Python locals** (``v_Name``), not dict
  entries;
* expressions are emitted as **inline Python expressions** with the
  interpreter's evaluation order, short-circuiting, integer division and
  error wrapping (builtins still route through ``FunctionLibrary.call``,
  so late registration and error wrapping behave identically);
* an atom reads its rows through the access path :func:`access_path`
  picks: the driving rows, a **primary-key get** when the bound columns
  cover the table's key (the NameNode fast path: ``fqpath``, ``file``,
  ``fchunk`` are keyed on their first column, so a request rule's body
  collapses to a chain of dict lookups), a composite index probe on every
  bound column, or a scan.

Two output shapes are emitted per plan: the untracked one — ``plain``
for a rule (head tuples, the default hot path), ``agg`` for an
aggregate (the bindings' aggregated-values tuples, batched per group key
in a dict, skipping any environment dict) — and ``tracked``, the same
with each head tuple or values tuple paired with its *witness*: the
``((relation, row), ...)`` the positive atoms matched in rule order,
built from the row locals the loops already hold — what the provenance
ledger records.  Wildcard-step deduplication uses a tuple of the bound
locals in sorted name order, which discriminates exactly like the
interpreter's ``frozenset(env.items())`` because the key set is fixed
per step, and keeps the first row of a binding.

:func:`describe_steps` renders the same access paths as the step lines
of the source header, ``explain()`` and the profiler's report, so the
three cannot disagree with the code.  A rule shape the emitter declines
(:class:`Unsupported`) runs through the AST interpreter instead
(``JoinPlan.generate``), which is the engine's semantics, not a fork.

What emission produces depends on the rule, the drive and the
declarations of the tables the body reads — not on the runtime — so it
is memoized on exactly those (:func:`generate_plan_source`): replicas of
one program in a process emit and ``compile`` each plan once, and every
runtime only ``exec``s the code into a namespace of its own tables.
"""

from __future__ import annotations

from typing import Any, Container, NamedTuple, Optional

from .ast import AggSpec, Assign, Atom, BinOp, Cond, Const, Expr, FuncCall, NotIn, Rule, UnOp, Var
from .catalog import Catalog, Table
from .errors import EvaluationError
from .functions import FunctionLibrary

# Binary operators that translate 1:1 to Python (same symbol, same
# left-then-right evaluation order).
_DIRECT_BINOPS = {"+", "-", "*", "%", "==", "!=", "<", "<=", ">", ">="}

# Stateful builtins whose *call order* is observable (fresh ids, RNG
# draws).  The nested-loop (depth-first) enumeration calls expression
# sites in a different global interleaving than the interpreter's
# step-at-a-time (breadth-first) order when more than one body/head
# element contains such a call — so those rules run through the
# interpreter.  With at most one stateful site, environments reach it in
# the same order under both schedules and the call sequences coincide.
ORDER_SENSITIVE_FUNCTIONS = frozenset(
    {"f_newid", "f_uid", "f_rand", "f_randint"}
)


def expr_calls(e: Any) -> set[str]:
    """Names of the functions an expression calls."""
    if isinstance(e, FuncCall):
        return {e.name}.union(*map(expr_calls, e.args))
    if isinstance(e, BinOp):
        return expr_calls(e.left) | expr_calls(e.right)
    if isinstance(e, UnOp):
        return expr_calls(e.operand)
    return set()


def _expr_has_sensitive_call(e: Any) -> bool:
    return not ORDER_SENSITIVE_FUNCTIONS.isdisjoint(expr_calls(e))


def _sensitive_sites(rule: Rule) -> int:
    """Number of body/head elements containing an order-sensitive call."""
    sites = 0
    for elem in rule.body:
        if isinstance(elem, Atom):
            exprs: tuple = elem.args
        elif isinstance(elem, NotIn):
            exprs = elem.atom.args
        elif isinstance(elem, Assign):
            exprs = (elem.expr,)
        elif isinstance(elem, Cond):
            exprs = (elem.expr,)
        else:
            return 2  # unknown element: force fallback
        if any(_expr_has_sensitive_call(e) for e in exprs):
            sites += 1
    head_exprs = tuple(
        a.var if isinstance(a, AggSpec) else a for a in rule.head.args
    )
    if any(_expr_has_sensitive_call(e) for e in head_exprs):
        sites += 1
    return sites

_INLINE_CONSTS = (int, str, float, bool, type(None))


def atom_needs_dedup(atom: Atom, table: Any = None) -> bool:
    """Whether an atom step can map distinct rows onto the same binding
    (and so needs the dedup generated source otherwise skips).

    Only wildcard columns can collapse distinct rows.  And when the atom
    enumerates *live rows of a keyed table* whose key columns are all
    non-wildcard, even wildcards cannot: two distinct stored rows differ
    in some key column, which is visible to the binding.  Pass the
    resolved ``table`` only for sources enumerating live table rows
    (scan / probe / pk-get) — not for delta lists, where a primary-key
    displacement can leave two same-key row versions in one delta, nor
    for event pools (unkeyed).
    """
    nonwild = {
        col
        for col, a in enumerate(atom.args)
        if not (isinstance(a, Var) and a.is_wildcard)
    }
    if len(nonwild) == len(atom.args):
        return False
    if table is not None:
        keys = table.decl.keys
        if keys and set(keys) <= nonwild:
            return False
    return True


def witness_slots(rule: Rule, order: list) -> tuple[int, ...]:
    """For each positive atom of ``rule``, in rule order, its index among
    the atoms of a ``plan.body_order`` result (a driving ``notin`` atom
    or group key has none): where its row sits in execution order."""
    atoms = [elem for elem, _view in order if isinstance(elem, Atom)]
    slots: list[int] = []
    for atom in rule.positives:
        slots.append(next(
            i for i, a in enumerate(atoms) if a is atom and i not in slots
        ))
    return tuple(slots)


class Unsupported(Exception):
    """Raised when a rule shape cannot be emitted; the plan then runs
    through the interpreter, and ``explain()`` says so with the reason."""


class Access(NamedTuple):
    """How a body atom reads its candidate rows.

    ``kind`` is ``delta`` (the plan's driving rows), ``pk-get`` (one
    ``Table.lookup_key`` on ``key``), ``probe`` (the composite index on
    ``probe``), ``scan`` (every stored row) or ``scan-events`` (this
    step's event pool).  ``probe`` lists every column the access pins —
    each constant and previously-bound variable — also under ``pk-get``,
    where the non-key ones are checked on the fetched row."""

    kind: str
    probe: tuple[int, ...] = ()
    key: tuple[int, ...] = ()

    def __str__(self) -> str:
        if self.kind == "pk-get":
            return f"pk-get [{', '.join(map(str, self.key))}]"
        if self.kind == "probe":
            return f"probe [{', '.join(map(str, self.probe))}]"
        return self.kind


def access_path(
    atom: Atom, view: Optional[str], bound: Container[str], catalog: Catalog
) -> Access:
    """The access path of ``atom`` when the variables in ``bound`` are
    bound and it reads ``view`` (``None`` for a ``notin``): what the
    emitter generates and what :func:`describe_steps` prints."""
    if view == "delta":
        return Access("delta")
    table = catalog.tables.get(atom.name)
    if table is None:
        return Access("scan-events")
    probe = tuple(
        col
        for col, a in enumerate(atom.args)
        if isinstance(a, Const)
        or (isinstance(a, Var) and not a.is_wildcard and a.name in bound)
    )
    if not probe:
        return Access("scan")
    keys = table.decl.keys or tuple(range(table.decl.arity))
    if set(keys) <= set(probe):
        return Access("pk-get", probe, tuple(keys))
    return Access("probe", probe)


def describe_steps(order: list, catalog: Catalog) -> tuple[str, ...]:
    """One line per element of a ``plan.body_order`` result: the atom and
    its access path (``\\ delta`` when it reads full-minus-delta,
    ``[dedup]`` when distinct rows can share a binding), ``antijoin`` for
    a ``notin``, ``assign`` / ``check`` / ``filter`` for the rest."""
    bound: set[str] = set()
    lines = []
    for elem, view in order:
        if isinstance(elem, Atom):
            line = f"{elem.name}: {access_path(elem, view, bound, catalog)}"
            if view == "full-minus-delta":
                line += " \\ delta"
            table = None if view == "delta" else catalog.tables.get(elem.name)
            if atom_needs_dedup(elem, table):
                line += " [dedup]"
            bound |= {
                a.name for a in elem.args
                if isinstance(a, Var) and not a.is_wildcard
            }
        elif isinstance(elem, NotIn):
            access = access_path(elem.atom, None, bound, catalog)
            line = f"antijoin {elem.atom.name}: {access}"
        elif isinstance(elem, Assign):
            name = elem.var.name
            line = f"{'check' if name in bound else 'assign'} {name}"
            bound.add(name)
        else:
            line = f"filter {elem}"
        lines.append(line)
    return tuple(lines)


def _overlog_div(a: Any, b: Any) -> Any:
    # Integer operands use integer division (Overlog is int-heavy: chunk
    # offsets, slot counts); any float operand gives float math.
    if isinstance(a, int) and isinstance(b, int):
        return a // b
    return a / b


def _wildcard_value() -> Any:
    raise EvaluationError("wildcard _ used where a value is required")


def _unbound(name: str) -> Any:
    raise EvaluationError(f"unbound variable {name}")


class _Emitter:
    """Emits one flat function for one (rule, body order, kind)."""

    def __init__(self, rule: Rule, order: list, catalog: Catalog, ns: dict):
        self.rule = rule
        self.order = order
        self.catalog = catalog
        # What the emitted code refers to by name: the helpers below, the
        # tables it reads and the constants it cannot inline.  ``_call``
        # (the runtime's FunctionLibrary.call) is bound per runtime.
        self.ns = ns
        self.n = 0
        self.preamble: list[str] = []
        self.body: list[str] = []
        ns["_div"] = _overlog_div
        ns["_wild"] = _wildcard_value
        ns["_unbound"] = _unbound
        ns["_E"] = ()

    # -- small helpers ------------------------------------------------------

    def tmp(self, prefix: str) -> str:
        self.n += 1
        return f"_{prefix}{self.n}"

    def w(self, indent: int, text: str) -> None:
        self.body.append("    " * indent + text)

    def table_ref(self, name: str) -> str:
        ref = f"_tbl_{name}"
        if not ref.isidentifier():
            raise Unsupported(f"relation name {name!r}")
        self.ns[ref] = self.catalog.table(name)
        return ref

    def const_expr(self, value: Any) -> str:
        if type(value) in _INLINE_CONSTS:
            return repr(value)
        ref = self.tmp("c")
        self.ns[ref] = value
        return ref

    def var_local(self, name: str) -> str:
        local = f"v_{name}"
        if not local.isidentifier():
            raise Unsupported(f"variable name {name!r}")
        return local

    # -- expressions --------------------------------------------------------

    def expr(self, e: Expr, varmap: dict[str, str]) -> str:
        if isinstance(e, Const):
            return self.const_expr(e.value)
        if isinstance(e, Var):
            if e.is_wildcard:
                return "_wild()"
            local = varmap.get(e.name)
            if local is None:
                return f"_unbound({e.name!r})"
            return local
        if isinstance(e, FuncCall):
            args = ", ".join(self.expr(a, varmap) for a in e.args)
            if args:
                args += ","
            return f"_call({e.name!r}, ({args}))"
        if isinstance(e, UnOp):
            inner = self.expr(e.operand, varmap)
            if e.op == "-":
                return f"(-({inner}))"
            if e.op == "!":
                return f"(not ({inner}))"
            raise Unsupported(f"unary operator {e.op}")
        if isinstance(e, BinOp):
            left = self.expr(e.left, varmap)
            right = self.expr(e.right, varmap)
            if e.op == "&&":
                return f"bool(({left}) and ({right}))"
            if e.op == "||":
                return f"bool(({left}) or ({right}))"
            if e.op == "/":
                return f"_div({left}, {right})"
            if e.op in _DIRECT_BINOPS:
                return f"(({left}) {e.op} ({right}))"
            raise Unsupported(f"operator {e.op}")
        raise Unsupported(f"expression {e!r}")

    # -- matcher (shared by positive atoms and negation) --------------------

    def emit_match(
        self,
        atom: Atom,
        row: str,
        indent: int,
        varmap: dict[str, str],
        probed: set[int],
        needs_len: bool,
        bind_temp: bool,
    ) -> int:
        """Emit the per-row unification for ``atom`` (binds + checks, in
        strict column order, like the interpreter's ``match_atom``).
        Returns the indent level of the matched block.  ``bind_temp``
        binds new variables to throwaway temps (negation) instead of
        ``v_`` locals.
        """
        conds: list[str] = []
        if needs_len:
            conds.append(f"len({row}) == {len(atom.args)}")

        def flush(ind: int) -> int:
            if conds:
                self.w(ind, "if " + " and ".join(conds) + ":")
                conds.clear()
                return ind + 1
            return ind

        seen_new: set[str] = set()
        for col, arg in enumerate(atom.args):
            if isinstance(arg, Var):
                if arg.is_wildcard:
                    continue
                if arg.name in varmap or arg.name in seen_new:
                    if col not in probed:
                        conds.append(f"{varmap[arg.name]} == {row}[{col}]")
                else:
                    indent = flush(indent)
                    local = (
                        self.tmp("t") if bind_temp else self.var_local(arg.name)
                    )
                    self.w(indent, f"{local} = {row}[{col}]")
                    varmap[arg.name] = local
                    seen_new.add(arg.name)
            elif isinstance(arg, Const):
                if col not in probed:
                    conds.append(f"{self.const_expr(arg.value)} == {row}[{col}]")
            else:
                conds.append(f"({self.expr(arg, varmap)}) == {row}[{col}]")
        return flush(indent)

    # -- body elements ------------------------------------------------------

    def probe_values(
        self, atom: Atom, access: Access, varmap: dict[str, str]
    ) -> dict[int, str]:
        """Column -> value expression for every column ``access`` pins."""
        values = {}
        for col in access.probe:
            arg = atom.args[col]
            values[col] = (
                self.const_expr(arg.value) if isinstance(arg, Const)
                else varmap[arg.name]
            )
        return values

    def emit_candidates(
        self, atom: Atom, access: Access, row: str, indent: int,
        varmap: dict[str, str],
    ) -> int:
        """Emit the loop (or, for ``pk-get``, the single fetch and guard)
        that binds ``row`` to each candidate row of ``atom``; returns the
        indent of the candidate block."""
        if access.kind == "delta":
            self.w(indent, f"for {row} in delta_rows:")
            return indent + 1
        if access.kind == "scan-events":
            self.w(indent, f"for {row} in ev._event_pool.get({atom.name!r}, _E):")
            return indent + 1
        tbl = self.table_ref(atom.name)
        if access.kind == "scan":
            self.w(indent, f"for {row} in {tbl}.rows_list():")
            return indent + 1
        values = self.probe_values(atom, access, varmap)
        if access.kind == "pk-get":
            # lookup_key pins only the key columns; the other probed
            # columns are checked before any matcher op, so the candidate
            # set is exactly the composite probe's.
            key_expr = ", ".join(values[c] for c in access.key) + ","
            self.w(indent, f"{row} = {tbl}.lookup_key(({key_expr}))")
            guard = [f"{row} is not None"] + [
                f"{val} == {row}[{col}]"
                for col, val in values.items()
                if col not in access.key
            ]
            self.w(indent, "if " + " and ".join(guard) + ":")
            return indent + 1
        if len(values) == 1:
            ((col, val),) = values.items()
            # _ref: the live index bucket, uncopied — safe because this
            # function materializes its output before returning.
            self.w(indent, f"for {row} in {tbl}.rows_matching_ref({col}, {val}):")
        else:
            cols = ", ".join(map(str, values)) + ","
            vals = ", ".join(values.values()) + ","
            self.w(indent, f"for {row} in {tbl}.rows_matching_cols(({cols}), ({vals})):")
        return indent + 1

    def emit_atom(
        self, atom: Atom, source: str, indent: int, varmap: dict[str, str]
    ) -> int:
        access = access_path(atom, source, varmap, self.catalog)
        row = self.tmp("r")
        ban = None
        if source == "full-minus-delta":
            ban = self.tmp("ban")
            self.preamble.append(
                f"{ban} = None if exclude is None else exclude.get({atom.name!r})"
            )
        indent = self.emit_candidates(atom, access, row, indent, varmap)
        self.rows.append(row)
        if ban is not None:
            self.w(indent, f"if {ban} is None or {row} not in {ban}:")
            indent += 1
        # Driving rows and event pools are unchecked lists: test arity.
        needs_len = access.kind in ("delta", "scan-events")
        indent = self.emit_match(
            atom, row, indent, varmap, set(access.probe), needs_len,
            bind_temp=False,
        )
        table = None if source == "delta" else self.catalog.tables.get(atom.name)
        if atom_needs_dedup(atom, table):
            # Wildcard columns can map distinct rows onto the same
            # binding; dedup on the bound locals (fixed key set ⇒ same
            # discriminator as the interpreter's frozenset(env.items())).
            seen = self.tmp("seen")
            self.preamble.append(f"{seen} = set()")
            sig = self.tmp("sig")
            vals = ", ".join(varmap[k] for k in sorted(varmap))
            self.w(indent, f"{sig} = ({vals + ',' if vals else ''})")
            self.w(indent, f"if {sig} not in {seen}:")
            indent += 1
            self.w(indent, f"{seen}.add({sig})")
        return indent

    def emit_neg(self, atom: Atom, indent: int, varmap: dict[str, str]) -> int:
        access = access_path(atom, None, varmap, self.catalog)
        hit = self.tmp("hit")
        nrow = self.tmp("n")
        self.w(indent, f"{hit} = False")
        inner = self.emit_candidates(atom, access, nrow, indent, varmap)
        inner = self.emit_match(
            atom, nrow, inner, dict(varmap), set(access.probe),
            needs_len=access.kind == "scan-events", bind_temp=True,
        )
        self.w(inner, f"{hit} = True")
        if access.kind != "pk-get":
            self.w(inner, "break")
        self.w(indent, f"if not {hit}:")
        return indent + 1

    # -- whole function -----------------------------------------------------

    def emit_function(self, name: str, kind: str) -> str:
        """Emit one function and return its source.  ``kind`` picks the
        output shape: ``plain`` -> (rel, row) and ``tracked`` -> (rel,
        row, witness) for a rule; ``agg`` -> values and ``tracked`` ->
        (values, witness) per group key for an aggregate."""
        rule = self.rule
        self.preamble = []
        self.body = []
        self.rows: list[str] = []  # row local of each atom, in order
        varmap: dict[str, str] = {}
        indent = 1
        for elem, source in self.order:
            if isinstance(elem, Atom):
                indent = self.emit_atom(elem, source, indent, varmap)
            elif isinstance(elem, NotIn):
                indent = self.emit_neg(elem.atom, indent, varmap)
            elif isinstance(elem, Assign):
                vname = elem.var.name
                if vname in varmap:
                    self.w(
                        indent,
                        f"if {varmap[vname]} == ({self.expr(elem.expr, varmap)}):",
                    )
                    indent += 1
                else:
                    local = self.var_local(vname)
                    self.w(indent, f"{local} = {self.expr(elem.expr, varmap)}")
                    varmap[vname] = local
            elif isinstance(elem, Cond):
                self.w(indent, f"if ({self.expr(elem.expr, varmap)}):")
                indent += 1
            else:
                raise Unsupported(f"body element {elem!r}")

        out = ""
        if kind == "tracked":
            out = ", (" + "".join(
                f"({atom.name!r}, {self.rows[slot]}), "
                for atom, slot in zip(rule.positives, witness_slots(rule, self.order))
            ) + ")"
        if rule.is_aggregate:
            # Pre-projected fold input for AggregatePlan: the
            # aggregated-values tuple of each distinct binding (with its
            # witness: tracked), batched under its group-key tuple, in the
            # exact positional order of ``group_fns`` / ``agg_specs`` —
            # wildcard count<*> slots carry None, like ``project``.
            keys = ", ".join(
                self.expr(a, varmap)
                for a in rule.head.args
                if not isinstance(a, AggSpec)
            )
            vals = ", ".join(
                "None" if a.var.is_wildcard else self.expr(a.var, varmap)
                for a in rule.head.args
                if isinstance(a, AggSpec)
            )
            self.w(indent, f"_k = ({keys + ',' if keys else ''})")
            self.w(indent, f"_v = (({vals},){out})" if out else f"_v = ({vals},)")
            self.w(indent, "_b = _get(_k)")
            self.w(indent, "if _b is None:")
            self.w(indent + 1, "_out[_k] = [_v]")
            self.w(indent, "else:")
            self.w(indent + 1, "_b.append(_v)")
        else:
            args = ", ".join(self.expr(a, varmap) for a in rule.head.args)
            head_tuple = f"({args + ',' if args else ''})"
            self.w(indent, f"_append(({rule.head.name!r}, {head_tuple}{out}))")

        lines = [f"def {name}(ev, delta_rows=(), exclude=None):"]
        if rule.is_aggregate:
            lines += ["    _out = {}", "    _get = _out.get"]
        else:
            lines += ["    _out = []", "    _append = _out.append"]
        lines += ["    " + p for p in self.preamble]
        lines += self.body
        lines += ["    return _out"]
        return "\n".join(lines)


class _Unit(NamedTuple):
    """A generated plan, minus the runtime it will run in — or, where the
    emitter declined (``code`` None), why."""

    code: Any
    source: Optional[str]
    steps: tuple[str, ...]  # describe_steps of the emitted body order
    names: dict[str, str]  # kind -> function name
    tables: dict[str, str]  # namespace name -> relation whose Table it is
    shared: dict[str, Any]  # namespace entries every runtime can share
    reason: Optional[str] = None


def _declined(reason: str) -> _Unit:
    return _Unit(None, None, (), {}, {}, {}, reason)


# (rule text, drive, kinds, table declarations) -> _Unit.  Values hold
# nothing of any runtime; the memo is emptied when it outgrows _UNIT_LIMIT
# (a test process generating programs, not a deployment).
_UNITS: dict[tuple, _Unit] = {}
_UNIT_LIMIT = 8192
# id(rule) -> (rule, repr(rule)): the memo keys' rule texts.  Parsing is
# memoized too, so the replicas of a program share Rule objects and each
# rule's text is rendered once.
_TEXTS: dict[int, tuple[Rule, str]] = {}


def _rule_text(rule: Rule) -> str:
    # repr, not the rule: Const(1) == Const(1.0) == Const(True).
    known = _TEXTS.get(id(rule))
    if known is None or known[0] is not rule:
        if len(_TEXTS) >= _UNIT_LIMIT:
            _TEXTS.clear()
        known = _TEXTS[id(rule)] = (rule, repr(rule))
    return known[1]


def _emit_unit(
    rule: Rule, drive: Any, catalog: Catalog, kinds: tuple[str, ...]
) -> _Unit:
    from .plan import body_order, describe_fold, drive_tag  # imports us

    sites = _sensitive_sites(rule)
    if sites > 1:
        # The interpreter's breadth-first order fixes the call sequence.
        return _declined(f"{sites} order-sensitive call sites")
    tag = drive_tag(drive)
    order = body_order(rule, drive, catalog)
    ns: dict[str, Any] = {}
    chunks: list[str] = []
    names: dict[str, str] = {}
    try:
        emitter = _Emitter(rule, order, catalog, ns)
        for kind in kinds:
            fn_name = f"_{rule.name}_{tag.replace('@', '_')}_{kind}"
            if not fn_name.isidentifier():
                fn_name = f"_plan_{kind}"
            chunks.append(emitter.emit_function(fn_name, kind))
            names[kind] = fn_name
    except Unsupported as exc:
        return _declined(str(exc))
    steps = describe_steps(order, catalog)
    header = [f"# rule {rule.name} [{tag}] :: {rule}"]
    if rule.is_aggregate:
        header.append(f"#   => aggregate [{describe_fold(rule, catalog)}]")
    header += [f"#   {i}. {line}" for i, line in enumerate(steps)]
    source = "\n".join(header) + "\n" + "\n\n".join(chunks) + "\n"
    try:
        code = compile(source, f"<codegen:{rule.name}:{tag}>", "exec")
    except SyntaxError:  # pragma: no cover - emitter bug guard
        return _declined("emitted source does not compile")
    tables = {
        ref: value.name for ref, value in ns.items() if isinstance(value, Table)
    }
    shared = {ref: value for ref, value in ns.items() if ref not in tables}
    return _Unit(code, source, steps, names, tables, shared)


def generate_plan_source(
    rule: Rule,
    drive: Any,
    catalog: Catalog,
    functions: FunctionLibrary,
    kinds: tuple[str, ...],
) -> tuple[Optional[dict[str, Any]], _Unit]:
    """Compile one (rule, drive) to flat functions.

    ``drive`` is what the plan's rows range over and fixes the body's
    execution order (``plan.body_order``).  Returns ``(fns, unit)``:
    ``fns`` maps each requested kind (``plain`` / ``agg`` / ``tracked``)
    to a function ``(ev, delta_rows, exclude)`` bound to this
    runtime's tables, and is None when the emitter declined
    (``unit.reason`` says why); ``unit.source`` and ``unit.steps`` are
    the text and the step lines.
    """
    read = {atom.name for atom in (*rule.positives, *rule.negatives)}
    key = (
        _rule_text(rule), drive, kinds,
        tuple(catalog.tables[n].decl for n in sorted(read & catalog.tables.keys())),
    )
    unit = _UNITS.get(key)
    if unit is None:
        if len(_UNITS) >= _UNIT_LIMIT:
            _UNITS.clear()
        unit = _UNITS[key] = _emit_unit(rule, drive, catalog, kinds)
    if unit.code is None:
        return None, unit
    ns = dict(unit.shared)
    ns["_call"] = functions.call
    for ref, relation in unit.tables.items():
        ns[ref] = catalog.table(relation)
    exec(unit.code, ns)
    return {kind: ns[name] for kind, name in unit.names.items()}, unit


class _EnvVars(dict):
    """Every variable, read from the environment dict ``env``."""

    def get(self, name: str, default: Any = None) -> str:
        return f"(env[{name!r}] if {name!r} in env else _unbound({name!r}))"


# repr(expression) -> (code, shared namespace) for compile_expr; apart
# from _UNITS so that expressions never evict plan or driver units.
_EXPRS: dict[str, tuple] = {}


def compile_expr(expr: Expr, functions: FunctionLibrary) -> Any:
    """Compile an expression AST into a function ``env -> value`` over a
    binding environment dict: the emitter's inline expression, for
    aggregate projection, which reads environments after a body ran.
    Compiled once per expression text."""
    key = repr(expr)
    unit = _EXPRS.get(key)
    if unit is None:
        shared: dict[str, Any] = {}
        try:
            text = _Emitter(None, [], None, shared).expr(expr, _EnvVars())
        except Unsupported as exc:
            raise EvaluationError(f"cannot evaluate {expr!r}: {exc}") from None
        if len(_EXPRS) >= _UNIT_LIMIT:
            _EXPRS.clear()
        unit = _EXPRS[key] = (compile(f"lambda env: {text}", "<expr>", "eval"), shared)
    code, shared = unit
    return eval(code, {**shared, "_call": functions.call})


# ---------------------------------------------------------------------------
# Stratum drivers
# ---------------------------------------------------------------------------


def const_column(atom: Atom) -> tuple[Optional[int], Any]:
    """Predicate-dispatch hint: the first constant column of an atom (e.g.
    the op-type string of request rules) as ``(column, value)``, else
    ``(None, None)``.  Rows that miss it cannot bind the atom, so a plan
    is handed only the matching rows of a delta and skipped when there
    are none — the plan itself re-checks the constant, so the hint is
    purely a filter."""
    for col, arg in enumerate(atom.args):
        if isinstance(arg, Const):
            try:
                hash(arg.value)
            except TypeError:
                continue
            return col, arg.value
    return None, None


# A fixpoint that runs longer than this many semi-naive passes within a
# single stratum is assumed to be oscillating through primary-key updates.
MAX_FIXPOINT_ITERATIONS = 10_000


def _diverged() -> None:
    raise EvaluationError("fixpoint did not converge (primary-key oscillation?)")


class _Driver(NamedTuple):
    """A generated stratum driver, minus the runtime it will run in."""

    code: Any
    source: str
    name: str
    # namespace name -> what the runtime binds there: ("plan", (rule,
    # drive)), ("agg", aggregate), ("rule", rule) or ("route", rule); a
    # rule indexes the normal rules then the aggregates of the stratum.
    refs: dict[str, tuple]
    shared: dict[str, Any]


def _emit_stratum(
    index: int, rules: tuple[Rule, ...], catalog: Catalog, observed: bool
) -> _Driver:
    """Emit the semi-naive fixpoint of one stratum as one function
    ``driver(ev)``: the idle check, the aggregates' activation, the
    catch-up with full-dirty and removed rows, then per pass the
    constant-column dispatch of each relation's delta, every plan call in
    (rule, sequence) order and each rule's head routing.  The plain
    variant calls plan functions and routers (``Evaluator._router``)
    directly; the ``observed`` one calls plans through ``_run`` (the
    ledger's shape, the profiler's sampling) and routes through
    ``ev._route``."""
    from .plan import agg_gate, body_order, drive_tag, removal_drives  # imports us

    normal = [r for r in rules if not r.is_aggregate]
    aggs = [r for r in rules if r.is_aggregate]
    rules = (*normal, *aggs)
    refs: dict[str, tuple] = {}
    shared: dict[str, Any] = {"_E": (), "_NO": {}, "_diverged": _diverged}
    body: list[str] = []
    helpers: list[str] = []

    def w(indent: int, text: str) -> None:
        body.append("    " * indent + text)

    def const(value: Any) -> str:
        if type(value) in _INLINE_CONSTS:
            return repr(value)
        name = f"_c{len(shared)}"
        shared[name] = value
        return name

    def events(ridx: int, drive: Any) -> str:
        """`` and pools.get(e)`` per event relation the plan reads before
        it evaluates anything: an empty pool means it binds nothing."""
        guard = ""
        for elem, view in body_order(normal[ridx], drive, catalog):
            if not isinstance(elem, Atom) or not all(
                isinstance(a, (Var, Const)) for a in elem.args
            ):
                break
            if view != "delta" and not catalog.is_materialized(elem.name):
                guard += f" and pools.get({elem.name!r})"
        return guard

    def call(ridx: int, drive: Any, rows: str, exclude: str = "delta") -> str:
        name = f"_p{ridx}_{drive_tag(drive).replace('@', '')}"
        refs[name] = ("plan", (ridx, drive))
        if observed:
            return f"_run({name}, ev, {rows}, {exclude})"
        return f"{name}(ev, {rows}, {exclude})"

    def stage(i: int, out: str) -> str:
        """Stage a rule's head rows ``out`` for routing once every plan of
        the pass has run (with its router, or for ``ev._route``)."""
        ref = f"_rule{i}" if observed else f"_route{i}"
        refs[ref] = ("rule" if observed else "route", i)
        return f"staged.append(({ref}, {out}))"

    # relation -> the (rule, drive, constant column, value) entries it
    # dispatches to: the positive atoms of the normal rules in rule-major
    # order, then the event gates of the aggregates (their bits follow
    # the normal rules').
    dispatch: dict[str, list] = {}
    for ridx, rule in enumerate(normal):
        for pos, atom in enumerate(rule.positives):
            dispatch.setdefault(atom.name, []).append(
                (ridx, ("delta", pos), *const_column(atom))
            )
    gates = {}
    for j, rule in enumerate(aggs):
        gate = agg_gate(rule, catalog)
        if gate is not None:
            atom = gates[j] = rule.positives[gate[1]]
            dispatch.setdefault(atom.name, []).append(
                (len(normal) + j, gate, *const_column(atom))
            )
    removal = {
        ridx: removal_drives(rule, catalog) or () for ridx, rule in enumerate(normal)
    }
    shared["_read"] = frozenset(
        a.name for r in rules for a in (*r.positives, *r.negatives)
    )
    header = [
        f"# stratum {index} driver [{'observed' if observed else 'plain'}]"
        f" :: {', '.join(r.name for r in rules)}"
    ] + [
        f"#   {rel} -> " + ", ".join(
            f"{rules[ridx].name} [{drive_tag(drive)}"
            + ("" if ccol is None else f" if [{ccol}] == {cval!r}") + "]"
            for ridx, drive, ccol, cval in entries
        )
        for rel, entries in dispatch.items()
    ] + [
        f"#   removed from {normal[ridx].negatives[k].name} -> "
        f"{normal[ridx].name} [removed@{k}]"
        for ridx, ks in removal.items() for k in ks
    ]

    # Idle: nothing this stratum reads changed.
    w(1, "active = ev._active")
    w(1, "if active.isdisjoint(_read):")
    w(2, f"return ev._record_iterations({index}, 1)")
    w(1, f"ev._cur_stratum = {index}")
    w(1, "pools = ev._event_pool")
    w(1, "delta = ev._accumulated")
    w(1, "if ev._full_dirty or ev._removed or ev._removed_prev:")
    w(2, f"full, rem = ev._catch_up({index})")
    w(1, "else:")
    w(2, "full = rem = _NO")
    w(1, "passes = 0")
    w(1, "while True:")
    if observed:
        w(2, "ev._cur_pass = passes")

    # The dispatch: each relation with delta rows sets, in ``m``, the bit
    # of every rule it can drive: ``_bits`` holds those of the rules
    # reading it with no constant column, and its ``_splitN`` buckets the
    # rows by each constant column its readers pin (``bk[key]``: value ->
    # rows) and sets the bits of the readers whose constant some row
    # carries.
    bits: dict[str, int] = {}
    splits: dict[str, str] = {}
    split_key: dict[tuple[str, int], int] = {}
    for rel, entries in dispatch.items():
        plain = {ridx for ridx, _drive, ccol, _v in entries if ccol is None}
        if plain:
            bits[rel] = sum(1 << ridx for ridx in plain)
        ccols = sorted({e[2] for e in entries if e[2] is not None})
        if not ccols:
            continue
        fn = splits[rel] = f"_split{len(splits)}"
        src = [f"def {fn}(rows, bk):", "    m = 0"]
        for ccol in ccols:
            key = split_key[rel, ccol] = len(split_key)
            masks: dict[Any, int] = {}
            for ridx, _drive, c, cval in entries:
                if c == ccol:
                    masks[cval] = masks.get(cval, 0) | 1 << ridx
            ind = "        "
            src += ["    b = {}", "    for r in rows:"]
            if not catalog.is_materialized(rel):
                src.append(f"{ind}if len(r) > {ccol}:")
                ind += "    "
            src += [
                f"{ind}b.setdefault(r[{ccol}], []).append(r)",
                f"    bk[{key}] = b",
                "    for v in b:",
                f"        m |= {const(masks)}.get(v, 0)",
            ]
        helpers.append("\n".join(src + ["    return m"]))
    shared["_bits"] = bits
    helpers.append(
        "_split = {" + ", ".join(f"{rel!r}: {fn}" for rel, fn in splits.items()) + "}"
    )

    def rows_expr(atom: Atom) -> str:
        """Binds ``x`` to the delta rows ``atom`` can match; true if any."""
        ccol, cval = const_column(atom)
        if ccol is None:
            return f"(x := delta.get({atom.name!r}))"
        return (
            f"(x := bk.get({split_key[atom.name, ccol]})) "
            f"and (x := x.get({const(cval)}))"
        )

    w(2, "m = 0")
    if split_key:
        w(2, "bk = {}")
        w(2, "for rel, rows in delta.items():")
        w(3, "if rel in _bits:")
        w(4, "m |= _bits[rel]")
        w(3, "if rel in _split:")
        w(4, "m |= _split[rel](rows, bk)")
    else:
        w(2, "for rel in delta:")
        w(3, "if rel in _bits:")
        w(4, "m |= _bits[rel]")
    w(2, "if full or rem:")
    w(3, "for k in (*full, *rem):")
    w(4, "m |= 1 << k")
    w(2, "elif not m and passes:")  # a pass that derives nothing
    w(3, "break")
    w(2, "staged = []")
    # Aggregates read lower strata only: one activation, in pass 0 —
    # those with an event atom on the events their gate lets through,
    # the others when a relation they read is active.
    if aggs:
        w(2, "if not passes:")
    for j, rule in enumerate(aggs):
        refs[f"_a{j}"] = ("agg", j)
        run = f"ev._run_aggregate(_a{j}, {{}}, {index}, delta)"
        atom = gates.get(j)
        if atom is None:
            shared[f"_rels{j}"] = frozenset(
                a.name for a in (*rule.positives, *rule.negatives)
            )
            guard = f"not active.isdisjoint(_rels{j})"
            header.append(f"#   aggregate {rule.name} when its relations change")
        else:
            guard = f"m & {1 << len(normal) + j} and {rows_expr(atom)}"
        w(3, f"if {guard} and (x := {run.format('x' if atom else 'None')}):")
        w(4, stage(len(normal) + j, "x"))

    # Plan calls in (rule, sequence) order, each rule skipped when its bit
    # is not set.
    for ridx, rule in enumerate(normal):
        w(2, f"if m & {1 << ridx}:  # {rule.name}")
        w(3, f"if full and {ridx} in full:")
        w(4, f"if x := {call(ridx, None, '_E', 'None')}:")
        w(5, stage(ridx, "x"))
        w(3, "else:")
        for pos, atom in enumerate(rule.positives):
            plan = call(ridx, ("delta", pos), "x")
            guard = events(ridx, ("delta", pos))
            w(4, f"if {rows_expr(atom)}{guard} and (x := {plan}):")
            w(5, stage(ridx, "x"))
        for k in removal[ridx]:
            plan = call(ridx, ("removed", k), "x[1]")
            w(4, f"if rem and (x := rem.get({ridx})) and x[0] == {k} and (x := {plan}):")
            w(5, stage(ridx, "x"))
        if not rule.positives and not removal[ridx]:
            w(4, "pass")
    w(2, "new = {}")
    w(2, "ev._pass_delta = new")
    if observed:
        w(2, "for rule, items in staged:")
        w(3, "ev._route(rule, items, new)")
    else:
        w(2, "for route, items in staged:")
        w(3, "route(items, new)")
    w(2, "if not new:")
    w(3, "break")
    w(2, "delta = new")
    w(2, "full = rem = _NO")
    w(2, "passes += 1")
    w(2, f"if passes > {MAX_FIXPOINT_ITERATIONS}:")
    w(3, "_diverged()")
    w(1, f"ev._record_iterations({index}, passes + 1)")

    name = f"_stratum{index}"
    source = "\n".join(header + [f"def {name}(ev):"] + body)
    source += "\n\n" + "\n\n".join(helpers) + "\n"
    code = compile(source, f"<stratum:{index}>", "exec")
    return _Driver(code, source, name, refs, shared)


def generate_stratum_source(
    index: int,
    rules: tuple[Rule, ...],
    catalog: Catalog,
    observed: bool,
) -> _Driver:
    """The driver of stratum ``index`` (rules in stratum order), emitted
    and compiled once per process for the same rules over the same
    declarations; the caller binds ``refs`` and ``exec``s the code."""
    names = {a.name for r in rules for a in (r.head, *r.positives, *r.negatives)}
    key = (
        "stratum", index, observed, tuple(map(_rule_text, rules)),
        tuple((n, getattr(catalog.tables.get(n), "decl", None)) for n in sorted(names)),
    )
    unit = _UNITS.get(key)
    if unit is None:
        if len(_UNITS) >= _UNIT_LIMIT:
            _UNITS.clear()
        unit = _UNITS[key] = _emit_stratum(index, rules, catalog, observed)
    return unit
