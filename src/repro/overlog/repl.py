"""Interactive Overlog REPL.

Load a program, poke tuples in, tick the clock, inspect tables::

    python -m repro.overlog.repl src/repro/boomfs/programs/boomfs_master.olg

Commands:
    insert <rel> <v1> <v2> ...   queue a tuple (ints/floats auto-coerced;
                                 'true'/'false'/'nil' recognized)
    install <rel> <v1> ...       load a fact directly into a table
    tick [now_ms]                run one timestep (drains deferred work)
    dump <rel>                   print a table's rows
    tables                       list tables with row counts
    rules                        print the program's rules
    strata                       print relation strata
    watch <rel>                  echo future derivations of a relation
    \\why <rel> <v1> ...          derivation DAG of a tuple (provenance)
    \\whynot <rel> <v1> ...       why a tuple is absent ('?' = unknown col)
    \\profile [top]               sampled hot-rules report
    \\explain [rule]              plans and their access paths (+ fires)
    \\src [rule]                  Python source generated
                                 for a rule's plans (all rules if omitted)
    \\lat [trace]                 critical-path latency accounting of a
                                 trace (default: the last insert's)
    \\inv                         invariant violations recorded so far,
                                 each with a one-hop why() summary
    help / quit
"""

from __future__ import annotations

import sys
from typing import Any

from ..metrics.trace import Tracer
from .errors import OverlogError
from .parser import parse
from .runtime import OverlogRuntime
from .strata import compute_strata


def _coerce(token: str) -> Any:
    if token == "true":
        return True
    if token == "false":
        return False
    if token == "nil":
        return None
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        pass
    return token.strip('"')


class Repl:
    """The REPL runs its runtime with the derivation ledger and plan
    profiler enabled (unlike the library default of off): an interactive
    session is exactly where ``\\why``/``\\whynot``/``\\profile`` pay off,
    and its workloads are small enough that the overhead is invisible."""

    def __init__(
        self,
        source: str,
        address: str = "repl",
        provenance: bool = True,
        profile: bool = True,
    ):
        self.runtime = OverlogRuntime(
            parse(source),
            address=address,
            provenance=provenance,
            profile=profile,
        )
        self._now = 0
        # Every insert opens a trace, every tick annotates the steps it
        # causes, so \lat can explain where a tuple's time went even in
        # this single-node setting (timer waits, per-rule compute).
        self.tracer = Tracer(clock=lambda: self._now)
        self._last_trace: str | None = None
        # Programs carrying invariant packs (heads deriving
        # invariant_violation — see repro.monitoring.invariants) get a
        # live tally for \inv; plain programs skip the hook.
        self._violations: list[tuple] = []
        if self.runtime.catalog.is_declared("invariant_violation"):
            self.runtime.watch(
                "invariant_violation", self._violations.append
            )

    def execute(self, line: str) -> str:
        parts = line.split()
        if not parts:
            return ""
        cmd, *args = parts
        cmd = cmd.lstrip("\\")
        handler = getattr(self, f"cmd_{cmd}", None)
        if handler is None:
            return f"unknown command {cmd!r}; try 'help'"
        try:
            return handler(*args)
        except OverlogError as exc:
            return f"error: {exc}"
        except TypeError as exc:
            return f"usage error: {exc}"

    def cmd_insert(self, rel: str, *values: str) -> str:
        ref = self.tracer.start_trace(
            f"{rel} {' '.join(values)}".strip(), node="repl"
        )
        self._last_trace = ref.trace_id
        self.runtime.insert(
            rel, tuple(_coerce(v) for v in values), trace=(ref,)
        )
        return f"queued {rel}({', '.join(values)}) [trace {ref.trace_id}]"

    def cmd_install(self, rel: str, *values: str) -> str:
        self.runtime.install(rel, [tuple(_coerce(v) for v in values)])
        return f"installed {rel}({', '.join(values)})"

    def _traced_tick(self):
        """One runtime tick with the step annotated onto whatever traces
        its inbox tuples carried (mirrors OverlogProcess._run_step)."""
        fires_before = dict(self.runtime.evaluator.rule_fires)
        result = self.runtime.tick(now=self._now)
        ctx = self.runtime.last_step_ctx
        if ctx:
            annotation: dict[str, Any] = {
                "node": "repl",
                "derivations": result.derivation_count,
            }
            fired = sorted(
                (name, count - fires_before.get(name, 0))
                for name, count in self.runtime.evaluator.rule_fires.items()
                if count != fires_before.get(name, 0)
            )
            if fired:
                annotation["rules"] = fired
            self.tracer.annotate(ctx, "step", **annotation)
        return result

    def cmd_tick(self, now: str = "") -> str:
        if now:
            self._now = int(now)
        else:
            self._now += 1
        result = self._traced_tick()
        lines = [
            f"t={self._now}: {result.derivation_count} derivations, "
            f"{len(result.sends)} sends, {len(result.deletions)} deletions"
        ]
        for dest, rel, row in result.sends:
            lines.append(f"  send -> {dest}: {rel}{row}")
        steps = 0
        while self.runtime.has_pending_work and steps < 100:
            steps += 1
            follow = self._traced_tick()
            lines.append(
                f"  (+deferred step: {follow.derivation_count} derivations)"
            )
            for dest, rel, row in follow.sends:
                lines.append(f"  send -> {dest}: {rel}{row}")
        return "\n".join(lines)

    def cmd_dump(self, rel: str) -> str:
        rows = sorted(self.runtime.rows(rel), key=repr)
        if not rows:
            return f"{rel}: (empty)"
        return "\n".join(f"{rel}{row}" for row in rows)

    def cmd_tables(self) -> str:
        out = []
        for name, table in sorted(self.runtime.catalog.tables.items()):
            out.append(f"{name:24s} {len(table)} rows")
        return "\n".join(out)

    def cmd_rules(self) -> str:
        return "\n".join(str(r) for r in self.runtime.program.rules)

    def cmd_strata(self) -> str:
        strata = compute_strata(self.runtime.program.rules)
        by_level: dict[int, list[str]] = {}
        for rel, level in strata.items():
            by_level.setdefault(level, []).append(rel)
        return "\n".join(
            f"stratum {level}: {', '.join(sorted(rels))}"
            for level, rels in sorted(by_level.items())
        )

    def cmd_why(self, rel: str, *values: str) -> str:
        return self.runtime.why(rel, tuple(_coerce(v) for v in values))

    def cmd_whynot(self, rel: str, *values: str) -> str:
        from ..provenance.why import UNKNOWN

        row = tuple(
            UNKNOWN if v == "?" else _coerce(v) for v in values
        )
        return self.runtime.why_not(rel, row)

    def cmd_profile(self, top: str = "") -> str:
        return self.runtime.profile_report(top=int(top) if top else None)

    def cmd_explain(self, rule: str = "") -> str:
        return self.runtime.explain(rule or None)

    def cmd_src(self, rule: str = "") -> str:
        return self.runtime.generated_source(rule or None)

    def cmd_lat(self, trace: str = "") -> str:
        from ..latency import critical_path

        trace_id = trace or self._last_trace
        if trace_id is None:
            return "no traces yet — 'insert' something first"
        report = critical_path(self.tracer, trace_id)
        if report is None:
            return f"(no such trace {trace_id})"
        return report.render_text()

    def cmd_inv(self) -> str:
        if not self.runtime.catalog.is_declared("invariant_violation"):
            return "this program declares no invariant_violation relation"
        if not self._violations:
            return "no invariant violations recorded"
        lines = []
        for row in sorted(set(self._violations), key=repr):
            count = self._violations.count(row)
            times = f" (x{count})" if count > 1 else ""
            lines.append(f"invariant_violation{row}{times}")
            why = str(self.runtime.why("invariant_violation", row))
            hop = [ln for ln in why.splitlines() if ln.strip()][:4]
            lines.extend(f"    {ln}" for ln in hop)
        return "\n".join(lines)

    def cmd_watch(self, rel: str) -> str:
        self.runtime.watch(rel, lambda row: print(f"  [watch] {rel}{row}"))
        return f"watching {rel}"

    def cmd_help(self) -> str:
        return __doc__.split("Commands:", 1)[1]

    def cmd_quit(self) -> str:
        raise EOFError


def main(argv: list[str] | None = None) -> int:
    argv = argv if argv is not None else sys.argv[1:]
    if len(argv) != 1:
        print(__doc__)
        return 2
    with open(argv[0]) as f:
        source = f.read()
    repl = Repl(source)
    print(f"loaded {argv[0]}: {len(repl.runtime.program.rules)} rules "
          f"({len(repl.runtime.catalog.tables)} tables). 'help' for commands.")
    while True:
        try:
            line = input("olg> ")
        except (EOFError, KeyboardInterrupt):
            print()
            return 0
        try:
            output = repl.execute(line)
        except EOFError:
            return 0
        if output:
            print(output)


if __name__ == "__main__":
    raise SystemExit(main())
