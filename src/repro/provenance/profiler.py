"""Sampled per-plan profiler for the evaluator.

Times whole plan executions — the same generated function the unobserved
evaluator calls, timed as one unit — but only on sampled executions
(every ``sample_every``-th execution of each ``(rule, drive)`` plan,
always including the first), so the un-sampled hot path pays one
attribute load and counter increment per plan execution.

Sampled timings are scaled by the observed sampling ratio into
*estimated* totals; the hot-rules report (rendered through
:mod:`repro.metrics.export`) ranks rules by estimated time and breaks
each down per plan, listing each plan's steps — index and access path,
the lines ``explain()`` prints — so the two cross-reference by rule id
and step index.  Generated code has no step boundaries to time, so there
is no per-step time.
"""

from __future__ import annotations

from time import perf_counter_ns
from typing import Any, Callable, Optional

DEFAULT_SAMPLE_EVERY = 32


class _PlanStat:
    """Stats for one (rule, drive) plan."""

    __slots__ = (
        "rule", "tag", "fold", "steps", "execs", "sampled", "time_ns",
        "rows_out",
    )

    def __init__(self, plan: Any):
        self.rule = plan.rule.name
        self.tag = plan.tag
        self.fold = plan.fold  # aggregate rules: what the plan feeds
        self.steps = plan.steps  # describe lines, as explain() prints them
        self.execs = 0       # total executions (sampled or not)
        self.sampled = 0     # executions actually timed
        self.time_ns = 0     # total sampled plan time
        self.rows_out = 0    # head tuples (groups, for an aggregate's
        #                      contributions) from sampled executions


class PlanProfiler:
    """Decides which plan executions to time, and accumulates results.

    Every plan execution counts against the plan's stat — through
    :meth:`runner`, the plan call of the evaluator's observed stratum
    drivers, or :meth:`should_sample` for an aggregate's body plans — and
    a sampled one runs through :meth:`run_plan`, which calls the plan's
    own function and times it.  An aggregate rule's plans (``delta@i``,
    ``retract@i``, ...) are sampled under their own tags like any other.
    """

    def __init__(self, sample_every: int = DEFAULT_SAMPLE_EVERY):
        if sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        self.sample_every = sample_every
        self._stats: dict[tuple[str, str], _PlanStat] = {}

    def invalidate(self) -> None:
        """Drop every accumulated (rule, plan-tag) stat.

        Called by ``PlanCache.invalidate`` on a rule-set swap: stats are
        keyed by rule *name*, so letting them survive would attribute a
        new program's timings to same-named rules of the old one.  (A
        recompile of the *same* rules also lands here — plan ``_prof``
        slots are cleared with the plans, and the next execution re-links
        fresh stats.)"""
        self._stats = {}

    # -- sampling decision (hot path) ---------------------------------------

    def link(self, plan: Any) -> _PlanStat:
        """Find-or-create the stat for ``plan`` and cache it on the plan
        itself (``plan._prof``), so the evaluator's inlined sampling
        decision is one attribute load, an increment and a modulo."""
        key = (plan.rule.name, plan.tag)
        stat = self._stats.get(key)
        if stat is None:
            stat = self._stats[key] = _PlanStat(plan.generate())
        plan._prof = stat
        return stat

    def should_sample(self, plan: Any) -> bool:
        """Count one execution of ``plan``; True when it must be timed
        (the 1st, (1+N)th, (1+2N)th... execution of each plan)."""
        stat = plan._prof or self.link(plan)
        n = stat.execs
        stat.execs = n + 1
        return n % self.sample_every == 0

    def runner(self, kind: str) -> Callable:
        """The plan call of the evaluator's observed stratum drivers:
        ``run(plan, ev, rows, exclude)`` runs the plan's ``kind``
        (``plain`` / ``tracked``) function, counting the execution and
        timing the sampled ones."""

        def run(plan: Any, ev: Any, rows: Any, exclude: Any) -> Any:
            fn = getattr(plan, kind) or getattr(plan.generate(), kind)
            stat = plan._prof or self.link(plan)
            n = stat.execs
            stat.execs = n + 1
            if n % self.sample_every:
                return fn(ev, rows, exclude)
            return self.run_plan(stat, fn, ev, rows, exclude)

        return run

    # -- timed execution -----------------------------------------------------

    def run_plan(self, stat: _PlanStat, fn: Callable, *args: Any) -> Any:
        """``fn(*args)`` — the plan's function — timed into ``stat``."""
        t0 = perf_counter_ns()
        out = fn(*args)
        stat.time_ns += perf_counter_ns() - t0
        stat.sampled += 1
        stat.rows_out += len(out)
        return out

    # -- reporting -----------------------------------------------------------

    def hot_rules(self, top: Optional[int] = None) -> dict:
        """Estimated per-rule cost, scaled from sampled executions."""
        by_rule: dict[str, dict] = {}
        for stat in self._stats.values():
            scale = (stat.execs / stat.sampled) if stat.sampled else 0.0
            est_ns = stat.time_ns * scale
            entry = by_rule.setdefault(
                stat.rule,
                {"rule": stat.rule, "est_ms": 0.0, "execs": 0,
                 "sampled": 0, "plans": []},
            )
            entry["est_ms"] += est_ns / 1e6
            entry["execs"] += stat.execs
            entry["sampled"] += stat.sampled
            entry["plans"].append({
                "tag": stat.tag,
                "fold": stat.fold,
                "execs": stat.execs,
                "sampled": stat.sampled,
                "est_ms": est_ns / 1e6,
                "rows_out": stat.rows_out,
                "steps": [
                    {"step": i, "describe": line}
                    for i, line in enumerate(stat.steps)
                ],
            })
        rules = sorted(
            by_rule.values(), key=lambda r: r["est_ms"], reverse=True
        )
        if top is not None:
            rules = rules[:top]
        for entry in rules:
            entry["est_ms"] = round(entry["est_ms"], 3)
            entry["plans"].sort(key=lambda p: p["est_ms"], reverse=True)
            for p in entry["plans"]:
                p["est_ms"] = round(p["est_ms"], 3)
        return {"sample_every": self.sample_every, "rules": rules}
