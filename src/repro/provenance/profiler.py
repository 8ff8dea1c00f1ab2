"""Sampled per-plan profiler for the compiled evaluator.

Times each step (index probe, scan, matcher, negation check, assignment,
condition) of a compiled join plan — but only on sampled executions
(every ``sample_every``-th execution of each ``(rule, delta-position)``
plan, always including the first), so the un-sampled hot path pays one
dict lookup and counter increment per plan execution.

Sampled timings are scaled by the observed sampling ratio into
*estimated* totals; the hot-rules report (rendered through
:mod:`repro.metrics.export`) ranks rules by estimated time and breaks
each down per plan and per step, cross-referencing ``explain()`` output
by rule id and step index.
"""

from __future__ import annotations

from time import perf_counter_ns
from typing import Any, Optional

DEFAULT_SAMPLE_EVERY = 32


class _StepStat:
    __slots__ = ("describe", "runs", "time_ns", "envs_out")

    def __init__(self, describe: str):
        self.describe = describe
        self.runs = 0
        self.time_ns = 0
        self.envs_out = 0


class _PlanStat:
    """Stats for one (rule, delta-position) plan."""

    __slots__ = (
        "rule", "tag", "fold", "execs", "sampled", "time_ns", "steps",
        "rows_out",
    )

    def __init__(self, rule: str, tag: str, fold: Optional[str] = None):
        self.rule = rule
        self.tag = tag
        self.fold = fold     # aggregate rules: what the plan feeds
        self.execs = 0       # total executions (sampled or not)
        self.sampled = 0     # executions actually timed
        self.time_ns = 0     # total sampled plan time
        self.steps: list[_StepStat] = []
        self.rows_out = 0    # head tuples from sampled executions

    def step_stat(self, index: int, step: Any) -> _StepStat:
        steps = self.steps
        while len(steps) <= index:
            steps.append(None)
        ss = steps[index]
        if ss is None:
            # describe() renders text — only pay for it once per step.
            ss = steps[index] = _StepStat(step.describe())
        return ss


class PlanProfiler:
    """Decides which plan executions to time, and accumulates results.

    The evaluator calls :meth:`should_sample` on every plan execution;
    when it returns True, the execution is routed through
    :meth:`run_plan`, which produces exactly the same results as the
    plan's untimed path while timing each step.  An aggregate rule's
    plans (``delta@i``, ``retract@i``, ...) are sampled under their own
    tags like any other; the fold they feed is the evaluator's.
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
        decision is one attribute load, an increment and a modulo.
        Stats are *keyed* by (rule, tag) in ``_stats``; a rule-set swap
        flushes them through :meth:`invalidate` (via
        ``PlanCache.invalidate``) so a new program never inherits
        same-named rules' timings."""
        key = (plan.rule.name, plan.tag)
        stat = self._stats.get(key)
        if stat is None:
            stat = _PlanStat(*key, plan.fold)
            self._stats[key] = stat
        plan._prof = stat
        return stat

    def should_sample(self, plan: Any) -> bool:
        """Count one execution of ``plan``; True when it must be timed
        (the 1st, (1+N)th, (1+2N)th... execution of each plan).  The
        evaluator inlines this logic; kept as the reference entry point
        for tests and external callers."""
        stat = plan._prof
        if stat is None:
            stat = self.link(plan)
        n = stat.execs
        stat.execs = n + 1
        return n % self.sample_every == 0

    # -- timed execution -----------------------------------------------------

    def _run_steps(self, stat: _PlanStat, steps, ev, delta_rows, exclude):
        envs: list = [{}]
        for index, step in enumerate(steps):
            if not envs:
                break
            t0 = perf_counter_ns()
            envs = step.run(ev, envs, delta_rows, exclude)
            dt = perf_counter_ns() - t0
            ss = stat.step_stat(index, step)
            ss.runs += 1
            ss.time_ns += dt
            ss.envs_out += len(envs)
        return envs

    def run_plan(
        self, plan, ev, delta_rows, exclude, project, tracked: bool
    ) -> list:
        """Execute ``plan`` with per-step timing; same results as the
        plan's untimed path.  ``project(envs, tracked)`` turns the body
        environments into what the caller stages: the plan's own head
        projection, or an aggregate's contributions."""
        stat = plan._prof
        t_plan = perf_counter_ns()
        envs = self._run_steps(stat, plan.steps, ev, delta_rows, exclude)
        out = project(envs, tracked)
        stat.time_ns += perf_counter_ns() - t_plan
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
                    {
                        "step": i,
                        "describe": ss.describe,
                        "runs": ss.runs,
                        "time_ms": ss.time_ns / 1e6,
                        "envs_out": ss.envs_out,
                    }
                    for i, ss in enumerate(stat.steps)
                    if ss is not None
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
                for s in p["steps"]:
                    s["time_ms"] = round(s["time_ms"], 3)
        return {"sample_every": self.sample_every, "rules": rules}
