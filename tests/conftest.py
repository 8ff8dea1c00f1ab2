"""Rule coverage over the test session.

Every evaluator counts head derivations per rule in ``rule_fires``.  The
plugin below sums those counts per (shipped program, rule) across the
session and reports, at the end, each rule of a shipped ``.olg`` program
that never fired.  A run that collects every ``tests/test_*.py`` file,
deselects nothing and passes (the tier-1 command) fails when such a rule
exists; any other run only reports.

An evaluator's rule counts as the shipped one only when the evaluator is
built with it unmodified (same name, head and body), so a rewritten copy
of a rule (monitoring instrumentation) drives nothing here.  Each
evaluator's counts are harvested when it is collected, and the survivors'
at session end.

The same run also fails when a deployed program declares a relation that
none of its rules names (head, body or ``notin``): such a declaration is
dead code that a rule-coverage count cannot see.
"""

from __future__ import annotations

import weakref
from pathlib import Path

import pytest

import repro
from repro.overlog import Evaluator, parse

TESTS = Path(__file__).resolve().parent


def deployments() -> dict:
    """Every program a shipped node runs, by deployment name."""
    from repro.boomfs import master_program
    from repro.mapreduce.jobtracker import POLICIES, scheduler_program
    from repro.paxos import paxos_program, replicated_master_program
    from repro.telemetry import monitor_program

    programs = {
        "master": master_program(),
        "paxos": paxos_program(),
        "replicated master": replicated_master_program(),
        "monitor": monitor_program(),
    }
    for policy in POLICIES:
        programs[f"jobtracker ({policy})"] = scheduler_program(policy)
    return programs


def unnamed_relations() -> dict[str, list[str]]:
    """Per deployment, the declared relations that no rule names."""
    out = {}
    for deployment, program in deployments().items():
        named = {
            atom.name
            for rule in program.rules
            for atom in (rule.head, *rule.positives, *rule.negatives)
        }
        dead = sorted(d.name for d in program.decls if d.name not in named)
        if dead:
            out[deployment] = dead
    return out


class RuleCoverage:
    def __init__(self):
        # rule name -> [(shipped rule, (program file, rule name))]
        self.shipped: dict[str, list] = {}
        for path in sorted(Path(repro.__file__).resolve().parent.rglob("*.olg")):
            for rule in parse(path.read_text()).rules:
                self.shipped.setdefault(rule.name, []).append(
                    (rule, (path.name, rule.name))
                )
        self.fires = {
            key: 0 for entries in self.shipped.values() for _, key in entries
        }
        self.finalizers: list[weakref.finalize] = []
        self.full = self.deselected = self.enforced = False
        self.silent: dict[str, list[str]] | None = None
        self.unnamed: dict[str, list[str]] = {}

    def harvest(self, keys: set, rule_fires: dict) -> None:
        for key in keys:
            self.fires[key] += rule_fires.get(key[1], 0)

    def track(self, evaluator: Evaluator) -> None:
        keys = {
            key
            for rule in evaluator.rules
            for shipped, key in self.shipped.get(rule.name, ())
            if rule == shipped
        }
        if keys:
            self.finalizers.append(
                weakref.finalize(evaluator, self.harvest, keys, evaluator.rule_fires)
            )

    def pytest_deselected(self, items):
        self.deselected = True

    def pytest_collection_finish(self, session):
        collected = {item.path for item in session.items}
        self.full = not session.config.option.collectonly and all(
            path in collected for path in TESTS.glob("test_*.py")
        )

    @pytest.hookimpl(trylast=True)
    def pytest_sessionfinish(self, session, exitstatus):
        for finalizer in self.finalizers:
            finalizer()
        self.finalizers.clear()
        self.silent = {}
        for (program, rule), count in self.fires.items():
            if count == 0:
                self.silent.setdefault(program, []).append(rule)
        self.unnamed = unnamed_relations()
        # A run that failed or stopped early has not driven every rule.
        self.enforced = (
            self.full
            and not self.deselected
            and session.exitstatus == pytest.ExitCode.OK
        )
        if (self.silent or self.unnamed) and self.enforced:
            session.exitstatus = pytest.ExitCode.TESTS_FAILED

    def pytest_terminal_summary(self, terminalreporter):
        if self.silent is None or not (self.full or any(self.fires.values())):
            return
        never = sum(len(rules) for rules in self.silent.values())
        mode = "enforced" if self.enforced else "report only: not a full, passing run"
        write = terminalreporter.write_line
        for deployment, relations in sorted(self.unnamed.items()):
            write(
                f"dead declarations ({mode}): {deployment} declares"
                f" {', '.join(relations)}, which no rule names"
            )
        if not never:
            write(f"rule coverage ({mode}): all {len(self.fires)} shipped rules fired")
            return
        write(
            f"rule coverage ({mode}): {never} of {len(self.fires)}"
            " shipped rules never fired"
        )
        for program, rules in sorted(self.silent.items()):
            write(f"  {program}: {', '.join(sorted(rules))}")


def pytest_configure(config):
    coverage = RuleCoverage()
    init = Evaluator.__init__

    def tracked_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        coverage.track(self)

    Evaluator.__init__ = tracked_init
    config._rule_coverage_init = init
    config.pluginmanager.register(coverage, "rule-coverage")


def pytest_unconfigure(config):
    Evaluator.__init__ = config._rule_coverage_init
