"""The monitor node: cluster health logic written in Overlog itself.

This is the paper's meta-circular monitoring taken one layer further:
PR 3's monitoring package rewrites *programs* to watch themselves; the
telemetry plane makes the *runtime's* metrics first-class tuples and
then watches them with more Overlog.  The monitor is an ordinary
:class:`~repro.sim.node.OverlogProcess` — it elects no special
machinery, it just holds rules over the ``telemetry`` stream every node
ships it:

* ``metric_sample`` — the latest sample per (node, metric), maintained
  by primary-key replacement;
* ``rollup_*`` — cluster-wide aggregation: counters/gauges sum, sketch
  payloads merge through the ``percentile<>`` /
  ``count_distinct_approx<>`` aggregates, so rollup cost is O(nodes),
  never O(observations);
* ``alarm`` — health predicates (see :mod:`repro.telemetry.alerts`)
  derive alarms and *delete* them when the condition clears; because
  alarms are derived tuples, ``why()`` walks each one back to the
  emitting node's metric samples through the provenance ledger
  (provenance is on by default here).
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..overlog import Program, parse
from ..sim.node import OverlogProcess
from .alerts import DEFAULT_ALERT_PACKS

TELEMETRY_RELATION = "telemetry"
ALARM_RELATION = "alarm"

MONITOR_PROGRAM = """
program telemetry_monitor;

/* latest sample per (node, metric): PK replacement keeps the stream's
   newest payload, so table size is O(nodes x metrics) */
define(metric_sample, keys(0, 1), {Str, Str, Str, Any, Int});

/* health predicates derive these; packs may delete them when clear */
define(alarm, keys(0, 1), {Str, Str, Any});

/* cluster-wide rollups */
define(rollup_counter, keys(0), {Str, Int});
define(rollup_gauge, keys(0), {Str, Float});
define(rollup_digest, keys(0), {Str, Any});
define(rollup_percentile, keys(0), {Str, Int, Float, Float, Float});
define(rollup_distinct, keys(0), {Str, Int});

event(telemetry, 5);   /* node, metric, kind, payload, clock */

m1 metric_sample(Node, Metric, Kind, Payload, Clock) :-
        telemetry(Node, Metric, Kind, Payload, Clock);

/* counters and numeric gauges sum across nodes.  The node is named, not
   wildcarded: aggregates fold distinct *bindings*, and with the node
   projected away two nodes reporting the same value are one binding */
m2 rollup_counter(Metric, sum<V>) :-
        metric_sample(Node, Metric, "counter", V, _);
m3 rollup_gauge(Metric, sum<V>) :-
        metric_sample(Node, Metric, "gauge", V, _);

/* distribution sketches merge: per-node digests fold into one cluster
   digest (histograms ship their t-digest, so they merge identically) */
m4 rollup_digest(Metric, percentile<D>) :-
        metric_sample(Node, Metric, "percentile", D, _);
m5 rollup_digest(Metric, percentile<D>) :-
        metric_sample(Node, Metric, "histogram", D, _);
m6 rollup_percentile(Metric, N, P50, P99, P999) :-
        rollup_digest(Metric, D),
        N := f_sketch_count(D),
        P50 := f_quantile(D, 50),
        P99 := f_quantile(D, 99),
        P999 := f_quantile(D, 99.9);

/* cardinality sketches union register-wise */
m7 rollup_distinct(Metric, count_distinct_approx<D>) :-
        metric_sample(Node, Metric, "distinct", D, _);
"""


def monitor_program(
    alert_packs: Iterable[str] = DEFAULT_ALERT_PACKS,
    extra_source: Optional[str] = None,
) -> Program:
    """The monitor's program: core rollup rules plus alert rule packs
    (each pack is plain Overlog source — deployments add their own)."""
    program = parse(MONITOR_PROGRAM)
    for pack in alert_packs:
        program = program.merged(parse(pack))
    if extra_source:
        program = program.merged(parse(extra_source))
    return program


class MonitorProcess(OverlogProcess):
    """The node the cluster's telemetry streams converge on.

    Provenance defaults on: arriving ``telemetry`` tuples are recorded
    as EDB inputs in the derivation ledger, so
    ``cluster.why(monitor, "alarm", row)`` resolves an alarm down to the
    exact per-node metric samples that fired it.
    """

    def __init__(
        self,
        address: str = "monitor",
        alert_packs: Iterable[str] = DEFAULT_ALERT_PACKS,
        extra_source: Optional[str] = None,
        seed: int = 0,
        provenance: bool = True,
    ):
        super().__init__(
            address,
            monitor_program(alert_packs, extra_source),
            seed=seed,
            provenance=provenance,
        )
        #: Every alarm firing, in arrival order: (virtual ms, alarm row).
        self.alert_log: list[tuple[int, tuple]] = []
        #: Every cluster-invariant violation firing (requires the
        #: global_invariants packs — see Cluster.enable_invariants).
        self.violation_log: list[tuple[int, tuple]] = []

    def bootstrap(self) -> None:
        self.runtime.watch(ALARM_RELATION, self._on_alarm)
        # Only monitors built with the global-invariant packs declare
        # the violation relation; plain telemetry monitors skip the hook.
        from ..monitoring.invariants import VIOLATION_RELATION

        if self.runtime.catalog.is_declared(VIOLATION_RELATION):
            self.runtime.watch(VIOLATION_RELATION, self._on_violation)

    def _on_alarm(self, row: tuple) -> None:
        self.alert_log.append((self.now, row))
        # Alarms trigger the flight recorder's post-mortem dump (when one
        # is armed with dump_on=("alarm", ...)): the ring's recent
        # envelopes and span events are exactly the evidence an operator
        # wants next to a fresh alarm.
        recorder = getattr(self.cluster, "flight_recorder", None)
        if recorder is not None:
            recorder.on_alarm(
                str(self.address), str(row[0]), subject=str(row[1])
            )

    def _on_violation(self, row: tuple) -> None:
        self.violation_log.append((self.now, row))
        # A cluster-invariant firing is at least as dump-worthy as an
        # alarm; the recorder dedupes per (node, name, subject) so a
        # violation that re-derives every export round dumps only once.
        recorder = getattr(self.cluster, "flight_recorder", None)
        if recorder is not None:
            recorder.on_violation(
                str(self.address), str(row[0]), subject=str(row[1])
            )

    def set_slo(self, metric: str, p99_ms: float) -> None:
        """Install a p99 latency SLO for ``metric``: the LATENCY_ALERTS
        pack fires ``("p99-slo-burn", metric, p99)`` while the
        cluster-merged digest's p99 exceeds ``p99_ms``."""
        self.inject("latency_slo", (metric, float(p99_ms)))

    # -- typed views over the monitor's tables --------------------------------

    def samples(self) -> list[tuple]:
        """All current (node, metric, kind, payload, clock) samples."""
        return sorted(self.runtime.rows("metric_sample"))

    def alarms(self) -> list[tuple]:
        """Currently-firing alarms as sorted (name, subject, detail)."""
        return sorted(self.runtime.rows(ALARM_RELATION))

    def rollup_counters(self) -> dict[str, int]:
        return dict(sorted(self.runtime.rows("rollup_counter")))

    def rollup_gauges(self) -> dict[str, float]:
        return dict(sorted(self.runtime.rows("rollup_gauge")))

    def rollup_percentiles(self) -> dict[str, tuple]:
        """metric -> (count, p50, p99, p999), sketch-merged cluster-wide."""
        return {
            metric: (n, p50, p99, p999)
            for metric, n, p50, p99, p999 in sorted(
                self.runtime.rows("rollup_percentile")
            )
        }

    def rollup_distincts(self) -> dict[str, int]:
        return dict(sorted(self.runtime.rows("rollup_distinct")))

    def why_alarm(self, row: tuple, fmt: str = "text"):
        """Derivation DAG of one alarm: the operator's ``why()``."""
        return self.runtime.why(ALARM_RELATION, row, fmt=fmt)

    def violations(self) -> list[tuple]:
        """Distinct invariant-violation rows fired so far, sorted."""
        return sorted({row for _ms, row in self.violation_log}, key=repr)

    def why_violation(self, row: tuple, fmt: str = "text"):
        """Derivation DAG of one cluster-invariant violation, down to
        the per-node state exports that fired it."""
        from ..monitoring.invariants import VIOLATION_RELATION

        return self.runtime.why(VIOLATION_RELATION, row, fmt=fmt)

    def dashboard(self) -> str:
        from .export import render_telemetry_dashboard

        return render_telemetry_dashboard(
            self, now_ms=self.now if self.cluster is not None else None
        )


__all__ = [
    "ALARM_RELATION",
    "MONITOR_PROGRAM",
    "MonitorProcess",
    "TELEMETRY_RELATION",
    "monitor_program",
]
