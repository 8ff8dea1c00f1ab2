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
  (provenance is on by default here);
* ``invariant_violation`` — the cluster-invariant packs
  (:mod:`repro.monitoring.global_invariants`) join the nodes' state
  exports, which arrive in the same export round as their telemetry.

Every alarm firing, alarm clear and violation lands on one signal log.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..overlog import Program, parse
from ..overlog.eval import StepResult
from ..sim.node import OverlogProcess

TELEMETRY_RELATION = "telemetry"
ALARM_RELATION = "alarm"

#: The kinds on the monitor's signal log: an alarm row inserted, an
#: alarm row deleted by its pack's delete rule, a violation derived.
ALARM, CLEAR, VIOLATION = ALARM_RELATION, "clear", "invariant_violation"

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

/* cluster-invariant packs derive these (name, subject) events */
event(invariant_violation, 2);

/* every node's state export (repro.monitoring.global_invariants) */
/* Paxos: node, instance, value; and node, ballot, applied, clock (one
   cursor row per round, kept so high-water marks survive) */
define(px_state, keys(0, 1), {Str, Int, Any});
define(px_cursor, keys(0, 3), {Str, Int, Int, Int});
/* BOOM-FS master: round marker, replication factor, location beliefs
   (master, chunk, datanode, round), referenced chunks (master, chunk,
   round) and, for a shard, owned file paths (scope, master, path,
   round) */
define(fs_round, keys(0, 1), {Str, Int});
define(fs_rf, keys(0), {Str, Int});
define(fs_loc, keys(0, 1, 2, 3), {Str, Str, Str, Int});
define(fs_chunk, keys(0, 1, 2), {Str, Str, Int});
define(fs_owner, keys(0, 1, 2, 3), {Str, Str, Str, Int});
/* DataNode: round marker and actual inventory (datanode, chunk, round) */
define(dn_round, keys(0, 1), {Str, Int});
define(dn_chunk, keys(0, 1, 2), {Str, Str, Int});

/* the last-two-round window over each master's and DataNode's rounds */
define(fs_cur, keys(0), {Str, Int});
define(fs_prev, keys(0), {Str, Int});
define(dn_cur, keys(0), {Str, Int});
define(dn_prev, keys(0), {Str, Int});

gw1 fs_cur(M, max<R>) :- fs_round(M, R);
gw2 fs_prev(M, max<R>) :- fs_round(M, R), fs_cur(M, Cur), R < Cur;
gw3 dn_cur(D, max<R>) :- dn_round(D, R);
gw4 dn_prev(D, max<R>) :- dn_round(D, R), dn_cur(D, Cur), R < Cur;

/* bulk state below the window is pruned (round markers stay) */
gw5 delete fs_loc(M, C, D, R) :-
        fs_loc(M, C, D, R), fs_prev(M, P), R < P;
gw6 delete fs_chunk(M, C, R) :-
        fs_chunk(M, C, R), fs_prev(M, P), R < P;
gw7 delete fs_owner(S, M, Path, R) :-
        fs_owner(S, M, Path, R), fs_prev(M, P), R < P;
gw8 delete dn_chunk(D, C, R) :-
        dn_chunk(D, C, R), dn_prev(D, P), R < P;
"""


def monitor_program(packs: Optional[Iterable[str]] = None) -> Program:
    """The monitor's program: the core (rollups, export declarations,
    round window) plus rule packs, each plain Overlog source.  The
    default holds every alert and cluster-invariant pack."""
    if packs is None:
        from ..monitoring.global_invariants import DEFAULT_PACKS

        packs = DEFAULT_PACKS
    program = parse(MONITOR_PROGRAM)
    for pack in packs:
        program = program.merged(parse(pack))
    return program


class MonitorProcess(OverlogProcess):
    """The node the cluster's export rounds converge on.

    Provenance defaults on: arriving ``telemetry`` and state-export
    tuples are recorded as EDB inputs in the derivation ledger, so
    ``cluster.why(monitor, "alarm", row)`` resolves an alarm (and
    ``"invariant_violation"`` a violation) down to the exact per-node
    exports that fired it.
    """

    def __init__(
        self,
        address: str = "monitor",
        packs: Optional[Iterable[str]] = None,
        seed: int = 0,
        provenance: bool = True,
    ):
        super().__init__(
            address, monitor_program(packs), seed=seed, provenance=provenance
        )
        #: Every signal in step order: (virtual ms, kind, row), kind one
        #: of ALARM, CLEAR, VIOLATION.
        self.signal_log: list[tuple[int, str, tuple]] = []

    def handle_step_result(self, result: StepResult) -> None:
        signals = [(ALARM, row) for row in result.fired_rows(ALARM_RELATION)]
        signals += [(VIOLATION, row) for row in result.fired_rows(VIOLATION)]
        # A delete rule's deletion is a clear; a primary-key displacement
        # (a new detail for a live alarm) never reaches result.deletions.
        signals += [
            (CLEAR, row)
            for relation, row in result.deletions
            if relation == ALARM_RELATION
        ]
        recorder = getattr(self.cluster, "flight_recorder", None)
        for kind, row in signals:
            self.signal_log.append((self.now, kind, row))
            if recorder is not None:
                recorder.on_signal(str(self.address), kind, row)

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

    def violations(self) -> list[tuple]:
        """Distinct invariant-violation rows fired so far, sorted."""
        return sorted(
            {row for _ms, kind, row in self.signal_log if kind == VIOLATION},
            key=repr,
        )

    def dashboard(self) -> str:
        from .export import render_telemetry_dashboard

        return render_telemetry_dashboard(
            self, now_ms=self.now if self.cluster is not None else None
        )


__all__ = [
    "ALARM",
    "ALARM_RELATION",
    "CLEAR",
    "MONITOR_PROGRAM",
    "MonitorProcess",
    "TELEMETRY_RELATION",
    "VIOLATION",
    "monitor_program",
]
