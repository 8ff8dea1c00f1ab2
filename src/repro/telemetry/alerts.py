"""Alert rule packs: health predicates as plain Overlog source.

Alerts are rules over the monitor's ``metric_sample`` table whose heads
derive ``alarm(name, subject, detail)`` tuples — and whose *delete*
twins retract the alarm when the condition clears, so the alarm table
is always the live set of problems, not a log (the monitor's
``signal_log`` keeps every firing and clear).

Because an alarm is an ordinary derived tuple, the PR 3 provenance
ledger explains it: ``cluster.why("monitor", "alarm", row)`` walks from
the alarm through the rule to the exact ``telemetry`` inputs — which
node sent which metric with which payload — the declarative version of
"why is this light red?".

Each pack is a string so deployments compose them (and their own) via
:func:`repro.telemetry.monitor.monitor_program`'s ``packs``.
"""

from __future__ import annotations

#: BOOM-FS: the master exports ``fs.chunks.under_replicated`` (a lazy
#: collector gauge counting chunks with fewer replicas than repfactor);
#: any positive sample is an alarm, keyed by the reporting master so
#: partitioned deployments alarm per-partition.
BOOMFS_ALERTS = """
program boomfs_alerts;

fsa1 alarm("under-replicated", Node, N) :-
        metric_sample(Node, "fs.chunks.under_replicated", "gauge", N, _),
        N > 0;

fsa2 delete alarm("under-replicated", Node, D) :-
        alarm("under-replicated", Node, D),
        metric_sample(Node, "fs.chunks.under_replicated", "gauge", 0, _);
"""

#: Transport: the backends increment ``transport.stalled_link.SRC->DST``
#: whenever a bounded-queue send blocks (backpressure).  Stalls are
#: monotonic counters, so the alarm names the link and sticks — a link
#: that ever stalled deserves an operator's eye.
TRANSPORT_ALERTS = """
program transport_alerts;

tra1 alarm("stalled-link", Metric, N) :-
        metric_sample(_, Metric, "counter", N, _),
        f_startswith(Metric, "transport.stalled_link."),
        N > 0;
"""

#: Paxos: every replica exports a ``paxos.is_leader`` gauge (1 on the
#: leader, 0 elsewhere).  The cluster-wide sum being zero — *after* at
#: least one replica has reported — means no live leader.  The empty
#: aggregate produces no ``paxos_leader_count`` row, so the alarm
#: cannot fire before any Paxos telemetry arrives.
PAXOS_ALERTS = """
program paxos_alerts;

define(paxos_leader_count, keys(0), {Int, Float});

pxa1 paxos_leader_count(0, sum<V>) :-
        metric_sample(Node, "paxos.is_leader", "gauge", V, _);

pxa2 alarm("paxos-no-leader", "cluster", S) :-
        paxos_leader_count(0, S), S == 0;

pxa3 delete alarm("paxos-no-leader", "cluster", D) :-
        alarm("paxos-no-leader", "cluster", D),
        paxos_leader_count(0, S), S > 0;
"""

#: Latency SLOs: the operator installs ``latency_slo(metric, p99_ms)``
#: facts (see :meth:`~repro.telemetry.monitor.MonitorProcess.set_slo`);
#: whenever the cluster-merged digest for that metric — e.g. the per-op
#: ``request.latency_ms.mkdir`` rows published by ``per_op_latency`` —
#: shows a p99 above the limit, the alarm fires, and the delete twin
#: clears it when the tail recovers.  With no SLO facts the pack is
#: inert, so it ships in the defaults.
LATENCY_ALERTS = """
program latency_alerts;

define(latency_slo, keys(0), {Str, Float});

lta1 alarm("p99-slo-burn", Metric, P) :-
        latency_slo(Metric, Limit),
        rollup_digest(Metric, D),
        P := f_quantile(D, 99),
        P > Limit;

lta2 delete alarm("p99-slo-burn", Metric, Old) :-
        alarm("p99-slo-burn", Metric, Old),
        latency_slo(Metric, Limit),
        rollup_digest(Metric, D),
        P := f_quantile(D, 99),
        P <= Limit;
"""

DEFAULT_ALERT_PACKS = (
    BOOMFS_ALERTS,
    TRANSPORT_ALERTS,
    PAXOS_ALERTS,
    LATENCY_ALERTS,
)

__all__ = [
    "BOOMFS_ALERTS",
    "DEFAULT_ALERT_PACKS",
    "LATENCY_ALERTS",
    "PAXOS_ALERTS",
    "TRANSPORT_ALERTS",
]
