"""Campaign analytics: episodes, fault↔signal matching, latency stats.

The raw material is a :class:`~repro.campaign.timeline.Timeline` plus the
monitor's signal log; this module turns them into the numbers a
fault-campaign observatory is for:

* **episodes** — an alarm is one *episode* from its first firing to the
  monitor step whose delete rule cleared it; a violation that
  re-derives every export round is one episode until it stops
  re-deriving (or the run ends: censored);
* **incidents** — correlated fault groups (a crash *group*, a staggered
  restart storm) merge into one incident, because one group trips one
  detection episode;
* **matching** — each detection signal is attributed to the latest
  incident whose injection time precedes it within ``match_window_ms``.
  Signals with no owning incident are false positives; incidents with
  no signal are false negatives (missed detections);
* **detection latency** — first attributed signal minus injection time,
  summarised per fault class as p50/p99 over every incident (and pooled
  across seeds/backends by :func:`run_matrix`);
* **recovery time** — last clear of an attributed signal minus
  injection time; ``None`` (censored) when the signal never cleared,
  which is itself a finding — e.g. amnesia's chunk-agreement violation
  *should* never clear, since no repair retracts the stale belief.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..analysis.cdf import percentile
from ..telemetry.monitor import ALARM, CLEAR, VIOLATION
from .timeline import Timeline

#: Correlated fault events closer than this (same class) merge into one
#: incident; must exceed a restart storm's total stagger and stay well
#: under the campaign slot spacing.
INCIDENT_JOIN_MS = 4000


# -- episode extraction -------------------------------------------------------


def alarm_episodes(signal_log: Sequence[tuple[int, str, tuple]]) -> list[dict]:
    """Fold the monitor's signal log into alarm episodes: per (name,
    subject), an episode opens at the first firing and closes at the
    next clear; a later firing reopens."""
    episodes: list[dict] = []
    live: dict[tuple[str, str], dict] = {}
    for ms, kind, row in signal_log:
        key = (str(row[0]), str(row[1]))
        if kind == ALARM and key not in live:
            live[key] = {
                "name": key[0],
                "subject": key[1],
                "start_ms": ms,
                "clear_ms": None,
                "detail": str(row[2]) if len(row) > 2 else "",
            }
            episodes.append(live[key])
        elif kind == CLEAR and key in live:
            live.pop(key)["clear_ms"] = ms
    episodes.sort(key=lambda e: (e["start_ms"], e["name"], e["subject"]))
    return episodes


def violation_episodes(
    signal_log: Sequence[tuple[int, str, tuple]],
    end_ms: int,
    round_ms: int,
) -> list[dict]:
    """Fold the signal log's violation firings into episodes.
    ``invariant_violation`` is an event relation that re-derives every
    export round while the condition holds, so an episode is a run of
    firings with no gap wider than ~2.5 rounds; it clears one round
    after its last firing — unless that last firing is near the run's
    end, in which case the episode is still live and ``clear_ms`` is
    ``None`` (censored)."""
    gap_ms = int(2.5 * round_ms)
    firings_by_key: dict[tuple[str, str], list[int]] = {}
    for ms, kind, row in signal_log:
        if kind != VIOLATION:
            continue
        key = (str(row[0]), str(row[1]))
        firings_by_key.setdefault(key, []).append(ms)
    episodes = []
    for key in sorted(firings_by_key):
        firings = sorted(firings_by_key[key])
        run: list[int] = []
        runs: list[list[int]] = []
        for ms in firings:
            if run and ms - run[-1] > gap_ms:
                runs.append(run)
                run = []
            run.append(ms)
        runs.append(run)
        for run in runs:
            last = run[-1]
            cleared = end_ms - last > gap_ms
            episodes.append(
                {
                    "name": key[0],
                    "subject": key[1],
                    "start_ms": run[0],
                    "clear_ms": last + round_ms if cleared else None,
                }
            )
    episodes.sort(key=lambda e: (e["start_ms"], e["name"], e["subject"]))
    return episodes


# -- fault <-> signal matching ------------------------------------------------


def _stats(values: list[int]) -> Optional[dict]:
    if not values:
        return None
    return {
        "count": len(values),
        "min": min(values),
        "p50": percentile(values, 50),
        "p99": percentile(values, 99),
        "max": max(values),
    }


def campaign_report(
    timeline: Timeline, end_ms: int, match_window_ms: int = 8000
) -> dict:
    """Match the timeline's detection signals to its fault incidents and
    summarise detection/recovery latency per fault class."""
    faults = timeline.select("fault")
    signals = timeline.select("alarm", "violation")
    clear_events = timeline.select("alarm-clear", "violation-clear")

    incidents: list[dict] = []
    for event in faults:
        last = incidents[-1] if incidents else None
        if (
            last is not None
            and last["class"] == event.name
            and event.ms - last["ms"] <= INCIDENT_JOIN_MS
        ):
            last["subjects"].append(event.subject)
        else:
            incidents.append(
                {
                    "class": event.name,
                    "ms": event.ms,
                    "subjects": [event.subject],
                    "signals": [],
                }
            )

    false_positives = []
    for signal in signals:
        owner = None
        for incident in incidents:
            if incident["ms"] <= signal.ms <= incident["ms"] + match_window_ms:
                owner = incident  # latest qualifying incident wins
        if owner is None:
            false_positives.append(
                {
                    "ms": signal.ms,
                    "kind": signal.kind,
                    "name": signal.name,
                    "subject": signal.subject,
                }
            )
        else:
            owner["signals"].append(signal)

    for incident in incidents:
        attributed = incident["signals"]
        if attributed:
            incident["detection_ms"] = (
                min(s.ms for s in attributed) - incident["ms"]
            )
            # Each signal recovers at its *first* clear at-or-after it —
            # a later incident re-firing the same alarm key must not
            # stretch this incident's recovery window.
            recoveries = []
            for s in attributed:
                clear = next(
                    (
                        c.ms
                        for c in clear_events
                        if (c.name, c.subject) == (s.name, s.subject)
                        and c.ms >= s.ms
                    ),
                    None,
                )
                if clear is not None:
                    recoveries.append(clear)
            incident["recovery_ms"] = (
                max(recoveries) - incident["ms"] if recoveries else None
            )
        else:
            incident["detection_ms"] = None
            incident["recovery_ms"] = None

    classes: dict[str, dict] = {}
    for incident in incidents:
        entry = classes.setdefault(
            incident["class"],
            {
                "incidents": 0,
                "detected": 0,
                "missed": 0,
                "detections": [],
                "recoveries": [],
            },
        )
        entry["incidents"] += 1
        if incident["detection_ms"] is None:
            entry["missed"] += 1
        else:
            entry["detected"] += 1
            entry["detections"].append(incident["detection_ms"])
            if incident["recovery_ms"] is not None:
                entry["recoveries"].append(incident["recovery_ms"])
    for entry in classes.values():
        entry["detection"] = _stats(entry["detections"])
        entry["recovery"] = _stats(entry["recoveries"])

    return {
        "end_ms": end_ms,
        "incidents": [
            {
                "class": i["class"],
                "ms": i["ms"],
                "subjects": sorted(i["subjects"]),
                "detection_ms": i["detection_ms"],
                "recovery_ms": i["recovery_ms"],
                "signals": [
                    [s.ms, s.kind, s.name, s.subject]
                    for s in sorted(i["signals"])
                ],
            }
            for i in incidents
        ],
        "classes": classes,
        "false_positives": false_positives,
        "false_negatives": sum(e["missed"] for e in classes.values()),
        "alarms_total": len(timeline.select("alarm")),
        "violations_total": len(timeline.select("violation")),
    }


# -- scenario matrix ----------------------------------------------------------


def run_matrix(results) -> dict:
    """Aggregate per-campaign reports across seeds and backends: pooled
    per-class detection/recovery distributions plus per-campaign rows."""
    campaigns = []
    pooled: dict[str, dict] = {}
    for result in results:
        report = result.report
        campaigns.append(
            {
                "name": result.spec.name,
                "backend": result.spec.backend,
                "seed": result.spec.seed,
                "end_ms": report["end_ms"],
                "alarms": report["alarms_total"],
                "violations": report["violations_total"],
                "false_positives": len(report["false_positives"]),
                "false_negatives": report["false_negatives"],
                "classes": {
                    cls: {
                        "incidents": e["incidents"],
                        "detected": e["detected"],
                        "missed": e["missed"],
                    }
                    for cls, e in sorted(report["classes"].items())
                },
            }
        )
        for cls, entry in report["classes"].items():
            pool = pooled.setdefault(
                cls,
                {
                    "incidents": 0,
                    "detected": 0,
                    "missed": 0,
                    "detections": [],
                    "recoveries": [],
                },
            )
            pool["incidents"] += entry["incidents"]
            pool["detected"] += entry["detected"]
            pool["missed"] += entry["missed"]
            pool["detections"].extend(entry["detections"])
            pool["recoveries"].extend(entry["recoveries"])
    for pool in pooled.values():
        pool["detection"] = _stats(pool["detections"])
        pool["recovery"] = _stats(pool["recoveries"])
    return {
        "campaigns": sorted(
            campaigns, key=lambda c: (c["backend"], c["seed"], c["name"])
        ),
        "classes": {cls: pooled[cls] for cls in sorted(pooled)},
    }


# -- rendering ----------------------------------------------------------------


def _fmt_ms(value) -> str:
    return "--" if value is None else f"{value:.0f}"


def render_campaign_text(result) -> str:
    """One campaign's operator-readable report: timeline + matching."""
    report = result.report
    lines = [
        f"campaign {result.spec.name} "
        f"(backend={result.spec.backend}, seed={result.spec.seed}, "
        f"end={report['end_ms']}ms)",
        result.timeline.render_text(),
        f"  {'class':<14} {'inc':>4} {'det':>4} {'miss':>5} "
        f"{'det p50':>8} {'det p99':>8} {'rec p50':>8}",
    ]
    for cls, entry in sorted(report["classes"].items()):
        det = entry["detection"] or {}
        rec = entry["recovery"] or {}
        lines.append(
            f"  {cls:<14} {entry['incidents']:>4} {entry['detected']:>4} "
            f"{entry['missed']:>5} {_fmt_ms(det.get('p50')):>8} "
            f"{_fmt_ms(det.get('p99')):>8} {_fmt_ms(rec.get('p50')):>8}"
        )
    lines.append(
        f"  false positives: {len(report['false_positives'])}, "
        f"false negatives: {report['false_negatives']}"
    )
    return "\n".join(lines)


def render_matrix_text(matrix: dict) -> str:
    """The scenario matrix: per-class pooled stats across campaigns."""
    lines = [
        f"scenario matrix ({len(matrix['campaigns'])} campaigns)",
        f"  {'class':<14} {'inc':>4} {'det':>4} {'miss':>5} "
        f"{'det p50':>8} {'det p99':>8} {'rec p50':>8} {'rec p99':>8}",
    ]
    for cls, pool in matrix["classes"].items():
        det = pool["detection"] or {}
        rec = pool["recovery"] or {}
        lines.append(
            f"  {cls:<14} {pool['incidents']:>4} {pool['detected']:>4} "
            f"{pool['missed']:>5} {_fmt_ms(det.get('p50')):>8} "
            f"{_fmt_ms(det.get('p99')):>8} {_fmt_ms(rec.get('p50')):>8} "
            f"{_fmt_ms(rec.get('p99')):>8}"
        )
    for row in matrix["campaigns"]:
        lines.append(
            f"  {row['name']:<24} alarms={row['alarms']} "
            f"violations={row['violations']} fp={row['false_positives']} "
            f"fn={row['false_negatives']}"
        )
    return "\n".join(lines)


__all__ = [
    "INCIDENT_JOIN_MS",
    "alarm_episodes",
    "campaign_report",
    "render_campaign_text",
    "render_matrix_text",
    "run_matrix",
    "violation_episodes",
]
