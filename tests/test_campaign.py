"""Fault-campaign observatory: episode folding, fault↔signal matching,
matrix pooling, and end-to-end campaign runs on both backends."""

import types

import pytest

from repro.campaign import (
    CampaignSpec,
    Timeline,
    alarm_episodes,
    campaign_report,
    run_campaign,
    run_matrix,
    violation_episodes,
)

# Small enough to run in well under a second on the simulator, but the
# workload still spans the single fault slot.
TINY = dict(
    total_ops=40,
    arrival_ms=50,
    classes=("crash",),
    slot_ms=9000,
    quiesce_ms=6000,
    datanodes=4,
    preload_files=3,
)


class TestAlarmEpisodes:
    def test_repeated_firings_fold_into_one_episode(self):
        log = [
            (1000, "alarm", ("a", "s", 1)),
            (1500, "alarm", ("a", "s", 2)),
            (2500, "clear", ("a", "s", 2)),
        ]
        assert alarm_episodes(log) == [
            {
                "name": "a",
                "subject": "s",
                "start_ms": 1000,
                "clear_ms": 2500,
                "detail": "1",
            }
        ]

    def test_refiring_after_clear_opens_new_episode(self):
        log = [
            (1000, "alarm", ("a", "s", 1)),
            (2000, "clear", ("a", "s", 1)),
            (4000, "alarm", ("a", "s", 2)),
        ]
        assert [(e["start_ms"], e["clear_ms"]) for e in alarm_episodes(log)] == [
            (1000, 2000),
            (4000, None),
        ]

    def test_unmatched_clear_keys_are_ignored(self):
        log = [
            (1000, "alarm", ("a", "s", 1)),
            (2000, "clear", ("other", "s", 1)),
            (2500, "invariant_violation", ("a", "s")),
        ]
        eps = alarm_episodes(log)
        assert len(eps) == 1
        assert eps[0]["clear_ms"] is None


class TestViolationEpisodes:
    def test_contiguous_firings_are_one_episode_with_clear(self):
        log = [(ms, "invariant_violation", ("v", "s")) for ms in (1000, 1500, 2000)]
        eps = violation_episodes(log, end_ms=10_000, round_ms=500)
        assert eps == [
            {"name": "v", "subject": "s", "start_ms": 1000, "clear_ms": 2500}
        ]

    def test_wide_gap_splits_runs(self):
        log = [(ms, "invariant_violation", ("v", "s")) for ms in (1000, 5000)]
        log.append((3000, "alarm", ("v", "s", 1)))  # not a violation
        eps = violation_episodes(log, end_ms=20_000, round_ms=500)
        assert [e["start_ms"] for e in eps] == [1000, 5000]

    def test_episode_live_at_end_is_censored(self):
        log = [(ms, "invariant_violation", ("v", "s")) for ms in (1000, 1500)]
        eps = violation_episodes(log, end_ms=2000, round_ms=500)
        assert eps[0]["clear_ms"] is None


class TestCampaignReport:
    def _timeline(self):
        t = Timeline()
        # correlated crash group -> one incident
        t.add(1000, "fault", "crash", "dn0")
        t.add(1500, "fault", "crash", "dn1")
        t.add(4000, "alarm", "under-replicated", "master")
        t.add(9000, "alarm-clear", "under-replicated", "master")
        # a second incident no signal ever matches (false negative)
        t.add(20_000, "fault", "partition", "dn2")
        # a signal owned by nothing (false positive)
        t.add(15_000, "alarm", "stalled-link", "dn3")
        return t

    def test_matching_and_latencies(self):
        report = campaign_report(
            self._timeline(), end_ms=30_000, match_window_ms=8000
        )
        crash, partition = report["incidents"]
        assert crash["class"] == "crash"
        assert crash["subjects"] == ["dn0", "dn1"]  # merged group
        assert crash["detection_ms"] == 3000
        assert crash["recovery_ms"] == 8000
        assert partition["detection_ms"] is None
        assert report["false_negatives"] == 1
        assert [fp["name"] for fp in report["false_positives"]] == [
            "stalled-link"
        ]
        assert report["classes"]["crash"]["detection"]["p50"] == 3000

    def test_recovery_ignores_later_incidents_reusing_the_alarm_key(self):
        # Two incidents trip the same alarm key; the second episode's
        # clear must not stretch the first incident's recovery window.
        t = Timeline()
        t.add(1000, "fault", "crash", "dn0")
        t.add(2000, "alarm", "under-replicated", "master")
        t.add(3000, "alarm-clear", "under-replicated", "master")
        t.add(20_000, "fault", "partition", "dn1")
        t.add(21_000, "alarm", "under-replicated", "master")
        t.add(25_000, "alarm-clear", "under-replicated", "master")
        report = campaign_report(t, end_ms=30_000)
        crash, partition = report["incidents"]
        assert crash["recovery_ms"] == 2000
        assert partition["recovery_ms"] == 5000

    def test_uncorrelated_same_class_faults_stay_separate(self):
        t = Timeline()
        t.add(1000, "fault", "crash", "dn0")
        t.add(9000, "fault", "crash", "dn1")  # > INCIDENT_JOIN_MS later
        report = campaign_report(t, end_ms=20_000)
        assert len(report["incidents"]) == 2


class TestRunMatrix:
    def _fake_result(self, name, seed, detections):
        timeline = Timeline()
        at = 1000
        for det in detections:
            timeline.add(at, "fault", "crash", "dn0")
            timeline.add(at + det, "alarm", "under-replicated", "master")
            at += 10_000
        report = campaign_report(timeline, end_ms=at)
        spec = CampaignSpec(name=name, seed=seed)
        return types.SimpleNamespace(spec=spec, report=report)

    def test_pools_detections_across_campaigns(self):
        matrix = run_matrix(
            [
                self._fake_result("a", 0, [2000, 4000]),
                self._fake_result("b", 1, [6000]),
            ]
        )
        pool = matrix["classes"]["crash"]
        assert pool["incidents"] == 3
        assert pool["detected"] == 3
        assert sorted(pool["detections"]) == [2000, 4000, 6000]
        assert pool["detection"]["p50"] == 4000
        assert [c["name"] for c in matrix["campaigns"]] == ["a", "b"]


class TestCampaignRunner:
    def test_sim_campaign_json_is_byte_deterministic(self):
        a = run_campaign(CampaignSpec(name="det", seed=5, **TINY))
        b = run_campaign(CampaignSpec(name="det", seed=5, **TINY))
        assert a.to_json() == b.to_json()

    def test_crash_campaign_detected_with_clean_workload(self):
        result = run_campaign(CampaignSpec(name="crash", seed=5, **TINY))
        crash = result.report["classes"]["crash"]
        assert crash["incidents"] == 1
        assert crash["detected"] == 1
        assert crash["detection"]["p50"] > 0
        assert result.report["false_positives"] == []
        # open-loop metadata workload rides through the fault slot
        assert result.latency["all"]["count"] == TINY["total_ops"]
        assert result.latency["all"]["errors"] == 0

    def test_amnesia_campaign_trips_chunk_agreement(self):
        spec = CampaignSpec(
            name="amnesia", seed=2, **{**TINY, "classes": ("amnesia",)}
        )
        result = run_campaign(spec)
        names = {
            e.name for e in result.timeline.select("violation")
        }
        assert "chunk-agreement" in names
        amnesia = result.report["classes"]["amnesia"]
        assert amnesia["detected"] == 1

    def test_no_fault_control_is_silent_on_sim(self):
        spec = CampaignSpec(
            name="control", seed=0, **{**TINY, "classes": ()}
        )
        result = run_campaign(spec)
        assert result.report["alarms_total"] == 0
        assert result.report["violations_total"] == 0
        assert result.latency["all"]["errors"] == 0

    def test_no_fault_control_is_silent_on_asyncio(self):
        spec = CampaignSpec(
            name="control-async",
            seed=0,
            backend="asyncio",
            time_scale=20.0,
            **{**TINY, "classes": (), "quiesce_ms": 3000},
        )
        result = run_campaign(spec)
        assert result.report["alarms_total"] == 0
        assert result.report["violations_total"] == 0
        assert result.latency["all"]["count"] == TINY["total_ops"]

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            run_campaign(CampaignSpec(backend="smoke-signals"))
