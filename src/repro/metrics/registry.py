"""Metric primitives and registries.

The observability layer mirrors the simulator's design constraints: all
time is *virtual* (integer milliseconds from the discrete-event clock) and
everything must be deterministic, so snapshots and exports of the same run
are byte-identical.  Metrics are plain Python objects — no background
threads, no wall-clock reads — cheap enough to stay always-on.

Three scopes:

* :class:`MetricsRegistry` — one per node (one per Overlog runtime or
  imperative process); named counters/gauges/histograms/windows plus the
  sketch-backed :class:`Percentile` and :class:`Distinct` primitives
  whose payloads the telemetry plane ships cluster-wide
  (docs/TELEMETRY.md).
* :class:`NodeMetrics` — the Overlog runtime's adapter: records one
  timestep's evaluator effects (derivation deltas, per-stratum semi-naive
  iteration counts, relation cardinalities) into its registry and surfaces
  the evaluator's per-rule firing counts at snapshot time.
* :class:`ClusterMetrics` — the cluster-wide aggregator: holds every
  node's registry, merges counters across nodes, and renders the text
  dashboard / JSONL export (see :mod:`repro.metrics.export`).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Callable, Optional

from ..sketches import HyperLogLog, TDigest

DEFAULT_BUCKETS = (0, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000)


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class Gauge:
    """A point-in-time value (e.g. a relation's current cardinality)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: Any = 0

    def set(self, value: Any) -> None:
        self.value = value


class Histogram:
    """Fixed-bound bucketed distribution (counts per upper bound).

    Bounds are inclusive upper edges; observations above the last bound
    land in the overflow bucket.  The fixed buckets are kept for export
    compatibility (dashboards and historical JSONL diff cleanly), but
    quantile queries go through an internal t-digest — linear-scaled
    buckets are a poor fit for latency tails, where p999 may sit three
    orders of magnitude past the median.
    """

    __slots__ = ("bounds", "bucket_counts", "count", "total", "digest")

    def __init__(self, bounds: tuple = DEFAULT_BUCKETS):
        self.bounds = tuple(bounds)
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0
        self.digest = TDigest()

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        self.digest.add(value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Value at quantile ``q`` in [0, 1], answered by the t-digest
        (bounded *rank* error at any scale, unlike the fixed buckets)."""
        return self.digest.quantile(q)

    def percentile(self, p: float) -> float:
        """Value at percentile ``p`` in [0, 100]."""
        return self.digest.percentile(p)

    def payload(self) -> tuple:
        """The digest as a nested tuple (telemetry wire form)."""
        return self.digest.to_payload()

    def snapshot(self) -> dict:
        buckets = {
            f"le_{bound}": n
            for bound, n in zip(self.bounds, self.bucket_counts)
            if n
        }
        if self.bucket_counts[-1]:
            buckets["overflow"] = self.bucket_counts[-1]
        snap = {
            "count": self.count,
            "sum": self.total,
            "mean": round(self.mean, 3),
            "buckets": buckets,
        }
        if self.count:
            snap["p50"] = round(self.quantile(0.50), 3)
            snap["p99"] = round(self.quantile(0.99), 3)
        return snap


class Percentile:
    """A quantile sketch metric: observe values, query percentiles.

    Backed by a mergeable :class:`~repro.sketches.tdigest.TDigest`, so
    the telemetry plane can ship it as a tuple payload and the monitor
    node can fold per-node distributions into cluster-wide rollups with
    the ``percentile<>`` Overlog aggregate (docs/TELEMETRY.md)."""

    __slots__ = ("digest",)

    def __init__(self, compression: int = 200):
        self.digest = TDigest(compression)

    def observe(self, value: float) -> None:
        self.digest.add(value)

    @property
    def count(self) -> float:
        return self.digest.count

    def quantile(self, q: float) -> float:
        return self.digest.quantile(q)

    def percentile(self, p: float) -> float:
        return self.digest.percentile(p)

    def payload(self) -> tuple:
        """Nested-tuple wire form (merged cluster-wide by the monitor)."""
        return self.digest.to_payload()

    def snapshot(self) -> dict:
        if self.digest.count == 0:
            return {"count": 0}
        return {
            "count": int(self.digest.count),
            "p50": round(self.quantile(0.50), 3),
            "p99": round(self.quantile(0.99), 3),
            "p999": round(self.quantile(0.999), 3),
        }


class Distinct:
    """An approximate distinct counter (HyperLogLog-backed).

    Memory stays O(2^precision) however many values are added; the
    payload merges register-wise across nodes, so cluster-wide distinct
    counts come from the ``count_distinct_approx<>`` Overlog aggregate
    without ever shipping the values themselves."""

    __slots__ = ("hll",)

    def __init__(self, precision: int = 12):
        self.hll = HyperLogLog(precision)

    def add(self, value: Any) -> None:
        self.hll.add(value)

    def estimate(self) -> int:
        return self.hll.estimate()

    def payload(self) -> tuple:
        """Nested-tuple wire form (merged cluster-wide by the monitor)."""
        return self.hll.to_payload()

    def snapshot(self) -> dict:
        return {"estimate": self.estimate()}


class TimeWindow:
    """A counter bucketed by virtual time (rates over the simulated clock).

    ``add(now, n)`` accumulates into the ``now // width_ms`` bucket; only
    the most recent ``keep`` buckets are retained, bounding memory on long
    runs while keeping recent-rate queries exact.
    """

    __slots__ = ("width_ms", "keep", "buckets")

    def __init__(self, width_ms: int = 1000, keep: int = 64):
        if width_ms <= 0:
            raise ValueError("window width must be positive")
        self.width_ms = width_ms
        self.keep = keep
        self.buckets: dict[int, int] = {}

    def add(self, now_ms: int, n: int = 1) -> None:
        bucket = now_ms // self.width_ms
        self.buckets[bucket] = self.buckets.get(bucket, 0) + n
        if len(self.buckets) > self.keep:
            for stale in sorted(self.buckets)[: len(self.buckets) - self.keep]:
                del self.buckets[stale]

    def value_at(self, now_ms: int) -> int:
        return self.buckets.get(now_ms // self.width_ms, 0)

    def rate_per_s(self, now_ms: int) -> float:
        """Events/second over the most recent *complete* window."""
        prev = now_ms // self.width_ms - 1
        return self.buckets.get(prev, 0) * 1000.0 / self.width_ms

    def snapshot(self) -> dict:
        return {
            "width_ms": self.width_ms,
            "buckets": {
                str(b * self.width_ms): n
                for b, n in sorted(self.buckets.items())
            },
        }


class MetricsRegistry:
    """Named metrics for one scope (one node address, usually).

    Metric constructors are get-or-create so call sites never need to
    pre-register.  ``add_collector`` lets an owner (e.g.
    :class:`NodeMetrics`) contribute computed fields to snapshots lazily,
    keeping the per-step hot path free of snapshot work.
    """

    def __init__(self, scope: str):
        self.scope = scope
        self.counters: dict[str, Counter] = {}
        self.gauges: dict[str, Gauge] = {}
        self.histograms: dict[str, Histogram] = {}
        self.percentiles: dict[str, Percentile] = {}
        self.distincts: dict[str, Distinct] = {}
        self.windows: dict[str, TimeWindow] = {}
        self._collectors: list[Callable[[dict], None]] = []

    def counter(self, name: str) -> Counter:
        c = self.counters.get(name)
        if c is None:
            c = self.counters[name] = Counter()
        return c

    def gauge(self, name: str) -> Gauge:
        g = self.gauges.get(name)
        if g is None:
            g = self.gauges[name] = Gauge()
        return g

    def histogram(
        self, name: str, bounds: tuple = DEFAULT_BUCKETS
    ) -> Histogram:
        h = self.histograms.get(name)
        if h is None:
            h = self.histograms[name] = Histogram(bounds)
        return h

    def percentile(self, name: str, compression: int = 200) -> Percentile:
        p = self.percentiles.get(name)
        if p is None:
            p = self.percentiles[name] = Percentile(compression)
        return p

    def distinct(self, name: str, precision: int = 12) -> Distinct:
        d = self.distincts.get(name)
        if d is None:
            d = self.distincts[name] = Distinct(precision)
        return d

    def window(
        self, name: str, width_ms: int = 1000, keep: int = 64
    ) -> TimeWindow:
        w = self.windows.get(name)
        if w is None:
            w = self.windows[name] = TimeWindow(width_ms, keep)
        return w

    def add_collector(self, collect: Callable[[dict], None]) -> None:
        self._collectors.append(collect)

    def snapshot(self) -> dict:
        snap: dict[str, Any] = {
            "scope": self.scope,
            "counters": {
                name: c.value for name, c in sorted(self.counters.items())
            },
            "gauges": {
                name: g.value for name, g in sorted(self.gauges.items())
            },
            "histograms": {
                name: h.snapshot()
                for name, h in sorted(self.histograms.items())
            },
            "percentiles": {
                name: p.snapshot()
                for name, p in sorted(self.percentiles.items())
            },
            "distincts": {
                name: d.snapshot()
                for name, d in sorted(self.distincts.items())
            },
            "windows": {
                name: w.snapshot() for name, w in sorted(self.windows.items())
            },
        }
        for collect in self._collectors:
            collect(snap)
        return snap


class NodeMetrics:
    """The Overlog runtime's always-on instrumentation sink.

    One instance belongs to one :class:`~repro.overlog.runtime.OverlogRuntime`.
    ``record_step`` is on the tick hot path, so it only bumps pre-resolved
    counter/histogram objects; anything that can be computed on demand —
    relation cardinalities, the evaluator's per-rule firing counts — is
    folded into snapshots lazily by a collector instead.
    """

    def __init__(self, scope: str, registry: Optional[MetricsRegistry] = None):
        self.registry = registry if registry is not None else MetricsRegistry(scope)
        self.registry.add_collector(self._collect)
        self._evaluator = None
        self._steps = self.registry.counter("overlog.steps")
        self._derivations = self.registry.counter("overlog.derivations")
        self._iterations = self.registry.counter("overlog.fixpoint_iterations")
        self._step_hist = self.registry.histogram("overlog.step_derivations")
        self._rate = self.registry.window("overlog.derivations_window", 1000)
        self._row_gauges: dict[str, Gauge] = {}

    def bind_evaluator(self, evaluator) -> None:
        """Attach the evaluator whose catalog/rule counters we expose."""
        self._evaluator = evaluator
        self._row_gauges = {
            name: self.registry.gauge(f"rows.{name}")
            for name in evaluator.catalog.tables
        }

    def record_step(self, now_ms: int, result) -> None:
        """Fold one timestep's effects into the registry (hot path)."""
        self._steps.inc()
        dc = result.derivation_count
        self._derivations.inc(dc)
        self._step_hist.observe(dc)
        self._rate.add(now_ms, dc)
        for _stratum, iters in result.stratum_iterations:
            self._iterations.inc(iters)

    def _collect(self, snap: dict) -> None:
        evaluator = self._evaluator
        if evaluator is None:
            return
        # Relation cardinalities: point-in-time gauges, refreshed lazily
        # so the per-step path pays nothing for them.
        tables = evaluator.catalog.tables
        gauges = snap["gauges"]
        for name, gauge in self._row_gauges.items():
            gauge.set(len(tables[name]))
            gauges[f"rows.{name}"] = gauge.value
        snap["rule_fires"] = dict(sorted(evaluator.rule_fires.items()))
        snap["stratum_iterations"] = {
            str(s): n
            for s, n in sorted(evaluator.stratum_iteration_totals.items())
        }


class ClusterMetrics:
    """Cluster-wide aggregation over every node's registry."""

    def __init__(self) -> None:
        self.registries: dict[str, MetricsRegistry] = {}

    def node(self, scope: str) -> MetricsRegistry:
        """Get-or-create the registry for a node scope."""
        reg = self.registries.get(scope)
        if reg is None:
            reg = self.registries[scope] = MetricsRegistry(scope)
        return reg

    def adopt(self, registry: MetricsRegistry) -> MetricsRegistry:
        """Register an externally created registry (e.g. a runtime's);
        replaces any previous registry with the same scope (restart)."""
        self.registries[registry.scope] = registry
        return registry

    def aggregate_counters(self) -> dict[str, int]:
        totals: dict[str, int] = {}
        for reg in self.registries.values():
            for name, counter in reg.counters.items():
                totals[name] = totals.get(name, 0) + counter.value
        return dict(sorted(totals.items()))

    def snapshot(self, now_ms: Optional[int] = None) -> dict:
        return {
            "now_ms": now_ms,
            "cluster": {"counters": self.aggregate_counters()},
            "nodes": {
                scope: reg.snapshot()
                for scope, reg in sorted(self.registries.items())
            },
        }

    # Rendering/export lives in repro.metrics.export; thin forwarding
    # methods keep the call sites short.

    def to_jsonl(self, now_ms: Optional[int] = None) -> str:
        from .export import metrics_jsonl

        return metrics_jsonl(self, now_ms)

    def export_jsonl(self, path, now_ms: Optional[int] = None):
        from .export import write_text

        return write_text(path, self.to_jsonl(now_ms))

    def render_dashboard(self, now_ms: Optional[int] = None) -> str:
        from .export import render_dashboard

        return render_dashboard(self, now_ms)
