"""Virtual-time observability for the Overlog cluster.

Three pillars (see docs/OBSERVABILITY.md):

* **registry** — per-node counters/gauges/histograms/time-windows, always
  on, aggregated cluster-wide (:class:`ClusterMetrics`);
* **trace** — causal request tracing across simulated nodes, reconstructed
  into span trees (:class:`Tracer`);
* **export** — deterministic JSONL logs plus a text dashboard.

The :mod:`repro.monitoring` package instruments *programs* (a rule
rewrite, the paper's third revision); this package instruments the
*runtime underneath the rules*.
"""

from .export import metrics_jsonl, render_dashboard, write_text
from .registry import (
    DEFAULT_BUCKETS,
    ClusterMetrics,
    Counter,
    Distinct,
    Gauge,
    Histogram,
    MetricsRegistry,
    NodeMetrics,
    Percentile,
    TimeWindow,
)
from .trace import Span, SpanRef, Tracer

__all__ = [
    "DEFAULT_BUCKETS",
    "ClusterMetrics",
    "Counter",
    "Distinct",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NodeMetrics",
    "Percentile",
    "Span",
    "SpanRef",
    "TimeWindow",
    "Tracer",
    "metrics_jsonl",
    "render_dashboard",
    "write_text",
]
