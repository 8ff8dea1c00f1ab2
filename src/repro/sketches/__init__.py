"""Mergeable sketches: sub-linear summaries that survive the wire.

The telemetry plane (docs/TELEMETRY.md) cannot ship exact histograms or
value sets once relations reach the millions of rows the ROADMAP
targets, so distribution and cardinality questions are answered by
*sketches* — fixed-size summaries that merge associatively, so per-node
state folds into cluster rollups in any grouping:

* :class:`TDigest` — quantiles (p50/p99/p999) with tail-biased
  resolution, O(compression) memory;
* :class:`HyperLogLog` — distinct counts at ~1.6% standard error in
  4KB, register-wise-max merge.

Both serialize to nested tuples of the wire codec's value domain
(``to_payload``; see :mod:`repro.transport.codec`), so they ride
:class:`~repro.transport.envelope.Envelope` batches, store in
Overlog columns and hash like any row value.  The Overlog aggregate
functions ``percentile<>`` and ``count_distinct_approx<>`` are the
:func:`fold_percentile`/:func:`fold_count_distinct` folds below,
registered in the evaluator/plan layer (:mod:`repro.overlog.plan`).
"""

from __future__ import annotations

from typing import Any, Iterable

from .hll import (
    DEFAULT_PRECISION,
    HLL_TAG,
    HyperLogLog,
    is_hll_payload,
    sketch_hash,
)
from .tdigest import (
    DEFAULT_COMPRESSION,
    TDIGEST_TAG,
    TDigest,
    is_tdigest_payload,
)


def _canonical(values: Iterable[Any]) -> list[Any]:
    """Sort mixed inputs deterministically (type name, then repr) so the
    folds are order-invariant: aggregate groups accumulate in delta
    arrival order, which legitimately differs across backends."""
    return sorted(values, key=lambda v: (type(v).__name__, repr(v)))


def fold_percentile(values: Iterable[Any]) -> tuple:
    """The ``percentile<X>`` aggregate: fold numbers *and* t-digest
    payloads into one merged digest payload.

    Accepting payloads makes the aggregate hierarchical — a monitor
    folding per-node digests produces a cluster digest whose quantiles
    rules extract with ``f_quantile(D, 99)``.
    """
    values = list(values)
    # Fast path for the overwhelmingly common monitor group: one node
    # reports the metric, so its payload IS the fold.  Aggregates
    # recompute per semi-naive pass, so skipping the parse/merge/re-compress
    # round-trip here keeps the telemetry monitor's steps cheap.
    if len(values) == 1 and is_tdigest_payload(values[0]):
        return values[0]
    digest = TDigest()
    for value in _canonical(values):
        if is_tdigest_payload(value):
            digest.merge(TDigest.from_payload(value))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            digest.add(value)
        else:
            raise TypeError(
                f"percentile<> takes numbers or t-digest payloads, "
                f"got {value!r}"
            )
    return digest.to_payload()


def fold_count_distinct(values: Iterable[Any]) -> int:
    """The ``count_distinct_approx<X>`` aggregate: estimated distinct
    count over raw values and/or HLL payloads (payloads merge, raw
    values hash in — mixing both in one group is fine)."""
    values = list(values)
    if len(values) == 1 and is_hll_payload(values[0]):
        return HyperLogLog.from_payload(values[0]).estimate()
    hll = HyperLogLog()
    for value in _canonical(values):
        if is_hll_payload(value):
            hll.merge(HyperLogLog.from_payload(value))
        else:
            hll.add(value)
    return hll.estimate()


__all__ = [
    "DEFAULT_COMPRESSION",
    "DEFAULT_PRECISION",
    "HLL_TAG",
    "HyperLogLog",
    "TDIGEST_TAG",
    "TDigest",
    "fold_count_distinct",
    "fold_percentile",
    "is_hll_payload",
    "is_tdigest_payload",
    "sketch_hash",
]
