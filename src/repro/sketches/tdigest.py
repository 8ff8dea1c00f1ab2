"""A mergeable t-digest (Dunning & Ertl) for quantile estimation.

The telemetry plane ships distribution summaries across the cluster as
tuples, so the sketch has three hard requirements beyond accuracy:

* **mergeable** — per-node digests fold into cluster-wide rollups with
  bounded error, in any grouping;
* **deterministic** — the same multiset of observations (fed in a
  canonical order) produces the same centroids on every backend, so the
  sim/asyncio differential tests can compare payloads *exactly*;
* **wire-safe** — the serialized form is a nested tuple of strs,
  ints and floats, inside the TCP codec's value domain (see
  :mod:`repro.transport.codec`), hashable and storable in Overlog
  tables.

This is the *merging* variant of the algorithm: observations buffer and
are periodically merged into the sorted centroid list under the k1 scale
function ``k(q) = δ/(2π)·asin(2q−1)``, which spends resolution on the
tails — exactly where latency percentiles (p99/p999) live.  Memory is
O(δ) centroids regardless of how many points were observed.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional

#: Serialized payloads are tagged so Overlog rules (and the aggregate
#: fold) can tell a digest apart from an ordinary nested tuple.
TDIGEST_TAG = "tdigest"

DEFAULT_COMPRESSION = 200


class TDigest:
    """Mergeable quantile sketch with tail-biased resolution.

    ``compression`` (δ) bounds the centroid count; 200 keeps the p99
    rank error well under the 1% gate asserted by benchmark A6 while the
    payload stays a few KB.
    """

    __slots__ = ("compression", "_centroids", "_buffer", "count", "min", "max")

    def __init__(self, compression: int = DEFAULT_COMPRESSION):
        if compression < 20:
            raise ValueError("compression must be >= 20")
        self.compression = compression
        # Merged state: (mean, weight) pairs sorted by mean.
        self._centroids: list[tuple[float, float]] = []
        # Unmerged observations; folded in by _compress().
        self._buffer: list[tuple[float, float]] = []
        self.count = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    # -- ingestion -------------------------------------------------------------

    def add(self, value: float, weight: float = 1.0) -> None:
        value = float(value)
        if weight <= 0:
            raise ValueError("weight must be positive")
        self._buffer.append((value, float(weight)))
        self.count += weight
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        if len(self._buffer) >= 10 * self.compression:
            self._compress()

    def extend(self, values: Iterable[float]) -> None:
        for v in values:
            self.add(v)

    def merge(self, other: "TDigest") -> None:
        """Fold another digest into this one (sketch-mergeable rollups)."""
        if other.count == 0:
            return
        other._compress()
        self._buffer.extend(other._centroids)
        self.count += other.count
        self.min = other.min if self.min is None else min(self.min, other.min)
        self.max = other.max if self.max is None else max(self.max, other.max)
        self._compress()

    # -- compression -----------------------------------------------------------

    def _k(self, q: float) -> float:
        """The k1 scale function: tail-biased centroid size limit."""
        return (
            self.compression
            / (2.0 * math.pi)
            * math.asin(max(-1.0, min(1.0, 2.0 * q - 1.0)))
        )

    def _compress(self) -> None:
        if not self._buffer:
            return
        pending = sorted(self._centroids + self._buffer)
        self._buffer = []
        total = sum(w for _, w in pending)
        merged: list[tuple[float, float]] = []
        cur_mean, cur_weight = pending[0]
        w_so_far = 0.0  # weight strictly before the current centroid
        k_lo = self._k(0.0)
        for mean, weight in pending[1:]:
            q_hi = (w_so_far + cur_weight + weight) / total
            if self._k(q_hi) - k_lo <= 1.0:
                # Absorb: weighted-mean update keeps determinism (pure
                # float arithmetic over a canonically sorted sequence).
                cur_weight += weight
                cur_mean += (mean - cur_mean) * weight / cur_weight
            else:
                merged.append((cur_mean, cur_weight))
                w_so_far += cur_weight
                k_lo = self._k(w_so_far / total)
                cur_mean, cur_weight = mean, weight
        merged.append((cur_mean, cur_weight))
        self._centroids = merged

    @property
    def centroids(self) -> tuple[tuple[float, float], ...]:
        self._compress()
        return tuple(self._centroids)

    # -- queries ---------------------------------------------------------------

    def quantile(self, q: float) -> float:
        """Value at quantile ``q`` in [0, 1] (interpolated)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if self.count == 0:
            raise ValueError("quantile of an empty digest")
        self._compress()
        cents = self._centroids
        assert self.min is not None and self.max is not None
        if q <= 0.0 or len(cents) == 1 and self.count <= 1:
            return self.min
        if q >= 1.0:
            return self.max
        target = q * self.count
        # Walk centroids by cumulative weight, interpolating between
        # centroid midpoints; clamp the ends to the exact min/max.
        cum = 0.0
        prev_mid = 0.0
        prev_mean = self.min
        for mean, weight in cents:
            mid = cum + weight / 2.0
            if target < mid:
                if mid == prev_mid:
                    return mean
                frac = (target - prev_mid) / (mid - prev_mid)
                return prev_mean + (mean - prev_mean) * frac
            prev_mid, prev_mean = mid, mean
            cum += weight
        return self.max

    def percentile(self, p: float) -> float:
        """Value at percentile ``p`` in [0, 100]."""
        return self.quantile(p / 100.0)

    # -- wire form ---------------------------------------------------------------

    def to_payload(self) -> tuple:
        """Nested tuple: survives the envelope wire codec and is
        hashable (storable as an Overlog column value)."""
        self._compress()
        return (
            TDIGEST_TAG,
            self.compression,
            self.count,
            self.min,
            self.max,
            tuple(self._centroids),
        )

    @staticmethod
    def from_payload(payload: tuple) -> "TDigest":
        if not is_tdigest_payload(payload):
            raise ValueError(f"not a t-digest payload: {payload!r}")
        _tag, compression, count, lo, hi, centroids = payload
        digest = TDigest(compression)
        digest._centroids = [tuple(c) for c in centroids]
        digest.count = count
        digest.min = lo
        digest.max = hi
        return digest

    def __len__(self) -> int:
        self._compress()
        return len(self._centroids)

    def __repr__(self) -> str:
        return (
            f"TDigest(count={self.count:.0f}, centroids={len(self)}, "
            f"min={self.min}, max={self.max})"
        )


def is_tdigest_payload(value: object) -> bool:
    return (
        isinstance(value, tuple)
        and len(value) == 6
        and value[0] == TDIGEST_TAG
    )
