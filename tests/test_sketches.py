"""Sketch accuracy and algebra: the guarantees the telemetry plane
leans on (docs/TELEMETRY.md).

Gates mirrored by benchmark A6: t-digest p99 within 1% *rank* error,
HLL within 2% relative error at 10^5 distinct items, and merge-order
invariance (exact for HLL register-max; canonical-fold-determinism for
the t-digest aggregate).
"""

import random
from bisect import bisect_left

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sketches import (
    HyperLogLog,
    TDigest,
    fold_count_distinct,
    fold_percentile,
    is_hll_payload,
    is_tdigest_payload,
)
from repro.transport import Envelope

# -- t-digest ------------------------------------------------------------------


def _rank_error(data, digest, q):
    """|empirical rank of the estimate - q| — the error a t-digest bounds."""
    est = digest.quantile(q)
    return abs(bisect_left(sorted(data), est) / len(data) - q)


@pytest.mark.parametrize("dist", ["uniform", "exponential", "lognormal"])
def test_tdigest_rank_error_within_one_percent(dist):
    rng = random.Random(42)
    n = 50_000
    data = {
        "uniform": lambda: rng.random() * 1000,
        "exponential": lambda: rng.expovariate(1 / 50),
        "lognormal": lambda: rng.lognormvariate(3, 1),
    }[dist]
    values = [data() for _ in range(n)]
    digest = TDigest()
    digest.extend(values)
    for q in (0.5, 0.9, 0.99, 0.999):
        assert _rank_error(values, digest, q) <= 0.01
    # Memory is bounded by the compression, not the input size.
    assert len(digest) <= 2 * digest.compression


def test_tdigest_exact_edges_and_small_inputs():
    digest = TDigest()
    with pytest.raises(ValueError):
        digest.quantile(0.5)
    digest.add(7)
    assert digest.quantile(0.0) == 7
    assert digest.quantile(0.5) == 7
    assert digest.quantile(1.0) == 7
    digest.add(3)
    assert digest.quantile(0.0) == 3
    assert digest.quantile(1.0) == 7
    assert digest.count == 2


def test_tdigest_merge_matches_direct_build():
    rng = random.Random(9)
    values = [rng.expovariate(1 / 20) for _ in range(20_000)]
    direct = TDigest()
    direct.extend(values)
    merged = TDigest()
    for lo in range(0, len(values), 4000):
        shard = TDigest()
        shard.extend(values[lo : lo + 4000])
        merged.merge(shard)
    assert merged.count == direct.count
    for q in (0.5, 0.99, 0.999):
        assert _rank_error(values, merged, q) <= 0.01


def _through_the_wire(value):
    """``value`` after a round trip through the TCP envelope codec."""
    env = Envelope.make("a", "b", [("telemetry", (value,))])
    ((_, (back,)),) = Envelope.decode(env.encode()).deltas
    return back


def test_tdigest_payload_round_trip_survives_the_wire_codec():
    digest = TDigest()
    digest.extend(range(1000))
    payload = digest.to_payload()
    assert is_tdigest_payload(payload)
    # The payload must survive the envelope wire codec bit-for-bit, with
    # every type intact (repr tells 1 from 1.0 from True), and stay
    # hashable (an Overlog column value).
    back = _through_the_wire(payload)
    assert back == payload and repr(back) == repr(payload)
    hash(payload)
    back = TDigest.from_payload(payload)
    assert back.count == digest.count
    assert back.quantile(0.99) == digest.quantile(0.99)


def test_fold_percentile_is_merge_order_invariant():
    rng = random.Random(3)
    shards = []
    for _ in range(6):
        d = TDigest()
        d.extend(rng.expovariate(1 / 10) for _ in range(2000))
        shards.append(d.to_payload())
    folded = fold_percentile(shards)
    for _ in range(5):
        rng.shuffle(shards)
        assert fold_percentile(shards) == folded


def test_fold_percentile_accepts_raw_numbers_and_rejects_junk():
    payload = fold_percentile([5, 1, 3, 2, 4])
    digest = TDigest.from_payload(payload)
    assert digest.count == 5
    assert digest.quantile(0.0) == 1
    assert digest.quantile(1.0) == 5
    with pytest.raises(TypeError):
        fold_percentile(["not-a-number"])


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        min_size=1,
        max_size=500,
    )
)
def test_tdigest_quantiles_stay_within_range(values):
    digest = TDigest()
    digest.extend(values)
    lo, hi = min(values), max(values)
    for q in (0.0, 0.1, 0.5, 0.9, 0.99, 1.0):
        assert lo <= digest.quantile(q) <= hi


# -- HyperLogLog ---------------------------------------------------------------


def test_hll_within_two_percent_at_1e5():
    hll = HyperLogLog()
    n = 100_000
    for i in range(n):
        hll.add(("user", i))
    assert abs(hll.estimate() - n) / n <= 0.02


def test_hll_small_sets_are_nearly_exact():
    hll = HyperLogLog()
    for i in range(100):
        hll.add(i)
        hll.add(i)  # duplicates must not inflate the estimate
    est = hll.estimate()
    assert abs(est - 100) <= 3


def test_hll_memory_sublinear():
    """Occupied registers saturate at m, regardless of distinct items."""
    hll = HyperLogLog(precision=12)
    for i in range(200_000):
        hll.add(i)
    assert len(hll) <= 4096


def test_hll_merge_is_exactly_order_invariant():
    rng = random.Random(11)
    shards = []
    for k in range(8):
        h = HyperLogLog()
        for i in range(k * 3000, (k + 1) * 3000):
            h.add(i)
        shards.append(h.to_payload())
    baseline = fold_count_distinct(shards)
    for _ in range(10):
        rng.shuffle(shards)
        assert fold_count_distinct(shards) == baseline
    assert abs(baseline - 24_000) / 24_000 <= 0.03


def test_hll_merge_equals_union():
    a, b, union = HyperLogLog(), HyperLogLog(), HyperLogLog()
    for i in range(5000):
        a.add(i)
        union.add(i)
    for i in range(2500, 7500):
        b.add(i)
        union.add(i)
    a.merge(b)
    assert a.estimate() == union.estimate()


def test_hll_payload_round_trip_sparse_and_dense():
    sparse = HyperLogLog()
    for i in range(10):
        sparse.add(i)
    payload = sparse.to_payload()
    assert is_hll_payload(payload) and payload[2] == "sparse"
    back = _through_the_wire(payload)
    assert back == payload and repr(back) == repr(payload)
    assert HyperLogLog.from_payload(payload).estimate() == sparse.estimate()

    dense = HyperLogLog()
    for i in range(50_000):
        dense.add(i)
    payload = dense.to_payload()
    assert payload[2] == "dense"
    assert HyperLogLog.from_payload(payload).estimate() == dense.estimate()


def test_hll_precision_mismatch_rejected():
    with pytest.raises(ValueError):
        HyperLogLog(precision=10).merge(HyperLogLog(precision=12))


@settings(max_examples=50, deadline=None)
@given(st.sets(st.integers(min_value=0, max_value=10**9), max_size=300))
def test_hll_small_cardinality_property(values):
    hll = HyperLogLog()
    hll.extend(values)
    # Linear-counting regime: small sets are essentially exact.
    assert abs(hll.estimate() - len(values)) <= max(3, 0.05 * len(values))


def test_fold_count_distinct_mixes_raw_and_payloads():
    shard = HyperLogLog()
    for i in range(1000):
        shard.add(("k", i))
    raws = [("k", i) for i in range(500, 1500)]
    est = fold_count_distinct([shard.to_payload(), *raws])
    assert abs(est - 1500) / 1500 <= 0.05
