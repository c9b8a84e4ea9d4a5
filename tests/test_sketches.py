"""Property suite for the sketch summaries (q-digest, multiresolution).

The algebra the push trees rely on, stated as plain equality on the
frozen canonical form: merge is associative and commutative, so
summaries may combine along arbitrary tree paths in arbitrary order;
compression keeps the invariant and the total count (and is idempotent
from leaf-only digests, but not after a compressed digest is extended); the
certified bracket always contains the contract truth with half-width
at most ``error_bound <= eps * n``; and serialization is canonical —
pickle round-trips to an equal object and the bytes are independent of
``PYTHONHASHSEED``.
"""

from __future__ import annotations

import hashlib
import pickle
import subprocess
import sys
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.sketches import MultiResolution, QDigest, SketchConfig
from repro.sketches.qdigest import merge_all

LO, HI = 0.0, 1024.0

values_st = st.lists(
    st.floats(LO, HI, allow_nan=False), min_size=0, max_size=80
)
small_k = st.integers(1, 64)
levels_st = st.integers(1, 10)


def digest_of(values, k=8, levels=6):
    return QDigest.from_values(values, k=k, levels=levels, lo=LO, hi=HI)


# ---------------------------------------------------------------------------
# merge algebra
# ---------------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(a=values_st, b=values_st, c=values_st, k=small_k, levels=levels_st)
def test_merge_associative_and_commutative(a, b, c, k, levels):
    da, db, dc = (
        QDigest.from_values(v, k=k, levels=levels, lo=LO, hi=HI)
        for v in (a, b, c)
    )
    assert da.merged(db) == db.merged(da)
    assert da.merged(db).merged(dc) == da.merged(db.merged(dc))
    assert merge_all([da, db, dc]).n == len(a) + len(b) + len(c)


@settings(max_examples=40, deadline=None)
@given(a=values_st, b=values_st)
def test_merge_preserves_total_count_and_invariant(a, b):
    merged = digest_of(a).merged(digest_of(b)).compressed()
    assert merged.n == len(a) + len(b)
    merged.check_invariant()


# ---------------------------------------------------------------------------
# compression
# ---------------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(values=values_st, k=small_k, levels=levels_st)
def test_compression_idempotent_and_invariant(values, k, levels):
    digest = QDigest(k, levels, LO, HI).extended(values)
    once = digest.compressed()
    assert once.compressed() == once
    assert once.n == digest.n
    once.check_invariant()


def test_compression_not_idempotent_after_extend():
    """Regression pin: extending a compressed digest and compressing
    twice folds further on the second pass.  The first pass folds
    ``(1, 0)`` into the root only after ``(2, 0)`` was blocked by it."""
    digest = QDigest.from_values(
        [0, 0, 0, 0, 0, 128, 128, 256, 512], k=5, levels=4, lo=0, hi=1024
    ).extended([0.0])
    once = digest.compressed()
    twice = once.compressed()
    assert once.buckets == ((0, 0, 2), (2, 0, 2), (4, 0, 6))
    assert twice.buckets == ((0, 0, 2), (1, 0, 2), (4, 0, 6))
    for d in (once, twice):
        d.check_invariant()
        assert d.n == 10


@settings(max_examples=60, deadline=None)
@given(first=values_st, more=values_st, k=small_k, levels=levels_st)
def test_compression_passes_keep_invariant_after_extend(first, more, k, levels):
    """Compressed, extended, then compressed twice: each pass keeps the
    invariant and the total count (idempotence is not claimed)."""
    digest = digest_of(first, k=k, levels=levels).extended(more)
    once = digest.compressed()
    twice = once.compressed()
    for d in (once, twice):
        d.check_invariant()
        assert d.n == len(first) + len(more)


def test_compression_bounds_size():
    # A long uniform stream: the digest stays O(k * levels) buckets
    # while the raw stream keeps growing.
    values = [(i * 37) % 1024 + 0.5 for i in range(4000)]
    digest = digest_of(values, k=8, levels=10)
    assert digest.n == 4000
    assert digest.size < 8 * 10 * 3
    digest.check_invariant()


# ---------------------------------------------------------------------------
# error contract
# ---------------------------------------------------------------------------
def quantized_truth(digest, values, vlo, vhi):
    c_lo, c_hi = digest.query_cells(vlo, vhi)
    return sum(1 for v in values if c_lo <= digest.cell(v) <= c_hi)


@settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    values=values_st,
    k=small_k,
    levels=levels_st,
    qlo=st.floats(LO, HI, allow_nan=False),
    qhi=st.floats(LO, HI, allow_nan=False),
)
def test_range_bounds_contain_quantized_truth(values, k, levels, qlo, qhi):
    if qhi < qlo:
        qlo, qhi = qhi, qlo
    digest = QDigest.from_values(values, k=k, levels=levels, lo=LO, hi=HI)
    lower, upper = digest.range_count_bounds(qlo, qhi)
    truth = quantized_truth(digest, values, qlo, qhi)
    assert lower <= truth <= upper
    assert upper - lower <= 2 * digest.error_bound
    assert abs(digest.estimate_range(qlo, qhi) - truth) <= digest.error_bound
    assert digest.error_bound <= digest.eps * max(digest.n, 1)


ADVERSARIAL_STREAMS = {
    "constant": [500.0] * 300,  # every value in one cell
    "bimodal": [float(i % 2) * 1023.0 for i in range(300)],  # two extreme cells
    "sorted": sorted((i * 7.3) % 1024 for i in range(300)),  # sorted sweep
    "exponential": [2.0 ** (i % 10) for i in range(300)],  # clusters
}


@pytest.mark.parametrize(
    "stream",
    list(ADVERSARIAL_STREAMS.values()),
    ids=list(ADVERSARIAL_STREAMS),
)
def test_adversarial_streams_respect_bound(stream):
    digest = digest_of(stream, k=8, levels=10)
    digest.check_invariant()
    for qlo, qhi in [(0.0, 1024.0), (0.0, 1.0), (500.0, 500.0), (100.0, 900.0)]:
        lower, upper = digest.range_count_bounds(qlo, qhi)
        truth = quantized_truth(digest, stream, qlo, qhi)
        assert lower <= truth <= upper
        assert abs(digest.estimate_range(qlo, qhi) - truth) <= digest.error_bound


@settings(max_examples=40, deadline=None)
@given(values=values_st, probe=st.floats(LO, HI, allow_nan=False))
def test_rank_bounds_bracket_quantized_rank(values, probe):
    digest = digest_of(values)
    lower, upper = digest.rank_bounds(probe)
    rank = sum(1 for v in values if digest.cell(v) <= digest.cell(probe))
    assert lower <= rank <= upper


# ---------------------------------------------------------------------------
# one-pass compression and n-way merge against the pairwise originals
# ---------------------------------------------------------------------------
def reference_compressed(digest: QDigest) -> QDigest:
    """The level-scan compression: every bucket rescanned at each level."""
    threshold = digest.n // digest.k
    if threshold == 0 or not digest.buckets:
        return digest
    counts = {(level, idx): c for level, idx, c in digest.buckets}
    for level in range(digest.levels, 0, -1):
        parents = sorted({idx >> 1 for lvl, idx in counts if lvl == level})
        for parent in parents:
            left = counts.get((level, 2 * parent), 0)
            right = counts.get((level, 2 * parent + 1), 0)
            if left == 0 and right == 0:
                continue
            above = counts.get((level - 1, parent), 0)
            if left + right + above <= threshold:
                counts.pop((level, 2 * parent), None)
                counts.pop((level, 2 * parent + 1), None)
                counts[(level - 1, parent)] = left + right + above
    buckets = tuple(
        (level, idx, c) for (level, idx), c in sorted(counts.items()) if c > 0
    )
    return replace(digest, buckets=buckets)


def reference_merge_all(digests) -> QDigest:
    """The pairwise merge: chained ``merged`` calls, then one compression."""
    out = digests[0]
    for d in digests[1:]:
        out = out.merged(d)
    return reference_compressed(out)


@st.composite
def drawn_digests(draw):
    """1-4 digests on one grid: empty, raw, compressed, merged,
    compressed-then-extended, or built from an adversarial stream."""
    k = draw(small_k)
    levels = draw(levels_st)

    def fresh(values):
        return QDigest.from_values(values, k=k, levels=levels, lo=LO, hi=HI)

    def one(kind):
        if kind == "empty":
            return QDigest(k, levels, LO, HI)
        if kind == "raw":
            return QDigest(k, levels, LO, HI).extended(draw(values_st))
        if kind == "compressed":
            return fresh(draw(values_st))
        if kind == "merged":
            return fresh(draw(values_st)).merged(fresh(draw(values_st)))
        if kind == "extended":
            return fresh(draw(values_st)).extended(draw(values_st))
        return fresh(ADVERSARIAL_STREAMS[kind])

    kinds = st.sampled_from(
        ["empty", "raw", "compressed", "merged", "extended", *ADVERSARIAL_STREAMS]
    )
    return [one(draw(kinds)) for _ in range(draw(st.integers(1, 4)))]


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(digests=drawn_digests())
def test_one_pass_digest_operations_equal_reference(digests):
    for digest in digests:
        once = digest.compressed()
        assert once == reference_compressed(digest)
        once.check_invariant()
    merged = merge_all(digests)
    assert merged == reference_merge_all(digests)
    merged.check_invariant()


# ---------------------------------------------------------------------------
# multiresolution estimator
# ---------------------------------------------------------------------------
def mr_of(values, resolutions=(3, 5, 7)):
    return MultiResolution(resolutions, LO, HI).extended(values)


@settings(max_examples=40, deadline=None)
@given(a=values_st, b=values_st, c=values_st)
def test_multires_merge_algebra(a, b, c):
    ma, mb, mc = mr_of(a), mr_of(b), mr_of(c)
    assert ma.merged(mb) == mb.merged(ma)
    assert ma.merged(mb).merged(mc) == ma.merged(mb.merged(mc))
    assert ma.compressed() is ma  # fixed-size stack: compression no-op


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    values=values_st,
    qlo=st.floats(LO, HI, allow_nan=False),
    qhi=st.floats(LO, HI, allow_nan=False),
)
def test_multires_bounds_contain_raw_truth(values, qlo, qhi):
    if qhi < qlo:
        qlo, qhi = qhi, qlo
    mr = mr_of(values)
    lower, upper = mr.range_count_bounds(qlo, qhi)
    truth = sum(1 for v in values if qlo <= v <= qhi)
    assert lower <= truth <= upper
    assert abs(mr.estimate_range(qlo, qhi) - truth) <= mr.error_bound


def test_multires_validation():
    with pytest.raises(ValueError):
        MultiResolution((), LO, HI)
    with pytest.raises(ValueError):
        MultiResolution((5, 3), LO, HI)
    with pytest.raises(ValueError):
        MultiResolution((3, 5), 10.0, 10.0)
    with pytest.raises(ValueError):
        mr_of([]).merged(MultiResolution((2, 4), LO, HI))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(values=values_st)
def test_pickle_round_trip_equality(values):
    digest = digest_of(values)
    assert pickle.loads(pickle.dumps(digest)) == digest
    mr = mr_of(values)
    assert pickle.loads(pickle.dumps(mr)) == mr


_HASH_PROBE = """
import hashlib, pickle, sys
sys.path.insert(0, {src!r})
from repro.sketches import MultiResolution, QDigest
values = [(i * 37.0) % 1024 + (i % 7) * 0.1 for i in range(500)]
d = QDigest.from_values(values, k=8, levels=10, lo=0.0, hi=1024.0)
m = MultiResolution((3, 5, 7), 0.0, 1024.0).extended(values)
print(hashlib.sha256(pickle.dumps((d, m))).hexdigest())
"""


def test_serialization_hashseed_independent(tmp_path):
    """The pickled bytes are identical across PYTHONHASHSEED values.

    Summaries travel inside messages and memo caches; a digest whose
    canonical form depended on set/dict iteration order would break
    the sharded runner's bit-identity.  Two fresh interpreters with
    different hash seeds must produce byte-identical pickles.
    """
    import repro

    src = str(next(p for p in sys.path if (repro.__file__ or "").startswith(p)))
    digests = []
    for seed in ("0", "424242"):
        out = subprocess.run(
            [sys.executable, "-c", _HASH_PROBE.format(src=src)],
            capture_output=True,
            text=True,
            env={"PYTHONHASHSEED": seed, "PATH": "/usr/bin:/bin"},
            check=True,
        )
        digests.append(out.stdout.strip())
    assert digests[0] == digests[1]


# ---------------------------------------------------------------------------
# construction validation & config
# ---------------------------------------------------------------------------
def test_qdigest_validation():
    with pytest.raises(ValueError):
        QDigest(0, 6, LO, HI)
    with pytest.raises(ValueError):
        QDigest(8, 0, LO, HI)
    with pytest.raises(ValueError):
        QDigest(8, 40, LO, HI)
    with pytest.raises(ValueError):
        QDigest(8, 6, 5.0, 5.0)
    with pytest.raises(ValueError):
        digest_of([]).merged(QDigest(9, 6, LO, HI))
    with pytest.raises(ValueError):
        merge_all([])
    with pytest.raises(ValueError, match="different grids"):
        merge_all([digest_of([]), digest_of([1.0]), QDigest(9, 6, LO, HI)])


def test_sketch_config_validation():
    with pytest.raises(ValueError):
        SketchConfig(k=0)
    with pytest.raises(ValueError):
        SketchConfig(push_interval=0.0)
    with pytest.raises(ValueError):
        SketchConfig(buckets_per_unit=0)
    with pytest.raises(ValueError):
        SketchConfig(estimator="exactly")
    cfg = SketchConfig(estimator="multires")
    assert isinstance(cfg.empty_summary("t", LO, HI), MultiResolution)
    assert isinstance(SketchConfig().empty_summary("t", LO, HI), QDigest)
    # default domains: the five SensorScope attributes
    assert len(SketchConfig().domain_map()) == 5
