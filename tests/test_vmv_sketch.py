"""Tests for the tensor-product count sketch and bilinear-form estimator."""

import math
import warnings

import numpy as np
import pytest

from sketchopt import vmv_sketch
from sketchopt.core_complex import child_seed
from sketchopt.vmv_sketch import (
    TensorSketchState,
    estimate,
    estimate_vmv,
    ingest,
    query_vec,
    ts_new,
    ts_pair,
)


def complex_rows(rng, n, d):
    return rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))


def exact_vmv(A, B, u, v):
    return complex(u @ (A.T @ B) @ v)


# ---------------------------------------------------------------------------
# state construction and hash tables
# ---------------------------------------------------------------------------


def test_same_seed_gives_identical_behaviour():
    rng = np.random.default_rng(0)
    a = complex_rows(rng, 1, 16)[0]
    b = complex_rows(rng, 1, 16)[0]
    s1 = ts_new(64, seed=9)
    s2 = ts_new(64, seed=9)
    np.testing.assert_array_equal(ts_pair(s1, a, b), ts_pair(s2, a, b))
    for t1, t2 in zip(s1.tables(16), s2.tables(16)):
        np.testing.assert_array_equal(t1, t2)


def test_distinct_seeds_differ():
    differing = 0
    for seed in range(100):
        s1 = ts_new(64, seed=seed)
        s2 = ts_new(64, seed=seed + 10_000)
        tables1 = np.concatenate([t.astype(float) for t in s1.tables(16)])
        tables2 = np.concatenate([t.astype(float) for t in s2.tables(16)])
        differing += int(not np.array_equal(tables1, tables2))
    assert differing == 100


def test_lazy_tables_grow_with_consistent_prefix():
    state = ts_new(8, seed=2)
    small = [t.copy() for t in state.tables(4)]
    big = state.tables(12)
    for t_small, t_big in zip(small, big):
        np.testing.assert_array_equal(t_big[:4], t_small)


def test_zero_width_inputs_build_empty_tables():
    np.testing.assert_array_equal(ts_pair(ts_new(4, seed=1), [], []),
                                  np.zeros(4, dtype=complex))
    empty = np.zeros((3, 0), dtype=complex)
    for reps in (1, 7):
        assert estimate(empty, empty, [], [], 8, reps=reps, seed=2) == 0j
    state = ts_new(8, seed=5)
    assert all(t.size == 0 for t in state.tables(0))
    for grown, fresh in zip(state.tables(5), ts_new(8, seed=5).tables(5)):
        np.testing.assert_array_equal(grown, fresh)


def test_ts_new_validation():
    with pytest.raises(ValueError):
        ts_new(0, seed=1)


@pytest.mark.parametrize("seed", [1.5, -1, np.random.default_rng(1)])
def test_ts_new_rejects_a_bad_seed_at_construction(seed):
    with pytest.raises(ValueError):
        ts_new(4, seed)


def raw_draw_tables(seed, k, d):
    """The table rule: coordinate i reads raw Philox draws 4i .. 4i+3."""
    raw = np.random.Philox(np.random.SeedSequence(seed)).random_raw(4 * d)
    h1, h2, t1, t2 = (raw[j::4] for j in range(4))
    return (h1 % np.uint64(k), h2 % np.uint64(k),
            np.where(t1 >> np.uint64(63), 1.0, -1.0),
            np.where(t2 >> np.uint64(63), 1.0, -1.0))


@pytest.mark.parametrize("k", [1, 7, 64])
@pytest.mark.parametrize("as_sequence", [False, True])
def test_tables_are_the_raw_philox_draws(k, as_sequence):
    seed = np.random.SeedSequence(12) if as_sequence else 12
    for got, want in zip(ts_new(k, seed).tables(33),
                         raw_draw_tables(12, k, 33)):
        np.testing.assert_array_equal(got, want)


def test_tables_balance_buckets_and_signs():
    d, k = 20_000, 7
    h1, h2, s1, s2 = ts_new(k, seed=3).tables(d)
    for h in (h1, h2):
        counts = np.bincount(h, minlength=k)
        assert counts.size == k
        assert np.all(np.abs(counts - d / k) <= 0.05 * d / k)
    for s in (s1, s2):
        assert set(np.unique(s)) == {-1.0, 1.0}
        assert abs(s.mean()) <= 0.03


@pytest.mark.parametrize("k", [2.5, 4.0, True, "4"])
def test_ts_new_rejects_a_non_integer_width(k):
    with pytest.raises(ValueError, match="k must be an integer"):
        ts_new(k, seed=1)
    assert ts_new(np.int64(4), seed=1).k == 4


# ---------------------------------------------------------------------------
# ts_pair
# ---------------------------------------------------------------------------


def test_one_hot_lands_in_single_derived_bucket():
    state = ts_new(8, seed=6)
    e2 = np.zeros(4, dtype=complex)
    e2[1] = 1.0
    out = ts_pair(state, e2, e2)
    nz = np.flatnonzero(np.abs(out) > 1e-12)
    assert nz.size == 1
    h1, h2, s1, s2 = state.tables(4)
    assert nz[0] == (h1[1] + h2[1]) % 8
    assert out[nz[0]] == pytest.approx(s1[1] * s2[1], abs=1e-12)


def test_ts_pair_bilinear():
    rng = np.random.default_rng(7)
    state = ts_new(16, seed=3)
    a1, a2, b = (complex_rows(rng, 1, 6)[0] for _ in range(3))
    alpha = 0.7 - 2.1j
    np.testing.assert_allclose(ts_pair(state, alpha * a1, b),
                               alpha * ts_pair(state, a1, b), atol=1e-12)
    np.testing.assert_allclose(ts_pair(state, a1 + a2, b),
                               ts_pair(state, a1, b) + ts_pair(state, a2, b),
                               atol=1e-12)


def test_ts_pair_matches_explicit_tensor_oracle_d3_k4():
    rng = np.random.default_rng(11)
    state = ts_new(4, seed=11)
    a = complex_rows(rng, 1, 3)[0]
    b = complex_rows(rng, 1, 3)[0]
    out = ts_pair(state, a, b)
    h1, h2, s1, s2 = state.tables(3)
    oracle = np.zeros(4, dtype=complex)
    for i in range(3):
        for j in range(3):
            oracle[(h1[i] + h2[j]) % 4] += s1[i] * s2[j] * a[i] * b[j]
    np.testing.assert_allclose(out, oracle, atol=1e-12)


def test_ts_pair_length_mismatch_raises():
    state = ts_new(4, seed=0)
    with pytest.raises(ValueError):
        ts_pair(state, np.ones(3, dtype=complex), np.ones(4, dtype=complex))


@pytest.mark.parametrize("call", [ts_pair, ingest, query_vec, estimate_vmv])
def test_ts_pair_rejects_matrices(call):
    state = ts_new(8, seed=1)
    for a, b in ((np.ones((3, 2)), np.ones((3, 2))),
                 (np.ones(6), np.ones((6, 1)))):
        with pytest.raises(ValueError, match="one-dimensional"):
            call(state, a, b)
    np.testing.assert_array_equal(state.q, np.zeros(8, dtype=complex))


# ---------------------------------------------------------------------------
# ingest / query
# ---------------------------------------------------------------------------


def test_ingest_then_negated_ingest_cancels():
    rng = np.random.default_rng(12)
    state = ts_new(16, seed=4)
    a = complex_rows(rng, 1, 5)[0]
    b = complex_rows(rng, 1, 5)[0]
    ingest(state, a, b)
    ingest(state, -a, b)
    assert np.max(np.abs(state.q)) <= 1e-12
    u = complex_rows(rng, 1, 5)[0]
    v = complex_rows(rng, 1, 5)[0]
    assert abs(estimate_vmv(state, u, v)) <= 1e-9


def test_accumulator_is_sum_of_pair_sketches():
    rng = np.random.default_rng(13)
    A = complex_rows(rng, 6, 4)
    B = complex_rows(rng, 6, 4)
    state = ts_new(8, seed=5)
    for i in range(6):
        ingest(state, A[i], B[i])
    fresh = ts_new(8, seed=5)
    total = sum(ts_pair(fresh, A[i], B[i]) for i in range(6))
    np.testing.assert_allclose(state.q, total, atol=1e-12)


def test_ingest_order_independent():
    rng = np.random.default_rng(14)
    A = complex_rows(rng, 20, 6)
    B = complex_rows(rng, 20, 6)
    s1 = ts_new(32, seed=8)
    s2 = ts_new(32, seed=8)
    for i in range(20):
        ingest(s1, A[i], B[i])
    for i in rng.permutation(20):
        ingest(s2, A[i], B[i])
    scale = max(1.0, np.max(np.abs(s1.q)))
    assert np.max(np.abs(s1.q - s2.q)) <= 1e-9 * scale


def test_query_does_not_mutate_state():
    rng = np.random.default_rng(15)
    state = ts_new(8, seed=1)
    ingest(state, *complex_rows(rng, 2, 3))
    before = state.q.copy()
    query_vec(state, *complex_rows(rng, 2, 3))
    np.testing.assert_array_equal(state.q, before)


def test_empty_state_and_zero_query_estimate_zero():
    rng = np.random.default_rng(16)
    state = ts_new(8, seed=1)
    u = complex_rows(rng, 1, 3)[0]
    assert estimate_vmv(state, u, u) == 0
    ingest(state, u, u)
    assert estimate_vmv(state, np.zeros(3, dtype=complex), u) == 0


def test_k1_estimate_on_one_hot_pairs_is_exact_count():
    state = ts_new(1, seed=5)
    e1 = np.zeros(3, dtype=complex)
    e1[0] = 1.0
    for _ in range(7):
        ingest(state, e1, e1)
    # sign factors square away: the estimate is the exact pair count
    assert estimate_vmv(state, e1, e1) == pytest.approx(7.0, abs=1e-12)


# ---------------------------------------------------------------------------
# statistical behaviour of the estimator
# ---------------------------------------------------------------------------


def test_estimator_is_unbiased():
    rng = np.random.default_rng(17)
    A = complex_rows(rng, 8, 3)
    B = complex_rows(rng, 8, 3)
    u = complex_rows(rng, 1, 3)[0]
    v = complex_rows(rng, 1, 3)[0]
    exact = exact_vmv(A, B, u, v)
    ests = np.array([estimate(A, B, u, v, k=5, seed=s) for s in range(10_000)])
    se = np.sqrt((ests.real.var() + ests.imag.var()) / ests.size)
    assert abs(ests.mean() - exact) <= 3.0 * se


def test_variance_within_bucket_bound():
    rng = np.random.default_rng(18)
    A = complex_rows(rng, 10, 4)
    B = complex_rows(rng, 10, 4)
    u = complex_rows(rng, 1, 4)[0]
    v = complex_rows(rng, 1, 4)[0]
    k = 7
    ests = np.array([estimate(A, B, u, v, k=k, seed=s) for s in range(4000)])
    var_total = ests.real.var() + ests.imag.var()
    bound = (4.0 / k) * (np.linalg.norm(u) ** 2 * np.linalg.norm(v) ** 2
                         * np.linalg.norm(A.T @ B) ** 2)
    assert var_total <= bound


def test_cancellation_instance_estimates_zero():
    # identical left rows; right rows +-b so the accumulated product vanishes
    # even though sum_i ||a_i|| ||b_i|| is huge
    rng = np.random.default_rng(19)
    a = 100.0 * complex_rows(rng, 1, 5)[0]
    b = 100.0 * complex_rows(rng, 1, 5)[0]
    n = 40
    A = np.tile(a, (n, 1))
    B = np.vstack([np.tile(b, (n // 2, 1)), np.tile(-b, (n // 2, 1))])
    u = complex_rows(rng, 1, 5)[0]
    v = complex_rows(rng, 1, 5)[0]
    gross = n * np.linalg.norm(a) * np.linalg.norm(b)
    assert gross > 1e6  # the naive magnitude scale really is huge
    est = estimate(A, B, u, v, k=16, seed=3)
    scale = gross * np.linalg.norm(u) * np.linalg.norm(v)
    assert abs(est) <= 1e-9 * scale


def test_quality_with_chebyshev_bucket_count():
    rng = np.random.default_rng(20)
    A = complex_rows(rng, 50, 5)
    B = complex_rows(rng, 50, 5)
    u = complex_rows(rng, 1, 5)[0]
    v = complex_rows(rng, 1, 5)[0]
    exact = exact_vmv(A, B, u, v)
    N2 = (np.linalg.norm(u) ** 2 * np.linalg.norm(v) ** 2
          * np.linalg.norm(A.T @ B) ** 2)
    eps = 3.0 * np.sqrt(N2 / 1000.0)
    k = max(1, int(np.ceil(9.0 * N2 / eps ** 2)))
    hits = sum(abs(estimate(A, B, u, v, k=k, seed=s) - exact) <= eps
               for s in range(200))
    assert hits >= 170


def test_median_of_means_is_deterministic_and_accurate():
    rng = np.random.default_rng(21)
    A = complex_rows(rng, 12, 4)
    B = complex_rows(rng, 12, 4)
    u = complex_rows(rng, 1, 4)[0]
    v = complex_rows(rng, 1, 4)[0]
    exact = exact_vmv(A, B, u, v)
    e1 = estimate(A, B, u, v, k=500, reps=7, seed=42)
    e2 = estimate(A, B, u, v, k=500, reps=7, seed=42)
    assert e1 == e2
    N = (np.linalg.norm(u) * np.linalg.norm(v) * np.linalg.norm(A.T @ B))
    assert abs(e1 - exact) <= 0.3 * N


def test_estimate_validation():
    rng = np.random.default_rng(22)
    A = complex_rows(rng, 5, 3)
    B = complex_rows(rng, 4, 3)
    u = complex_rows(rng, 1, 3)[0]
    with pytest.raises(ValueError):
        estimate(A, B, u, u, k=4)
    B = complex_rows(rng, 5, 3)
    with pytest.raises(ValueError):
        estimate(A, B, u, u, k=4, reps=0)
    with pytest.raises(ValueError):
        estimate(A, B, np.ones(2, dtype=complex), u, k=4)


def test_estimate_rejects_matrix_queries():
    A, ones = np.ones((4, 3)), np.ones(3)
    for u, v in ((np.ones((3, 1)), np.ones((1, 3))), (ones, np.ones((1, 3))),
                 (np.ones((3, 1)), ones)):
        with pytest.raises(ValueError, match="^estimate: u and v must be "
                                             "one-dimensional vectors$"):
            estimate(A, A, u, v, k=8, seed=1)
    assert estimate(A, A, ones, ones, k=8, seed=1) == estimate(
        A, A, list(ones), ones.tolist(), k=8, seed=1)


@pytest.mark.parametrize("size", [{"k": 8.7}, {"k": True}, {"reps": 2.9},
                                  {"reps": True}, {"reps": 2.0}])
def test_estimate_rejects_non_integer_sizes(size):
    rng = np.random.default_rng(25)
    A, u = complex_rows(rng, 5, 3), complex_rows(rng, 1, 3)[0]
    kwargs = {"k": 8, "reps": 2, **size}
    name = next(iter(size))
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        estimate(A, A, u, u, seed=1, **kwargs)


def test_estimate_rejects_column_mismatch_before_building_state(monkeypatch):
    rng = np.random.default_rng(23)
    A, B = complex_rows(rng, 5, 3), complex_rows(rng, 5, 4)
    built = []
    monkeypatch.setattr(vmv_sketch, "ts_new",
                        lambda *a, **kw: built.append(a) or ts_new(*a, **kw))
    with pytest.raises(ValueError, match="column count"):
        estimate(A, B, np.ones(3), np.ones(4), k=4)
    assert built == []


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
@pytest.mark.parametrize("where", ["A", "B", "u", "v"])
def test_estimate_rejects_nonfinite_input(where, bad):
    rng = np.random.default_rng(24)
    args = {"A": complex_rows(rng, 5, 3), "B": complex_rows(rng, 5, 3),
            "u": complex_rows(rng, 1, 3)[0], "v": complex_rows(rng, 1, 3)[0]}
    args[where].flat[1] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="finite"):
            estimate(**args, k=4, reps=2)


def test_estimate_rejects_an_overflowing_gram_of_finite_rows():
    # every entry is finite, but A^T B sums 5 products of 1e200 * 1e200
    A = np.full((5, 3), 1e200)
    u = np.ones(3)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="A\\^T B must be finite"):
            estimate(A, A, u, u, k=4, reps=3, seed=1)
        # a finite Gram whose pairing with a large query overflows
        G_scale = np.full((5, 3), 1e150)
        with pytest.raises(ValueError, match="pairing is not finite"):
            estimate(G_scale, G_scale, 1e10 * u, u, k=4, reps=3, seed=1)


def test_seed_sequence_is_read_not_spawned():
    # two states from one SeedSequence hash identically, and the caller's
    # object is left as it was
    root = np.random.SeedSequence(31)
    a = np.arange(6.0) + 1j
    first, second = ts_new(16, root), ts_new(16, root)
    assert root.n_children_spawned == 0
    np.testing.assert_array_equal(ts_pair(first, a, a), ts_pair(second, a, a))
    np.testing.assert_array_equal(ts_pair(first, a, a),
                                  ts_pair(ts_new(16, 31), a, a))
    rng = np.random.default_rng(32)
    A, B = complex_rows(rng, 12, 3), complex_rows(rng, 12, 3)
    u, v = rng.standard_normal(3), rng.standard_normal(3)
    assert estimate(A, B, u, v, k=32, reps=4, seed=root) \
        == estimate(A, B, u, v, k=32, reps=4, seed=31)
    assert root.n_children_spawned == 0


# ---------------------------------------------------------------------------
# estimate (one Gram scatter) equals the streaming definition
# ---------------------------------------------------------------------------


def streamed_estimate(A, B, u, v, k, reps, seed):
    """``estimate`` as its definition reads: ingest every row, per rep."""
    ests = []
    for r in range(reps):
        state = ts_new(k, child_seed(seed, r))
        for a, b in zip(A, B):
            ingest(state, a, b)
        ests.append(estimate_vmv(state, u, v))
    ests = np.array(ests)
    if reps == 1:
        return complex(ests[0])
    group = math.ceil(reps / 3)
    means = np.array([ests[j:j + group].mean()
                      for j in range(0, reps, group)])
    return complex(np.median(means.real) + 1j * np.median(means.imag))


def _gaussian(n, d, real):
    rng = np.random.default_rng(n * 1000 + d)

    def draw(*shape):
        x = rng.standard_normal(shape)
        return x if real else x + 1j * rng.standard_normal(shape)
    return draw(n, d), draw(n, d), draw(d), draw(d)


def _cancellation():
    rng = np.random.default_rng(25)
    a, b = 1e3 * complex_rows(rng, 2, 5)
    A = np.tile(a, (40, 1))
    B = np.vstack([np.tile(b, (20, 1)), np.tile(-b, (20, 1))])
    return A, B, *complex_rows(rng, 2, 5)


def _strided():
    # A is a transposed view, B every other row, u and v strided slices
    rng = np.random.default_rng(27)
    At = complex_rows(rng, 6, 300)
    B2 = complex_rows(rng, 600, 6)
    uv = complex_rows(rng, 1, 12)[0]
    return At.T, B2[::2], uv[::2], uv[1::2]


def _no_rows():
    rng = np.random.default_rng(26)
    return (np.zeros((0, 6)), np.zeros((0, 6), dtype=complex),
            *complex_rows(rng, 2, 6))


# (instance, k, reps)
STREAM_CASES = {
    "complex-k64-reps7": (lambda: _gaussian(2000, 20, False), 64, 7),
    "real-k4096-reps1": (lambda: _gaussian(2000, 20, True), 4096, 1),
    "complex-wide-k4-reps7": (lambda: _gaussian(30, 40, False), 4, 7),
    "real-wide-k4-reps1": (lambda: _gaussian(30, 40, True), 4, 1),
    "cancellation-reps3": (_cancellation, 16, 3),
    "complex-k1-reps3": (lambda: _gaussian(50, 6, False), 1, 3),
    "strided-views-reps5": (_strided, 32, 5),
    "no-rows-reps1": (_no_rows, 8, 1),
    "no-rows-reps7": (_no_rows, 8, 7),
}


@pytest.mark.parametrize("case", list(STREAM_CASES))
def test_estimate_matches_streaming_definition(case):
    make, k, reps = STREAM_CASES[case]
    A, B, u, v = make()
    expected = streamed_estimate(A, B, u, v, k, reps, seed=77)
    got = estimate(A, B, u, v, k=k, reps=reps, seed=77)
    gross = float(np.linalg.norm(u) * np.linalg.norm(v)
                  * np.sum(np.linalg.norm(A, axis=1)
                           * np.linalg.norm(B, axis=1)))
    assert abs(got - expected) <= 1e-12 * gross


@pytest.mark.parametrize("reps", range(2, 13))
def test_median_of_means_matches_the_numpy_combination(reps):
    rng = np.random.default_rng(100 + reps)
    ests = list(rng.standard_normal(reps) + 1j * rng.standard_normal(reps))
    group = math.ceil(reps / 3)
    means = np.array([np.mean(ests[j:j + group])
                      for j in range(0, reps, group)])
    expected = complex(np.median(means.real) + 1j * np.median(means.imag))
    assert vmv_sketch._median_of_means(ests) == expected
