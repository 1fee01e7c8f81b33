"""Tests for leverage scores, sampling sketches, and score schemes.

Independent oracles: dense pseudoinverse diag(B (B*B)^+ B*) for exact scores,
Monte Carlo means for sketch unbiasedness, and hand-computed sums for gamma.
"""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from sketchopt import sketch_sampling
from sketchopt.bench.datasets import synth_planted
from sketchopt.core_complex import (lift_matrix, min_eig_hermitian,
                                    spectral_norm)
from sketchopt.hessian_oracle import (FiniteSumProblem, OracleMeter, d_diag,
                                      make_loss)
from sketchopt.hybrid_sampling import ls_det_fraction_plan, ls_det_sample
from sketchopt.lp_regression import (build_sketch_finite_p, build_sketch_inf,
                                     lp_leverage_scores, sketch_and_solve)
from sketchopt.sketch_sampling import (
    SamplingSketch,
    apply_sketch,
    approx_leverage_scores,
    build_sampling_sketch,
    embedding_distortion,
    exact_leverage_scores,
    gamma_factor,
    scheme_probabilities,
    span_basis,
)


def rand_cmat(rng, n, d):
    return rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))


def pinv_leverage_oracle(B):
    """diag(B (B*B)^+ B*) computed densely."""
    G = np.linalg.pinv(B.conj().T @ B)
    return np.real(np.einsum("ij,jk,ik->i", B, G, B.conj()))


# ---------------------------------------------------------------------------
# exact_leverage_scores


def test_exact_scores_identity():
    assert np.allclose(exact_leverage_scores(np.eye(4)), np.ones(4))


def test_exact_scores_extreme_diagonal():
    B = np.diag([1e8, 1.0])
    assert np.allclose(exact_leverage_scores(B), [1.0, 1.0])


def test_exact_scores_match_pseudoinverse_oracle():
    rng = np.random.default_rng(11)
    B = rand_cmat(rng, 6, 2)
    scores = exact_leverage_scores(B)
    assert np.max(np.abs(scores - pinv_leverage_oracle(B))) <= 1e-8


def test_exact_scores_invariants():
    rng = np.random.default_rng(12)
    B = rand_cmat(rng, 30, 5)
    scores = exact_leverage_scores(B)
    assert np.all(scores >= 0)
    assert np.all(scores <= 1 + 1e-8)
    assert abs(scores.sum() - np.linalg.matrix_rank(B)) <= 1e-6


def test_exact_scores_rank_deficient():
    rng = np.random.default_rng(13)
    col = rand_cmat(rng, 8, 1)
    B = np.hstack([col, 2 * col])  # rank 1
    scores = exact_leverage_scores(B)
    assert abs(scores.sum() - 1.0) <= 1e-8
    assert np.max(np.abs(scores - pinv_leverage_oracle(B))) <= 1e-8


def _svd_scores(B):
    return np.sum(np.abs(span_basis(B)) ** 2, axis=1)


@pytest.fixture
def svd_calls(monkeypatch):
    """Counts calls of the SVD behind ``span_basis``, the fallback path."""
    calls = []
    real = sketch_sampling.svd

    def counted(M):
        calls.append(np.shape(M))
        return real(M)

    monkeypatch.setattr(sketch_sampling, "svd", counted)
    return calls


def _conditioned(rng, n, d, kappa):
    """An n x d matrix with singular values geometric from 1 to 1/kappa."""
    U, _ = np.linalg.qr(rng.standard_normal((n, d)))
    V, _ = np.linalg.qr(rng.standard_normal((d, d)))
    return (U * np.geomspace(1.0, 1.0 / kappa, d)) @ V.T


@pytest.mark.parametrize("kappa", [1.0, 1e2, 1e4])
def test_cholesky_qr_scores_match_svd_scores(svd_calls, kappa):
    # Cholesky-QR squares the condition number: the scores may differ from
    # the SVD's by about kappa^2 * eps.  1e4 sits just inside the rank test.
    B = _conditioned(np.random.default_rng(60), 400, 8, kappa * (1 - 1e-6))
    scores = exact_leverage_scores(B)
    assert svd_calls == []
    ref = _svd_scores(B)
    assert np.max(np.abs(scores - ref)) <= kappa**2 * np.finfo(float).eps


def _fallback_cases():
    rng = np.random.default_rng(61)
    low_rank = rng.standard_normal((100, 3)) @ rng.standard_normal((3, 6))
    return [
        pytest.param(low_rank, 3, id="rank-deficient"),
        pytest.param(_conditioned(rng, 100, 6, 1e6), 6, id="kappa-1e6"),
        pytest.param(rng.standard_normal((3, 5)), 3, id="wide"),
        pytest.param(np.zeros((10, 3)), 0, id="all-zero"),
        pytest.param(rand_cmat(rng, 50, 4), 4, id="complex"),
    ]


@pytest.mark.parametrize("B, rank", _fallback_cases())
def test_exact_scores_fall_back_to_svd(svd_calls, B, rank):
    scores = exact_leverage_scores(B)
    assert len(svd_calls) == 1
    assert np.array_equal(scores, _svd_scores(B))
    assert abs(scores.sum() - rank) <= 1e-8


@pytest.fixture
def scipy_calls(monkeypatch):
    """Names of the ``scipy.linalg`` callables called until the test's
    ``monkeypatch.undo()``.  scipy.linalg runs on its own BLAS thread pool,
    which contends with NumPy's, so the sampling kernels must not call it."""
    calls = []
    for name in dir(scipy.linalg):
        fn = getattr(scipy.linalg, name)
        if callable(fn) and not isinstance(fn, type):
            def counted(*args, _fn=fn, _name=name, **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(scipy.linalg, name, counted)
    return calls


def test_planted_design_scores_skip_svd_and_scipy(svd_calls, scipy_calls,
                                                  monkeypatch):
    # the fast path must stay inside NumPy
    A, labels = synth_planted(5000, 20, 20, 1e3, seed=1)
    prob = _toy_problem(A, labels=labels, loss="nlls_classification")
    B = np.sqrt(np.abs(d_diag(prob, np.zeros(20))))[:, None] * A
    scores = exact_leverage_scores(B)
    assert svd_calls == [] and scipy_calls == []
    monkeypatch.undo()
    assert np.max(np.abs(scores - _svd_scores(B))) <= 1e-12
    assert abs(scores.sum() - 20) <= 1e-10


# ---------------------------------------------------------------------------
# approx_leverage_scores


def test_approx_scores_near_isometric_embedding():
    rng = np.random.default_rng(14)
    Q, _ = np.linalg.qr(rng.standard_normal((60, 4)))
    exact = exact_leverage_scores(Q)
    # a huge embedding and a huge JL dimension drive both error terms to ~0
    approx = approx_leverage_scores(Q, embed_rows=2000, jl_cols=4000, seed=3)
    assert np.linalg.norm(approx - exact) / np.linalg.norm(exact) <= 0.15


def test_approx_scores_skip_scipy_and_match_the_triangular_solve(
        scipy_calls, monkeypatch):
    # the d x d factor is inverted by NumPy, not by scipy.linalg
    rng = np.random.default_rng(17)
    inputs = (rng.standard_normal((500, 8)), rand_cmat(rng, 300, 5))
    scores = [approx_leverage_scores(B, seed=4) for B in inputs]
    assert scipy_calls == []
    monkeypatch.undo()
    # the same draws with R^{-1} G from the triangular solve
    monkeypatch.setattr(np.linalg, "solve", lambda T, G:
                        scipy.linalg.solve_triangular(T, G, lower=False))
    for B, got in zip(inputs, scores):
        np.testing.assert_allclose(got, approx_leverage_scores(B, seed=4),
                                   rtol=1e-12)


@pytest.mark.parametrize("complex_input", [False, True],
                         ids=["real", "complex"])
def test_embedded_scores_follow_the_documented_draw_order(complex_input):
    # one Philox stream draws S, then G; R from QR(S B) alone; R^{-1} by
    # np.linalg.solve.  lp_leverage_scores takes real input, so a complex
    # instance enters it lifted.
    rng = np.random.default_rng(31)
    B = rand_cmat(rng, 90, 4) if complex_input else rng.standard_normal((90, 4))
    M = lift_matrix(B) if complex_input else B

    def embedding(X):
        stream = np.random.Generator(np.random.Philox(9))
        s = 4 * X.shape[1]
        S = stream.standard_normal((s, X.shape[0])) / np.sqrt(s)
        return stream, np.linalg.qr(S @ X, mode="r")

    stream, R = embedding(B)
    r = int(np.ceil(8 * np.log(B.shape[0])))
    G = stream.standard_normal((B.shape[1], r)) / np.sqrt(r)
    expect = np.sum(np.abs(B @ np.linalg.solve(R, G)) ** 2, axis=1)
    assert np.array_equal(approx_leverage_scores(B, seed=9), expect)

    _, R = embedding(M)
    U = np.linalg.solve(R.T, M.T).T
    expect = np.sum(np.abs(U) ** 1.5, axis=1)
    assert np.array_equal(lp_leverage_scores(M, 1.5, seed=9), expect)


def test_approx_scores_default_quality_over_seeds():
    # at embed_rows=60, jl_cols=40 the per-row ratio to exact lands in [0.5, 2]
    # for >= 95% of rows pooled over 100 sketch seeds
    rng = np.random.default_rng(15)
    B = rng.standard_normal((200, 5))
    exact = exact_leverage_scores(B)
    in_band = 0
    total = 0
    for seed in range(100):
        approx = approx_leverage_scores(B, embed_rows=60, jl_cols=40, seed=seed)
        ratio = approx / exact
        in_band += int(np.sum((ratio >= 0.5) & (ratio <= 2.0)))
        total += ratio.size
    assert in_band / total >= 0.95


def test_approx_scores_no_square_intermediate():
    rng = np.random.default_rng(16)
    n, d = 1000, 10
    B = rng.standard_normal((n, d))
    tracemalloc.start()
    approx_leverage_scores(B, seed=0)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    # an n x n dense float64 intermediate would need 8 MB; stay far below
    assert peak < n * n * 8 / 4


def test_approx_scores_reject_an_empty_projection():
    # jl_cols = 0 would give all-zero scores
    B = np.random.default_rng(33).standard_normal((20, 3))
    with pytest.raises(ValueError, match="jl_cols must be >= 1"):
        approx_leverage_scores(B, jl_cols=0)


def test_approx_scores_singular_r_factor():
    col = np.ones((40, 1))
    B = np.hstack([col, col])
    with pytest.raises(ValueError):
        approx_leverage_scores(B, seed=1)


# ---------------------------------------------------------------------------
# build_sampling_sketch / apply_sketch


def test_sketch_point_mass():
    probs = np.zeros(6)
    probs[3] = 1.0
    S = build_sampling_sketch(probs, t=5, seed=0)
    assert np.all(S.rows == 3)
    assert np.allclose(S.weights, 1.0 / np.sqrt(5.0))


def test_sketch_uniform_weights():
    n, t = 10, 4
    S = build_sampling_sketch(np.full(n, 1.0 / n), t=t, seed=1)
    assert np.allclose(S.weights, np.sqrt(n / t))


def test_sketch_zero_probability_row_never_picked():
    probs = np.array([0.5, 0.0, 0.5])
    S = build_sampling_sketch(probs, t=400, seed=2)
    assert not np.any(S.rows == 1)


def test_sketch_rejects_bad_probs():
    with pytest.raises(ValueError):
        build_sampling_sketch(np.zeros(4), t=2, seed=0)
    with pytest.raises(ValueError):
        build_sampling_sketch(np.array([0.5, 0.6]), t=2, seed=0)


@pytest.mark.parametrize("t", [2.5, 3.0, True, None])
def test_sketch_rejects_a_non_integer_row_count(t):
    with pytest.raises(ValueError, match="t must be an integer"):
        build_sampling_sketch(np.full(4, 0.25), t=t, seed=0)


def _size_cases():
    rng = np.random.default_rng(32)
    B = rng.standard_normal((40, 3))
    A, b = rand_cmat(rng, 12, 2), rand_cmat(rng, 12, 1)[:, 0]
    pairs = [(0, 1), (2, 3)]
    cases = {
        "sketch_and_solve: t": lambda v: sketch_and_solve(A, b, 1.0, t=v),
        "sketch_and_solve: s": lambda v: sketch_and_solve(A, b, np.inf, s=v),
        "build_sketch_finite_p: t":
            lambda v: build_sketch_finite_p(pairs, [0], v, 1.0),
        "build_sketch_inf: s": lambda v: build_sketch_inf(pairs, v),
        "approx_leverage_scores: jl_cols":
            lambda v: approx_leverage_scores(B, jl_cols=v),
        "approx_leverage_scores: embed_rows":
            lambda v: approx_leverage_scores(B, embed_rows=v),
        "lp_leverage_scores: embed_rows":
            lambda v: lp_leverage_scores(B, 1.5, embed_rows=v),
        "ls_det_fraction_plan: budget":
            lambda v: ls_det_fraction_plan(B, v, 0.5),
        "ls_det_sample: rounds": lambda v: ls_det_sample(B, v, sample_count=4),
        "ls_det_sample: sample_count":
            lambda v: ls_det_sample(B, sample_count=v),
        "ls_det_sample: cap": lambda v: ls_det_sample(B, sample_count=4, cap=v),
    }
    return [pytest.param(name, call, id=name.replace(": ", "-"))
            for name, call in cases.items()]


@pytest.mark.parametrize("name, call", _size_cases())
def test_sizes_reject_non_integers(name, call):
    call(np.int64(3))
    for bad in (2.5, True):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            call(bad)


def test_sketch_reproducible():
    probs = np.full(8, 1 / 8)
    S1 = build_sampling_sketch(probs, t=6, seed=42)
    S2 = build_sampling_sketch(probs, t=6, seed=42)
    assert np.array_equal(S1.rows, S2.rows)
    assert np.allclose(S1.weights, S2.weights)


def test_apply_sketch_identity_and_single_row():
    rng = np.random.default_rng(17)
    B = rand_cmat(rng, 5, 3)
    ident = SamplingSketch(source_rows=5, rows=np.arange(5), weights=np.ones(5))
    assert np.allclose(apply_sketch(ident, B), B)
    single = SamplingSketch(source_rows=5, rows=np.array([0]), weights=np.array([2.0]))
    assert np.allclose(apply_sketch(single, B), 2.0 * B[:1])


def test_apply_sketch_gram_composition():
    rng = np.random.default_rng(18)
    B = rand_cmat(rng, 7, 3)
    S = build_sampling_sketch(np.full(7, 1 / 7), t=5, seed=3)
    C = apply_sketch(S, B)
    direct = sum(w * w * np.outer(B[i], B[i]) for i, w in zip(S.rows, S.weights))
    assert np.allclose(C.T @ C, direct)


def test_apply_sketch_validates():
    B = np.ones((4, 2))
    with pytest.raises(ValueError):
        apply_sketch(SamplingSketch(5, np.array([0]), np.array([1.0])), B)
    with pytest.raises(ValueError):
        apply_sketch(SamplingSketch(4, np.array([7]), np.array([1.0])), B)


def test_sketch_monte_carlo_unbiased():
    rng = np.random.default_rng(19)
    B = rand_cmat(rng, 8, 3)
    scores = exact_leverage_scores(B)
    probs = scores / scores.sum()
    t, reps = 4, 10_000
    picks_rng = np.random.Generator(np.random.Philox(99))
    acc = np.zeros((3, 3), dtype=complex)
    for _ in range(reps):
        rows = picks_rng.choice(8, size=t, p=probs)
        w = 1.0 / np.sqrt(t * probs[rows])
        C = w[:, None] * B[rows]
        acc += C.T @ C
    mean = acc / reps
    target = B.T @ B
    assert np.linalg.norm(mean - target) / np.linalg.norm(target) <= 0.02


# ---------------------------------------------------------------------------
# Loewner sandwich / spectral bound on the real-Gram family (module level,
# smaller than the acceptance versions)


def _curvature_family(rng, n, d):
    """A real Gaussian A and a sign-indefinite diagonal: B = D^{1/2} A."""
    A = rng.standard_normal((n, d))
    dvec = np.tanh(rng.standard_normal(n)) * rng.choice([-1.0, 1.0], size=n)
    B = np.sqrt(dvec.astype(complex))[:, None] * A
    return A, dvec, B


def test_loewner_sandwich_small():
    n, d, eps, delta = 200, 4, 0.6, 0.1
    t = int(np.ceil(4 * d * np.log(d / delta) / eps**2))
    hits = 0
    trials = 60
    for seed in range(trials):
        rng = np.random.default_rng(1000 + seed)
        A, dvec, B = _curvature_family(rng, n, d)
        scores = exact_leverage_scores(B)
        probs = scores / scores.sum()
        S = build_sampling_sketch(probs, t=t, seed=seed)
        C = apply_sketch(S, B)
        lhs = np.real(C.T @ C)  # real because D real, A real
        target = A.T @ (dvec[:, None] * A)
        slack = eps * np.real(B.conj().T @ B)
        lo = min_eig_hermitian(lhs - target + slack, tol=1e-6)
        hi = min_eig_hermitian(target + slack - lhs, tol=1e-6)
        if lo >= -1e-8 and hi >= -1e-8:
            hits += 1
    assert hits >= 0.9 * trials


# ---------------------------------------------------------------------------
# scheme_probabilities


def _toy_problem(A, labels=None, loss="quadratic", lam=0.0):
    n = A.shape[0]
    if labels is None:
        labels = np.zeros(n)
    return FiniteSumProblem(A=A, labels=labels, loss=make_loss(loss), ridge_lambda=lam)


def test_scheme_uniform():
    rng = np.random.default_rng(20)
    prob = _toy_problem(rng.standard_normal((12, 3)))
    res = scheme_probabilities(prob, np.zeros(3), "uniform")
    assert np.allclose(res.probs, 1 / 12)
    assert not res.fell_back


def test_scheme_ls_identity_curvature():
    # quadratic loss: D = I, so LS probs equal leverage scores of A over d
    rng = np.random.default_rng(21)
    A = rng.standard_normal((15, 3))
    prob = _toy_problem(A)
    res = scheme_probabilities(prob, np.zeros(3), "ls")
    lev = exact_leverage_scores(A)
    assert np.allclose(res.probs, lev / lev.sum(), atol=1e-12)


def test_scheme_rn_zero_curvature_fallback():
    # tukey loss at huge residuals: f'' ~ 0 is not exactly 0; force zeros with
    # a custom zero-curvature profile instead: quadratic loss, zero rows of A
    A = np.zeros((6, 2))
    prob = _toy_problem(A)
    with pytest.warns(RuntimeWarning):
        res = scheme_probabilities(prob, np.zeros(2), "rn")
    assert res.fell_back
    assert np.allclose(res.probs, 1 / 6)


def test_scheme_diagonal_example():
    # A = diag(a1, a2), D = diag(d1, d2): RN score prop. |d_i| a_i^2,
    # RN-MX score prop. a_i + |d_i| a_i
    a1, a2 = 2.0, 3.0
    A = np.diag([a1, a2])
    # quadratic has D = I; rescale rows of A to emulate D through residual
    # curvature is constant, so instead check the formulas directly via RN on
    # a problem whose d_diag is constant 1: scores prop. to row norms squared.
    prob = _toy_problem(A)
    rn = scheme_probabilities(prob, np.zeros(2), "rn").probs
    expect = np.array([a1**2, a2**2])
    assert np.allclose(rn, expect / expect.sum())
    rnmx = scheme_probabilities(prob, np.zeros(2), "rn-mx").probs
    expect_mx = np.array([a1 + a1, a2 + a2])
    assert np.allclose(rnmx, expect_mx / expect_mx.sum())


def test_scheme_ls_mx_combines_both_matrices():
    rng = np.random.default_rng(22)
    A = rng.standard_normal((20, 4))
    labels = rng.integers(0, 2, size=20).astype(float)
    prob = _toy_problem(A, labels=labels, loss="nlls_classification")
    x = rng.standard_normal(4) * 0.1
    res = scheme_probabilities(prob, x, "ls-mx")
    dvec = d_diag(prob, x)
    lev_A = exact_leverage_scores(A)
    lev_DA = exact_leverage_scores(np.abs(dvec)[:, None] * A)
    expect = lev_A + lev_DA
    assert np.allclose(res.probs, expect / expect.sum(), atol=1e-10)


def test_scheme_ls_matches_complex_path():
    # real-arithmetic |D|^{1/2}A scores equal scores of the complex D^{1/2}A
    rng = np.random.default_rng(23)
    A = rng.standard_normal((25, 4))
    dvec = rng.standard_normal(25)  # sign-indefinite
    B_complex = np.sqrt(dvec.astype(complex))[:, None] * A
    lev_complex = exact_leverage_scores(B_complex)
    lev_real = exact_leverage_scores(np.sqrt(np.abs(dvec))[:, None] * A)
    assert np.max(np.abs(lev_complex - lev_real)) <= 1e-10


def test_scheme_meter_charges():
    rng = np.random.default_rng(24)
    A = rng.standard_normal((10, 3))
    prob = _toy_problem(A)
    meter = OracleMeter()
    scheme_probabilities(prob, np.zeros(3), "ls", meter=meter)
    # one d_diag (1) + leverage of an n x d matrix (d = 3)
    assert meter.function_evals == 4


# ---------------------------------------------------------------------------
# gamma_factor


def test_gamma_orthonormal_columns():
    rng = np.random.default_rng(25)
    Q, _ = np.linalg.qr(rand_cmat(rng, 12, 3))
    scores = exact_leverage_scores(Q)
    assert gamma_factor(Q, scores) == pytest.approx(1.0, rel=1e-10)


def test_gamma_hand_example():
    B = np.diag([2.0, 3.0])
    assert gamma_factor(B, np.ones(2)) == pytest.approx(81.0)


def test_gamma_scaling_homogeneity():
    rng = np.random.default_rng(26)
    B = rand_cmat(rng, 9, 3)
    scores = exact_leverage_scores(B)
    g1 = gamma_factor(B, scores)
    g2 = gamma_factor(2.0 * B, scores)
    assert g2 == pytest.approx(16.0 * g1, rel=1e-10)


def test_gamma_zero_score_on_nonzero_row():
    B = np.eye(3)
    scores = np.array([1.0, 0.0, 1.0])
    with pytest.raises(ValueError):
        gamma_factor(B, scores)


def test_gamma_zero_row_contributes_zero():
    B = np.vstack([np.eye(2), np.zeros((1, 2))])
    scores = np.array([1.0, 1.0, 0.0])
    assert gamma_factor(B, scores) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# embedding distortion helper (product-lemma oracle)


def test_embedding_distortion_identity():
    rng = np.random.default_rng(27)
    M = rand_cmat(rng, 10, 2)
    assert embedding_distortion(np.eye(10), M) <= 1e-12


def test_embedding_distortion_detects_distortion():
    rng = np.random.default_rng(28)
    M = np.eye(4)[:, :2] + 0j
    S = np.diag([2.0, 1.0, 1.0, 1.0])
    # the span includes e1, stretched by 2 -> squared distortion 3
    assert embedding_distortion(S, M) == pytest.approx(3.0, rel=1e-10)


def test_product_lemma_via_verified_embedding():
    rng = np.random.default_rng(29)
    A = rand_cmat(rng, 40, 3)
    B = rand_cmat(rng, 40, 2)
    S = rng.standard_normal((60, 40)) / np.sqrt(60)
    span = np.hstack([A, B])
    eps = embedding_distortion(S, span)
    err = spectral_norm(A.conj().T @ S.T @ S @ B - A.conj().T @ B)
    assert err <= eps * spectral_norm(A) * spectral_norm(B) + 1e-12
