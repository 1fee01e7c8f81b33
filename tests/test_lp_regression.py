"""Tests for complex-to-real p-norm regression reduction and solvers."""

import itertools

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
import scipy.special

from sketchopt import lp_regression
from sketchopt.core_complex import mixed_norm, phi, seeded_generator, unphi
from sketchopt.lp_regression import (
    BlockSketch,
    LiftedRegression,
    build_sketch_finite_p,
    build_sketch_inf,
    classify_pairs,
    complex_lp_solve,
    gaussian_moment_scale,
    lift_instance,
    lp_leverage_scores,
    sketch_and_solve,
    small_lp_solve,
)

P_GRID = (1.0, 1.5, 2.0, 3.0, np.inf)


def complex_matrix(rng, n, d):
    return rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))


def complex_vector(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def lp_norm(r, p):
    if np.isinf(p):
        return float(np.max(np.abs(r)))
    return float(np.sum(np.abs(r) ** p) ** (1.0 / p))


# a sketch's blocks, with the arithmetic of BlockSketch.apply ---------------


def sign_rows(s):
    """All ``2^s`` sign rows in ``{-1,+1}^s``: row k holds the bits of k."""
    codes = (np.arange(2 ** s)[:, None] >> np.arange(s)[None, :]) & 1
    return codes.astype(float) * 2.0 - 1.0


def sketch_blocks(sketch):
    """Pair i's block: its factor, or ``R @ G_i`` at p = inf."""
    if not np.isinf(sketch.p) or not sketch.factors:
        return sketch.factors
    R = sign_rows(sketch.factors[0].shape[0])
    return [R @ G for G in sketch.factors]


def pair_grouped_solve(M, c, p, tol=1e-10):
    """The solve on consecutive row pairs that ``complex_lp_solve`` runs,
    on a dense ``M`` of any structure."""
    return lp_regression._solve_rows(lp_regression._DenseRows(M, c),
                                     np.full(c.size // 2, 2), p, False, tol)


# independent 1-D oracles ----------------------------------------------------


def weighted_median_l1_argmin(m, c):
    """argmin_y sum_i |m_i y - c_i| = weighted median of c_i/m_i, weights |m_i|."""
    ratios = c / m
    weights = np.abs(m)
    order = np.argsort(ratios)
    cum = np.cumsum(weights[order])
    half = 0.5 * weights.sum()
    return float(ratios[order][np.searchsorted(cum, half)])


def ternary_linf_argmin(m, c, iters=300):
    """argmin_y max_i |m_i y - c_i| by ternary search on a convex function."""
    ratios = c / m
    lo, hi = ratios.min() - 1.0, ratios.max() + 1.0

    def f(y):
        return np.max(np.abs(m * y - c))

    for _ in range(iters):
        third = (hi - lo) / 3.0
        a, b = lo + third, hi - third
        if f(a) < f(b):
            hi = b
        else:
            lo = a
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# lifting
# ---------------------------------------------------------------------------


def test_lift_single_complex_entry():
    lifted = lift_instance(np.array([[1.0 + 0.0j]]), np.array([1.0 + 1.0j]))
    np.testing.assert_allclose(lifted.Ap, np.eye(2))
    np.testing.assert_allclose(lifted.bp, [1.0, 1.0])
    assert lifted.bp.size == 2  # one pair, rows 0 and 1


def test_lift_real_instance_duplicates_residual():
    rng = np.random.default_rng(80)
    A = rng.standard_normal((6, 2)).astype(complex)
    b = rng.standard_normal(6).astype(complex)
    x = rng.standard_normal(2).astype(complex)
    lifted = lift_instance(A, b)
    # real instance: the imaginary sub-rows contribute zeros
    r = lifted.Ap @ phi(x) - lifted.bp
    np.testing.assert_allclose(r[1::2], 0.0, atol=1e-14)
    np.testing.assert_allclose(np.abs(r[0::2]), np.abs(A.real @ x.real - b.real),
                               atol=1e-12)


@pytest.mark.parametrize("p", P_GRID)
def test_lift_residual_identity_random(p):
    rng = np.random.default_rng(81)
    A = complex_matrix(rng, 12, 3)
    b = complex_vector(rng, 12)
    lifted = lift_instance(A, b)
    for _ in range(5):
        x = complex_vector(rng, 3)
        lhs = mixed_norm(lifted.Ap @ phi(x) - lifted.bp, p)
        rhs = lp_norm(A @ x - b, p)
        assert abs(lhs - rhs) <= 1e-12 * max(rhs, 1.0)


# ---------------------------------------------------------------------------
# moment scale
# ---------------------------------------------------------------------------


def test_moment_scale_closed_forms():
    assert gaussian_moment_scale(2.0) == pytest.approx(1.0, abs=1e-14)
    assert gaussian_moment_scale(1.0) == pytest.approx(np.sqrt(np.pi / 2.0),
                                                       abs=1e-14)


@pytest.mark.parametrize("p", (1.0, 1.5, 3.0))
def test_moment_scale_monte_carlo(p):
    rng = np.random.default_rng(82)
    y = np.array([0.8, -0.6])
    g = gaussian_moment_scale(p) * rng.standard_normal((100_000, 2))
    emp = np.mean(np.abs(g @ y) ** p)
    assert abs(emp - np.linalg.norm(y) ** p) <= 0.03 * np.linalg.norm(y) ** p


# ---------------------------------------------------------------------------
# sign enumeration (infinity-norm route)
# ---------------------------------------------------------------------------


def test_sign_enumeration_s1_and_s2():
    # apply expands each G_i into its signed rows sigma . G_i
    for s in (1, 2):
        sketch = build_sketch_inf(1, s, seed=s)
        G = sketch.factors[0]
        block = sketch.apply(np.eye(2))
        assert block.shape == (2 ** s, 2)
        np.testing.assert_array_equal(block, sign_rows(s) @ G)
        assert {tuple(row) for row in block.tolist()} == {
            tuple(np.array(sigma) @ G)
            for sigma in itertools.product((-1.0, 1.0), repeat=s)}
    R2 = sign_rows(2)
    assert {tuple(row) for row in R2.tolist()} == {
        (1, 1), (1, -1), (-1, 1), (-1, -1)}
    rng = np.random.default_rng(83)
    for _ in range(20):
        z = rng.standard_normal(2)
        assert np.max(np.abs(R2 @ z)) == pytest.approx(np.abs(z).sum(),
                                                       abs=1e-14)


def test_sign_enumeration_l1_identity_s5():
    # max over the 2^s signed rows of |sigma . G y| is ||G y||_1
    sketch = build_sketch_inf(1, 5, seed=84)
    G = sketch.factors[0]
    rng = np.random.default_rng(84)
    for _ in range(20):
        y = rng.standard_normal((2, 1))
        assert np.max(np.abs(sketch.apply(y))) == pytest.approx(
            np.abs(G @ y).sum(), abs=1e-13)


def test_sign_enumeration_budget_guard():
    with pytest.raises(ValueError, match="2\\^s-row budget \\[1, 20\\]"):
        build_sketch_inf(1, 21).apply(np.eye(2))


def test_inf_block_unbiased_with_predicted_spread_s6():
    # estimator is a mean of s half-normal terms: unbiased for ||y||_2 with
    # relative std sqrt(pi/2 - 1)/sqrt(s) ~= 0.31 at s = 6
    rng = np.random.default_rng(85)
    y = rng.standard_normal(2)
    ynorm = np.linalg.norm(y)
    vals = []
    for seed in range(1000):
        sk = build_sketch_inf(1, s=6, seed=seed)
        vals.append(np.max(np.abs(sketch_blocks(sk)[0] @ y)))
    vals = np.asarray(vals) / ynorm
    assert abs(vals.mean() - 1.0) <= 0.03
    assert 0.20 <= vals.std() <= 0.45
    assert np.mean(np.abs(vals - 1.0) <= 0.6) >= 0.90


# ---------------------------------------------------------------------------
# p-norm leverage scores and classification
# ---------------------------------------------------------------------------


def test_lp_scores_p2_orthonormal_exact():
    rng = np.random.default_rng(86)
    Q, _ = np.linalg.qr(rng.standard_normal((30, 4)))
    scores = lp_leverage_scores(Q, 2.0)
    np.testing.assert_allclose(scores, np.sum(Q**2, axis=1), atol=1e-10)
    assert scores.sum() == pytest.approx(4.0, abs=1e-8)


def test_lp_scores_diagonal_mass_concentrates():
    M = np.zeros((6, 2))
    M[0, 0], M[1, 1] = 10.0, 10.0
    M[2, 0], M[3, 1], M[4, 0], M[5, 1] = 1.0, 1.0, 1.0, 1.0
    scores = lp_leverage_scores(M, 1.0, seed=0)
    assert scores[0] > 5.0 * scores[2]
    assert scores[1] > 5.0 * scores[3]


def test_lp_scores_rank_deficient_uses_pseudoinverse_path():
    rng = np.random.default_rng(87)
    M = rng.standard_normal((20, 3))
    M[:, 2] = M[:, 0]  # rank 2
    scores = lp_leverage_scores(M, 2.0)
    assert np.all(np.isfinite(scores))
    assert scores.sum() == pytest.approx(2.0, abs=1e-8)
    scores15 = lp_leverage_scores(M, 1.5, seed=3)
    assert np.all(np.isfinite(scores15)) and np.all(scores15 >= 0)


def test_classification_gamma_p1_is_inverse_d():
    # gamma = d^{-1/q-1} with q = infinity at p = 1, i.e. 1/d
    d = 4
    scores = np.array([0.3, 0.1, 0.2, 0.2, 0.26, 0.01])
    heavy, light = classify_pairs(scores, d, 1.0)
    assert heavy.tolist() == [0, 2]
    assert light.tolist() == [1]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_classification_rejects_non_finite_scores(bad):
    # a NaN score used to leave its pair in neither list
    with pytest.raises(ValueError,
                       match="^classify_pairs: scores must be finite$"):
        classify_pairs([bad, 0.1, 0.9, 0.2], 2, 1.0)


def test_classification_all_rows_equal():
    scores = np.full(10, 0.2)
    heavy, light = classify_pairs(scores, 4, 1.0)  # gamma = 0.25 > 0.2
    assert heavy.size == 0 and light.size == 5
    heavy, light = classify_pairs(scores, 6, 1.0)  # gamma ~ 0.167 < 0.2
    assert light.size == 0 and heavy.size == 5


@pytest.mark.parametrize("p", (1.5, 2.0))
def test_classification_invariant_to_right_multiplication(p):
    # planted hot pairs sit well above gamma and the flat bulk well below, so
    # the surrogate's bounded distortion must not change the classification
    agree = 0
    trials = 100
    for trial in range(trials):
        rng = np.random.default_rng(5000 + trial)
        M = rng.standard_normal((1600, 5))
        hot = rng.choice(800, size=3, replace=False)
        M[2 * hot] *= 50.0
        W = rng.standard_normal((5, 5)) + 3.0 * np.eye(5)
        s1 = lp_leverage_scores(M, p, seed=trial, embed_rows=64)
        s2 = lp_leverage_scores(M @ W, p, seed=trial + 1, embed_rows=64)
        h1, _ = classify_pairs(s1, 5, p)
        h2, _ = classify_pairs(s2, 5, p)
        agree += int(h1.tolist() == h2.tolist())
    assert agree >= 95


# ---------------------------------------------------------------------------
# finite-p block sketches
# ---------------------------------------------------------------------------


def test_finite_block_shapes_and_determinism():
    sk = build_sketch_finite_p(3, heavy=[1], t=8, p=1.0, seed=3)
    assert [b.shape for b in sk.factors] == [(1, 2), (8, 2), (1, 2)]
    sk2 = build_sketch_finite_p(3, heavy=[1], t=8, p=1.0, seed=3)
    for b1, b2 in zip(sk.factors, sk2.factors):
        np.testing.assert_array_equal(b1, b2)
    sk3 = build_sketch_finite_p(3, heavy=[1], t=8, p=1.0, seed=4)
    assert any(not np.array_equal(b1, b3)
               for b1, b3 in zip(sk.factors, sk3.factors))
    G = sk.apply(np.eye(6))
    assert G.shape == (1 + 8 + 1, 6)
    # block-diagonal: no mass outside each pair's two columns
    assert np.all(G[0, 2:] == 0)
    assert np.all(G[1:9, :2] == 0) and np.all(G[1:9, 4:] == 0)
    assert np.all(G[9, :4] == 0)


def test_light_block_second_moment_p2():
    rng = np.random.default_rng(88)
    y = np.array([1.2, -0.5])
    vals = []
    for seed in range(20000):
        sk = build_sketch_finite_p(1, heavy=[], t=4, p=2.0, seed=seed)
        vals.append((sk.factors[0] @ y)[0] ** 2)
    assert np.mean(vals) == pytest.approx(np.linalg.norm(y) ** 2, rel=0.03)


def test_heavy_block_p1_moment_and_concentration():
    rng = np.random.default_rng(89)
    y = rng.standard_normal(2)
    ynorm = np.linalg.norm(y)
    vals = []
    for seed in range(2000):
        sk = build_sketch_finite_p(1, heavy=[0], t=64, p=1.0, seed=seed)
        vals.append(np.abs(sk.factors[0] @ y).sum())
    assert np.mean(vals) == pytest.approx(ynorm, rel=0.02)
    assert np.std(vals) <= 2.0 / np.sqrt(64) * ynorm


# ---------------------------------------------------------------------------
# small dense solvers
# ---------------------------------------------------------------------------


def test_small_lp_p2_matches_least_squares():
    rng = np.random.default_rng(90)
    M = rng.standard_normal((30, 4))
    c = rng.standard_normal(30)
    sol = small_lp_solve(M, c, 2.0)
    ref = np.linalg.lstsq(M, c, rcond=None)[0]
    np.testing.assert_allclose(sol.y, ref, atol=1e-10)
    assert sol.converged


def test_small_lp_p1_matches_weighted_median():
    rng = np.random.default_rng(91)
    for trial in range(5):
        m = rng.standard_normal(21) + 2.0
        c = rng.standard_normal(21)
        sol = small_lp_solve(m[:, None], c, 1.0)
        y_star = weighted_median_l1_argmin(m, c)
        obj_star = np.abs(m * y_star - c).sum()
        assert sol.objective <= obj_star + 1e-7 * max(obj_star, 1.0)
        assert abs(float(sol.y[0]) - y_star) <= 1e-5


def test_small_lp_pinf_matches_ternary_search():
    rng = np.random.default_rng(92)
    for trial in range(5):
        m = rng.standard_normal(15) + 2.0
        c = rng.standard_normal(15)
        sol = small_lp_solve(m[:, None], c, np.inf)
        y_star = ternary_linf_argmin(m, c)
        obj_star = np.max(np.abs(m * y_star - c))
        assert abs(sol.objective - obj_star) <= 1e-6 * max(obj_star, 1.0)
        assert abs(float(sol.y[0]) - y_star) <= 1e-5


def test_small_lp_p3_matches_smooth_reference():
    rng = np.random.default_rng(93)
    M = rng.standard_normal((25, 3))
    c = rng.standard_normal(25)
    sol = small_lp_solve(M, c, 3.0)

    def obj(y):
        return np.sum(np.abs(M @ y - c) ** 3)

    def grad(y):
        r = M @ y - c
        return 3.0 * M.T @ (np.abs(r) * r)

    ref = scipy.optimize.minimize(obj, np.zeros(3), jac=grad, method="BFGS",
                                  options={"gtol": 1e-12})
    assert sol.objective ** 3 <= ref.fun * (1 + 1e-6) + 1e-12


@pytest.mark.parametrize("p", (1.0, 1.5, 3.0, np.inf))
def test_small_lp_repeated_column_falls_back_to_lstsq(p, monkeypatch):
    # A repeated column makes every Newton Hessian singular.  The start's
    # lstsq finds the rank short, so every step comes from lstsq with no
    # Cholesky attempt; the optimum is the one without the copy, whose
    # columns span the same space.
    calls = []
    cho_factor = scipy.linalg.cho_factor

    def counting_cho_factor(*args, **kwargs):
        calls.append(1)
        return cho_factor(*args, **kwargs)

    rng = np.random.default_rng(95)
    M = rng.standard_normal((30, 3))
    c = rng.standard_normal(30)
    ref = small_lp_solve(M, c, p)
    monkeypatch.setattr(scipy.linalg, "cho_factor", counting_cho_factor)
    sol = small_lp_solve(np.hstack([M, M[:, :1]]), c, p)
    assert not calls
    assert sol.converged and sol.iterations > 0
    assert sol.objective == pytest.approx(ref.objective, rel=1e-12)


def test_grouped_p2_equals_plain_least_squares():
    rng = np.random.default_rng(94)
    M = rng.standard_normal((20, 3))
    c = rng.standard_normal(20)
    sol = pair_grouped_solve(M, c, 2.0)
    ref = np.linalg.lstsq(M, c, rcond=None)[0]
    np.testing.assert_allclose(sol.y, ref, atol=1e-8)


def test_grouped_p1_pairs_matches_scalar_oracle():
    rng = np.random.default_rng(95)
    M = rng.standard_normal((12, 1)) + 1.5
    c = rng.standard_normal(12)
    groups = [(2 * i, 2 * i + 1) for i in range(6)]

    def obj(y):
        r = (M * y - c[:, None]).ravel() if np.ndim(y) else M[:, 0] * y - c
        return sum(np.hypot(r[a], r[b]) for a, b in groups)

    ref = scipy.optimize.minimize_scalar(obj, method="golden",
                                         options={"xtol": 1e-12})
    sol = pair_grouped_solve(M, c, 1.0)
    assert sol.objective <= obj(ref.x) + 1e-6 * max(obj(ref.x), 1.0)


def test_small_lp_p1_converges_to_the_lp_optimum_with_certified_value():
    rng = np.random.default_rng(4)
    M = rng.standard_normal((60, 6))
    c = rng.standard_normal(60)
    sol = small_lp_solve(M, c, 1.0)
    assert sol.converged
    # the reported objective is the true l1 residual of the returned iterate
    assert sol.objective == pytest.approx(np.abs(M @ sol.y - c).sum(),
                                          rel=1e-12)
    # l1 regression as an LP over (y, u): min sum u, -u <= M y - c <= u
    n, d = M.shape
    eye = np.eye(n)
    lp = scipy.optimize.linprog(
        np.r_[np.zeros(d), np.ones(n)],
        A_ub=np.block([[M, -eye], [-M, -eye]]), b_ub=np.r_[c, -c],
        bounds=[(None, None)] * d + [(0, None)] * n, method="highs")
    assert lp.status == 0
    assert lp.fun * (1 - 1e-9) <= sol.objective <= lp.fun * (1 + 1e-9)


def test_complex_lp_p2_matches_complex_least_squares():
    rng = np.random.default_rng(96)
    A = complex_matrix(rng, 20, 3)
    b = complex_vector(rng, 20)
    sol = complex_lp_solve(A, b, 2.0)
    ref = np.linalg.lstsq(A, b, rcond=None)[0]
    np.testing.assert_allclose(sol.x, ref, atol=1e-8)
    assert sol.objective == pytest.approx(np.linalg.norm(A @ ref - b),
                                          abs=1e-8)


@pytest.mark.parametrize("p", (1.0, 2.0, 3.0, np.inf))
def test_complex_lp_zero_residual_recovers_exactly(p):
    rng = np.random.default_rng(97)
    A = complex_matrix(rng, 15, 4)
    x0 = complex_vector(rng, 4)
    b = A @ x0
    sol = complex_lp_solve(A, b, p)
    assert sol.objective <= 1e-6
    np.testing.assert_allclose(sol.x, x0, atol=1e-5)


def test_pinf_objectives_scale_with_the_data():
    # the zero-residual shortcut, the stopping target and (at finite p) the
    # smoothing are relative to the data, so data scaled by 1e-150 is solved,
    # not returned as its first fit, at every p
    rng = np.random.default_rng(0)
    M = rng.standard_normal((30, 4))
    c = rng.standard_normal(30)
    A = complex_matrix(rng, 20, 3)
    b = complex_vector(rng, 20)
    for p in (1.0, 1.5, 3.0, np.inf):
        kw = {"s": 3} if np.isinf(p) else {"t": 4}
        solves = (
            lambda k: small_lp_solve(M, k * c, p).objective,
            lambda k: complex_lp_solve(A, k * b, p).objective,
            lambda k: sketch_and_solve(A, k * b, p, seed=1,
                                       **kw).sketched_objective,
        )
        for solve in solves:
            assert solve(1e-150) / 1e-150 == pytest.approx(solve(1.0),
                                                           rel=1e-9)


# ---------------------------------------------------------------------------
# sketch-and-solve
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p", (1.0, 2.0, np.inf))
def test_sketch_and_solve_zero_residual(p):
    rng = np.random.default_rng(98)
    A = complex_matrix(rng, 30, 4)
    x0 = complex_vector(rng, 4)
    b = A @ x0
    kw = {"s": 4} if np.isinf(p) else {"t": 8}
    result = sketch_and_solve(A, b, p, seed=5, **kw)
    np.testing.assert_allclose(result.xhat, x0, atol=1e-6)
    assert result.sketched_objective <= 1e-6


def test_sketch_objective_tracks_true_optimum_p1():
    # sketched objective evaluated at the true optimizer stays within 20%
    rng = np.random.default_rng(99)
    A = complex_matrix(rng, 40, 4)
    b = complex_vector(rng, 40)
    lifted = lift_instance(A, b)
    ref = complex_lp_solve(A, b, 1.0)
    opt = ref.objective
    y_star = phi(ref.x)
    ok = 0
    for seed in range(40):
        sk = build_sketch_finite_p(40, heavy=range(40), t=64, p=1.0,
                                   seed=seed)
        val = np.abs(sk.apply(lifted.Ap @ y_star - lifted.bp)).sum()
        if abs(val - opt) <= 0.2 * opt:
            ok += 1
    assert ok >= 36


@pytest.mark.parametrize("p", (1.0, 3.0))
def test_sketch_and_solve_default_t(p):
    # one complex column lifts to d = 2: t = max(8, ceil(4 * 2 ln 4 / 0.25))
    rng = np.random.default_rng(102)
    A = complex_matrix(rng, 20, 1)
    b = complex_vector(rng, 20)
    default = sketch_and_solve(A, b, p, seed=3)
    assert np.array_equal(default.xhat, sketch_and_solve(A, b, p, t=45,
                                                         seed=3).xhat)


def test_sketch_and_solve_classification_path_runs():
    rng = np.random.default_rng(100)
    A = complex_matrix(rng, 25, 3)
    b = complex_vector(rng, 25)
    result = sketch_and_solve(A, b, 1.5, t=16, all_heavy=False, seed=7)
    assert result.xhat.shape == (3,)
    assert np.isfinite(result.sketched_objective)
    assert result.heavy.size + result.light.size == 25


def test_sketch_and_solve_rejects_a_size_its_route_ignores():
    rng = np.random.default_rng(101)
    A = complex_matrix(rng, 12, 2)
    b = complex_vector(rng, 12)
    with pytest.raises(ValueError):
        sketch_and_solve(A, b, 1.0, t=4, s=3)
    with pytest.raises(ValueError):
        sketch_and_solve(A, b, 1.5, s=3)
    with pytest.raises(ValueError):
        sketch_and_solve(A, b, np.inf, s=3, t=4)
    # all_heavy has no effect at p = inf but stays accepted
    result = sketch_and_solve(A, b, np.inf, s=3, all_heavy=False, seed=2)
    assert np.isfinite(result.sketched_objective)


def test_build_sketch_inf_rejects_enumeration_width_out_of_range():
    with pytest.raises(ValueError):
        build_sketch_inf(1, s=0)
    # past apply's 2^20-row cap the sketch is built, but its 2^s rows are
    # never expanded
    wide = build_sketch_inf(1, s=21)
    assert [G.shape for G in wide.factors] == [(21, 2)]
    with pytest.raises(ValueError, match="budget"):
        wide.apply(np.eye(2))


# seeds of the block sketches ------------------------------------------------


def test_block_sketch_int_seed_draws_each_pair_from_its_spawned_child():
    children = np.random.SeedSequence(11).spawn(3)
    finite = build_sketch_finite_p(3, heavy=[1], t=5, p=1.5, seed=11)
    scale = gaussian_moment_scale(1.5)
    for i, (child, blk) in enumerate(zip(children, finite.factors)):
        rows = 5 if i == 1 else 1
        draw = seeded_generator(child).standard_normal((rows, 2))
        expected = (scale * 5 ** (-1.0 / 1.5)) * draw if i == 1 \
            else scale * draw
        np.testing.assert_array_equal(blk, expected)
    inf = build_sketch_inf(3, s=3, seed=11)
    R = sign_rows(3)
    for child, blk in zip(children, sketch_blocks(inf)):
        G = (np.sqrt(np.pi / 2.0) / 3) \
            * seeded_generator(child).standard_normal((3, 2))
        np.testing.assert_array_equal(blk, R @ G)


def test_block_sketch_accepts_seed_sequence_without_mutating_it():
    root = np.random.SeedSequence(12)
    for build in (lambda seed: build_sketch_finite_p(2, [0], 3, 1.0,
                                                      seed=seed),
                  lambda seed: build_sketch_inf(2, 2, seed=seed)):
        from_seq = build(root)
        assert root.n_children_spawned == 0
        for b1, b2 in zip(sketch_blocks(from_seq),
                          sketch_blocks(build(12))):
            np.testing.assert_array_equal(b1, b2)
    # children derive from the index, not from what the caller spawned
    used = np.random.SeedSequence(12)
    used.spawn(3)
    for b1, b2 in zip(sketch_blocks(build_sketch_inf(2, 2, seed=used)),
                      sketch_blocks(build_sketch_inf(2, 2, seed=12))):
        np.testing.assert_array_equal(b1, b2)
    rng = np.random.default_rng(102)
    A = complex_matrix(rng, 10, 2)
    b = complex_vector(rng, 10)
    for p, kw in ((1.0, {"t": 3}), (np.inf, {"s": 2})):
        got = sketch_and_solve(A, b, p, seed=np.random.SeedSequence(5), **kw)
        ref = sketch_and_solve(A, b, p, seed=5, **kw)
        np.testing.assert_array_equal(got.xhat, ref.xhat)


# pair-block solve of the sketched problem -----------------------------------


def _mixed_instance():
    # three scaled rows make their pairs heavy for the leverage test at
    # p = 1, 1.5 and 3 while the bulk stays light
    rng = np.random.default_rng(301)
    A = complex_matrix(rng, 80, 3)
    A[:3] *= 8.0
    return A, complex_vector(rng, 80)


def _recorded_sketch(monkeypatch, A, b, p, **kw):
    """Run sketch_and_solve and return it with the sketch it built."""
    built = []
    for name in ("build_sketch_finite_p", "build_sketch_inf"):
        original = getattr(lp_regression, name)

        def record(*args, _original=original, **kwargs):
            built.append(_original(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(lp_regression, name, record)
    result = sketch_and_solve(A, b, p, seed=7, **kw)
    assert len(built) == 1
    return result, built[0]


@pytest.mark.parametrize("p,kw", [
    (1.0, {"t": 6}), (1.0, {"t": 6, "all_heavy": False}),
    (1.5, {"t": 6}), (1.5, {"t": 6, "all_heavy": False}),
    (3.0, {"t": 6}), (3.0, {"t": 6, "all_heavy": False}),
    (np.inf, {"s": 2}), (np.inf, {"s": 6}),
])
def test_pair_block_solve_matches_materialized_sketch(monkeypatch, p, kw):
    A, b = _mixed_instance()
    result, sketch = _recorded_sketch(monkeypatch, A, b, p, **kw)
    if not kw.get("all_heavy", True):
        assert 0 < result.heavy.size < A.shape[0]
        assert {blk.shape[0] for blk in sketch.factors} == {1, 6}
    lifted = lift_instance(A, b)
    M, c = sketch.apply(lifted.Ap), sketch.apply(lifted.bp)
    ref = small_lp_solve(M, c, p)
    assert result.sketched_objective == pytest.approx(ref.objective,
                                                      rel=1e-6)
    assert result.iterations == ref.iterations > 0
    # the reported objective is the residual of the returned x on the rows
    assert result.sketched_objective == pytest.approx(
        lp_norm(M @ phi(result.xhat) - c, p), rel=1e-10)


def test_pair_block_inf_solve_forms_no_matrix_taller_than_the_lift(
        monkeypatch):
    rng = np.random.default_rng(103)
    n = 40
    A = complex_matrix(rng, n, 3)
    b = complex_vector(rng, n)
    rows_seen = []

    def recorder(fn):
        def wrapped(*args, **kwargs):
            out = fn(*args, **kwargs)
            values = args + (out if isinstance(out, tuple) else (out,))
            rows_seen.extend(v.shape[0] for v in values
                             if isinstance(v, np.ndarray) and v.ndim == 2)
            return out
        return wrapped

    monkeypatch.setattr(BlockSketch, "apply", recorder(BlockSketch.apply))
    monkeypatch.setattr(lp_regression, "small_lp_solve",
                        recorder(lp_regression.small_lp_solve))
    monkeypatch.setattr(np.linalg, "lstsq", recorder(np.linalg.lstsq))
    monkeypatch.setattr(scipy.linalg, "cho_factor",
                        recorder(scipy.linalg.cho_factor))
    result = sketch_and_solve(A, b, np.inf, s=6, seed=9)
    assert np.isfinite(result.sketched_objective)
    assert rows_seen  # the solves were observed
    assert max(rows_seen) <= 2 * n


def _materialized_pair_rows(lifted, sketch):
    """The rows ``F_i Ap[pair i]`` and ``F_i bp[pair i]`` of the factors."""
    M = np.concatenate([F @ lifted.Ap[2 * i:2 * i + 2]
                        for i, F in enumerate(sketch.factors)])
    rhs = np.concatenate([F @ lifted.bp[2 * i:2 * i + 2]
                          for i, F in enumerate(sketch.factors)])
    return M, rhs


@pytest.mark.parametrize("kind", ["finite-p", "p-inf"])
def test_pair_block_rows_match_dense_rows(kind):
    rng = np.random.default_rng(104)
    A = complex_matrix(rng, 20, 3)
    b = complex_vector(rng, 20)
    lifted = lift_instance(A, b)
    if kind == "finite-p":
        heavy = np.arange(0, 20, 2)
        sketch = build_sketch_finite_p(20, heavy, 4, 1.0, seed=1)
        M, c = sketch.apply(lifted.Ap), sketch.apply(lifted.bp)
    else:
        # the s rows G_i Ap[pair i] of each pair, not its 2^s signed rows
        sketch = build_sketch_inf(20, 3, seed=1)
        M, c = _materialized_pair_rows(lifted, sketch)
        assert M.shape[0] == 20 * 3
    dense = lp_regression._DenseRows(M, c)
    blocks = lp_regression._PairBlockRows(lifted.Ap, lifted.bp,
                                          sketch.factors)
    y = rng.standard_normal(6)
    np.testing.assert_allclose(blocks.residual(y), dense.residual(y),
                               rtol=1e-12, atol=1e-12)
    assert blocks.data_scale == pytest.approx(dense.data_scale, rel=1e-12)
    (y_blocks, rank_blocks), (y_dense, rank_dense) = (blocks.lstsq(),
                                                      dense.lstsq())
    np.testing.assert_allclose(y_blocks, y_dense, rtol=1e-9)
    assert rank_blocks == rank_dense == 6
    weights = rng.uniform(0.1, 2.0, M.shape[0])
    np.testing.assert_allclose(blocks.gram(weights), dense.gram(weights),
                               rtol=1e-9)
    np.testing.assert_allclose(blocks.rmatvec(weights),
                               dense.rmatvec(weights), rtol=1e-9)
    # weight on the first five rows only: a singular Gram, the same from both
    sparse = np.zeros(M.shape[0])
    sparse[:5] = 1.0
    ref = M[:5].T @ M[:5]
    np.testing.assert_allclose(blocks.gram(sparse), ref, atol=1e-9)
    np.testing.assert_allclose(dense.gram(sparse), ref, atol=1e-9)
    # the pair groups: row i is sum_k u_k M_k over pair i's rows
    sizes = np.array([F.shape[0] for F in sketch.factors])
    pairs = lp_regression._Groups(sizes)
    u = rng.standard_normal(M.shape[0])
    np.testing.assert_allclose(blocks.group_rows(pairs, u),
                               dense.group_rows(pairs, u), rtol=1e-9,
                               atol=1e-12)


def test_pair_block_group_rows_reject_groups_other_than_the_pairs():
    rng = np.random.default_rng(108)
    lifted = lift_instance(complex_matrix(rng, 6, 2), complex_vector(rng, 6))
    sketch = build_sketch_inf(6, 3, seed=2)
    blocks = lp_regression._PairBlockRows(lifted.Ap, lifted.bp,
                                          sketch.factors)
    u = rng.standard_normal(18)
    for sizes in (np.ones(18, dtype=int), np.full(9, 2), np.full(3, 6),
                  np.array([3, 3, 3, 3, 6]), np.full(5, 3)):
        with pytest.raises(ValueError):
            blocks.group_rows(lp_regression._Groups(sizes), u)
    assert blocks.group_rows(lp_regression._Groups(np.full(6, 3)),
                             u).shape == (6, 4)


@pytest.mark.parametrize("kind", ["finite-p", "p-inf"])
def test_pair_block_gram_skips_pairs_of_weight_zero(kind):
    rng = np.random.default_rng(109)
    lifted = lift_instance(complex_matrix(rng, 12, 3),
                           complex_vector(rng, 12))
    if kind == "finite-p":
        sketch = build_sketch_finite_p(12, [0, 3, 4], 5, 1.5, seed=3)
    else:
        sketch = build_sketch_inf(12, 4, seed=3)
    M, c = _materialized_pair_rows(lifted, sketch)
    blocks = lp_regression._PairBlockRows(lifted.Ap, lifted.bp,
                                          sketch.factors)
    owner = np.repeat(np.arange(12), [F.shape[0] for F in sketch.factors])
    weights = rng.uniform(0.1, 2.0, M.shape[0])
    weights[np.isin(owner, [0, 1, 4, 7, 8, 11])] = 0.0  # whole pairs at 0
    live = weights > 0.0
    ref = M[live].T @ (weights[live, None] * M[live])
    np.testing.assert_allclose(blocks.gram(weights), ref, rtol=1e-12,
                               atol=1e-12)
    np.testing.assert_allclose(lp_regression._DenseRows(M, c).gram(weights),
                               ref, rtol=1e-12, atol=1e-12)
    assert not blocks.gram(np.zeros(M.shape[0])).any()


# factored smoothed max at p = inf -------------------------------------------


@pytest.mark.parametrize("s", (1, 2, 6))
def test_signed_log_sum_exp_over_sign_rows_factors_into_log_cosh(s):
    # sum_sigma exp(sigma . g / mu) = prod_k 2 cosh(g_k / mu)
    rng = np.random.default_rng(105)
    R = sign_rows(s)
    for mu in (1e-3, 0.1, 1.0, 10.0):
        for _ in range(5):
            g = rng.standard_normal(s)
            signed = mu * scipy.special.logsumexp(R @ g / mu)
            a = np.abs(g)
            factored = mu * np.sum(a / mu + np.log1p(np.exp(-2.0 * a / mu)))
            assert factored == pytest.approx(signed, rel=1e-12)


def test_pinf_sketch_solve_never_expands_the_sign_rows(monkeypatch):
    def expanded(*args, **kwargs):
        raise AssertionError("the 2^s sign rows were formed")

    rng = np.random.default_rng(106)
    A = complex_matrix(rng, 40, 3)
    b = complex_vector(rng, 40)
    monkeypatch.setattr(lp_regression, "_sign_rows", expanded)
    monkeypatch.setattr(BlockSketch, "apply", expanded)
    result, sketch = _recorded_sketch(monkeypatch, A, b, np.inf, s=16)
    assert result.converged
    # the objective is max_i ||G_i r_i||_1 = max_i max |R G_i r_i|
    lifted = lift_instance(A, b)
    r = lifted.Ap @ phi(result.xhat) - lifted.bp
    objective = max(np.abs(G @ r[2 * i:2 * i + 2]).sum()
                    for i, G in enumerate(sketch.factors))
    assert result.sketched_objective == pytest.approx(objective, rel=1e-10)


def test_pinf_sketch_solve_past_the_enumeration_cap(monkeypatch):
    # s = 24 is past apply's 2^20-row cap: the 2^24 signed rows of a pair
    # are never formed, so the width caps nothing
    rng = np.random.default_rng(110)
    n, s = 40, 24
    A = complex_matrix(rng, n, 3)
    b = complex_vector(rng, n)
    result, sketch = _recorded_sketch(monkeypatch, A, b, np.inf, s=s)
    assert [G.shape for G in sketch.factors] == [(s, 2)] * n
    assert result.converged
    M, c = _materialized_pair_rows(lift_instance(A, b), sketch)
    dense = lp_regression._DenseRows(M, c)
    ref = lp_regression._solve_rows(dense, np.full(n, s), np.inf, True,
                                    1e-10)
    assert ref.converged
    assert result.sketched_objective == pytest.approx(ref.objective,
                                                      rel=1e-9)


_HIGHS_TIGHT = {"primal_feasibility_tolerance": 1e-10,
                "dual_feasibility_tolerance": 1e-10}


def _linf_lp_optimum(M, c):
    """min_y max_k |M_k y - c_k| as an LP over (y, t)."""
    m, d = M.shape
    ones = np.ones((m, 1))
    lp = scipy.optimize.linprog(
        np.r_[np.zeros(d), 1.0],
        A_ub=np.block([[M, -ones], [-M, -ones]]), b_ub=np.r_[c, -c],
        bounds=[(None, None)] * d + [(0, None)], method="highs",
        options=_HIGHS_TIGHT)
    assert lp.status == 0
    return lp.fun


def _polygon_rows(A, b, angles):
    """Rows ``Re(exp(-i theta) (A_i x - b_i))`` over ``angles`` directions,
    pair-major.

    Over ``angles`` equally spaced directions, max_theta Re(exp(-i theta) z)
    lies between cos(pi / angles) |z| and |z|.
    """
    lifted = lift_instance(A, b)
    theta = 2.0 * np.pi * np.arange(angles) / angles
    P = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    n = lifted.bp.size // 2
    M = np.concatenate([P @ lifted.Ap[2 * i:2 * i + 2] for i in range(n)])
    rhs = np.concatenate([P @ lifted.bp[2 * i:2 * i + 2] for i in range(n)])
    return M, rhs


def _pair_linf_lp_bounds(A, b, angles=4096):
    """Bounds on min_x max_i |A_i x - b_i| from an LP over polygons.

    The LP optimum of the max over the ``_polygon_rows`` is a lower bound,
    and the LP optimum / cos(pi / angles) an upper bound.
    """
    M, rhs = _polygon_rows(A, b, angles)
    m, d = M.shape
    lp = scipy.optimize.linprog(
        np.r_[np.zeros(d), 1.0], A_ub=np.hstack([M, -np.ones((m, 1))]),
        b_ub=rhs, bounds=[(None, None)] * d + [(0, None)], method="highs",
        options=_HIGHS_TIGHT)
    assert lp.status == 0
    return lp.fun, lp.fun / np.cos(np.pi / angles)


@pytest.mark.parametrize("trial", range(3))
def test_pinf_converged_flag_certifies_the_objective(monkeypatch, trial):
    # at tol = 1e-6 a converged solve is within 2e-6 of the LP optimum
    rng = np.random.default_rng(107 + trial)
    M = rng.standard_normal((40, 4))
    c = rng.standard_normal(40)
    sol = small_lp_solve(M, c, np.inf, tol=1e-6)
    optimum = _linf_lp_optimum(M, c)
    solved = [(sol.objective, sol.converged, optimum, optimum)]
    A = complex_matrix(rng, 12, 2)
    b = complex_vector(rng, 12)
    sol = complex_lp_solve(A, b, np.inf, tol=1e-6)
    solved.append((sol.objective, sol.converged) + _pair_linf_lp_bounds(A, b))
    A = complex_matrix(rng, 30, 3)
    b = complex_vector(rng, 30)
    lifted = lift_instance(A, b)
    for s in (2, 6):
        result, sketch = _recorded_sketch(monkeypatch, A, b, np.inf, s=s,
                                          tol=1e-6)
        optimum = _linf_lp_optimum(sketch.apply(lifted.Ap),
                                   sketch.apply(lifted.bp))
        solved.append((result.sketched_objective, result.converged, optimum,
                       optimum))
    for objective, converged, low, high in solved:
        assert objective >= low * (1 - 1e-9)
        if converged:
            assert objective <= high * (1 + 2e-6)
    assert all(converged for _, converged, _, _ in solved)


def _l1_lp_optimum(M, c):
    """min_y sum_k |M_k y - c_k| as an LP over (y, u)."""
    m, d = M.shape
    eye = np.eye(m)
    lp = scipy.optimize.linprog(
        np.r_[np.zeros(d), np.ones(m)],
        A_ub=np.block([[M, -eye], [-M, -eye]]), b_ub=np.r_[c, -c],
        bounds=[(None, None)] * d + [(0, None)] * m, method="highs",
        options=_HIGHS_TIGHT)
    assert lp.status == 0
    return lp.fun


def _pair_l1_lp_bounds(A, b, angles=4096):
    """Bounds on min_x sum_i |A_i x - b_i| from an LP over polygons.

    With ``u_i`` at least each of pair ``i``'s ``_polygon_rows``, the LP
    optimum of ``sum_i u_i`` is a lower bound, and the LP optimum /
    cos(pi / angles) an upper bound.
    """
    M, rhs = _polygon_rows(A, b, angles)
    n, d = A.shape[0], M.shape[1]
    owner = np.kron(np.eye(n), np.ones((angles, 1)))
    lp = scipy.optimize.linprog(
        np.r_[np.zeros(d), np.ones(n)], A_ub=np.hstack([M, -owner]),
        b_ub=rhs, bounds=[(None, None)] * d + [(0, None)] * n,
        method="highs", options=_HIGHS_TIGHT)
    assert lp.status == 0
    return lp.fun, lp.fun / np.cos(np.pi / angles)


@pytest.mark.parametrize("trial", range(3))
def test_p1_converged_flag_certifies_the_objective(monkeypatch, trial):
    # at tol = 1e-6 a converged solve is within 2e-6 of the LP optimum
    rng = np.random.default_rng(207 + trial)
    M = rng.standard_normal((40, 4))
    c = rng.standard_normal(40)
    sol = small_lp_solve(M, c, 1.0, tol=1e-6)
    optimum = _l1_lp_optimum(M, c)
    solved = [(sol.objective, sol.converged, optimum, optimum)]
    A = complex_matrix(rng, 12, 2)
    b = complex_vector(rng, 12)
    sol = complex_lp_solve(A, b, 1.0, tol=1e-6)
    solved.append((sol.objective, sol.converged) + _pair_l1_lp_bounds(A, b))
    A = complex_matrix(rng, 30, 3)
    b = complex_vector(rng, 30)
    lifted = lift_instance(A, b)
    for t in (2, 20):
        result, sketch = _recorded_sketch(monkeypatch, A, b, 1.0, t=t,
                                          tol=1e-6)
        optimum = _l1_lp_optimum(sketch.apply(lifted.Ap),
                                 sketch.apply(lifted.bp))
        solved.append((result.sketched_objective, result.converged, optimum,
                       optimum))
    for objective, converged, low, high in solved:
        assert objective >= low * (1 - 1e-9)
        if converged:
            assert objective <= high * (1 + 2e-6)
    assert all(converged for _, converged, _, _ in solved)


def _grouped_pth_power_minimum(M, c, p, width):
    """min_y sum_g ||r_g||^p over consecutive ``width``-row groups of
    ``r = M y - c``, by SciPy's trust-region Newton with the exact Hessian
    of the unsmoothed objective (smooth for p > 1 once no r_g vanishes)."""

    def parts(y):
        R = (M @ y - c).reshape(-1, width)
        norms = np.linalg.norm(R, axis=1)
        return R, norms, M.reshape(-1, width, M.shape[1])

    def obj(y):
        return np.sum(parts(y)[1] ** p)

    def grad(y):
        R, norms, _ = parts(y)
        return M.T @ ((p * norms ** (p - 2))[:, None] * R).ravel()

    def hess(y):
        R, norms, Mg = parts(y)
        w = p * norms ** (p - 2)
        D = np.einsum("gk,gki->gi", R / norms[:, None], Mg)
        return (np.einsum("g,gki,gkj->ij", w, Mg, Mg)
                + D.T @ ((p - 2) * w[:, None] * D))

    start = np.linalg.lstsq(M, c, rcond=None)[0]
    return scipy.optimize.minimize(obj, start, jac=grad, hess=hess,
                                   method="trust-exact",
                                   options={"gtol": 1e-10}).fun


@pytest.mark.parametrize("p", (1.5, 3.0))
def test_finite_p_converged_flag_certifies_the_objective(monkeypatch, p):
    # at tol = 1e-8 a converged solve's sum_g ||r_g||^p is within 1e-8 of
    # the minimum
    rng = np.random.default_rng(600)
    A = complex_matrix(rng, 60, 20)
    b = A @ complex_vector(rng, 20) + 0.5 * complex_vector(rng, 60)
    lifted = lift_instance(A, b)
    sol = complex_lp_solve(A, b, p, tol=1e-8)
    solved = [(sol.objective, sol.converged,
               _grouped_pth_power_minimum(lifted.Ap, lifted.bp, p, 2))]
    sol = small_lp_solve(lifted.Ap, lifted.bp, p, tol=1e-8)
    solved.append((sol.objective, sol.converged,
                   _grouped_pth_power_minimum(lifted.Ap, lifted.bp, p, 1)))
    result, sketch = _recorded_sketch(monkeypatch, A, b, p, t=6, tol=1e-8)
    solved.append((result.sketched_objective, result.converged,
                   _grouped_pth_power_minimum(sketch.apply(lifted.Ap),
                                              sketch.apply(lifted.bp), p, 1)))
    for objective, converged, minimum in solved:
        assert converged
        assert minimum * (1 - 1e-12) <= objective ** p <= minimum * (1 + 1e-8)


def test_pinf_levels_start_from_the_secant_prediction():
    # Accepted Newton steps on a 100 x 50 complex instance at tol = 1e-8.
    # With every level started from the last level's end they were 81 for
    # the reference solve and 126 for the s = 2 sketched solve; from the
    # secant prediction along the smoothing path they are 30 and 74.
    rng = np.random.default_rng(32)
    A = complex_matrix(rng, 100, 50)
    b = A @ complex_vector(rng, 50) + 0.5 * complex_vector(rng, 100)
    ref = complex_lp_solve(A, b, np.inf, tol=1e-8)
    sketched = sketch_and_solve(A, b, np.inf, s=2, seed=3, tol=1e-8)
    assert ref.converged and sketched.converged
    assert ref.iterations <= 36
    assert sketched.iterations <= 85


def test_pinf_small_solves_reach_the_lp_optimum():
    # 24 seeded instances, the first with a repeated column; at tol = 1e-6
    # every solve converges within 2e-6 of the HiGHS optimum
    for k in range(24):
        rng = np.random.default_rng(3200 + k)
        n, d = int(rng.integers(8, 80)), int(rng.integers(1, 7))
        M = rng.standard_normal((n, d))
        c = rng.standard_normal(n)
        if k == 0:
            M = np.hstack([M, M[:, :1]])
        sol = small_lp_solve(M, c, np.inf, tol=1e-6)
        optimum = _linf_lp_optimum(M, c)
        assert sol.converged
        assert optimum * (1 - 1e-9) <= sol.objective <= optimum * (1 + 2e-6)


def test_finite_p_solves_keep_their_recorded_outputs():
    # y and the step count of finite-p solves, recorded before p = inf
    # levels began from a secant prediction; finite p does not use it
    rng = np.random.default_rng(320)
    M = rng.standard_normal((30, 3))
    c = rng.standard_normal(30)
    A = complex_matrix(rng, 12, 2)
    b = complex_vector(rng, 12)
    recorded = [
        (small_lp_solve(M, c, 1.0), 33,
         [0.19851027618115777, 0.2289725833649809, 0.2505437704297266]),
        (small_lp_solve(M, c, 1.5), 13,
         [0.16823132594353277, 0.12907167465156683, 0.07345111147874595]),
        (small_lp_solve(M, c, 3.0), 10,
         [0.0778722555322468, 0.16675254285881738, -0.04967399856106087]),
        (complex_lp_solve(A, b, 1.0), 19,
         [0.46252309491509735, 0.19940781218948947, 0.05402335666812123,
          0.3202947902115333]),
    ]
    for t, iterations, xhat in (
            (2, 34, [0.4417659772371227 - 0.07855001717852769j,
                     0.10647885335751556 + 0.26804505815925794j]),
            (20, 29, [0.39021430615033165 + 0.2503743518897251j,
                      0.11128390590053218 + 0.30498088856422373j])):
        result = sketch_and_solve(A, b, 1.0, t=t, seed=5)
        recorded.append((result, iterations, phi(np.array(xhat))))
    for sol, iterations, y in recorded:
        assert sol.iterations == iterations
        # the recording host gives them bit for bit; the tolerance admits
        # only another BLAS build's rounding
        got = sol.y if isinstance(sol, lp_regression.LpSolution) \
            else phi(sol.xhat)
        np.testing.assert_allclose(got, y, rtol=1e-12, atol=1e-15)


# ---------------------------------------------------------------------------
# boundary validation


def test_sketch_and_solve_rejects_nonfinite_input():
    rng = np.random.default_rng(91)
    A = complex_matrix(rng, 20, 2)
    b = complex_vector(rng, 20)
    b[3] = np.nan
    with pytest.raises(ValueError, match="finite"):
        sketch_and_solve(A, b, 1.0, t=4, seed=0)
    with pytest.raises(ValueError, match="finite"):
        sketch_and_solve(A, b, np.inf, s=2, seed=0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_dense_lp_solvers_reject_nonfinite_input(bad):
    rng = np.random.default_rng(92)
    A = complex_matrix(rng, 12, 2)
    b = complex_vector(rng, 12)
    A[4, 1] = bad
    M = rng.standard_normal((12, 3))
    c = rng.standard_normal(12)
    c[7] = bad
    for p in (1.0, np.inf):
        with pytest.raises(ValueError, match="finite"):
            complex_lp_solve(A, b, p)
        with pytest.raises(ValueError, match="finite"):
            small_lp_solve(M, c, p)


@pytest.mark.parametrize("tol", [np.nan, -1.0, np.inf])
def test_solvers_reject_a_tol_that_is_not_finite_and_nonnegative(tol):
    rng = np.random.default_rng(0)
    M, c = rng.standard_normal((30, 4)), rng.standard_normal(30)
    A, b = complex_matrix(rng, 15, 2), complex_vector(rng, 15)
    for p in (1.0, 3.0, np.inf):
        kw = {"s": 2} if np.isinf(p) else {"t": 2}
        for solve in (lambda: small_lp_solve(M, c, p, tol=tol),
                      lambda: complex_lp_solve(A, b, p, tol=tol),
                      lambda: sketch_and_solve(A, b, p, tol=tol, **kw)):
            with pytest.raises(ValueError,
                               match="tol must be finite and >= 0"):
                solve()


@pytest.mark.parametrize("p", [0.5, np.nan])
def test_solvers_reject_a_p_below_one(p):
    rng = np.random.default_rng(1)
    M, c = rng.standard_normal((30, 4)), rng.standard_normal(30)
    A, b = complex_matrix(rng, 15, 2), complex_vector(rng, 15)
    for solve in (lambda: small_lp_solve(M, c, p),
                  lambda: complex_lp_solve(A, b, p)):
        with pytest.raises(ValueError) as err:
            solve()
        assert str(err.value) == "lp solve: p must satisfy p >= 1 or p = inf"
    with pytest.raises(ValueError):
        sketch_and_solve(A, b, p, t=2)


@pytest.mark.parametrize("p", [True, 0.5, np.nan, -np.inf, "3"])
def test_every_p_check_rejects_the_same_values(p):
    scores = np.full(8, 0.1)
    finite_rule = "p must be finite and >= 1"
    checks = [
        (lambda: gaussian_moment_scale(p),
         "gaussian_moment_scale: " + finite_rule),
        (lambda: lp_leverage_scores(np.eye(4), p),
         "lp_leverage_scores: " + finite_rule),
        (lambda: build_sketch_finite_p(4, [], 2, p),
         "build_sketch_finite_p: " + finite_rule),
        (lambda: classify_pairs(scores, 2, p),
         "classify_pairs: p must satisfy p >= 1 or p = inf"),
        (lambda: mixed_norm(np.ones(4), p),
         "mixed_norm: p must satisfy p >= 1 or p = inf"),
    ]
    for call, message in checks:
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == message
    for call in (lambda: gaussian_moment_scale(np.inf),
                 lambda: build_sketch_finite_p(4, [], 2, np.inf)):
        with pytest.raises(ValueError, match=finite_rule):
            call()
    heavy, _ = classify_pairs(scores, 2, np.inf)
    assert heavy.size == 0


@pytest.mark.parametrize("p,kwargs", [(-np.inf, {"t": 2}),
                                      (-np.inf, {"s": 2}),
                                      (0.5, {"t": 2}), (0.5, {"s": 2}),
                                      (True, {"t": 2})])
def test_sketch_and_solve_checks_p_before_it_routes(monkeypatch, p, kwargs):
    def built(*args, **kw):
        raise AssertionError("a sketch was built for a bad p")

    monkeypatch.setattr(lp_regression, "build_sketch_inf", built)
    monkeypatch.setattr(lp_regression, "build_sketch_finite_p", built)
    rng = np.random.default_rng(3)
    A, b = complex_matrix(rng, 15, 2), complex_vector(rng, 15)
    with pytest.raises(ValueError) as err:
        sketch_and_solve(A, b, p, **kwargs)
    assert str(err.value) == \
        "sketch_and_solve: p must satisfy p >= 1 or p = inf"


def test_block_sketch_apply_takes_two_rows_per_pair():
    rng = np.random.default_rng(2)
    for sketch in (build_sketch_finite_p(3, [1], 4, 1.5, seed=1),
                   build_sketch_inf(3, 2, seed=1)):
        M = rng.standard_normal((6, 2))
        dense = scipy.linalg.block_diag(*sketch_blocks(sketch))
        np.testing.assert_allclose(sketch.apply(M), dense @ M,
                                   rtol=1e-12, atol=1e-12)
        np.testing.assert_array_equal(sketch.apply(np.eye(6)), dense)
        for bad in (np.ones((4, 2)), np.ones((7, 2)), np.ones((8, 2)),
                    np.ones(5)):
            with pytest.raises(ValueError, match="two rows per pair"):
                sketch.apply(bad)
    empty = build_sketch_inf(0, 2)
    assert empty.apply(np.eye(0)).shape == (0, 0)
    assert empty.apply(np.ones((0, 3))).shape == (0, 3)


def test_build_sketch_finite_p_rejects_heavy_index_out_of_range():
    for heavy in ([5], [-1], [0, 2]):
        with pytest.raises(ValueError, match="heavy"):
            build_sketch_finite_p(2, heavy, t=3, p=1.0)


def test_lp_leverage_scores_rejects_embedding_narrower_than_columns():
    M = np.random.default_rng(93).standard_normal((40, 6))
    with pytest.raises(ValueError, match="embed_rows"):
        lp_leverage_scores(M, 1.0, embed_rows=2)
    assert lp_leverage_scores(M, 1.0, embed_rows=6).shape == (40,)


def test_lp_leverage_scores_rejects_nonfinite_input():
    M = np.random.default_rng(94).standard_normal((40, 6))
    M[5, 2] = np.inf
    for p in (1.0, 2.0):
        with pytest.raises(ValueError, match="finite"):
            lp_leverage_scores(M, p)


@pytest.mark.parametrize("p", P_GRID)
def test_lp_solvers_fit_a_design_with_no_columns(p):
    # nothing to fit: each solver returns an empty solution and the
    # objective of the data itself
    rng = np.random.default_rng(95)
    b, c = complex_vector(rng, 6), rng.standard_normal(6)
    sol = complex_lp_solve(np.empty((6, 0), dtype=complex), b, p)
    assert sol.x.shape == (0,) and sol.converged
    assert sol.objective == mixed_norm(phi(b), p)
    sol = small_lp_solve(np.empty((6, 0)), c, p)
    assert sol.y.shape == (0,)
    assert sol.objective == pytest.approx(lp_norm(c, p), rel=1e-14)
    kw = {"s": 2} if np.isinf(p) else {"t": 2}
    empty = sketch_and_solve(np.empty((6, 0), dtype=complex), b, p, **kw)
    zero = sketch_and_solve(np.zeros((6, 1), dtype=complex), b, p, **kw)
    assert empty.xhat.shape == (0,)
    assert empty.sketched_objective == zero.sketched_objective


@pytest.mark.parametrize("p", P_GRID)
def test_small_lp_solve_reads_a_vector_as_one_column(p):
    rng = np.random.default_rng(96)
    m = rng.standard_normal(20)
    c = 2.0 * m + rng.standard_normal(20)
    vec, col = small_lp_solve(m, c, p), small_lp_solve(m[:, None], c, p)
    assert vec.y.shape == (1,)
    np.testing.assert_array_equal(vec.y, col.y)
    assert vec.objective == col.objective


def test_small_lp_solve_rejects_an_array_of_more_than_two_dimensions():
    with pytest.raises(ValueError) as err:
        small_lp_solve(np.ones((4, 2, 2)), np.ones(4), 1.0)
    assert str(err.value) == "lp solve: M must be a vector or a matrix"


@pytest.mark.parametrize("p", P_GRID)
def test_lp_solvers_fit_an_instance_with_no_rows(p):
    # nothing to fit against: every solver returns y = 0 and objective 0
    sol = small_lp_solve(np.empty((0, 3)), np.empty(0), p)
    np.testing.assert_array_equal(sol.y, np.zeros(3))
    assert sol.objective == 0.0 and sol.converged
    A, b = np.empty((0, 2), dtype=complex), np.empty(0, dtype=complex)
    sol = complex_lp_solve(A, b, p)
    np.testing.assert_array_equal(sol.x, np.zeros(2))
    assert sol.objective == 0.0 and sol.converged
    kw = {"s": 2} if np.isinf(p) else {"t": 2}
    result = sketch_and_solve(A, b, p, **kw)
    np.testing.assert_array_equal(result.xhat, np.zeros(2))
    assert result.sketched_objective == 0.0 and result.converged
