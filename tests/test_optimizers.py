"""Tests for the Newton-type optimizers and their inner subproblem solvers."""

import re
from dataclasses import replace

import numpy as np
import pytest
import scipy.optimize

from sketchopt.hessian_oracle import (
    FiniteSumProblem,
    convex_ridge_lambda,
    grad,
    make_loss,
    value,
)
from sketchopt import optimizers as optimizers_mod
from sketchopt.optimizers import (
    OptConfig,
    OptTrace,
    cg_solve,
    cg_steihaug,
    minnorm_lsq,
    newton_cg,
    newton_mr,
    trust_region,
)


def matvec(H):
    return lambda v: H @ v


def exact_tr_2d(H, g, radius):
    """Global trust-region minimizer via eigendecomposition + scalar root."""
    w, V = np.linalg.eigh(H)
    gt = V.T @ g
    if np.all(w > 0):
        p = -V @ (gt / w)
        if np.linalg.norm(p) <= radius:
            return p
    lo = max(0.0, -w.min()) + 1e-14

    def excess(lam):
        return np.linalg.norm(gt / (w + lam)) - radius

    hi = lo + 1.0
    while excess(hi) > 0:
        hi *= 2.0
    lam = scipy.optimize.brentq(excess, lo, hi, xtol=1e-14)
    return -V @ (gt / (w + lam))


def model_value(H, g, p):
    return float(g @ p + 0.5 * p @ (H @ p))


def quadratic_problem(rng, n=60, d=5, lam=0.1):
    A = rng.standard_normal((n, d))
    labels = rng.standard_normal(n)
    return FiniteSumProblem(A=A, labels=labels, loss=make_loss("quadratic"),
                            ridge_lambda=lam)


def nlls_problem(rng, n=200, d=5, lam=0.0):
    A = rng.standard_normal((n, d))
    w_star = rng.standard_normal(d)
    labels = (A @ w_star >= 0).astype(float)
    return FiniteSumProblem(A=A, labels=labels,
                            loss=make_loss("nlls_classification"),
                            ridge_lambda=lam)


def accepted(trace: OptTrace, column):
    vals = getattr(trace, column)
    return [v for v, a in zip(vals, trace.accepted) if a]


# ---------------------------------------------------------------------------
# cg_solve
# ---------------------------------------------------------------------------


def test_cg_identity_single_step():
    g = np.array([1.0, 1.0])
    p = cg_solve(matvec(np.eye(2)), g, cap=100, tol=1e-10)
    np.testing.assert_allclose(p, -g, atol=1e-12)


def test_cg_diagonal_closed_form():
    H = np.diag([1.0, 10.0])
    g = np.array([1.0, 1.0])
    p = cg_solve(matvec(H), g, cap=100, tol=1e-12)
    np.testing.assert_allclose(p, [-1.0, -0.1], atol=1e-10)


def test_cg_negative_curvature_at_start_falls_back_to_steepest():
    H = np.diag([-1.0, 1.0])
    g = np.array([1.0, 0.0])
    p = cg_solve(matvec(H), g, cap=100, tol=1e-10)
    np.testing.assert_allclose(p, -g, atol=1e-14)


def test_cg_negative_curvature_later_returns_descent_iterate():
    H = np.diag([1.0, 2.0, -0.5])
    g = np.array([1.0, 1.0, 0.05])
    p = cg_solve(matvec(H), g, cap=100, tol=1e-12)
    assert p @ g < 0.0
    assert np.all(np.isfinite(p))


def test_cg_zero_gradient():
    p = cg_solve(matvec(np.eye(3)), np.zeros(3), cap=10, tol=1e-10)
    np.testing.assert_allclose(p, np.zeros(3), atol=1e-15)


# ---------------------------------------------------------------------------
# minnorm_lsq
# ---------------------------------------------------------------------------


def test_minnorm_invertible_matches_inverse():
    rng = np.random.default_rng(60)
    M = rng.standard_normal((5, 5))
    H = M @ M.T + 0.5 * np.eye(5)
    g = rng.standard_normal(5)
    p = minnorm_lsq(matvec(H), g, cap=200, tol=1e-12)
    np.testing.assert_allclose(p, -np.linalg.solve(H, g), atol=1e-8)


def test_minnorm_zero_on_kernel():
    H = np.diag([1.0, 0.0])
    g = np.array([1.0, 1.0])
    p = minnorm_lsq(matvec(H), g, cap=50, tol=1e-12)
    np.testing.assert_allclose(p, [-1.0, 0.0], atol=1e-10)


def test_minnorm_matches_dense_pseudoinverse():
    rng = np.random.default_rng(61)
    Q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    w = np.array([2.0, -1.0, 0.5, -0.25, 0.0, 0.0])
    H = (Q * w) @ Q.T
    H = 0.5 * (H + H.T)
    g = rng.standard_normal(6)
    p = minnorm_lsq(matvec(H), g, cap=200, tol=1e-14)
    np.testing.assert_allclose(p, -np.linalg.pinv(H) @ g, atol=1e-6)


@pytest.mark.parametrize("cap", [1, 5, 50])
def test_minnorm_takes_one_product_per_iteration(cap):
    rng = np.random.default_rng(62)
    M = rng.standard_normal((80, 80))
    H = M + M.T
    products = []

    def hessp(v):
        products.append(v)
        return H @ v

    minnorm_lsq(hessp, rng.standard_normal(80), cap=cap, tol=1e-12)
    assert 1 <= len(products) <= cap + 1


def test_minnorm_indefinite_rank_deficient_returns_pseudoinverse_step():
    rng = np.random.default_rng(63)
    Q, _ = np.linalg.qr(rng.standard_normal((30, 30)))
    w = np.concatenate([rng.uniform(0.3, 3.0, 9), -rng.uniform(0.3, 3.0, 9),
                        np.zeros(12)])
    H = (Q * w) @ Q.T
    H = 0.5 * (H + H.T)
    kernel = Q[:, 18:]
    g = rng.standard_normal(30)
    assert np.linalg.norm(kernel.T @ g) > 1.0
    p = minnorm_lsq(matvec(H), g, cap=200, tol=1e-10)
    np.testing.assert_allclose(p, -np.linalg.pinv(H) @ g, atol=1e-6)
    assert np.linalg.norm(kernel.T @ p) <= 1e-10


def test_minnorm_zero_tol_stops_on_lanczos_breakdown():
    # Tier-1 runs with warnings as errors, so the breakdown must not divide
    # by a zero beta
    H = np.diag([1.0, 2.0, 3.0])
    g = np.array([1.0, -2.0, 0.5])
    p = minnorm_lsq(matvec(H), g, cap=100, tol=0.0)
    np.testing.assert_allclose(p, -np.linalg.solve(H, g), atol=1e-12)


# ---------------------------------------------------------------------------
# cg_steihaug
# ---------------------------------------------------------------------------


def test_steihaug_zero_gradient_returns_zero():
    p = cg_steihaug(matvec(np.eye(2)), np.zeros(2), radius=1.0, cap=10,
                    tol=1e-10)
    np.testing.assert_allclose(p, np.zeros(2), atol=1e-15)


def test_steihaug_interior_newton_point():
    g = np.array([0.3, -0.2])
    p = cg_steihaug(matvec(np.eye(2)), g, radius=1.0, cap=10, tol=1e-12)
    np.testing.assert_allclose(p, -g, atol=1e-12)


def test_steihaug_negative_curvature_boundary_matches_exact():
    H = np.diag([-1.0, 1.0])
    g = np.array([1.0, 0.0])
    p = cg_steihaug(matvec(H), g, radius=1.0, cap=10, tol=1e-12)
    np.testing.assert_allclose(p, [-1.0, 0.0], atol=1e-10)
    exact = exact_tr_2d(H, g, 1.0)
    assert abs(model_value(H, g, p) - model_value(H, g, exact)) <= 1e-8


def test_steihaug_matches_exact_2d_when_newton_point_interior():
    rng = np.random.default_rng(62)
    for _ in range(50):
        M = rng.standard_normal((2, 2))
        H = M @ M.T + 0.2 * np.eye(2)
        g = rng.standard_normal(2)
        radius = 1.1 * np.linalg.norm(np.linalg.solve(H, g))
        p = cg_steihaug(matvec(H), g, radius=radius, cap=10, tol=1e-14)
        exact = exact_tr_2d(H, g, radius)
        assert abs(model_value(H, g, p) - model_value(H, g, exact)) <= 1e-8


def test_steihaug_feasible_with_nonpositive_model_value():
    rng = np.random.default_rng(63)
    for _ in range(50):
        M = rng.standard_normal((2, 2))
        H = 0.5 * (M + M.T)  # possibly indefinite
        g = rng.standard_normal(2)
        radius = abs(rng.standard_normal()) + 0.1
        p = cg_steihaug(matvec(H), g, radius=radius, cap=10, tol=1e-12)
        assert np.linalg.norm(p) <= radius + 1e-12
        m = model_value(H, g, p)
        assert m <= 0.0
        # never better than the global subproblem minimum
        exact = exact_tr_2d(H, g, radius)
        assert m >= model_value(H, g, exact) - 1e-9


def steihaug_reference(H, g, radius, cap, tol):
    """Steihaug-Toint CG written out directly, as one fresh solve.  Returns
    the step, how the solve ended and the norms of its CG iterates."""
    p, norms = np.zeros_like(g), []
    if np.linalg.norm(g) == 0.0:
        return p, "zero gradient", norms
    r, d = -g, -g
    rs = float(r @ r)
    for j in range(cap):
        Hd = H @ d
        kappa = float(d @ Hd)
        if kappa <= 0.0:
            end = "negative curvature" + (" first" if j == 0 else "")
            return p + optimizers_mod._boundary_tau(p, d, radius) * d, end, \
                norms
        alpha = rs / kappa
        p_new = p + alpha * d
        norms.append(np.linalg.norm(p_new))
        if norms[-1] >= radius:
            return p + optimizers_mod._boundary_tau(p, d, radius) * d, \
                "crossing", norms
        p = p_new
        r = r - alpha * Hd
        rs_new = float(r @ r)
        if np.sqrt(rs_new) <= tol * np.linalg.norm(g):
            return p, "interior by tol", norms
        d = r + (rs_new / rs) * d
        rs = rs_new
    return p, "interior at cap", norms


def counting(H):
    calls = []

    def hessp(v):
        calls.append(1)
        return H @ v
    return hessp, calls


def steihaug_cases():
    rng = np.random.default_rng(64)
    for trial in range(20):
        M = rng.standard_normal((8, 8))
        g = rng.standard_normal(8)
        for H in (M @ M.T + 0.1 * np.eye(8), 0.5 * (M + M.T)):
            # a radius the solve crosses, and one it stays inside
            newton = np.linalg.norm(np.linalg.solve(H, g))
            for radius in (0.5 * newton, 10.0 * newton):
                yield H, g, radius, 100, 1e-10
    yield np.diag([-1.0, 2.0, 3.0]), np.array([1.0, 0.0, 0.0]), 5.0, 10, 1e-10
    H, g = np.diag(np.arange(1.0, 9.0)), np.ones(8)
    yield H, g, 100.0, 100, 1e-10  # interior by tol
    yield H, g, 100.0, 2, 1e-10  # interior at cap


def test_steihaug_path_replays_every_smaller_radius():
    ends = set()
    for H, g, radius, cap, tol in steihaug_cases():
        hessp, calls = counting(H)
        path = optimizers_mod._SteihaugPath(hessp, g, radius, cap, tol)
        fresh, end, norms = steihaug_reference(H, g, radius, cap, tol)
        ends.add(end)
        assert len(calls) == len(path.steps)
        assert np.array_equal(path.step(radius), fresh), end
        assert np.array_equal(cg_steihaug(matvec(H), g, radius, cap, tol),
                              fresh), end
        # every smaller radius, among them each CG iterate's norm inside
        # the ball, without a product
        for r in [n for n in norms if n < radius] \
                + list(radius * np.geomspace(1.0, 1e-4, 9)):
            assert np.array_equal(path.step(r), steihaug_reference(
                H, g, r, cap, tol)[0]), (end, r)
            assert np.array_equal(path.step(r), cg_steihaug(
                matvec(H), g, r, cap, tol)), (end, r)
        assert len(calls) == len(path.steps)
    assert ends == {"crossing", "negative curvature",
                    "negative curvature first", "interior by tol",
                    "interior at cap"}


@pytest.mark.parametrize("name, solve", [
    ("cg_solve", cg_solve),
    ("minnorm_lsq", minnorm_lsq),
    ("cg_steihaug", lambda hp, g, **kw: cg_steihaug(hp, g, 1.0, **kw)),
], ids=["cg_solve", "minnorm_lsq", "cg_steihaug"])
def test_inner_solvers_reject_bad_cap_and_tol(name, solve):
    hp, g = matvec(np.diag([1.0, 2.0, 3.0])), np.ones(3)
    for cap in (0, -1, 2.5, True):
        with pytest.raises(ValueError, match=f"^{name}: cap must be"):
            solve(hp, g, cap=cap)
    for tol in (float("nan"), float("inf"), -1e-8):
        with pytest.raises(ValueError,
                           match=f"^{name}: tol must be finite and >= 0$"):
            solve(hp, g, tol=tol)
    # the floor values stay legal
    assert np.all(np.isfinite(solve(hp, g, cap=1, tol=0.0)))


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        OptConfig(tr_eta=1.5)
    with pytest.raises(ValueError):
        OptConfig(tr_gamma=0.9)
    with pytest.raises(ValueError):
        OptConfig(scheme="ls")  # sampling scheme without sample_size
    with pytest.raises(ValueError):
        OptConfig(scheme="nonsense", sample_size=10)
    for bad in (dict(tr_delta0=-1.0), dict(tr_delta0=0.0),
                dict(tr_delta0=float("nan")), dict(tr_delta0=float("inf")),
                dict(inner_cap=0), dict(inner_tol=-1e-8),
                dict(inner_tol=float("nan")), dict(grad_tol=float("nan")),
                dict(grad_tol=float("inf")), dict(grad_tol=-1.0),
                dict(tr_gamma=float("nan")), dict(tr_gamma=float("inf")),
                dict(max_oracle_calls=-5), dict(max_oracle_calls=1.5),
                dict(scheme="ls", sample_size=2.5),
                dict(scheme="ls", sample_size=True), dict(max_outer=3.5),
                dict(inner_cap=2.0), dict(seed=-1), dict(seed=1.5),
                dict(seed=True)):
        with pytest.raises(ValueError):
            OptConfig(**bad)
    # zero tolerances stay legal; "_" reads as "-" in scheme names
    OptConfig(grad_tol=0.0, inner_tol=0.0)
    assert OptConfig(scheme=" LS_MX ", sample_size=10).scheme == "ls-mx"


# ---------------------------------------------------------------------------
# newton_cg
# ---------------------------------------------------------------------------


def test_newton_cg_full_quadratic_converges_fast():
    rng = np.random.default_rng(64)
    problem = quadratic_problem(rng)
    trace = newton_cg(problem, OptConfig(grad_tol=1e-10))
    assert trace.status == "converged"
    assert trace.grad_norm[-1] <= 1e-10
    assert trace.iteration[-1] <= 2
    F = accepted(trace, "objective")
    assert all(b <= a + 1e-15 for a, b in zip(F, F[1:]))


def test_newton_cg_leverage_scheme_reaches_tolerance():
    rng = np.random.default_rng(65)
    problem = quadratic_problem(rng, n=300, d=5, lam=0.1)
    cfg = OptConfig(scheme="ls", sample_size=150, grad_tol=1e-6, seed=2,
                    max_outer=60)
    trace = newton_cg(problem, cfg)
    assert trace.status == "converged"
    assert trace.grad_norm[-1] <= 1e-6
    F = accepted(trace, "objective")
    assert all(b <= a + 1e-15 for a, b in zip(F, F[1:]))


def test_newton_cg_error_decay_near_solution():
    rng = np.random.default_rng(66)
    problem = nlls_problem(rng, n=300, d=4)
    problem.ridge_lambda = convex_ridge_lambda(problem) * 1e-3
    ref = newton_cg(problem, OptConfig(grad_tol=1e-12, max_outer=100))
    x_star = ref.x_final
    cfg = OptConfig(scheme="ls", sample_size=200, grad_tol=1e-11,
                    max_outer=100, seed=3)
    last = newton_cg(problem, cfg).iteration[-1]
    # iteration seeds come from the index, so the run capped at K
    # iterations ends at iterate K of the uncapped run
    iterates = [np.zeros(problem.d)] + [
        newton_cg(problem, replace(cfg, max_outer=K)).x_final
        for K in range(1, last + 1)]
    errs = [np.linalg.norm(x - x_star) for x in iterates]
    tail = [e for e in errs if e > 1e-11][-5:]
    assert len(tail) >= 2
    assert all(b <= 0.9 * a for a, b in zip(tail, tail[1:]))


# ---------------------------------------------------------------------------
# newton_mr
# ---------------------------------------------------------------------------


def test_newton_mr_matches_newton_cg_on_strongly_convex_quadratic():
    rng = np.random.default_rng(67)
    problem = quadratic_problem(rng)
    t_cg = newton_cg(problem, OptConfig(grad_tol=1e-10))
    t_mr = newton_mr(problem, OptConfig(grad_tol=1e-10))
    assert np.linalg.norm(t_cg.x_final - t_mr.x_final) <= 1e-8


def test_newton_mr_flags_both_slopes_when_its_line_search_fails(
        monkeypatch):
    rng = np.random.default_rng(70)
    problem = nlls_problem(rng, n=400, d=6, lam=0.01)
    problem.labels[:40] = 1.0 - problem.labels[:40]
    meters = []
    exact = optimizers_mod.hessp_full

    def counted(problem, x, v, meter=None, dvec=None):
        meters.append(meter)
        return exact(problem, x, v, meter=meter, dvec=dvec)

    monkeypatch.setattr(optimizers_mod, "hessp_full", counted)
    trace = newton_mr(problem, OptConfig(scheme="uniform", sample_size=8,
                                         grad_tol=1e-14, seed=1))
    assert trace.status == "line_search_failed"
    k = trace.iteration[-1] + 1
    match = re.fullmatch(
        rf"newton_mr_slopes_iter_{k}: sketched=(\S+) true=(\S+) "
        r"step_ratio=(\S+)", trace.flags[-1])
    sketched, true, ratio = (float(x) for x in match.groups())
    # the sketched model promises descent that the true Hessian refuses
    assert sketched < 0.0 < true
    assert ratio > 1.0
    assert len(meters) == 1 and meters[0] is not None


def test_newton_mr_nonconvex_gradnorm_monotone():
    rng = np.random.default_rng(68)
    problem = nlls_problem(rng, n=200, d=4)
    trace = newton_mr(problem, OptConfig(grad_tol=1e-5, max_outer=100))
    assert trace.status == "converged"
    assert trace.grad_norm[-1] <= 1e-5
    G = accepted(trace, "grad_norm")
    assert all(b <= a + 1e-15 for a, b in zip(G, G[1:]))


# ---------------------------------------------------------------------------
# trust_region
# ---------------------------------------------------------------------------


def test_trust_region_full_quadratic_accepts_everything():
    rng = np.random.default_rng(69)
    problem = quadratic_problem(rng)
    trace = trust_region(problem, OptConfig(grad_tol=1e-8))
    assert trace.status == "converged"
    assert trace.grad_norm[-1] <= 1e-8
    assert all(trace.accepted)
    radii = trace.step_or_radius[1:]
    assert all(b >= a for a, b in zip(radii, radii[1:]))


def test_trust_region_rejections_keep_objective_and_shrink_radius():
    rng = np.random.default_rng(70)
    problem = nlls_problem(rng, n=400, d=6)
    cfg = OptConfig(scheme="uniform", sample_size=8, grad_tol=1e-10,
                    max_outer=60, tr_delta0=100.0, seed=1)
    trace = trust_region(problem, cfg)
    rejected = [i for i, a in enumerate(trace.accepted) if not a]
    assert rejected, "expected at least one rejected step with a crude sketch"
    for i in rejected:
        assert trace.objective[i] == trace.objective[i - 1]
        assert trace.step_or_radius[i] < trace.step_or_radius[i - 1]
    F = accepted(trace, "objective")
    assert all(b <= a + 1e-15 for a, b in zip(F, F[1:]))


@pytest.mark.parametrize("scheme, product_units", [("full", 2),
                                                   ("uniform", 1)])
def test_trust_region_rejection_replays_its_path(scheme, product_units,
                                                 monkeypatch):
    # On an unchanged operator a step costs one objective evaluation and
    # the model value's one product: the CG path is replayed, not re-run.
    rng = np.random.default_rng(70)
    problem = nlls_problem(rng, n=200, d=4)
    problem.labels[:40] = 1.0 - problem.labels[:40]
    cfg = OptConfig(scheme=scheme, sample_size=8, grad_tol=0.0,
                    max_outer=60, tr_gamma=10.0, seed=1)
    products, marks = [], []
    operator = optimizers_mod._Run._operator

    def counting_operator(run, seed):
        hp = operator(run, seed)
        return lambda v: products.append(1) or hp(v)

    def marking_value(*args, **kwargs):
        marks.append(len(products))  # one evaluation per iteration
        return value(*args, **kwargs)

    monkeypatch.setattr(optimizers_mod._Run, "_operator", counting_operator)
    monkeypatch.setattr(optimizers_mod, "value", marking_value)
    trace = trust_region(problem, cfg)
    assert len(marks) == len(trace.iteration)
    after_rejection = [k for k in range(2, len(trace.accepted))
                       if not trace.accepted[k - 1] and not trace.accepted[k]]
    assert len(after_rejection) >= 3
    for k in after_rejection:
        assert marks[k] - marks[k - 1] == 1
        assert trace.oracle_calls[k] - trace.oracle_calls[k - 1] \
            == 1 + product_units


@pytest.mark.parametrize("loss", ["tukey_biweight", "nlls_classification"])
@pytest.mark.parametrize("scheme", ["full", "uniform", "ls", "ls-det"])
def test_trust_region_never_accepts_a_zero_step(loss, scheme):
    # Acceptance needs rho >= tr_eta > 0 with m(p) != 0, and m(0) = 0, so
    # every accepted step moves the iterate and changes the objective.
    rng = np.random.default_rng(23)
    A = rng.standard_normal((300, 5))
    w_star = rng.standard_normal(5)
    if loss == "tukey_biweight":
        labels = A @ w_star + rng.standard_normal(300)
        labels[:30] += 20.0
    else:
        labels = (A @ w_star >= 0).astype(float)
        labels[:30] = 1.0 - labels[:30]
    problem = FiniteSumProblem(A=A, labels=labels, loss=make_loss(loss))
    trace = trust_region(problem, OptConfig(
        scheme=scheme, sample_size=20, grad_tol=0.0, max_outer=300, seed=3))
    moves = [k for k in range(1, len(trace.accepted)) if trace.accepted[k]]
    assert moves and len(moves) < len(trace.accepted) - 1
    for k in moves:
        assert trace.objective[k] != trace.objective[k - 1]


def test_trust_region_radius_underflow_after_rejections():
    rng = np.random.default_rng(70)
    problem = nlls_problem(rng, n=200, d=4, lam=0.0)
    problem.labels[:40] = 1.0 - problem.labels[:40]
    trace = trust_region(problem, OptConfig(tr_gamma=10.0, grad_tol=0.0))
    assert trace.status == "radius_underflow"
    assert trace.iteration == list(range(len(trace.iteration)))
    assert trace.flags == [f"radius_underflow_iter_{len(trace.iteration)}"]
    assert trace.step_or_radius[-1] < 1e-16 <= trace.step_or_radius[-2]
    # the radius shrinks only on rejections, and the run recovered from some
    pattern = "".join("A" if a else "R" for a in trace.accepted)
    assert pattern.endswith("R") and "RA" in pattern
    for i, a in enumerate(trace.accepted):
        if not a:
            assert trace.objective[i] == trace.objective[i - 1]


# ---------------------------------------------------------------------------
# shared trace invariants
# ---------------------------------------------------------------------------


def run_all_three(problem, **kw):
    return [
        newton_cg(problem, OptConfig(**kw)),
        newton_mr(problem, OptConfig(**kw)),
        trust_region(problem, OptConfig(**kw)),
    ]


def test_oracle_calls_strictly_increasing():
    rng = np.random.default_rng(71)
    problem = nlls_problem(rng, n=100, d=4, lam=0.01)
    for trace in run_all_three(problem, scheme="uniform", sample_size=20,
                               grad_tol=1e-6, max_outer=20, seed=5):
        calls = trace.oracle_calls
        assert all(b > a for a, b in zip(calls, calls[1:]))


@pytest.mark.parametrize("scheme", ["full", "uniform", "ls", "rn", "ls-det"])
@pytest.mark.parametrize("algo", [newton_cg, newton_mr, trust_region])
def test_last_record_matches_fresh_oracles_at_x_final(algo, scheme):
    # the recorded objective and gradient norm are those the public
    # oracles compute from x_final alone
    rng = np.random.default_rng(78)
    problem = nlls_problem(rng, n=300, d=5, lam=0.01)
    cfg = OptConfig(scheme=scheme, sample_size=60, grad_tol=1e-10,
                    max_outer=12, seed=4)
    trace = algo(problem, cfg)
    assert len(trace.iteration) > 2
    assert trace.objective[-1] == value(problem, trace.x_final)
    assert trace.grad_norm[-1] == np.linalg.norm(grad(problem, trace.x_final))


def test_budget_cutoff_overshoots_at_most_one_iteration():
    rng = np.random.default_rng(72)
    problem = nlls_problem(rng, n=300, d=5)
    for trace in run_all_three(problem, scheme="ls", sample_size=50,
                               grad_tol=1e-14, max_outer=500,
                               max_oracle_calls=40, seed=6):
        assert trace.status == "budget"
        assert len(trace.oracle_calls) >= 2
        # every record but the last was within budget
        assert trace.oracle_calls[-2] <= 40


def test_identical_seed_identical_trace():
    rng = np.random.default_rng(73)
    problem = nlls_problem(rng, n=150, d=4)
    cfg = dict(scheme="uniform", sample_size=25, grad_tol=1e-6, max_outer=30,
               seed=9)
    for algo in (newton_cg, newton_mr, trust_region):
        t1 = algo(problem, OptConfig(**cfg))
        t2 = algo(problem, OptConfig(**cfg))
        assert t1.objective == t2.objective
        assert t1.grad_norm == t2.grad_norm
        assert t1.oracle_calls == t2.oracle_calls
        np.testing.assert_array_equal(t1.x_final, t2.x_final)
        t3 = algo(problem, OptConfig(**{**cfg, "seed": 10}))
        assert t1.objective != t3.objective


def test_ls_det_scheme_runs_end_to_end():
    rng = np.random.default_rng(74)
    problem = nlls_problem(rng, n=200, d=4)
    cfg = OptConfig(scheme="ls-det", sample_size=30, ls_det_fraction=0.5,
                    grad_tol=1e-5, max_outer=60, seed=11)
    trace = trust_region(problem, cfg)
    assert trace.status in ("converged", "max_outer")
    F = accepted(trace, "objective")
    assert F[-1] < F[0]


@pytest.mark.parametrize("seed", [0, 1])
def test_zero_curvature_schemes_fall_back_to_uniform(seed):
    # f'' = 0 everywhere: the ls and rn scores are all zero, so those
    # schemes sample uniformly; ls-mx and rn-mx keep the row terms of A
    from sketchopt.hessian_oracle import LossFamily

    linear = LossFamily("linear", lambda t, b: t - b,
                        lambda t, b: np.ones_like(t),
                        lambda t, b: np.zeros_like(t))
    rng = np.random.default_rng(76)
    problem = FiniteSumProblem(A=rng.standard_normal((50, 3)),
                               labels=rng.standard_normal(50),
                               loss=linear, ridge_lambda=0.5)
    cfg = OptConfig(scheme="uniform", sample_size=10, seed=seed)
    uniform = newton_cg(problem, cfg)
    for scheme in ("ls", "rn"):
        with pytest.warns(RuntimeWarning, match="falling back to uniform"):
            trace = newton_cg(problem, replace(cfg, scheme=scheme))
        assert trace.flags and set(trace.flags) == {
            f"scheme_{scheme}_fell_back_to_uniform"}
        assert trace.objective == uniform.objective
    for scheme in ("ls-mx", "rn-mx", "uniform"):
        assert newton_cg(problem, replace(cfg, scheme=scheme)).flags == []


@pytest.mark.parametrize("scheme", ["full", "uniform", "ls", "ls-det"])
def test_iterate_operator_matches_per_product_oracles(scheme):
    from sketchopt.hessian_oracle import d_diag, hessp_full, \
        hessp_sketched, sketched_hessian

    rng = np.random.default_rng(75)
    problem = nlls_problem(rng, n=120, d=4, lam=0.01)
    x = 0.5 * rng.standard_normal(4)
    cfg = OptConfig(scheme=scheme, sample_size=30, ls_det_fraction=0.5)
    seed = np.random.SeedSequence(3)
    run = optimizers_mod._Run(problem, cfg, "test", charge_objective=True)
    run.x = x
    hp = run._operator(seed)
    # the sketch the operator was built from, drawn again from the same seed
    if scheme == "full":
        def reference(v):
            return hessp_full(problem, x, v)
    elif scheme == "ls-det":
        from sketchopt.hybrid_sampling import ls_det_fraction_plan
        dvec = d_diag(problem, x)
        plan = ls_det_fraction_plan(np.sqrt(np.abs(dvec))[:, None] * problem.A,
                                    budget=30, fraction=0.5, seed=seed)

        def reference(v):
            return hessp_sketched(sketched_hessian(problem, x, plan,
                                                   dvec=dvec), v)
    else:
        from sketchopt.sketch_sampling import (build_sampling_sketch,
                                               scheme_probabilities)
        probs = scheme_probabilities(problem, x, scheme).probs
        sketch = build_sampling_sketch(probs, 30, seed=seed)

        def reference(v):
            return hessp_sketched(sketched_hessian(problem, x, sketch), v)
    built = run.meter.function_evals
    per_product = 2 if scheme == "full" else 1
    for j in range(1, 4):
        v = rng.standard_normal(4)
        assert np.array_equal(hp(v), reference(v))
        assert run.meter.function_evals == built + j * per_product


@pytest.mark.parametrize("budget, fraction",
                         [(60, 0.9), (60, 1.0), (40, 0.5), (10, 0.0)])
def test_ls_det_charges_the_leverage_work_it_does(budget, fraction,
                                                  monkeypatch):
    from sketchopt import hybrid_sampling, sketch_sampling

    # a leverage pass is one run of the row-energy kernel, whether the plan
    # calls it itself or through exact_leverage_scores
    calls = []
    original = sketch_sampling._row_energies
    for module in (sketch_sampling, hybrid_sampling):
        monkeypatch.setattr(module, "_row_energies",
                            lambda B, T: calls.append(1) or original(B, T))
    rng = np.random.default_rng(76)
    problem = nlls_problem(rng, n=50, d=4)
    cfg = OptConfig(scheme="ls-det", sample_size=budget,
                    ls_det_fraction=fraction)
    run = optimizers_mod._Run(problem, cfg, "test", charge_objective=True)
    run.x = 0.1 * rng.standard_normal(4)
    before = run.meter.function_evals  # the start's value and grad
    run._operator(np.random.SeedSequence(5))
    assert calls
    # d_diag (1 unit) plus d units per leverage computation
    assert run.meter.function_evals - before == 1 + problem.d * len(calls)


# ---------------------------------------------------------------------------
# per-iteration seeds
# ---------------------------------------------------------------------------


def _trace_bytes(trace):
    return (np.asarray(trace.rows(), dtype=float).tobytes(),
            trace.x_final.tobytes(), trace.status, tuple(trace.flags))


@pytest.mark.parametrize("algo, budget", [(newton_cg, 100), (newton_mr, 60),
                                          (trust_region, 200)])
def test_budget_stopped_trace_independent_of_max_outer(algo, budget,
                                                       monkeypatch):
    rng = np.random.default_rng(70)
    problem = nlls_problem(rng, n=400, d=6, lam=0.01)
    problem.labels[:40] = 1.0 - problem.labels[:40]
    kw = dict(scheme="uniform", sample_size=8, grad_tol=1e-14,
              tr_delta0=100.0, seed=1, max_oracle_calls=budget)
    lazy = algo(problem, OptConfig(max_outer=100_000, **kw))
    # reference: the seeds spawned eagerly, max_outer of them up front
    cfg = OptConfig(max_outer=200, **kw)
    children = np.random.SeedSequence(cfg.seed).spawn(cfg.max_outer)
    monkeypatch.setattr(optimizers_mod, "child_seed",
                        lambda root, i: children[i])
    eager = algo(problem, cfg)
    assert lazy.status == "budget"
    assert _trace_bytes(lazy) == _trace_bytes(eager)
    if algo is trust_region:
        # the sketch rebuilt after an accept that followed rejections
        # draws a seed index past the skipped ones
        flags = "".join("A" if a else "R" for a in lazy.accepted)
        assert "RA" in flags[:-1]
