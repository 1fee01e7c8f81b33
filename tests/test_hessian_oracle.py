"""Tests for the finite-sum problem oracles and cost accounting.

Independent oracles: central finite differences of the loss, the gradient,
and dense Monte Carlo means for sketched products.
"""

import math

import numpy as np
import pytest

from sketchopt.core_complex import min_eig_hermitian, spectral_norm
from sketchopt.hessian_oracle import (
    FiniteSumProblem,
    LossFamily,
    OracleMeter,
    convex_ridge_lambda,
    curvature_bound,
    d_diag,
    grad,
    hessp_full,
    hessp_sketched,
    make_loss,
    sketched_hessian,
    value,
)
from sketchopt.sketch_sampling import (
    SamplingSketch,
    build_sampling_sketch,
    exact_leverage_scores,
    scheme_probabilities,
)

LOSSES = ("quadratic", "nlls_classification", "tukey_biweight")


def make_problem(rng, n=15, d=4, loss="quadratic", lam=0.0):
    A = rng.standard_normal((n, d))
    if loss == "nlls_classification":
        labels = rng.integers(0, 2, size=n).astype(float)
    else:
        labels = rng.standard_normal(n)
    return FiniteSumProblem(A=A, labels=labels, loss=make_loss(loss), ridge_lambda=lam)


# ---------------------------------------------------------------------------
# loss families


def test_quadratic_identity_curvature_and_grad():
    rng = np.random.default_rng(30)
    prob = make_problem(rng, loss="quadratic", lam=0.3)
    prob.labels[:] = 0.0
    x = rng.standard_normal(4)
    assert np.allclose(d_diag(prob, x), np.ones(15))
    expect = prob.A.T @ (prob.A @ x) / 15 + 0.3 * x
    assert np.allclose(grad(prob, x), expect)


def test_nlls_curvature_at_zero_is_one_eighth():
    # sigmoid(0) = 1/2: f'' = 2 [ (s')^2 + (s - b) s'' ] with s' = 1/4, s'' = 0
    rng = np.random.default_rng(31)
    prob = make_problem(rng, loss="nlls_classification")
    assert np.allclose(d_diag(prob, np.zeros(4)), 0.125)


def test_loss_second_derivative_matches_finite_differences():
    # central second difference: step large enough that float64 roundoff
    # (~4*eps*|f|/h^2) stays below the 1e-6 tolerance alongside truncation
    h = 3e-4
    for name in LOSSES:
        loss = make_loss(name)
        rng = np.random.default_rng(32)
        t = rng.uniform(-4, 4, size=50)
        b = rng.integers(0, 2, size=50).astype(float)
        fd = (loss.f(t + h, b) - 2 * loss.f(t, b) + loss.f(t - h, b)) / h**2
        assert np.max(np.abs(loss.f2(t, b) - fd)) <= 1e-6
        # cross-check against a first difference of the analytic derivative
        h1 = 1e-6
        fd1 = (loss.f1(t + h1, b) - loss.f1(t - h1, b)) / (2 * h1)
        assert np.max(np.abs(loss.f2(t, b) - fd1)) <= 1e-6


def test_loss_first_derivative_matches_finite_differences():
    h = 1e-6
    for name in LOSSES:
        loss = make_loss(name)
        rng = np.random.default_rng(33)
        t = rng.uniform(-4, 4, size=50)
        b = rng.integers(0, 2, size=50).astype(float)
        fd = (loss.f(t + h, b) - loss.f(t - h, b)) / (2 * h)
        assert np.max(np.abs(loss.f1(t, b) - fd)) <= 1e-6


def test_nlls_saturates_without_nan():
    loss = make_loss("nlls_classification")
    t = np.array([-1e6, -50.0, 50.0, 1e6])
    b = np.array([0.0, 1.0, 0.0, 1.0])
    for fn in (loss.f, loss.f1, loss.f2):
        out = fn(t, b)
        assert np.all(np.isfinite(out))


def test_tukey_curvature_bounded_and_vanishing_tail():
    loss = make_loss("tukey_biweight")
    t = np.linspace(-50, 50, 10001)
    b = np.zeros_like(t)
    f2 = loss.f2(t, b)
    assert np.max(np.abs(f2)) <= 2.0 + 1e-12
    assert abs(loss.f2(np.array([40.0]), np.array([0.0]))[0]) < 1e-3


def test_d_diag_sign_indefinite_for_nonconvex_losses():
    rng = np.random.default_rng(34)
    prob = make_problem(rng, n=60, loss="tukey_biweight")
    dvec = d_diag(prob, rng.standard_normal(4) * 3)
    assert dvec.min() < 0 < dvec.max()


# ---------------------------------------------------------------------------
# gradient / Hessian consistency


def test_gradient_matches_finite_differences_all_losses():
    for name in LOSSES:
        rng = np.random.default_rng(35)
        prob = make_problem(rng, loss=name, lam=0.1)
        for _ in range(20):
            x = rng.standard_normal(4)
            g = grad(prob, x)
            fd = np.empty_like(g)
            h = 1e-6
            for j in range(4):
                e = np.zeros(4)
                e[j] = h
                fd[j] = (value(prob, x + e) - value(prob, x - e)) / (2 * h)
            assert np.linalg.norm(g - fd) <= 1e-4 * (1 + np.linalg.norm(g))


def test_hessp_full_zero_vector_and_quadratic():
    rng = np.random.default_rng(36)
    prob = make_problem(rng, loss="quadratic", lam=0.2)
    x = rng.standard_normal(4)
    assert np.allclose(hessp_full(prob, x, np.zeros(4)), np.zeros(4))
    v = rng.standard_normal(4)
    expect = prob.A.T @ (prob.A @ v) / 15 + 0.2 * v
    assert np.allclose(hessp_full(prob, x, v), expect)


def test_hessp_full_matches_finite_difference_of_grad():
    for name in LOSSES:
        rng = np.random.default_rng(37)
        prob = make_problem(rng, loss=name, lam=0.05)
        x = rng.standard_normal(4)
        v = rng.standard_normal(4)
        h = 1e-6
        fd = (grad(prob, x + h * v) - grad(prob, x - h * v)) / (2 * h)
        hv = hessp_full(prob, x, v)
        assert np.linalg.norm(hv - fd) <= 1e-5 * (1 + np.linalg.norm(hv))


# ---------------------------------------------------------------------------
# sketched Hessian products


def test_hessp_sketched_identity_sketch_equals_full():
    rng = np.random.default_rng(38)
    prob = make_problem(rng, loss="tukey_biweight", lam=0.1)
    x = rng.standard_normal(4)
    v = rng.standard_normal(4)
    ident = SamplingSketch(15, np.arange(15), np.ones(15))
    assert np.allclose(
        hessp_sketched(sketched_hessian(prob, x, ident), v),
        hessp_full(prob, x, v), atol=1e-12
    )


def test_hessp_sketched_single_row_formula():
    rng = np.random.default_rng(39)
    prob = make_problem(rng, loss="quadratic", lam=0.3)
    x = rng.standard_normal(4)
    v = rng.standard_normal(4)
    w = 1.7
    S = SamplingSketch(15, np.array([2]), np.array([w]))
    a = prob.A[2]
    expect = w * w * 1.0 * (a @ v) * a / 15 + 0.3 * v
    assert np.allclose(hessp_sketched(sketched_hessian(prob, x, S), v), expect)


def test_hessp_sketched_monte_carlo_unbiased():
    rng = np.random.default_rng(40)
    prob = make_problem(rng, n=12, loss="nlls_classification", lam=0.0)
    x = rng.standard_normal(4) * 0.5
    v = rng.standard_normal(4)
    res = scheme_probabilities(prob, x, "ls")
    full = hessp_full(prob, x, v)
    acc = np.zeros(4)
    reps = 10_000
    for seed in range(reps):
        S = build_sampling_sketch(res.probs, t=4, seed=seed)
        acc += hessp_sketched(sketched_hessian(prob, x, S), v)
    mean = acc / reps
    assert np.linalg.norm(mean - full) / np.linalg.norm(full) <= 0.02


# ---------------------------------------------------------------------------
# meter accounting


def test_meter_hand_computed_script():
    rng = np.random.default_rng(41)
    prob = make_problem(rng, n=10, loss="quadratic")
    x = rng.standard_normal(4)
    v = rng.standard_normal(4)
    meter = OracleMeter()
    value(prob, x, meter=meter)        # +1
    grad(prob, x, meter=meter)         # +1
    d_diag(prob, x, meter=meter)       # +1
    hessp_full(prob, x, v, meter=meter)  # +2
    S = build_sampling_sketch(np.full(10, 0.1), t=3, seed=0)
    hessp_sketched(sketched_hessian(prob, x, S), v,
                   meter=meter)  # ceil(2*3/10) = +1
    assert meter.function_evals == 6


def test_problem_rejects_nonfinite_data():
    A = np.ones((3, 2))
    labels = np.zeros(3)
    for bad_A, bad_labels in ((np.where(np.eye(3, 2), np.nan, A), labels),
                              (A, np.array([0.0, np.inf, 1.0]))):
        with pytest.raises(ValueError, match="finite"):
            FiniteSumProblem(A=bad_A, labels=bad_labels,
                             loss=make_loss("quadratic"))


@pytest.mark.parametrize("lam", [np.nan, np.inf, -1.0])
def test_problem_rejects_ridge_lambda_not_finite_and_nonnegative(lam):
    with pytest.raises(ValueError, match="ridge_lambda"):
        FiniteSumProblem(A=np.ones((3, 2)), labels=np.zeros(3),
                         loss=make_loss("quadratic"), ridge_lambda=lam)


def test_meter_monotone_and_rejects_negative():
    meter = OracleMeter()
    meter.add(3)
    assert meter.function_evals == 3
    with pytest.raises(ValueError):
        meter.add(-1)


# ---------------------------------------------------------------------------
# convexifying ridge


def test_convex_ridge_quadratic():
    rng = np.random.default_rng(42)
    prob = make_problem(rng, loss="quadratic")
    lam = convex_ridge_lambda(prob)
    assert lam == pytest.approx(4.0 * spectral_norm(prob.A) ** 2)


def test_convex_ridge_identity_design():
    prob = FiniteSumProblem(
        A=np.eye(3), labels=np.zeros(3), loss=make_loss("tukey_biweight"),
        ridge_lambda=0.0,
    )
    assert convex_ridge_lambda(prob) == pytest.approx(4.0 * 2.0)


def test_nlls_curvature_bound_certified():
    h = curvature_bound(make_loss("nlls_classification"))
    # independent dense scan
    t = np.linspace(-40, 40, 2_000_001)
    loss = make_loss("nlls_classification")
    m = max(
        np.max(np.abs(loss.f2(t, np.zeros_like(t)))),
        np.max(np.abs(loss.f2(t, np.ones_like(t)))),
    )
    assert h >= m - 1e-9
    assert h <= m + 1e-4


def test_curvature_bound_rejects_unknown_family():
    nlls = make_loss("nlls_classification")
    with pytest.raises(ValueError, match="mystery"):
        curvature_bound(LossFamily("mystery", nlls.f, nlls.f1, nlls.f2))


def test_curvature_bound_reads_the_family_bound():
    assert curvature_bound(make_loss("quadratic")) == 1.0
    assert curvature_bound(make_loss("tukey_biweight")) == 2.0
    assert curvature_bound(make_loss("nlls_classification")) == \
        0.15405857027540912
    quad = make_loss("quadratic")
    assert curvature_bound(
        LossFamily("scaled", quad.f, quad.f1, quad.f2, bound=3.5)) == 3.5


def test_sketched_hessian_psd_under_convex_ridge():
    rng = np.random.default_rng(43)
    n, d = 80, 3
    A = rng.standard_normal((n, d))
    labels = rng.integers(0, 2, size=n).astype(float)
    prob = FiniteSumProblem(A=A, labels=labels,
                            loss=make_loss("nlls_classification"), ridge_lambda=0.0)
    lam = convex_ridge_lambda(prob)
    prob = FiniteSumProblem(A=A, labels=labels,
                            loss=make_loss("nlls_classification"), ridge_lambda=lam)
    t = int(np.ceil(4 * d * np.log(d / 0.1) / 0.25))
    hits = 0
    for seed in range(50):
        x = rng.standard_normal(d) * 0.2
        res = scheme_probabilities(prob, x, "ls")
        S = build_sampling_sketch(res.probs, t=t, seed=seed)
        dvec = d_diag(prob, x)
        H = np.zeros((d, d))
        w2 = S.weights**2 * dvec[S.rows]
        Asub = A[S.rows]
        H = Asub.T @ (w2[:, None] * Asub) / n + lam * np.eye(d)
        if min_eig_hermitian(H, tol=1e-8) >= 0:
            hits += 1
    assert hits >= 45


def test_sketched_product_with_hybrid_plan_maps_remainder_indices():
    from sketchopt.hybrid_sampling import ls_det_fraction_plan

    rng = np.random.default_rng(77)
    A = rng.standard_normal((30, 4))
    A[3] *= 20.0
    problem = FiniteSumProblem(
        A=A, labels=rng.standard_normal(30), loss=make_loss("quadratic"),
        ridge_lambda=0.1,
    )
    A = problem.A
    x = rng.standard_normal(4)
    v = rng.standard_normal(4)
    plan = ls_det_fraction_plan(A, budget=10, fraction=0.3, seed=5)
    got = hessp_sketched(sketched_hessian(problem, x, plan), v)
    # manual: deterministic rows weight 1, picks numbered by source row
    det = plan.deterministic_rows
    picks = plan.sampled.rows
    w2 = plan.sampled.weights ** 2
    dvec = d_diag(problem, x)
    expect = problem.ridge_lambda * v
    expect = expect + A[det].T @ (dvec[det] * (A[det] @ v)) / 30
    expect = expect + A[picks].T @ (w2 * dvec[picks] * (A[picks] @ v)) / 30
    np.testing.assert_allclose(got, expect, atol=1e-12)


def test_sketched_hessian_rejects_a_sketch_over_another_row_count():
    from sketchopt.hybrid_sampling import ls_det_fraction_plan

    rng = np.random.default_rng(80)
    problem = FiniteSumProblem(
        A=rng.standard_normal((15, 3)), labels=rng.standard_normal(15),
        loss=make_loss("quadratic"),
    )
    x = rng.standard_normal(3)
    for rows in (10, 40):
        probs = np.full(rows, 1.0 / rows)
        sketches = [
            build_sampling_sketch(probs, t=6, seed=1),
            ls_det_fraction_plan(rng.standard_normal((rows, 3)), budget=6,
                                 fraction=0.5, seed=1),
        ]
        for sketch in sketches:
            with pytest.raises(ValueError, match="sketch built over"):
                sketched_hessian(problem, x, sketch)


# ---------------------------------------------------------------------------
# prepared sketched-Hessian operator


def _per_product_reference(problem, x, v, sketch, dvec=None):
    """The per-product formula: gather rows and f'' afresh for every v."""
    det = getattr(sketch, "deterministic_rows", np.empty(0, int))
    sampled = getattr(sketch, "sampled", sketch)
    rows = sampled.rows
    n = problem.n
    out = problem.ridge_lambda * v

    def rows_term(idx, w2):
        Asub = problem.A[idx]
        if dvec is not None:
            dsub = dvec[idx]
        else:
            dsub = problem.loss.f2(Asub @ x, problem.labels[idx])
        return Asub.T @ (w2 * dsub * (Asub @ v))

    if det.size:
        out = out + rows_term(det, 1.0) / n
    if rows.size:
        out = out + rows_term(rows, sampled.weights ** 2) / n
    return out


def _operator_cases():
    from sketchopt.hybrid_sampling import ls_det_fraction_plan

    rng = np.random.default_rng(78)
    A = rng.standard_normal((40, 5))
    A[7] *= 30.0
    problem = FiniteSumProblem(
        A=A, labels=rng.integers(0, 2, size=40).astype(float),
        loss=make_loss("nlls_classification"), ridge_lambda=0.05,
    )
    probs = exact_leverage_scores(problem.A)
    sketches = {"sampling": build_sampling_sketch(probs / probs.sum(), t=25,
                                                  seed=3)}
    for fraction in (0.0, 0.5, 1.0):
        sketches[f"hybrid-{fraction}"] = ls_det_fraction_plan(
            problem.A, budget=25, fraction=fraction, seed=4)
    return problem, sketches


def test_prepared_operator_matches_per_product_formula_bitwise():
    problem, sketches = _operator_cases()
    assert sketches["hybrid-1.0"].sampled.rows.size == 0
    assert sketches["hybrid-0.0"].deterministic_rows.size == 0
    rng = np.random.default_rng(79)
    x = 0.3 * rng.standard_normal(problem.d)
    dvec = d_diag(problem, x)
    for name, sketch in sketches.items():
        for dv in (None, dvec):
            op = sketched_hessian(problem, x, sketch, dvec=dv)
            for _ in range(3):
                v = rng.standard_normal(problem.d)
                expect = _per_product_reference(problem, x, v, sketch, dv)
                assert np.array_equal(op.apply(v), expect), name
                assert np.array_equal(hessp_sketched(op, v), expect), name


def test_prepared_operator_meter_charges_per_product_only():
    problem, sketches = _operator_cases()
    x = np.full(problem.d, 0.1)
    v = np.ones(problem.d)
    for name, sketch in sketches.items():
        meter = OracleMeter()
        op = sketched_hessian(problem, x, sketch)
        assert meter.function_evals == 0
        t = op.rows
        assert t == 25, name
        for calls in range(1, 4):
            hessp_sketched(op, v, meter=meter)
            assert meter.function_evals == calls * math.ceil(2 * t / problem.n)
