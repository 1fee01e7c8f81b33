"""End-to-end acceptance suite: one test per shipped guarantee.

Each test pins a concrete experiment (fixed instance seeds, fixed sketch
seeds) and asserts both the numerical property and a wall-clock budget, so a
single verbose run gives one pass/fail line per guarantee.  Stochastic
guarantees are stated over frozen seed sets with success-count thresholds;
the margins were chosen from measurement campaigns recorded alongside the
repository, not tuned to the edge.
"""

import hashlib
import math
import time

import numpy as np

from sketchopt.bench.cli import main as bench_main
from sketchopt.bench.datasets import synth_planted
from sketchopt.core_complex import (
    lift_matrix,
    min_eig_hermitian,
    mixed_norm,
    phi,
    spectral_norm,
)
from sketchopt.hessian_oracle import (FiniteSumProblem, grad, hessp_full,
                                      make_loss, value)
from sketchopt.lp_regression import (
    complex_lp_solve,
    gaussian_moment_scale,
    sketch_and_solve,
)
from sketchopt.optimizers import (
    OptConfig,
    newton_cg,
    newton_mr,
    trust_region,
)
from sketchopt.sketch_sampling import (
    apply_sketch,
    approx_leverage_scores,
    build_sampling_sketch,
    embedding_distortion,
    exact_leverage_scores,
    gamma_factor,
)
from sketchopt.vmv_sketch import estimate, ts_new, ts_pair


# ---------------------------------------------------------------------------
# shared builders
# ---------------------------------------------------------------------------


def _crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _curvature_family(rng, n, d):
    """Real design with a sign-indefinite diagonal and its |D|^(1/2)-weighted
    design, the structure produced by second-order models of nonconvex sums."""
    A = rng.standard_normal((n, d))
    dvec = np.tanh(rng.standard_normal(n)) * np.where(
        rng.random(n) < 0.5, 1.0, -1.0)
    B = np.sqrt(dvec.astype(complex))[:, None] * A
    return A, dvec, B


def _planted_problem(k, loss_tag, lam):
    A, labels = synth_planted(5000, 20, 20, 1e3, seed=300 + k)
    return FiniteSumProblem(A=A, labels=labels, loss=make_loss(loss_tag),
                            ridge_lambda=lam)


def _calls_to_converge(problem, algorithm, scheme, seed, **cfg_kw):
    cfg = OptConfig(scheme=scheme, sample_size=500, max_outer=3000,
                    grad_tol=1e-4, max_oracle_calls=150_000, seed=seed,
                    **cfg_kw)
    trace = algorithm(problem, cfg)
    if trace.status == "converged":
        return trace.oracle_calls[-1]
    return math.inf


# ---------------------------------------------------------------------------
# 1. lifted mixed norm reproduces the complex p-norm
# ---------------------------------------------------------------------------


def test_criterion_01_lifted_mixed_norm_matches_complex_residual():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    for _ in range(100):
        A = _crandn(rng, 12, 5)
        x = _crandn(rng, 5)
        b = _crandn(rng, 12)
        lifted_residual = lift_matrix(A) @ phi(x) - phi(b)
        residual = A @ x - b
        for p in (1.0, 1.5, 2.0, 3.0, np.inf):
            lhs = mixed_norm(lifted_residual, p)
            ref = float(np.linalg.norm(residual, p))
            assert abs(lhs - ref) <= 1e-12 * max(1.0, ref)
    assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------------------
# 2. two-sided curvature sandwich under exact-leverage sampling
# ---------------------------------------------------------------------------


def test_criterion_02_sampled_gram_sandwiches_indefinite_curvature():
    start = time.perf_counter()
    n, d, eps, delta = 500, 8, 0.5, 0.1
    t = int(np.ceil(4 * d * np.log(d / delta) / eps**2))
    hits = 0
    for seed in range(200):
        rng = np.random.default_rng(2000 + seed)
        A, dvec, B = _curvature_family(rng, n, d)
        scores = exact_leverage_scores(B)
        sketch = build_sampling_sketch(scores / scores.sum(), t=t, seed=seed)
        C = apply_sketch(sketch, B)
        lhs = np.real(C.T @ C)
        target = A.T @ (dvec[:, None] * A)
        slack = eps * np.real(B.conj().T @ B)
        lo = min_eig_hermitian(lhs - target + slack, tol=1e-6)
        hi = min_eig_hermitian(target + slack - lhs, tol=1e-6)
        if lo >= -1e-8 and hi >= -1e-8:
            hits += 1
    assert hits >= 180
    assert time.perf_counter() - start < 30.0


# ---------------------------------------------------------------------------
# 3. spectral-norm error at the gamma-scaled sample size
# ---------------------------------------------------------------------------


def test_criterion_03_spectral_error_within_eps_at_gamma_scaled_size():
    start = time.perf_counter()
    n, d, eps, delta = 500, 8, 0.5, 0.1
    hits = 0
    for seed in range(200):
        rng = np.random.default_rng(1000 + seed)
        _, _, B = _curvature_family(rng, n, d)
        B = B / spectral_norm(B)
        scores = exact_leverage_scores(B)
        gamma = gamma_factor(B, scores)
        t = int(np.ceil(4 * d * gamma * np.log(d / delta) / eps**2))
        sketch = build_sampling_sketch(scores / scores.sum(), t=t, seed=seed)
        C = apply_sketch(sketch, B)
        err = spectral_norm(C.conj().T @ C - B.conj().T @ B)
        if err < eps:
            hits += 1
    assert hits >= 180
    assert time.perf_counter() - start < 30.0


# ---------------------------------------------------------------------------
# 4. approximate leverage scores track the exact ones row by row
# ---------------------------------------------------------------------------


def test_criterion_04_approx_leverage_ratio_in_band_for_most_rows():
    start = time.perf_counter()
    in_band = 0
    total = 0
    for trial in range(100):
        rng = np.random.default_rng(4000 + trial)
        B = rng.standard_normal((200, 5))
        exact = exact_leverage_scores(B)
        approx = approx_leverage_scores(B, embed_rows=60, jl_cols=40,
                                        seed=trial)
        ratio = approx / exact
        in_band += int(np.sum((ratio >= 0.5) & (ratio <= 2.0)))
        total += ratio.size
    assert in_band >= 0.95 * total
    assert time.perf_counter() - start < 10.0


# ---------------------------------------------------------------------------
# 5. certified embeddings bound the sketched product error
# ---------------------------------------------------------------------------


def test_criterion_05_verified_embedding_bounds_sketched_product():
    start = time.perf_counter()
    for case in range(100):
        rng = np.random.default_rng(5000 + case)
        A = _crandn(rng, 60, 4)
        B = _crandn(rng, 60, 3)
        m = 30 + (case % 4) * 10
        S = rng.standard_normal((m, 60)) / np.sqrt(m)
        eta = embedding_distortion(S, np.hstack([A, B]))
        lhs = spectral_norm(A.conj().T @ S.T @ (S @ B) - A.conj().T @ B)
        assert lhs <= eta * spectral_norm(A) * spectral_norm(B) + 1e-12
    assert time.perf_counter() - start < 10.0


# ---------------------------------------------------------------------------
# 6. optimizer correctness on a convex quadratic + derivative oracles
# ---------------------------------------------------------------------------


def test_criterion_06_optimizers_and_derivative_oracles_are_correct():
    start = time.perf_counter()
    rng = np.random.default_rng(606)
    A = rng.standard_normal((60, 5))
    labels = rng.standard_normal(60)
    quad = FiniteSumProblem(A=A, labels=labels, loss=make_loss("quadratic"),
                            ridge_lambda=0.1)
    for algorithm, extra in ((newton_cg, {}), (newton_mr, {}),
                             (trust_region, {"tr_delta0": 50.0})):
        trace = algorithm(quad, OptConfig(grad_tol=1e-8, **extra))
        assert trace.status == "converged"
        assert trace.grad_norm[-1] <= 1e-8
        assert trace.iteration[-1] <= 3

    rng = np.random.default_rng(607)
    for tag in ("quadratic", "nlls_classification", "tukey_biweight"):
        A = rng.standard_normal((80, 6))
        w = rng.standard_normal(6)
        if tag == "nlls_classification":
            labels = (A @ w >= 0).astype(float)
        else:
            labels = rng.standard_normal(80)
        problem = FiniteSumProblem(A=A, labels=labels, loss=make_loss(tag),
                                   ridge_lambda=0.05)
        x = 0.3 * rng.standard_normal(6)
        v = rng.standard_normal(6)
        v /= np.linalg.norm(v)
        h = 1e-6
        fd_slope = (value(problem, x + h * v)
                    - value(problem, x - h * v)) / (2 * h)
        slope = float(grad(problem, x) @ v)
        assert abs(fd_slope - slope) <= 1e-4 * max(abs(slope), 1e-12)
        h = 3e-4
        fd_curver = (grad(problem, x + h * v)
                     - grad(problem, x - h * v)) / (2 * h)
        curver = hessp_full(problem, x, v)
        assert (np.linalg.norm(fd_curver - curver)
                <= 1e-4 * max(np.linalg.norm(curver), 1e-12))
    assert time.perf_counter() - start < 10.0


# ---------------------------------------------------------------------------
# 7. sampling-scheme separation on planted heavy-row instances
# ---------------------------------------------------------------------------


def test_criterion_07_curvature_aware_sampling_beats_alternatives():
    start = time.perf_counter()
    seeds = range(20)

    # (a) leverage vs uniform under the residual-norm line-search solver
    wins = 0
    for k in seeds:
        problem = _planted_problem(k, "nlls_classification", 0.005)
        ls = _calls_to_converge(problem, newton_mr, "ls", 11 * k + 1)
        uni = _calls_to_converge(problem, newton_mr, "uniform", 11 * k + 1)
        wins += ls < uni
    assert wins >= 14

    # (b) leverage vs uniform under the trust-region solver on a bounded
    # redescending loss, where curvature information is essential
    wins = 0
    for k in seeds:
        problem = _planted_problem(k, "tukey_biweight", 1e-3)
        ls = _calls_to_converge(problem, trust_region, "ls", 11 * k + 1)
        uni = _calls_to_converge(problem, trust_region, "uniform", 11 * k + 1)
        wins += ls < uni
    assert wins >= 14

    # (c) curvature-weighted leverage vs its curvature-blind mixture
    wins = 0
    for k in seeds:
        problem = _planted_problem(k, "nlls_classification", 0.015)
        ls = _calls_to_converge(problem, newton_mr, "ls", 11 * k + 1)
        mix = _calls_to_converge(problem, newton_mr, "ls-mx", 11 * k + 1)
        wins += ls < mix
    assert wins >= 12

    # (d) curvature-weighted row norms vs their curvature-blind mixture
    wins = 0
    for k in seeds:
        problem = _planted_problem(k, "nlls_classification", 0.01)
        rn = _calls_to_converge(problem, trust_region, "rn", 11 * k + 1,
                                tr_gamma=2.0)
        mix = _calls_to_converge(problem, trust_region, "rn-mx", 11 * k + 1,
                                 tr_gamma=2.0)
        wins += rn < mix
    assert wins >= 12
    assert time.perf_counter() - start < 600.0


# ---------------------------------------------------------------------------
# 8. deterministic/random hybrid ordering at a fixed oracle budget
# ---------------------------------------------------------------------------


def test_criterion_08_hybrid_fraction_orders_final_objectives():
    start = time.perf_counter()
    fractions = (0.0, 0.25, 0.5, 0.75, 1.0)
    finals = {f: [] for f in fractions}
    for k in range(20):
        problem = _planted_problem(k, "nlls_classification", 0.005)
        for f in fractions:
            cfg = OptConfig(scheme="ls-det", ls_det_fraction=f,
                            sample_size=250, max_outer=100_000,
                            grad_tol=1e-12, max_oracle_calls=800,
                            seed=11 * k + 1)
            finals[f].append(newton_cg(problem, cfg).objective[-1])

    eps_tie = 1e-6
    all_det_no_better = 0
    mid_wins = {f: 0 for f in (0.25, 0.5, 0.75)}
    for k in range(20):
        base = finals[0.0][k]
        scale = max(1.0, abs(base))
        all_det_no_better += finals[1.0][k] >= base - eps_tie * scale
        for f in mid_wins:
            mid_wins[f] += finals[f][k] <= base + eps_tie * scale
    assert all_det_no_better >= 14
    assert any(count >= 10 for count in mid_wins.values())
    assert time.perf_counter() - start < 600.0


# ---------------------------------------------------------------------------
# 9. complex p-norm sketch-and-solve error shrinks with sketch size
# ---------------------------------------------------------------------------


def test_criterion_09_sketch_error_decreases_and_zero_residual_recovers():
    start = time.perf_counter()
    errs = {("p1", 2): [], ("p1", 20): [], ("pinf", 2): [], ("pinf", 6): []}
    for k in range(20):
        rng = np.random.default_rng(500 + k)
        A = _crandn(rng, 100, 50)
        x0 = _crandn(rng, 50)
        b = A @ x0 + 0.5 * _crandn(rng, 100)
        ref1 = complex_lp_solve(A, b, 1, tol=1e-8)
        refi = complex_lp_solve(A, b, np.inf, tol=1e-8)
        for t in (2, 20):
            got = sketch_and_solve(A, b, 1, seed=1000 + 17 * k, t=t, tol=1e-8)
            errs[("p1", t)].append(float(np.linalg.norm(got.xhat - ref1.x)))
        for s in (2, 6):
            got = sketch_and_solve(A, b, np.inf, seed=1000 + 17 * k, s=s,
                                   tol=1e-8)
            errs[("pinf", s)].append(float(np.linalg.norm(got.xhat - refi.x)))
    assert np.median(errs[("p1", 20)]) < np.median(errs[("p1", 2)])
    assert np.median(errs[("pinf", 6)]) < np.median(errs[("pinf", 2)])

    for k in range(5):
        rng = np.random.default_rng(900 + k)
        A = _crandn(rng, 100, 50)
        x_star = _crandn(rng, 50)
        b = A @ x_star
        for p, kw in ((1, {"t": 8}), (np.inf, {"s": 3})):
            got = sketch_and_solve(A, b, p, seed=33 + k, **kw)
            assert np.linalg.norm(got.xhat - x_star) <= 1e-6
    assert time.perf_counter() - start < 300.0


# ---------------------------------------------------------------------------
# 10. Gaussian moment normalization
# ---------------------------------------------------------------------------


def test_criterion_10_scaled_gaussian_moments_match_euclidean_norm():
    start = time.perf_counter()
    rng = np.random.default_rng(778)
    y = rng.standard_normal(7)
    target_norm = float(np.linalg.norm(y))
    G = rng.standard_normal((1_000_000, 7))
    for p in (1.0, 1.5, 2.0, 3.0):
        scale = gaussian_moment_scale(p)
        estimate_p = float(np.mean(np.abs((scale * G) @ y) ** p))
        target = target_norm**p
        assert abs(estimate_p - target) <= 0.01 * target
    assert time.perf_counter() - start < 30.0


# ---------------------------------------------------------------------------
# 11. tensor-product sketch: unbiased, cancellation-exact, explicit oracle
# ---------------------------------------------------------------------------


def test_criterion_11_tensor_sketch_unbiased_cancellation_and_oracle():
    start = time.perf_counter()

    rng = np.random.default_rng(611)
    A = _crandn(rng, 8, 3)
    B = _crandn(rng, 8, 3)
    u = _crandn(rng, 3)
    v = _crandn(rng, 3)
    exact = complex(u @ (A.T @ B) @ v)
    ests = np.array([estimate(A, B, u, v, k=5, seed=s)
                     for s in range(10_000)])
    se = np.sqrt((ests.real.var() + ests.imag.var()) / ests.size)
    assert abs(ests.mean() - exact) <= 3.0 * se

    rng = np.random.default_rng(610)
    a = 100.0 * _crandn(rng, 5)
    b = 100.0 * _crandn(rng, 5)
    n = 40
    A = np.tile(a, (n, 1))
    B = np.vstack([np.tile(b, (n // 2, 1)), np.tile(-b, (n // 2, 1))])
    u = _crandn(rng, 5)
    v = _crandn(rng, 5)
    gross = float(n * np.linalg.norm(a) * np.linalg.norm(b))
    assert spectral_norm(A.T @ B) <= 1e-9  # exact cancellation, huge mass
    tol = 1e-9 * gross * float(np.linalg.norm(u) * np.linalg.norm(v))
    hits = sum(abs(estimate(A, B, u, v, k=16, seed=s)) <= tol
               for s in range(200))
    assert hits >= 170

    rng = np.random.default_rng(612)
    state = ts_new(4, seed=23)
    a = _crandn(rng, 3)
    b = _crandn(rng, 3)
    out = ts_pair(state, a, b)
    h1, h2, s1, s2 = state.tables(3)
    oracle = np.zeros(4, dtype=complex)
    for i in range(3):
        for j in range(3):
            oracle[(h1[i] + h2[j]) % 4] += s1[i] * s2[j] * a[i] * b[j]
    assert np.max(np.abs(out - oracle)) <= 1e-12
    assert time.perf_counter() - start < 60.0


# ---------------------------------------------------------------------------
# 12. CLI reproducibility: fixed config + seed => byte-identical CSVs
# ---------------------------------------------------------------------------


_CLI_CONFIGS = {
    "optimize": """
subcommand = optimize
dataset = synth:n=200,d=8,heavy_rows=40,heavy_scale=100
algorithm = newton_mr
schemes = full,ls
sample_size = 60
seeds = 2
loss = nlls_classification
lambda_policy = convex_auto
max_outer = 25
grad_tol = 1e-6
""",
    "lpreg": """
subcommand = lpreg
n = 40
d = 8
p = 1
t_values = 2,4
seeds = 2
zero_residual = true
""",
    "vmv": """
subcommand = vmv
rows = 30
cols = 4
instance = gaussian
k_values = 8,16
seeds = 3
reps = 1
""",
    "scores": """
subcommand = scores
dataset = synth:n=120,d=6,heavy_rows=12,heavy_scale=50
loss = nlls_classification
""",
}


def _csv_digests(out_dir):
    digests = {}
    for path in sorted(out_dir.glob("*.csv")):
        digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def test_criterion_12_cli_outputs_are_byte_identical_across_reruns(tmp_path):
    start = time.perf_counter()
    for sub, body in _CLI_CONFIGS.items():
        cfg = tmp_path / f"{sub}.cfg"
        cfg.write_text(body, encoding="utf-8")
        runs = []
        for tag in ("one", "two"):
            out = tmp_path / f"{sub}_{tag}"
            code = bench_main([sub, "--config", str(cfg),
                               "--out", str(out), "--seed", "5"])
            assert code == 0
            digests = _csv_digests(out)
            assert digests  # every run writes at least one CSV
            runs.append(digests)
        assert runs[0] == runs[1]
    assert time.perf_counter() - start < 60.0
