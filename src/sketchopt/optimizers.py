"""Newton-type optimizers driven by full or sketched Hessian-vector products.

Three outer loops share one configuration type and one trace type:

- ``newton_cg``: conjugate-gradient Newton steps with Armijo backtracking on
  the objective.
- ``newton_mr``: minimum-norm least-squares steps (suitable for indefinite or
  singular Hessians) with backtracking on the squared gradient norm.
- ``trust_region``: CG-Steihaug subproblem steps with ratio-based
  accept/reject and geometric radius updates.

Each outer iteration rebuilds the Hessian sketch at the current iterate from
the configured sampling scheme (rejected trust-region steps reuse the sketch
so the acceptance ratio compares like with like).  All oracle work is charged
to an OracleMeter in function-evaluation units; traces record the cumulative
meter alongside objective and gradient-norm values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .hessian_oracle import (
    FiniteSumProblem,
    OracleMeter,
    grad,
    hessp_full,
    hessp_sketched,
    sketched_hessian,
    value,
)
from .hybrid_sampling import ls_det_fraction_plan
from .sketch_sampling import build_sampling_sketch, scheme_probabilities

_SAMPLING_SCHEMES = ("uniform", "ls", "rn", "ls-mx", "rn-mx")
_ALL_SCHEMES = ("full",) + _SAMPLING_SCHEMES + ("ls-det",)

_MAX_HALVINGS = 30
_RADIUS_FLOOR = 1e-16


@dataclass(frozen=True)
class OptConfig:
    """Shared knobs for the three outer loops.

    ``scheme`` picks the Hessian estimator: "full" (exact products), one of
    the sampling schemes ("uniform", "ls", "rn", "ls-mx", "rn-mx"), or
    "ls-det" (deterministic top-leverage rows plus sampled remainder, split
    by ``ls_det_fraction``).  Sampling schemes require ``sample_size``.
    """

    scheme: str = "full"
    sample_size: int | None = None
    max_outer: int = 100
    max_oracle_calls: int | None = None
    inner_cap: int = 100
    inner_tol: float = 1e-8
    line_search_rho: float = 1e-4
    tr_delta0: float = 1.0
    tr_eta: float = 0.8
    tr_gamma: float = 1.2
    grad_tol: float = 1e-8
    seed: int = 0
    ls_det_fraction: float = 0.5
    remainder_mode: str = "leverage"
    keep_iterates: bool = False

    def __post_init__(self):
        scheme = self.scheme.strip().lower().replace("_", "-")
        object.__setattr__(self, "scheme", scheme)
        if scheme not in _ALL_SCHEMES:
            raise ValueError(f"OptConfig: unknown scheme {self.scheme!r}")
        if scheme != "full" and (self.sample_size is None or self.sample_size < 1):
            raise ValueError(
                f"OptConfig: scheme {scheme!r} requires sample_size >= 1"
            )
        if not 0.0 < self.line_search_rho < 1.0:
            raise ValueError("OptConfig: line_search_rho must be in (0, 1)")
        if not 0.0 < self.tr_eta < 1.0:
            raise ValueError("OptConfig: tr_eta must be in (0, 1)")
        if self.tr_gamma <= 1.0:
            raise ValueError("OptConfig: tr_gamma must be > 1")
        if self.max_outer < 1:
            raise ValueError("OptConfig: max_outer must be >= 1")
        if not 0.0 <= self.ls_det_fraction <= 1.0:
            raise ValueError("OptConfig: ls_det_fraction must be in [0, 1]")


@dataclass
class OptTrace:
    """Per-iteration records of one optimizer run.

    Parallel lists, one entry per outer-iteration record: ``iteration``,
    cumulative ``oracle_calls``, ``objective`` and ``grad_norm`` at the
    current iterate, ``step_or_radius`` (line-search step size, or the
    trust-region radius in effect after the update), and the ``accepted``
    flag.  ``status`` is one of converged / max_outer / budget /
    line_search_failed / radius_underflow.
    """

    algorithm: str
    iteration: list = field(default_factory=list)
    oracle_calls: list = field(default_factory=list)
    objective: list = field(default_factory=list)
    grad_norm: list = field(default_factory=list)
    step_or_radius: list = field(default_factory=list)
    accepted: list = field(default_factory=list)
    status: str = "running"
    flags: list = field(default_factory=list)
    iterates: list = field(default_factory=list)
    x_final: np.ndarray | None = None

    def record(self, iteration: int, calls: int, objective: float,
               grad_norm: float, step_or_radius: float, accepted: bool) -> None:
        self.iteration.append(int(iteration))
        self.oracle_calls.append(int(calls))
        self.objective.append(float(objective))
        self.grad_norm.append(float(grad_norm))
        self.step_or_radius.append(float(step_or_radius))
        self.accepted.append(bool(accepted))

    def rows(self):
        """(iteration, oracle_calls, objective, grad_norm, step_or_radius, accepted)."""
        return list(zip(self.iteration, self.oracle_calls, self.objective,
                        self.grad_norm, self.step_or_radius,
                        [int(a) for a in self.accepted]))

    @property
    def final_objective(self) -> float:
        return self.objective[-1]

    @property
    def final_grad_norm(self) -> float:
        return self.grad_norm[-1]


# ---------------------------------------------------------------------------
# inner solvers (operator-product access only)
# ---------------------------------------------------------------------------


def cg_solve(hessp, g, cap: int = 100, tol: float = 1e-8) -> np.ndarray:
    """Conjugate gradients on H p = -g; falls back on negative curvature.

    Returns the current iterate when d^T H d <= 0 appears mid-run, and the
    steepest-descent direction -g when it appears on the first iteration.
    """
    g = np.asarray(g, dtype=float)
    gnorm = np.linalg.norm(g)
    if gnorm == 0.0:
        return np.zeros_like(g)
    p = np.zeros_like(g)
    r = -g
    d = r.copy()
    rs = float(r @ r)
    for j in range(cap):
        Hd = np.asarray(hessp(d))
        kappa = float(d @ Hd)
        if kappa <= 0.0:
            return -g if j == 0 else p
        alpha = rs / kappa
        p = p + alpha * d
        r = r - alpha * Hd
        rs_new = float(r @ r)
        if math.sqrt(rs_new) <= tol * gnorm:
            break
        d = r + (rs_new / rs) * d
        rs = rs_new
    return p


def minnorm_lsq(hessp, g, cap: int = 100, tol: float = 1e-8) -> np.ndarray:
    """Minimum-norm least-squares step -H^+ g for symmetric H.

    Conjugate gradients on the normal equations (CGLS) started from zero:
    iterates stay in range(H), so the converged point is the pseudoinverse
    solution, with exact zero along the kernel.
    """
    g = np.asarray(g, dtype=float)
    if not np.any(g):
        return np.zeros_like(g)
    x = np.zeros_like(g)
    r = -g  # residual of H x = -g at x = 0
    s = np.asarray(hessp(r))
    gamma = float(s @ s)
    snorm0 = math.sqrt(gamma)
    if snorm0 == 0.0:
        return x  # g entirely in the kernel: -H^+ g = 0
    d = s.copy()
    for _ in range(cap):
        q = np.asarray(hessp(d))
        delta = float(q @ q)
        if delta <= 0.0:
            break
        alpha = gamma / delta
        x = x + alpha * d
        r = r - alpha * q
        s = np.asarray(hessp(r))
        gamma_new = float(s @ s)
        if math.sqrt(gamma_new) <= tol * snorm0:
            break
        d = s + (gamma_new / gamma) * d
        gamma = gamma_new
    return x


def _boundary_tau(z, d, radius: float) -> float:
    """Positive root of ||z + tau d|| = radius along direction d."""
    dd = float(d @ d)
    zd = float(z @ d)
    zz = float(z @ z)
    disc = zd * zd + dd * (radius * radius - zz)
    return (-zd + math.sqrt(max(disc, 0.0))) / dd


def cg_steihaug(hessp, g, radius: float, cap: int = 100,
                tol: float = 1e-8) -> np.ndarray:
    """Steihaug-Toint CG for min g^T p + 0.5 p^T H p subject to ||p|| <= radius.

    Stops at the boundary crossing when negative curvature appears or an
    iterate exits the ball; the returned step always has nonpositive model
    value and norm at most radius (+1e-12 rounding slack).
    """
    if radius <= 0.0:
        raise ValueError("cg_steihaug: radius must be positive")
    g = np.asarray(g, dtype=float)
    gnorm = np.linalg.norm(g)
    if gnorm == 0.0:
        return np.zeros_like(g)
    z = np.zeros_like(g)
    r = g.copy()
    d = -g
    rs = float(r @ r)
    for _ in range(cap):
        Hd = np.asarray(hessp(d))
        kappa = float(d @ Hd)
        if kappa <= 0.0:
            return z + _boundary_tau(z, d, radius) * d
        alpha = rs / kappa
        z_new = z + alpha * d
        if np.linalg.norm(z_new) >= radius:
            return z + _boundary_tau(z, d, radius) * d
        z = z_new
        r = r + alpha * Hd
        rs_new = float(r @ r)
        if math.sqrt(rs_new) <= tol * gnorm:
            return z
        d = -r + (rs_new / rs) * d
        rs = rs_new
    return z


def model_reduction_ratio(actual: float, predicted: float,
                          step_norm: float) -> tuple[float, bool]:
    """Trust-region ratio rho = actual/predicted with the degenerate rule.

    A zero-predicted-decrease, zero-step subproblem output counts as a
    degenerate success (rho = 1, flagged) so the radius can grow past the
    stall; zero predicted decrease with movement is an automatic reject.
    """
    if predicted == 0.0:
        if step_norm == 0.0 and actual == 0.0:
            return 1.0, True
        return -math.inf, False
    return actual / predicted, False


# ---------------------------------------------------------------------------
# scheme -> Hessian-operator factory
# ---------------------------------------------------------------------------


def _make_hessp(problem: FiniteSumProblem, x, config: OptConfig, seed,
                meter: OracleMeter, cache: dict, trace: OptTrace):
    """Closure v -> H_sketched v at iterate x, charged to the meter."""
    if config.scheme == "full":
        dvec = problem.loss.f2(problem.A @ x, problem.labels)
        return lambda v: hessp_full(problem, x, v, meter=meter, dvec=dvec)
    if config.scheme == "ls-det":
        dvec = problem.d_diag(x, meter=meter)
        B = np.sqrt(np.abs(dvec))[:, None] * problem.A
        # one leverage computation (d units) for the top-fraction selection,
        # one more when the remainder is itself leverage-sampled
        k_det = round(config.ls_det_fraction * config.sample_size)
        units = problem.d if k_det > 0 else 0
        if config.sample_size - k_det > 0 and config.remainder_mode == "leverage":
            units += problem.d
        meter.add(units)
        plan = ls_det_fraction_plan(
            B, budget=config.sample_size, fraction=config.ls_det_fraction,
            remainder_mode=config.remainder_mode, seed=seed,
        )
        op = sketched_hessian(problem, x, plan, dvec=dvec)
        return lambda v: hessp_sketched(problem, x, v, op, meter=meter)
    result = scheme_probabilities(problem, x, config.scheme, meter=meter,
                                  cache=cache)
    if result.fell_back:
        trace.flags.append(f"scheme_{config.scheme}_fell_back_to_uniform")
    sketch = build_sampling_sketch(result.probs, config.sample_size, seed=seed)
    op = sketched_hessian(problem, x, sketch)
    return lambda v: hessp_sketched(problem, x, v, op, meter=meter)


def _iteration_seed(root: np.random.SeedSequence, k: int):
    """The seed of outer iteration k, equal to ``root.spawn(max_outer)[k-1]``.

    Derived from the index rather than by a stateful ``spawn(1)``: trust
    region draws a seed only when it rebuilds the sketch, and the skipped
    indices must not shift the later children.
    """
    return np.random.SeedSequence(root.entropy,
                                  spawn_key=root.spawn_key + (k - 1,),
                                  pool_size=root.pool_size)


def _within_budget(config: OptConfig, meter: OracleMeter) -> bool:
    return (config.max_oracle_calls is None
            or meter.function_evals < config.max_oracle_calls)


# ---------------------------------------------------------------------------
# outer loops
# ---------------------------------------------------------------------------


def newton_cg(problem: FiniteSumProblem, config: OptConfig) -> OptTrace:
    """Newton-CG with backtracking Armijo line search on the objective.

    Terminates on grad_tol, oracle budget, outer-iteration cap, or
    line-search exhaustion (30 halvings).  Accepted objective values are
    non-increasing by the Armijo condition.
    """
    meter = OracleMeter()
    trace = OptTrace(algorithm="newton_cg")
    cache: dict = {}
    root = np.random.SeedSequence(config.seed)
    x = np.zeros(problem.d)
    F = value(problem, x, meter=meter)
    g = grad(problem, x, meter=meter)
    trace.record(0, meter.function_evals, F, np.linalg.norm(g), 0.0, True)
    if config.keep_iterates:
        trace.iterates.append(x.copy())
    status = "max_outer"
    for k in range(1, config.max_outer + 1):
        if np.linalg.norm(g) <= config.grad_tol:
            status = "converged"
            break
        if not _within_budget(config, meter):
            status = "budget"
            break
        hp = _make_hessp(problem, x, config, _iteration_seed(root, k),
                         meter, cache, trace)
        p = cg_solve(hp, g, cap=config.inner_cap, tol=config.inner_tol)
        slope = float(p @ g)
        alpha = 1.0
        accepted = False
        for _ in range(_MAX_HALVINGS + 1):
            F_new = value(problem, x + alpha * p, meter=meter)
            if F_new <= F + config.line_search_rho * alpha * slope:
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            status = "line_search_failed"
            trace.flags.append(f"line_search_exhausted_iter_{k}")
            break
        x = x + alpha * p
        F = F_new
        g = grad(problem, x, meter=meter)
        trace.record(k, meter.function_evals, F, np.linalg.norm(g), alpha, True)
        if config.keep_iterates:
            trace.iterates.append(x.copy())
    if status == "max_outer" and np.linalg.norm(g) <= config.grad_tol:
        status = "converged"
    trace.status = status
    trace.x_final = x
    return trace


def newton_mr(problem: FiniteSumProblem, config: OptConfig) -> OptTrace:
    """Newton-MR: minimum-norm least-squares steps, gradient-norm line search.

    The step is -H^+ g on the sketched operator; backtracking enforces
    ||g(x + a p)||^2 <= ||g||^2 + 2 rho a <p, H g>, so accepted gradient
    norms never increase.  Objective values are recorded for the trace
    without charging the meter (the algorithm itself never consumes F).
    """
    meter = OracleMeter()
    trace = OptTrace(algorithm="newton_mr")
    cache: dict = {}
    root = np.random.SeedSequence(config.seed)
    x = np.zeros(problem.d)
    g = grad(problem, x, meter=meter)
    trace.record(0, meter.function_evals, value(problem, x),
                 np.linalg.norm(g), 0.0, True)
    if config.keep_iterates:
        trace.iterates.append(x.copy())
    status = "max_outer"
    for k in range(1, config.max_outer + 1):
        if np.linalg.norm(g) <= config.grad_tol:
            status = "converged"
            break
        if not _within_budget(config, meter):
            status = "budget"
            break
        hp = _make_hessp(problem, x, config, _iteration_seed(root, k),
                         meter, cache, trace)
        p = minnorm_lsq(hp, g, cap=config.inner_cap, tol=config.inner_tol)
        slope = float(p @ np.asarray(hp(g)))
        gsq = float(g @ g)
        alpha = 1.0
        accepted = False
        for _ in range(_MAX_HALVINGS + 1):
            g_new = grad(problem, x + alpha * p, meter=meter)
            if float(g_new @ g_new) <= gsq + 2.0 * config.line_search_rho \
                    * alpha * slope:
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            status = "line_search_failed"
            trace.flags.append(f"line_search_exhausted_iter_{k}")
            break
        x = x + alpha * p
        g = g_new
        trace.record(k, meter.function_evals, value(problem, x),
                     np.linalg.norm(g), alpha, True)
        if config.keep_iterates:
            trace.iterates.append(x.copy())
    if status == "max_outer" and np.linalg.norm(g) <= config.grad_tol:
        status = "converged"
    trace.status = status
    trace.x_final = x
    return trace


def trust_region(problem: FiniteSumProblem, config: OptConfig) -> OptTrace:
    """Trust region with CG-Steihaug steps and geometric radius updates.

    Ratio rho = (F(x+p) - F(x)) / m(p) against threshold tr_eta; accepted
    steps grow the radius by tr_gamma and rebuild the Hessian sketch at the
    new iterate, rejections shrink the radius and reuse the sketch.  A radius
    below 1e-16 terminates with status "radius_underflow".
    """
    meter = OracleMeter()
    trace = OptTrace(algorithm="trust_region")
    cache: dict = {}
    root = np.random.SeedSequence(config.seed)
    x = np.zeros(problem.d)
    F = value(problem, x, meter=meter)
    g = grad(problem, x, meter=meter)
    delta = config.tr_delta0
    trace.record(0, meter.function_evals, F, np.linalg.norm(g), delta, True)
    if config.keep_iterates:
        trace.iterates.append(x.copy())
    hp = None
    status = "max_outer"
    for k in range(1, config.max_outer + 1):
        if np.linalg.norm(g) <= config.grad_tol:
            status = "converged"
            break
        if not _within_budget(config, meter):
            status = "budget"
            break
        if delta < _RADIUS_FLOOR:
            status = "radius_underflow"
            trace.flags.append(f"radius_underflow_iter_{k}")
            break
        if hp is None:
            hp = _make_hessp(problem, x, config, _iteration_seed(root, k),
                             meter, cache, trace)
        p = cg_steihaug(hp, g, delta, cap=config.inner_cap,
                        tol=config.inner_tol)
        m = float(g @ p + 0.5 * p @ np.asarray(hp(p)))
        F_new = value(problem, x + p, meter=meter)
        rho, degenerate = model_reduction_ratio(F_new - F, m,
                                                float(np.linalg.norm(p)))
        if degenerate:
            trace.flags.append(f"degenerate_model_iter_{k}")
        if rho >= config.tr_eta:
            if np.linalg.norm(p) > 0.0:
                x = x + p
                F = F_new
                g = grad(problem, x, meter=meter)
                hp = None
            delta *= config.tr_gamma
            trace.record(k, meter.function_evals, F, np.linalg.norm(g),
                         delta, True)
        else:
            delta /= config.tr_gamma
            trace.record(k, meter.function_evals, F, np.linalg.norm(g),
                         delta, False)
        if config.keep_iterates:
            trace.iterates.append(x.copy())
    if status == "max_outer" and np.linalg.norm(g) <= config.grad_tol:
        status = "converged"
    trace.status = status
    trace.x_final = x
    return trace
