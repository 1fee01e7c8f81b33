"""Newton-type optimizers driven by full or sketched Hessian-vector products.

One outer-loop driver, ``_drive``, runs the three solvers under one
configuration type and one trace type.  It owns the oracle meter, the
trace, the per-iteration seeds, the grad_tol and budget stops and the final
status, and builds the Hessian operator at the current iterate, from the
configured scheme, when a step first asks for it.  Each solver supplies only
its step-and-accept rule:

- ``newton_cg``: a conjugate-gradient Newton step with Armijo backtracking
  on the objective.
- ``newton_mr``: a minimum-norm least-squares step (suitable for indefinite
  or singular Hessians) with backtracking on the squared gradient norm.
- ``trust_region``: a CG-Steihaug step with ratio-based accept/reject and
  geometric radius updates.  A rejected step keeps the iterate and so its
  operator, and the acceptance ratio compares like with like.

All oracle work is charged to an OracleMeter in function-evaluation units;
traces record the cumulative meter alongside objective and gradient-norm
values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import hessian_oracle
from .core_complex import check_int, child_seed
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
from .sketch_sampling import (SAMPLING_SCHEMES, build_sampling_sketch,
                              canonical_scheme, scheme_probabilities)

_MAX_HALVINGS = 30
_LINE_SEARCH_RHO = 1e-4  # sufficient-decrease constant of both line searches
_RADIUS_FLOOR = 1e-16


@dataclass(frozen=True)
class OptConfig:
    """Shared knobs for the three solvers.

    ``scheme`` picks the Hessian estimator: "full" (exact products), one of
    the sampling schemes ("uniform", "ls", "rn", "ls-mx", "rn-mx"), or
    "ls-det" (deterministic top-leverage rows plus a leverage-sampled
    remainder, split by ``ls_det_fraction``), spelled as by
    ``canonical_scheme`` (``_`` reads as ``-``).  Sampling schemes require
    ``sample_size``.  Sizes, caps, the budget and the seed are integers.
    """

    scheme: str = "full"
    sample_size: int | None = None
    max_outer: int = 100
    max_oracle_calls: int | None = None
    inner_cap: int = 100
    inner_tol: float = 1e-8
    tr_delta0: float = 1.0
    tr_eta: float = 0.8
    tr_gamma: float = 1.2
    grad_tol: float = 1e-8
    seed: int = 0
    ls_det_fraction: float = 0.5

    def __post_init__(self):
        scheme = canonical_scheme(self.scheme)
        if scheme not in ("full", "ls-det") + SAMPLING_SCHEMES:
            raise ValueError(f"OptConfig: unknown scheme {self.scheme!r}")
        object.__setattr__(self, "scheme", scheme)
        for name, floor in (("max_outer", 1), ("inner_cap", 1), ("seed", 0)):
            check_int(getattr(self, name), f"OptConfig: {name}", floor)
        for name, floor in (("sample_size", None), ("max_oracle_calls", 0)):
            if getattr(self, name) is not None:
                check_int(getattr(self, name), f"OptConfig: {name}", floor)
        if scheme != "full" and (self.sample_size is None or self.sample_size < 1):
            raise ValueError(
                f"OptConfig: scheme {scheme!r} requires sample_size >= 1"
            )
        if not 0.0 < self.tr_eta < 1.0:
            raise ValueError("OptConfig: tr_eta must be in (0, 1)")
        if not (math.isfinite(self.tr_gamma) and self.tr_gamma > 1.0):
            raise ValueError("OptConfig: tr_gamma must be finite and > 1")
        if not (math.isfinite(self.tr_delta0) and self.tr_delta0 > 0.0):
            raise ValueError("OptConfig: tr_delta0 must be finite and > 0")
        for name in ("inner_tol", "grad_tol"):
            tol = getattr(self, name)
            if not (math.isfinite(tol) and tol >= 0.0):
                raise ValueError(f"OptConfig: {name} must be finite and >= 0")
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


# ---------------------------------------------------------------------------
# inner solvers (operator-product access only)
# ---------------------------------------------------------------------------


def _cg(hessp, g, cap: int, tol: float, radius: float | None = None):
    """CG on H p = -g from p = 0 to a residual of ``tol`` ||g||.  On
    d^T H d <= 0 it returns -g at the first iteration and p after it, or,
    given a ``radius``, the boundary crossing along d, as it does for a step
    that would leave the ball."""
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
            if radius is None:
                return -g if j == 0 else p
            return p + _boundary_tau(p, d, radius) * d
        alpha = rs / kappa
        p_new = p + alpha * d
        if radius is not None and np.linalg.norm(p_new) >= radius:
            return p + _boundary_tau(p, d, radius) * d
        p = p_new
        r = r - alpha * Hd
        rs_new = float(r @ r)
        if math.sqrt(rs_new) <= tol * gnorm:
            break
        d = r + (rs_new / rs) * d
        rs = rs_new
    return p


def cg_solve(hessp, g, cap: int = 100, tol: float = 1e-8) -> np.ndarray:
    """Conjugate gradients on H p = -g; falls back on negative curvature.

    Returns the current iterate when d^T H d <= 0 appears mid-run, and the
    steepest-descent direction -g when it appears on the first iteration.
    """
    return _cg(hessp, g, cap, tol)


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
    return _cg(hessp, g, cap, tol, radius)


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
        dvec = hessian_oracle.d_diag(problem, x, meter=meter)
        B = np.sqrt(np.abs(dvec))[:, None] * problem.A
        plan = ls_det_fraction_plan(
            B, budget=config.sample_size, fraction=config.ls_det_fraction,
            remainder_mode="leverage", seed=seed,
        )
        # d units per leverage computation made: top rows, sampled remainder
        meter.add(problem.d * ((plan.deterministic_rows.size > 0)
                               + (len(plan.sampled) > 0)))
        op = sketched_hessian(problem, x, plan, dvec=dvec)
        return lambda v: hessp_sketched(op, v, meter=meter)
    result = scheme_probabilities(problem, x, config.scheme, meter=meter,
                                  cache=cache)
    if result.fell_back:
        trace.flags.append(f"scheme_{config.scheme}_fell_back_to_uniform")
    sketch = build_sampling_sketch(result.probs, config.sample_size, seed=seed)
    op = sketched_hessian(problem, x, sketch)
    return lambda v: hessp_sketched(op, v, meter=meter)


def _iteration_seed(root: np.random.SeedSequence, k: int):
    """The seed of outer iteration k, equal to ``root.spawn(max_outer)[k-1]``.

    Derived from the index: trust region draws a seed only when it rebuilds
    the sketch, and the skipped indices must not shift the later children.
    """
    return child_seed(root, k - 1)


# ---------------------------------------------------------------------------
# the outer-loop driver and its step rules
# ---------------------------------------------------------------------------


class _Run:
    """One solver run: the current iterate plus what a step rule needs."""

    def __init__(self, problem: FiniteSumProblem, config: OptConfig,
                 algorithm: str, charge_objective: bool):
        self.problem = problem
        self.config = config
        self.meter = OracleMeter()
        self.trace = OptTrace(algorithm=algorithm)
        self.x = np.zeros(problem.d)
        self.F = value(problem, self.x,
                       meter=self.meter if charge_objective else None)
        self.g = grad(problem, self.x, meter=self.meter)
        self._root = np.random.SeedSequence(config.seed)
        self._cache: dict = {}
        self._hp = None

    def hessp(self, k: int):
        """The Hessian operator at the current iterate, built on first use
        with the seed of iteration k."""
        if self._hp is None:
            self._hp = _make_hessp(self.problem, self.x, self.config,
                                   _iteration_seed(self._root, k), self.meter,
                                   self._cache, self.trace)
        return self._hp

    def move(self, x, F: float, g) -> None:
        self.x, self.F, self.g = x, F, g
        self._hp = None

    def record(self, k: int, step_or_radius: float, accepted: bool) -> None:
        self.trace.record(k, self.meter.function_evals, self.F,
                          np.linalg.norm(self.g), step_or_radius, accepted)


def _drive(problem: FiniteSumProblem, config: OptConfig, algorithm: str, step,
           initial_step: float = 0.0,
           charge_objective: bool = True) -> OptTrace:
    """The outer loop shared by the three solvers.

    Starts at x = 0 and, before every iteration k, stops on ``grad_tol`` or
    on the oracle budget.  ``step(run, k)`` then either returns the
    ``(step_or_radius, accepted)`` pair to record for iteration k, or the
    status that ends the run.  A run that uses all ``max_outer`` iterations
    and ends within ``grad_tol`` counts as converged.
    """
    run = _Run(problem, config, algorithm, charge_objective)
    run.record(0, initial_step, True)
    status = "max_outer"
    for k in range(1, config.max_outer + 1):
        if np.linalg.norm(run.g) <= config.grad_tol:
            status = "converged"
            break
        if (config.max_oracle_calls is not None
                and run.meter.function_evals >= config.max_oracle_calls):
            status = "budget"
            break
        outcome = step(run, k)
        if isinstance(outcome, str):
            status = outcome
            break
        run.record(k, *outcome)
    if status == "max_outer" and np.linalg.norm(run.g) <= config.grad_tol:
        status = "converged"
    run.trace.status = status
    run.trace.x_final = run.x
    return run.trace


def _backtrack(run: _Run, k: int, p, evaluate, sufficient):
    """Backtracking line search from the current iterate along p.

    Tries alpha = 1, 1/2, ... (30 halvings) and returns ``(alpha, out)`` for
    the first alpha with ``sufficient(alpha, out)``, where
    ``out = evaluate(x + alpha p)``.  Returns None, and flags the trace, when
    every halving fails.
    """
    alpha = 1.0
    for _ in range(_MAX_HALVINGS + 1):
        out = evaluate(run.x + alpha * p)
        if sufficient(alpha, out):
            return alpha, out
        alpha *= 0.5
    run.trace.flags.append(f"line_search_exhausted_iter_{k}")
    return None


def newton_cg(problem: FiniteSumProblem, config: OptConfig) -> OptTrace:
    """Newton-CG with backtracking Armijo line search on the objective.

    Terminates on grad_tol, oracle budget, outer-iteration cap, or
    line-search exhaustion (30 halvings).  Accepted objective values are
    non-increasing by the Armijo condition.
    """
    def step(run, k):
        p = cg_solve(run.hessp(k), run.g, cap=config.inner_cap,
                     tol=config.inner_tol)
        slope = float(p @ run.g)
        found = _backtrack(
            run, k, p, lambda y: value(problem, y, meter=run.meter),
            lambda alpha, F_new:
                F_new <= run.F + _LINE_SEARCH_RHO * alpha * slope)
        if found is None:
            return "line_search_failed"
        alpha, F_new = found
        x = run.x + alpha * p
        run.move(x, F_new, grad(problem, x, meter=run.meter))
        return alpha, True

    return _drive(problem, config, "newton_cg", step)


def newton_mr(problem: FiniteSumProblem, config: OptConfig) -> OptTrace:
    """Newton-MR: minimum-norm least-squares steps, gradient-norm line search.

    The step is -H^+ g on the sketched operator; backtracking enforces
    ||g(x + a p)||^2 <= ||g||^2 + 2 rho a <p, H g>, so accepted gradient
    norms never increase.  Objective values are recorded for the trace
    without charging the meter (the algorithm itself never consumes F).
    """
    def step(run, k):
        hp = run.hessp(k)
        p = minnorm_lsq(hp, run.g, cap=config.inner_cap, tol=config.inner_tol)
        slope = float(p @ np.asarray(hp(run.g)))
        gsq = float(run.g @ run.g)
        found = _backtrack(
            run, k, p, lambda y: grad(problem, y, meter=run.meter),
            lambda alpha, g_new: float(g_new @ g_new)
                <= gsq + 2.0 * _LINE_SEARCH_RHO * alpha * slope)
        if found is None:
            return "line_search_failed"
        alpha, g_new = found
        x = run.x + alpha * p
        run.move(x, value(problem, x), g_new)
        return alpha, True

    return _drive(problem, config, "newton_mr", step, charge_objective=False)


def trust_region(problem: FiniteSumProblem, config: OptConfig) -> OptTrace:
    """Trust region with CG-Steihaug steps and geometric radius updates.

    Ratio rho = (F(x+p) - F(x)) / m(p) against threshold tr_eta; accepted
    steps grow the radius by tr_gamma and rebuild the Hessian sketch at the
    new iterate, rejections shrink the radius and reuse the sketch.  A radius
    below 1e-16 terminates with status "radius_underflow".
    """
    delta = config.tr_delta0

    def step(run, k):
        nonlocal delta
        if delta < _RADIUS_FLOOR:
            run.trace.flags.append(f"radius_underflow_iter_{k}")
            return "radius_underflow"
        hp = run.hessp(k)
        p = cg_steihaug(hp, run.g, delta, cap=config.inner_cap,
                        tol=config.inner_tol)
        m = float(run.g @ p + 0.5 * p @ np.asarray(hp(p)))
        F_new = value(problem, run.x + p, meter=run.meter)
        p_norm = float(np.linalg.norm(p))
        rho, degenerate = model_reduction_ratio(F_new - run.F, m, p_norm)
        if degenerate:
            run.trace.flags.append(f"degenerate_model_iter_{k}")
        if rho >= config.tr_eta:
            if p_norm > 0.0:
                x = run.x + p
                run.move(x, F_new, grad(problem, x, meter=run.meter))
            delta *= config.tr_gamma
            return delta, True
        delta /= config.tr_gamma
        return delta, False

    return _drive(problem, config, "trust_region", step, initial_step=delta)
