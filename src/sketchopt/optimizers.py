"""Newton-type optimizers driven by full or sketched Hessian-vector products.

One outer-loop driver, ``_drive``, runs the three solvers under one
configuration type and one trace type.  It owns the grad_tol and budget
stops and the final status; its run, ``_Run``, owns the oracle meter, the
trace and the per-iteration seeds, and builds the Hessian operator at the
current iterate, from the configured scheme, when a step first asks for it.
Each solver supplies only its step-and-accept rule:

- ``newton_cg``: a conjugate-gradient Newton step with Armijo backtracking
  on the objective.
- ``newton_mr``: a minimum-norm least-squares step (suitable for indefinite
  or singular Hessians) with backtracking on the squared gradient norm.
  ``minnorm_lsq`` computes the step by the MINRES-QLP recurrence: one
  Hessian product per inner iteration, at most ``inner_cap`` iterations,
  and a stop once ||H r|| <= inner_tol ||H g|| for the residual
  r = -g - H p, on a Lanczos breakdown, or when the Krylov subproblem is
  numerically singular.
- ``trust_region``: a CG-Steihaug step with ratio-based accept/reject and
  geometric radius updates.  A rejection keeps the iterate and operator, so
  the ratio compares like with like, and replays the CG path of the
  operator's first solve, which holds the step for every smaller radius: it
  costs one objective evaluation and one product, for the model value.

All oracle work is charged to an OracleMeter in function-evaluation units;
traces record the cumulative meter alongside objective and gradient-norm
values.
The public inner solvers raise ValueError unless ``cap`` is an integer
>= 1 and ``tol`` is finite and >= 0, and ``cg_steihaug`` unless its
``radius`` is finite and > 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import hessian_oracle
from .core_complex import check_int, check_real, check_seed, child_seed
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
# MINRES-QLP, relative to ||T||: the rounding level of a Lanczos breakdown
# and of a zero diagonal of L, and the factor on tol at which the last
# diagonal of L also counts as zero.  On a singular H that diagonal falls
# about as fast as ||H r|| / ||H g||, so a rank test a decade above tol
# drops the near-null direction by the time the tol test passes.
_QLP_ROUNDING = 100 * np.finfo(float).eps
_QLP_RANK_SLACK = 10.0


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
        check_real(self.tr_eta, "OptConfig: tr_eta", 0, 1, strict=True)
        check_real(self.tr_gamma, "OptConfig: tr_gamma", 1, strict=True)
        check_real(self.tr_delta0, "OptConfig: tr_delta0", 0, strict=True)
        for name in ("inner_tol", "grad_tol"):
            check_real(getattr(self, name), f"OptConfig: {name}", 0)
        check_real(self.ls_det_fraction, "OptConfig: ls_det_fraction", 0, 1)


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


def _cg(hessp, g, cap: int, tol: float):
    """CG on H p = -g from p = 0, one (p_j, d_j, p_{j+1}) per iteration.

    p_{j+1} is None where d_j^T H d_j <= 0, and the iterations stop there,
    at a residual of ``tol`` ||g||, or after ``cap`` (none when g = 0).
    Each takes its one product with H before its yield."""
    g = np.asarray(g, dtype=float)
    gnorm = math.sqrt(float(g @ g))
    p = np.zeros_like(g)
    r = -g
    d = r.copy()
    rs = float(r @ r)
    for _ in range(0 if gnorm == 0.0 else cap):
        Hd = np.asarray(hessp(d))
        kappa = float(d @ Hd)
        if kappa <= 0.0:
            yield p, d, None
            return
        alpha = rs / kappa
        p_new = p + alpha * d
        yield p, d, p_new
        p = p_new
        r = r - alpha * Hd
        rs_new = float(r @ r)
        if math.sqrt(rs_new) <= tol * gnorm:
            return
        d = r + (rs_new / rs) * d
        rs = rs_new


def cg_solve(hessp, g, cap: int = 100, tol: float = 1e-8) -> np.ndarray:
    """Conjugate gradients on H p = -g; falls back on negative curvature.

    Returns the current iterate when d^T H d <= 0 appears mid-run, and the
    steepest-descent direction -g when it appears on the first iteration.
    """
    check_int(cap, "cg_solve: cap", 1)
    check_real(tol, "cg_solve: tol", 0)
    g = np.asarray(g, dtype=float)
    p = np.zeros_like(g)
    for j, (z, _, z_next) in enumerate(_cg(hessp, g, cap, tol)):
        if z_next is None:
            return -g if j == 0 else z
        p = z_next
    return p


def _reflect(a: float, b: float):
    """The reflection [[c, s], [s, -c]] that maps (a, b) to (r, 0), r >= 0."""
    r = math.hypot(a, b)
    if r == 0.0:
        return 1.0, 0.0, 0.0
    return a / r, b / r, r


def minnorm_lsq(hessp, g, cap: int = 100, tol: float = 1e-8) -> np.ndarray:
    """Minimum-norm least-squares step -H^+ g for symmetric H, by MINRES-QLP.

    MINRES-QLP (Choi, Paige & Saunders, SIAM J. Sci. Comput. 2011) on
    H p = -g from p = 0.  The Lanczos process gives H V_k = V_{k+1} T_k;
    left reflections reduce T_k to upper-triangular R_k, as in MINRES, and
    right reflections P_k reduce R_k to lower-triangular L_k, so that
    p_k = V_k P_k u_k with L_k u_k = t_k.  On nonsingular H these are the
    MINRES iterates.  Each iteration costs one product with H, and ``cap``
    bounds the iterations.  Iteration k stops the solve, returning p_k, when

    - ||H r_{k-1}|| <= tol ||H g||, with r_j = -g - H p_j, read from the
      recurrences (the k-th product is the first that shows it);
    - k > 1 and the last diagonal of L_k is at most max(10 tol, 100 eps)
      ||T||: T_k is numerically singular, and setting the last u_k to zero
      drops its near-null direction, which leaves the minimum-norm
      solution on the Krylov space;
    - the Lanczos process breaks down, beta_{k+1} <= 100 eps ||T||.

    ||T|| is the largest column norm of T_k seen so far.  The iterates lie
    in the Krylov space of g, so on a singular H they carry a component in
    the kernel until T_k turns singular, and a solve that the tol test
    stops first returns that component.
    """
    check_int(cap, "minnorm_lsq: cap", 1)
    check_real(tol, "minnorm_lsq: tol", 0)
    g = np.asarray(g, dtype=float)
    beta1 = math.sqrt(float(g @ g))
    p_done = np.zeros_like(g)  # the part of p_k that later steps keep
    if beta1 == 0.0:
        return p_done
    rank_tol = max(_QLP_RANK_SLACK * tol, _QLP_ROUNDING)
    v_prev, v, beta = np.zeros_like(g), -g / beta1, 0.0
    t_norm = hg = 0.0
    # left reflection Q_{k-1}, the entries it left in column k of T
    # (dbar, eps_k) and the residual norm phi = ||r_{k-1}||
    c, s, dbar, eps_k, phi = -1.0, 0.0, 0.0, 0.0, beta1
    # trailing columns of L: l2 = L[k-2, k-2], l21 = L[k-1, k-2],
    # l1 = L[k-1, k-1]; final entries of rows k-1 and k-2 of L, L u = t:
    # eta1 = L[k-1, k-3], eta2 = L[k-2, k-4], th2 = L[k-2, k-3]; t entries
    # tau1 = t_{k-1}, tau2 = t_{k-2}; final u3 = u_{k-3}, u4 = u_{k-4}
    l2 = l21 = l1 = eta1 = eta2 = th2 = 0.0
    tau1 = tau2 = u1 = u3 = u4 = 0.0
    w2, w1 = np.zeros_like(g), np.zeros_like(g)  # columns k-2, k-1 of V P
    for k in range(1, cap + 1):
        q = np.asarray(hessp(v), dtype=float)
        alpha = float(v @ q)
        q = q - alpha * v - beta * v_prev
        beta_next = math.sqrt(float(q @ q))
        t_norm = max(t_norm, math.hypot(beta, alpha, beta_next))
        # Q_{k-1} on column k of T, and its share of column k+1
        delta = c * dbar + s * alpha
        gbar = s * dbar - c * alpha
        eps_next, dbar = s * beta_next, -c * beta_next
        hr = abs(phi) * math.hypot(gbar, dbar)  # ||H r_{k-1}||
        if k == 1:
            hg = hr
        c, s, gamma = _reflect(gbar, beta_next)
        tau, phi = c * phi, s * phi
        # P_{k-2,k} and P_{k-1,k} on column (eps_k, delta, gamma) of R
        eta0 = th1 = u2 = l10 = 0.0
        w0 = v
        if k >= 3:
            c2, s2, l2 = _reflect(l2, eps_k)
            th1 = c2 * l21 + s2 * delta
            eta0 = s2 * gamma
            delta, gamma = s2 * l21 - c2 * delta, -c2 * gamma
            w2, w0 = c2 * w2 + s2 * v, s2 * w2 - c2 * v
            u2 = (tau2 - eta2 * u4 - th2 * u3) / l2
            p_done = p_done + u2 * w2
        l0 = gamma
        if k >= 2:
            c1, s1, l1 = _reflect(l1, delta)
            l10, l0 = s1 * gamma, -c1 * gamma
            w1, w0 = c1 * w1 + s1 * w0, s1 * w1 - c1 * w0
            u1 = (tau1 - eta1 * u3 - th1 * u2) / l1
        # L_1 = ||T_1||, singular only when H g = 0
        singular = (abs(l0) <= rank_tol * t_norm if k > 1 else l0 == 0.0)
        u0 = 0.0 if singular else (tau - eta0 * u2 - l10 * u1) / l0
        if (singular or beta_next <= _QLP_ROUNDING * t_norm
                or hr <= tol * hg or k == cap):
            break
        eps_k = eps_next
        tau2, tau1 = tau1, tau
        eta2, eta1, th2 = eta1, eta0, th1
        l2, l21, l1 = l1, l10, l0
        u4, u3 = u3, u2
        w2, w1 = w1, w0
        v_prev, v, beta = v, q / beta_next, beta_next
    return p_done + u1 * w1 + u0 * w0


def _boundary_tau(z, d, radius: float) -> float:
    """Positive root of ||z + tau d|| = radius along direction d."""
    dd = float(d @ d)
    zd = float(z @ d)
    zz = float(z @ z)
    disc = zd * zd + dd * (radius * radius - zz)
    return (-zd + math.sqrt(max(disc, 0.0))) / dd


class _SteihaugPath:
    """The CG path of one Steihaug solve, which answers smaller radii too.

    The CG iterates z_j do not depend on the radius, and their norms grow
    monotonically (Steihaug 1983).  The path records them up to the first
    that reaches its build radius, so the step for any radius up to that is
    the first recorded crossing, z_j + tau d_j of norm equal to the radius,
    or the last interior iterate ``end`` if no recorded norm reaches it.
    """

    def __init__(self, hessp, g, radius: float, cap: int, tol: float):
        self.steps: list = []  # (z_j, d_j, ||z_{j+1}||), inf on d_j^T H d_j <= 0
        self.end = np.zeros_like(np.asarray(g, dtype=float))  # last interior z
        for z, d, z_next in _cg(hessp, g, cap, tol):
            norm = (math.inf if z_next is None
                    else math.sqrt(float(z_next @ z_next)))
            self.steps.append((z, d, norm))
            if norm >= radius:
                break
            self.end = z_next

    def step(self, radius: float) -> np.ndarray:
        """The Steihaug step for a radius of at most the build radius."""
        for z, d, norm in self.steps:
            if norm >= radius:
                return z + _boundary_tau(z, d, radius) * d
        return self.end


def cg_steihaug(hessp, g, radius: float, cap: int = 100,
                tol: float = 1e-8) -> np.ndarray:
    """Steihaug-Toint CG for min g^T p + 0.5 p^T H p subject to ||p|| <= radius.

    Stops at the boundary crossing when negative curvature appears or an
    iterate exits the ball; the returned step always has nonpositive model
    value and norm at most radius (+1e-12 rounding slack).
    """
    check_real(radius, "cg_steihaug: radius", 0, strict=True)
    check_int(cap, "cg_steihaug: cap", 1)
    check_real(tol, "cg_steihaug: tol", 0)
    return _SteihaugPath(hessp, g, radius, cap, tol).step(radius)


# ---------------------------------------------------------------------------
# the outer-loop driver and its step rules
# ---------------------------------------------------------------------------


class _Run:
    """One solver run: the current iterate plus what a step rule needs.

    The run builds the Hessian operator at the iterate from the configured
    scheme on first use, and ``move`` drops it."""

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
        self._root = check_seed(config.seed, "OptConfig: seed")
        self._cache: dict = {}
        self._hp = None

    def hessp(self, k: int):
        """The Hessian operator at the current iterate, built on first use
        with the seed of iteration k, ``root.spawn(max_outer)[k-1]``.

        The seed is derived from the index: trust region builds only after
        an accept, and the skipped indices must not shift the later seeds.
        """
        if self._hp is None:
            self._hp = self._operator(child_seed(self._root, k - 1))
        return self._hp

    def _operator(self, seed):
        """Closure v -> H_sketched v at the iterate, charged to the meter."""
        problem, config, meter = self.problem, self.config, self.meter
        x = self.x
        if config.scheme == "full":
            dvec = problem.loss.f2(problem.A @ x, problem.labels)
            return lambda v: hessp_full(problem, x, v, meter=meter, dvec=dvec)
        if config.scheme == "ls-det":
            dvec = hessian_oracle.d_diag(problem, x, meter=meter)
            sketch = ls_det_fraction_plan(
                np.sqrt(np.abs(dvec))[:, None] * problem.A,
                budget=config.sample_size, fraction=config.ls_det_fraction,
                remainder_mode="leverage", seed=seed,
            )
            # d units per leverage computation made: top rows, sampled remainder
            meter.add(problem.d * ((sketch.deterministic_rows.size > 0)
                                   + (len(sketch.sampled) > 0)))
        else:
            dvec = None
            result = scheme_probabilities(problem, x, config.scheme,
                                          meter=meter, cache=self._cache)
            if result.fell_back:
                self.trace.flags.append(
                    f"scheme_{config.scheme}_fell_back_to_uniform")
            sketch = build_sampling_sketch(result.probs, config.sample_size,
                                           seed=seed)
        op = sketched_hessian(problem, x, sketch, dvec=dvec)
        return lambda v: hessp_sketched(op, v, meter=meter)

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
    When every halving fails, one exact product (charged) gives the true
    slope <p, H g>, and the flag ``newton_mr_slopes_iter_{k}`` records the
    sketched slope, the true slope and ||p|| / ||g||.
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
            true_slope = float(p @ hessp_full(problem, run.x, run.g,
                                              meter=run.meter))
            run.trace.flags.append(
                f"newton_mr_slopes_iter_{k}: sketched={slope:.3e} "
                f"true={true_slope:.3e} "
                f"step_ratio={np.linalg.norm(p) / math.sqrt(gsq):.3e}")
            return "line_search_failed"
        alpha, g_new = found
        x = run.x + alpha * p
        run.move(x, value(problem, x), g_new)
        return alpha, True

    return _drive(problem, config, "newton_mr", step, charge_objective=False)


def trust_region(problem: FiniteSumProblem, config: OptConfig) -> OptTrace:
    """Trust region with CG-Steihaug steps and geometric radius updates.

    A step is accepted when m(p) != 0 and rho = (F(x+p) - F(x)) / m(p) >=
    tr_eta.  Zero predicted decrease rejects, and since m(0) = 0 an accepted
    step is nonzero, so it always moves the iterate.  Acceptances grow the
    radius by tr_gamma and rebuild the Hessian sketch at the new iterate;
    rejections shrink the radius and reuse the sketch and the CG path of its
    Steihaug solve, which holds the step for every smaller radius.  So a
    rejection costs no CG product, only one objective evaluation and the one
    product of the model value.  The iterates are those of a fresh solve per
    step and only the meter reads lower, so a run that ``max_oracle_calls``
    stops gets further.  A radius below 1e-16 terminates with status
    "radius_underflow".
    """
    delta = config.tr_delta0
    path = None  # the Steihaug path on the current iterate's operator

    def step(run, k):
        nonlocal delta, path
        if delta < _RADIUS_FLOOR:
            run.trace.flags.append(f"radius_underflow_iter_{k}")
            return "radius_underflow"
        hp = run.hessp(k)
        if path is None:
            path = _SteihaugPath(hp, run.g, delta, config.inner_cap,
                                 config.inner_tol)
        p = path.step(delta)
        m = float(run.g @ p + 0.5 * p @ np.asarray(hp(p)))
        F_new = value(problem, run.x + p, meter=run.meter)
        if m != 0.0 and (F_new - run.F) / m >= config.tr_eta:
            x = run.x + p
            run.move(x, F_new, grad(problem, x, meter=run.meter))
            path = None
            delta *= config.tr_gamma
            return delta, True
        delta /= config.tr_gamma
        return delta, False

    return _drive(problem, config, "trust_region", step, initial_step=delta)
