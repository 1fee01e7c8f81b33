"""Inputs, cells and correctness checks for the four benchmark workloads.

A workload runs in *rounds*.  Round ``r`` draws fresh inputs from the
workload seed and ``r``, then solves a fixed list of *cells*; a cell is one
public-API solve (one optimizer run, one ``sketch_and_solve`` /
``complex_lp_solve`` call, or one ``estimate`` call).  Every round has the
same cell list, so a run that completes whole rounds always has the same mix
of cell kinds.

Each optimizer cell gets its own planted instance.  How long a solve takes to
converge depends strongly on the instance, and an instance that is hard for
one scheme is hard for the others; sharing one instance per round would make
a run's total time swing with a handful of instances.

The library is reached only through names in ``sketchopt.__all__``, looked
up on the package at call time, so the traced run can hook them.
"""

from __future__ import annotations

import math

import numpy as np

import sketchopt as so

#: documented ``OptTrace.status`` values
OPT_STATUSES = ("converged", "max_outer", "budget", "line_search_failed",
                "radius_underflow")

OPT_SCHEMES = ("full", "uniform", "ls", "rn", "ls-mx", "rn-mx")
BUDGET_FRACTIONS = (0.0, 0.25, 0.5, 0.75, 1.0)
VMV_WIDTHS = (64, 256, 1024, 4096)

_LABEL_FLIP_FRACTION = 0.1
_STREAM = {"opt": 1, "lp": 2, "lp0": 3, "vmv": 4, "solver": 5, "oracle": 6}


# ---------------------------------------------------------------------------
# seeded input generation
# ---------------------------------------------------------------------------


def _seq(seed: int, round_idx: int, stream: str,
         cell: int = 0) -> np.random.SeedSequence:
    return np.random.SeedSequence(
        [int(seed), int(round_idx), _STREAM[stream], int(cell)])


def _rng(seed: int, round_idx: int, stream: str,
         cell: int = 0) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(_seq(seed, round_idx, stream, cell)))


def solver_seed(seed: int, round_idx: int) -> int:
    """Seed handed to the library's own samplers for one round."""
    return int(_seq(seed, round_idx, "solver").generate_state(1)[0])


def planted_design(rng, n=5000, d=20, heavy_rows=20, heavy_scale=1e3):
    """Gaussian design, a few rows scaled up, labels from a planted direction.

    Same recipe as the ``synth`` dataset of the ``bench`` CLI: standard
    Gaussian rows, ``heavy_rows`` of them multiplied by ``heavy_scale``,
    labels from the sign of a unit planted margin, then 10% flipped.
    """
    A = rng.standard_normal((n, d))
    picked = rng.choice(n, size=heavy_rows, replace=False)
    A[picked] *= heavy_scale
    w_star = rng.standard_normal(d)
    w_star /= np.linalg.norm(w_star)
    labels = (A @ w_star >= 0.0).astype(float)
    flips = rng.random(n) < _LABEL_FLIP_FRACTION
    labels[flips] = 1.0 - labels[flips]
    return A, labels


def _crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


# ---------------------------------------------------------------------------
# cells
# ---------------------------------------------------------------------------


class Cell:
    """One timed solve: ``run()`` calls the library, ``check`` judges it.

    ``kind`` names the cell within its round (the same kinds recur every
    round).  ``check(output)`` returns ``(outcome, failed_checks)`` where
    ``outcome`` holds the cell's reported quantities and ``failed_checks``
    lists the names of the correctness checks it failed.  ``digest_values``
    turns the output into the numbers that enter the run digest.  An
    untimed cell is run and checked but kept out of the timing metrics.
    """

    def __init__(self, kind, run, check, digest_values, checks, timed=True):
        self.kind = kind
        self.run = run
        self.check = check
        self.digest_values = digest_values
        self.checks = checks
        self.timed = timed


# optimizer cells ----------------------------------------------------------

_OPT_CHECKS = ("trace_finite", "oracle_calls_monotone", "status_documented",
               "converged_meets_grad_tol", "accepted_steps_monotone")


def _opt_check(trace, algorithm: str, grad_tol: float):
    failed = []
    arrays = [np.asarray(trace.oracle_calls, dtype=float),
              np.asarray(trace.objective, dtype=float),
              np.asarray(trace.grad_norm, dtype=float),
              np.asarray(trace.step_or_radius, dtype=float)]
    x_final = np.asarray(trace.x_final, dtype=float)
    if not (all(np.all(np.isfinite(a)) for a in arrays)
            and np.all(np.isfinite(x_final))):
        failed.append("trace_finite")
    if np.any(np.diff(arrays[0]) < 0):
        failed.append("oracle_calls_monotone")
    if trace.status not in OPT_STATUSES:
        failed.append("status_documented")
    if trace.status == "converged" and not trace.grad_norm[-1] <= grad_tol:
        failed.append("converged_meets_grad_tol")
    watched = {"newton_cg": arrays[1], "newton_mr": arrays[2]}.get(algorithm)
    if watched is not None:
        kept = watched[np.asarray(trace.accepted, dtype=bool)]
        if np.any(np.diff(kept) > 0):
            failed.append("accepted_steps_monotone")
    outcome = {
        "converged": trace.status == "converged",
        "status": trace.status,
        "oracle_calls": int(trace.oracle_calls[-1]),
        "final_objective": float(trace.objective[-1]),
        "outer_iters": int(trace.iteration[-1]),
        "steps_attempted": len(trace.accepted) - 1
        + (trace.status == "line_search_failed"),
        "steps_accepted": int(np.sum(trace.accepted[1:])),
    }
    return outcome, failed


def _opt_digest(trace):
    vals = [trace.status]
    for row in trace.rows():
        vals.extend(row)
    vals.extend(np.asarray(trace.x_final, dtype=float).tolist())
    return vals


def _opt_cell(kind, algorithm, problem, config):
    def run():
        return getattr(so, algorithm)(problem, config)

    def check(trace):
        return _opt_check(trace, algorithm, config.grad_tol)

    return Cell(kind, run, check, _opt_digest, _OPT_CHECKS)


def opt_inputs(seed: int, round_idx: int, cell: int):
    """The planted design (A, labels) of one optimizer cell."""
    return planted_design(_rng(seed, round_idx, "opt", cell))


def _problem(inputs, loss: str, ridge_lambda: float):
    A, labels = inputs
    return so.FiniteSumProblem(A=A, labels=labels, loss=so.make_loss(loss),
                               ridge_lambda=ridge_lambda)


def opt_race_round(seed: int, round_idx: int):
    """Criterion-07 traffic: two solvers x six Hessian schemes."""
    sseed = solver_seed(seed, round_idx)
    cells = []
    for i, scheme in enumerate(OPT_SCHEMES):
        config = so.OptConfig(scheme=scheme, sample_size=500, max_outer=3000,
                              grad_tol=1e-4, max_oracle_calls=150_000,
                              seed=sseed)
        tukey = _problem(opt_inputs(seed, round_idx, 2 * i),
                         "tukey_biweight", 1e-3)
        nlls = _problem(opt_inputs(seed, round_idx, 2 * i + 1),
                        "nlls_classification", 0.005)
        cells.append(_opt_cell(f"trust_region/{scheme}", "trust_region",
                               tukey, config))
        cells.append(_opt_cell(f"newton_mr/{scheme}", "newton_mr", nlls,
                               config))
    return cells


def opt_budget_round(seed: int, round_idx: int):
    """Criterion-08 traffic: Newton-CG on ls-det at five fractions."""
    sseed = solver_seed(seed, round_idx)
    cells = []
    for i, fraction in enumerate(BUDGET_FRACTIONS):
        nlls = _problem(opt_inputs(seed, round_idx, i),
                        "nlls_classification", 0.005)
        config = so.OptConfig(scheme="ls-det", ls_det_fraction=fraction,
                              sample_size=250, max_outer=100_000,
                              grad_tol=1e-12, max_oracle_calls=800,
                              seed=sseed)
        cells.append(_opt_cell(f"newton_cg/ls-det@{fraction}", "newton_cg",
                               nlls, config))
    return cells


# lp regression cells ------------------------------------------------------

_LP_CHECKS = ("solution_finite", "zero_residual_recovers")
RECOVERY_TOL = 1e-6  # the criterion-09 bound


def _rel_err(x, x_ref) -> float:
    return float(np.linalg.norm(x - x_ref) / np.linalg.norm(x_ref))


def _lp_cell(kind, run, x_ref, recovery):
    """``x_ref()`` gives the reference solution once its own cell has run.

    Recovery cells are correctness probes and are not timed: they take
    milliseconds, and as a quarter of the cells they would put the median
    on the gap between them and the 0.1-second solves.
    """

    def check(out):
        x = out.x if isinstance(out, so.LpSolution) else out.xhat
        failed = []
        if not (np.all(np.isfinite(x)) and math.isfinite(_objective(out))):
            failed.append("solution_finite")
        outcome = {"converged": bool(out.converged)}
        ref = x_ref()
        if ref is not None:
            outcome["rel_err"] = _rel_err(x, ref)
        if recovery and not np.linalg.norm(x - ref) <= RECOVERY_TOL:
            failed.append("zero_residual_recovers")
        return outcome, failed

    def digest(out):
        x = out.x if isinstance(out, so.LpSolution) else out.xhat
        return [_objective(out), bool(out.converged)] \
            + x.real.tolist() + x.imag.tolist()

    return Cell(kind, run, check, digest, _LP_CHECKS, timed=not recovery)


def _objective(out) -> float:
    return float(out.objective if isinstance(out, so.LpSolution)
                 else out.sketched_objective)


def lpreg_inputs(seed: int, round_idx: int):
    """A noisy instance (A, b) and a zero-residual one (A0, b0, x_star)."""
    rng = _rng(seed, round_idx, "lp")
    A = _crandn(rng, 100, 50)
    b = A @ _crandn(rng, 50) + 0.5 * _crandn(rng, 100)
    rng0 = _rng(seed, round_idx, "lp0")
    A0 = _crandn(rng0, 100, 50)
    x_star = _crandn(rng0, 50)
    return A, b, A0, A0 @ x_star, x_star


def lpreg_round(seed: int, round_idx: int):
    """Criterion-09 traffic on one noisy and one zero-residual instance."""
    A, b, A0, b0, x_star = lpreg_inputs(seed, round_idx)
    sseed = solver_seed(seed, round_idx)
    refs = {}

    def ref_cell(p, key):
        def run():
            sol = so.complex_lp_solve(A, b, p, tol=1e-8)
            refs[key] = sol.x
            return sol
        return _lp_cell(f"complex_lp_solve/p={key}", run, lambda: None,
                        False)

    def sketch_cell(p, key, **kw):
        return _lp_cell(
            f"sketch_and_solve/p={key}/"
            + ",".join(f"{k}={v}" for k, v in kw.items()),
            lambda: so.sketch_and_solve(A, b, p, seed=sseed, tol=1e-8, **kw),
            lambda: refs.get(key), False)

    def recovery_cell(p, key, **kw):
        return _lp_cell(
            f"recovery/p={key}/" + ",".join(f"{k}={v}" for k, v in kw.items()),
            lambda: so.sketch_and_solve(A0, b0, p, seed=sseed, **kw),
            lambda: x_star, True)

    return [
        ref_cell(1, "1"),
        ref_cell(np.inf, "inf"),
        sketch_cell(1, "1", t=2),
        sketch_cell(1, "1", t=20),
        sketch_cell(np.inf, "inf", s=2),
        sketch_cell(np.inf, "inf", s=6),
        recovery_cell(1, "1", t=8),
        recovery_cell(np.inf, "inf", s=3),
    ]


# tensor-sketch cells ------------------------------------------------------

_VMV_CHECKS = ("estimate_finite",)
VMV_ROWS, VMV_COLS, VMV_REPS, CANCEL_SCALE = 2000, 20, 3, 1e3


def vmv_instances(seed: int, round_idx: int):
    """One ``gaussian`` and one ``cancellation`` instance (A, B, u, v)."""
    rng = _rng(seed, round_idx, "vmv")
    gaussian = (_crandn(rng, VMV_ROWS, VMV_COLS),
                _crandn(rng, VMV_ROWS, VMV_COLS))
    half = VMV_ROWS // 2
    base_a = _crandn(rng, half, VMV_COLS) * CANCEL_SCALE
    base_b = _crandn(rng, half, VMV_COLS) * CANCEL_SCALE
    cancellation = (np.vstack([base_a, base_a]), np.vstack([base_b, -base_b]))
    out = {}
    for name, (A, B) in (("gaussian", gaussian),
                         ("cancellation", cancellation)):
        out[name] = (A, B, _crandn(rng, VMV_COLS), _crandn(rng, VMV_COLS))
    return out


def vmv_round(seed: int, round_idx: int):
    """Tensor-sketch ``estimate`` over both instances and four widths."""
    sseed = solver_seed(seed, round_idx)
    cells = []
    for name, (A, B, u, v) in vmv_instances(seed, round_idx).items():
        exact = complex(u @ (A.T @ B) @ v)
        gross = float(np.linalg.norm(u) * np.linalg.norm(v)
                      * np.sum(np.linalg.norm(A, axis=1)
                               * np.linalg.norm(B, axis=1)))
        for k in VMV_WIDTHS:
            cells.append(_vmv_cell(f"estimate/{name}/k={k}", A, B, u, v, k,
                                   sseed, exact, gross))
    return cells


def _vmv_cell(kind, A, B, u, v, k, sseed, exact, gross):
    def run():
        return so.estimate(A, B, u, v, k=k, reps=VMV_REPS, seed=sseed)

    def check(est):
        failed = [] if np.isfinite(est) else ["estimate_finite"]
        return {"rel_err": abs(est - exact) / gross}, failed

    return Cell(kind, run, check, lambda est: [est.real, est.imag],
                _VMV_CHECKS)


def ts_pair_identity(seed: int) -> float:
    """Largest gap between ``ts_pair`` and the explicit hashed-tensor oracle.

    Criterion 11: the sketch of ``a (x) b`` equals count-sketching the tensor
    directly under the derived hash ``(h1 + h2 mod k, s1 * s2)``.
    """
    rng = _rng(seed, 0, "oracle")
    k, d = 16, 7
    state = so.ts_new(k, seed=int(rng.integers(2**31)))
    a, b = _crandn(rng, d), _crandn(rng, d)
    out = so.ts_pair(state, a, b)
    h1, h2, s1, s2 = state.tables(d)
    oracle = np.zeros(k, dtype=complex)
    for i in range(d):
        for j in range(d):
            oracle[(h1[i] + h2[j]) % k] += s1[i] * s2[j] * a[i] * b[j]
    return float(np.max(np.abs(out - oracle)))


TS_PAIR_TOL = 1e-12

WORKLOADS = {
    "opt-race": opt_race_round,
    "opt-budget": opt_budget_round,
    "lpreg-sweep": lpreg_round,
    "vmv-stream": vmv_round,
}
