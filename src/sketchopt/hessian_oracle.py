"""Finite-sum objectives with curvature oracles and cost accounting.

The objective is F(x) = (1/n) sum_i f_i(a_i^T x) + (lambda/2) ||x||^2 over a
real n x d data matrix with rows a_i.  Its Hessian factors as
A^T D(x) A / n + lambda I with D(x) = diag(f_i''(a_i^T x)), which may be
indefinite for non-convex losses; sketched Hessian-vector products sample a
weighted subset of rows and fold the weights and curvature signs together so
the entire hot path stays in real arithmetic.

The oracles ``value``, ``grad``, ``d_diag`` and ``hessp_full`` are module
functions of a problem and an iterate; ``hessp_sketched`` applies the
operator that ``sketched_hessian`` gathers once per iterate.

Costs are tracked in function-evaluation units on an OracleMeter:
value/gradient/curvature-diagonal cost 1 each, a full Hessian-vector product
costs 2, and a sketched product with t rows costs ceil(2 t / n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .core_complex import check_real, spectral_norm

_SIGMOID_CLAMP = 36.0


def _sigmoid(t: np.ndarray) -> np.ndarray:
    # exp saturates in double precision near |t| = 36; clamp to avoid overflow
    return 1.0 / (1.0 + np.exp(-np.clip(t, -_SIGMOID_CLAMP, _SIGMOID_CLAMP)))


@dataclass(frozen=True)
class LossFamily:
    """Pointwise loss f(t; b) with first and second derivatives in t, and
    ``bound`` >= sup_t |f''(t; b)| when one is known."""

    tag: str
    f: Callable[[np.ndarray, np.ndarray], np.ndarray]
    f1: Callable[[np.ndarray, np.ndarray], np.ndarray]
    f2: Callable[[np.ndarray, np.ndarray], np.ndarray]
    bound: float | None = None


def _nlls_f(t, b):
    return (_sigmoid(t) - b) ** 2


def _nlls_f1(t, b):
    s = _sigmoid(t)
    return 2.0 * (s - b) * s * (1.0 - s)


def _nlls_f2(t, b):
    s = _sigmoid(t)
    sp = s * (1.0 - s)
    spp = sp * (1.0 - 2.0 * s)
    return 2.0 * (sp * sp + (s - b) * spp)


def _tukey_f(t, b):
    r2 = (t - b) ** 2
    return r2 / (1.0 + r2)


def _tukey_f1(t, b):
    r = t - b
    return 2.0 * r / (1.0 + r * r) ** 2


def _tukey_f2(t, b):
    r2 = (t - b) ** 2
    return (2.0 - 6.0 * r2) / (1.0 + r2) ** 3


_FAMILIES = {
    "quadratic": LossFamily(
        "quadratic",
        f=lambda t, b: 0.5 * (t - b) ** 2,
        f1=lambda t, b: t - b,
        f2=lambda t, b: np.ones_like(np.asarray(t, dtype=float)),
        bound=1.0,
    ),
    # sup_t |f''(t; b)| over both labels b in {0, 1}: with s = sigmoid(t),
    # f''(t; 0) = 2 s^2 (1 - s)(2 - 3 s) and f''(-t; 1) = f''(t; 0).  Its
    # stationary points in (0, 1) are s = (15 -+ sqrt(33)) / 24, with values
    # 0.15405857012135 and -0.12020440345468, so the maximum magnitude is the
    # first.  It is stored with a 1e-9 relative margin; the literal sits a
    # few ulps above that product and is kept as is so the convex_auto ridge
    # weights, and the outputs built on them, stay bitwise.
    "nlls_classification": LossFamily("nlls_classification", _nlls_f, _nlls_f1,
                                      _nlls_f2, bound=0.15405857027540912),
    "tukey_biweight": LossFamily("tukey_biweight", _tukey_f, _tukey_f1,
                                 _tukey_f2, bound=2.0),
}


def make_loss(tag: str) -> LossFamily:
    """Look up a loss family by tag."""
    try:
        return _FAMILIES[tag]
    except KeyError:
        raise ValueError(
            f"unknown loss family {tag!r}; expected one of {sorted(_FAMILIES)}"
        ) from None


def curvature_bound(loss: LossFamily) -> float:
    """An upper bound h >= sup_t |f''(t; b)| for the family.

    Exact for the quadratic (1) and bounded-influence (2) families; for the
    sigmoid-squared classification loss it is the closed-form maximum plus a
    1e-9 relative margin.  A family without a known bound is a ValueError.
    """
    if loss.bound is None:
        raise ValueError(
            f"curvature_bound: no bound known for loss family {loss.tag!r}")
    return loss.bound


@dataclass
class OracleMeter:
    """Monotone counter of function-evaluation-equivalent work."""

    function_evals: int = 0

    def add(self, units: int) -> None:
        if units < 0:
            raise ValueError("OracleMeter.add: units must be >= 0")
        self.function_evals += int(units)


def _charge(meter: OracleMeter | None, units: int) -> None:
    if meter is not None:
        meter.add(units)


@dataclass
class FiniteSumProblem:
    """Data (A, labels), a loss family, and a ridge term lambda/2 ||x||^2."""

    A: np.ndarray
    labels: np.ndarray
    loss: LossFamily
    ridge_lambda: float = 0.0

    def __post_init__(self):
        self.A = np.ascontiguousarray(self.A, dtype=float)
        self.labels = np.asarray(self.labels, dtype=float)
        if self.A.ndim != 2 or self.labels.shape != (self.A.shape[0],):
            raise ValueError("FiniteSumProblem: A must be n x d with n labels")
        if not (np.isfinite(self.A).all() and np.isfinite(self.labels).all()):
            raise ValueError("FiniteSumProblem: A and labels must be finite "
                             "(found NaN or Inf)")
        check_real(self.ridge_lambda, "FiniteSumProblem: ridge_lambda", 0)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def d(self) -> int:
        return self.A.shape[1]


def value(problem: FiniteSumProblem, x, meter: OracleMeter | None = None) -> float:
    """F(x); charges 1 unit."""
    x = np.asarray(x, dtype=float)
    _charge(meter, 1)
    t = problem.A @ x
    reg = 0.5 * problem.ridge_lambda * float(x @ x)
    return float(np.mean(problem.loss.f(t, problem.labels))) + reg


def grad(problem: FiniteSumProblem, x, meter: OracleMeter | None = None) -> np.ndarray:
    """Gradient of F at x; charges 1 unit."""
    x = np.asarray(x, dtype=float)
    _charge(meter, 1)
    t = problem.A @ x
    return problem.A.T @ problem.loss.f1(t, problem.labels) / problem.n \
        + problem.ridge_lambda * x


def d_diag(problem: FiniteSumProblem, x, meter: OracleMeter | None = None) -> np.ndarray:
    """Per-row second derivatives f_i''(a_i^T x) (sign-indefinite); charges 1."""
    x = np.asarray(x, dtype=float)
    _charge(meter, 1)
    return problem.loss.f2(problem.A @ x, problem.labels)


def hessp_full(problem: FiniteSumProblem, x, v,
               meter: OracleMeter | None = None, dvec=None) -> np.ndarray:
    """Exact Hessian-vector product A^T D (A v) / n + lambda v; charges 2."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    _charge(meter, 2)
    if dvec is None:
        dvec = problem.loss.f2(problem.A @ x, problem.labels)
    return problem.A.T @ (dvec * (problem.A @ v)) / problem.n \
        + problem.ridge_lambda * v


@dataclass(frozen=True)
class SketchedHessian:
    """The sketched Hessian at one iterate, gathered once for many products.

    Holds the deterministic rows ``A_det`` (weight 1) and the sampled rows
    ``A_rows`` of the design together with their coefficients w^2 * f''
    (``c_det``, ``c_rows``), so a product only does the two small
    matrix-vector passes.  Build it with ``sketched_hessian``.
    """

    n: int
    ridge_lambda: float
    A_det: np.ndarray
    c_det: np.ndarray
    A_rows: np.ndarray
    c_rows: np.ndarray

    @property
    def rows(self) -> int:
        """Total number of rows t the sketch touches."""
        return self.A_det.shape[0] + self.A_rows.shape[0]

    def apply(self, v: np.ndarray) -> np.ndarray:
        """lambda v + sum over both row sets of A_s^T (c_s * (A_s v)) / n."""
        out = self.ridge_lambda * v
        n = self.n
        if self.A_det.shape[0]:
            out = out + self.A_det.T @ (self.c_det * (self.A_det @ v)) / n
        if self.A_rows.shape[0]:
            out = out + self.A_rows.T @ (self.c_rows * (self.A_rows @ v)) / n
        return out


def sketched_hessian(problem: FiniteSumProblem, x, sketch,
                     dvec=None) -> SketchedHessian:
    """Gather the rows and w^2 f'' coefficients of ``sketch`` at iterate x.

    ``sketch`` is a SamplingSketch or a hybrid plan, whose
    ``deterministic_rows`` (weight 1) and ``sampled`` picks both number rows
    of the design; a plain sketch has no deterministic rows.  A sketch built
    over other than ``problem.n`` rows is a ValueError.  The weighted rows
    fold as w_j^2 * f''_{p_j} regardless of the curvature sign, so the
    operator is real even where D^{1/2} would be imaginary.  If ``dvec``
    (the d_diag vector at x) is given, only slices of it are used; otherwise
    the needed entries are evaluated locally.  Building charges no meter
    units: the per-product charge of ``hessp_sketched`` covers the t rows
    touched.
    """
    x = np.asarray(x, dtype=float)
    det = getattr(sketch, "deterministic_rows", np.zeros(0, dtype=np.int64))
    sampled = getattr(sketch, "sampled", sketch)
    if sampled.source_rows != problem.n:
        raise ValueError(
            f"sketched_hessian: sketch built over {sampled.source_rows} rows "
            f"for a problem with {problem.n}")

    def _gather(idx):
        Asub = problem.A[idx]
        if dvec is not None:
            return Asub, dvec[idx]
        return Asub, problem.loss.f2(Asub @ x, problem.labels[idx])

    A_det, c_det = _gather(det)
    A_rows, d_rows = _gather(sampled.rows)
    return SketchedHessian(n=problem.n, ridge_lambda=problem.ridge_lambda,
                           A_det=A_det, c_det=c_det, A_rows=A_rows,
                           c_rows=sampled.weights**2 * d_rows)


def hessp_sketched(op: SketchedHessian, v,
                   meter: OracleMeter | None = None) -> np.ndarray:
    """Apply a ``sketched_hessian`` operator; charges ceil(2 t / n) units."""
    v = np.asarray(v, dtype=float)
    t_total = op.rows
    _charge(meter, math.ceil(2 * t_total / op.n) if t_total else 0)
    return op.apply(v)


def convex_ridge_lambda(problem: FiniteSumProblem, h: float | None = None) -> float:
    """The ridge weight 4 ||A||^2 h that convexifies the finite sum.

    h must bound sup_t |f''(t; b)|, so it is finite and >= 0; when omitted
    it is taken from curvature_bound for the problem's loss family.
    """
    if h is None:
        h = curvature_bound(problem.loss)
    check_real(h, "convex_ridge_lambda: h", 0)
    return 4.0 * spectral_norm(problem.A) ** 2 * h
