"""Complex p-norm regression reduced to a small real p-norm regression.

The reduction lifts ``min_x ||A x - b||_p`` over complex unknowns to an
equivalent real problem whose residual pairs ``(2i, 2i+1)`` carry the real and
imaginary parts of residual ``i``.  Independent Gaussian blocks then compress
each pair: for finite ``p`` a pair contributes one row (or ``t`` rows when its
leverage marks it heavy), calibrated so the expected p-th moment of the
compressed coordinates reproduces the pair's Euclidean norm; for
``p = infinity`` an ``s x 2`` Gaussian ``G_i`` estimates the pair norm by
``||G_i r_i||_1``, which a sign-enumeration matrix turns into a max over
``2^s`` rows, so the compressed problem is again a plain max-norm fit.
``p = 2`` is a least-squares fit.  Every other ``p`` is solved by damped
Newton steps under a halving temperature ``mu``: on
``sum_g (||r_g||^2 + mu^2)^(p/2)`` at finite ``p``, on a smoothed max at
``p = infinity``.  ``converged`` is a certificate: the bound on how far the
smoothing lifts the minimum plus the Newton decrement, which together bound
the objective's excess over the optimum, are at most ``tol`` times the
objective (its p-th power at finite ``p``).  ``sketch_and_solve`` never
assembles the compressed matrix.  At finite ``p`` every compressed row is a
block row applied to its pair's lifted residual, so the Newton Hessian is
``Ap^T blockdiag(C_i) Ap`` with one 2 x 2 ``C_i`` per pair.  At
``p = infinity`` the smoothed max over the ``2^s`` signed rows of a pair
factors exactly into log-cosh terms of the ``s`` rows ``G_i r_i``, so the
solve works on ``n s`` rows and never forms the ``n 2^s``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core_complex import (check_int, child_seed, lift_matrix, lp_of_norms,
                           phi, seeded_generator, unphi)
from .sketch_sampling import (_embedded_factor, exact_leverage_scores,
                              span_basis)

__all__ = [
    "BlockSketch",
    "LiftedRegression",
    "LpSolution",
    "SketchSolveResult",
    "build_sketch_finite_p",
    "build_sketch_inf",
    "classify_pairs",
    "complex_lp_solve",
    "gaussian_moment_scale",
    "grouped_lp_solve",
    "lift_instance",
    "lp_leverage_scores",
    "sign_enumeration_matrix",
    "sketch_and_solve",
    "small_lp_solve",
]

#: Hard cap on the sign-enumeration width: 2^20 rows is the largest block a
#: max-norm sketch may expand when its blocks are read.
MAX_ENUMERATION_BITS = 20


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


@dataclass
class LiftedRegression:
    """Real lift of a complex regression instance.

    ``Ap`` is the 2n x 2d real representation of ``A``, ``bp`` the interleaved
    real image of ``b``, and ``pairs`` lists the row pairs ``(2i, 2i+1)`` that
    jointly carry complex residual ``i``.
    """

    Ap: np.ndarray
    bp: np.ndarray
    pairs: list


@dataclass
class BlockSketch:
    """Block-diagonal compression aligned with residual pairs.

    ``blocks[i]`` multiplies the two rows of ``pairs[i]``; results stack in
    pair order.  The sketch keeps one draw per pair in ``factors``: at finite
    ``p`` the factor is the block itself; at ``p = infinity`` it is the
    ``s x 2`` Gaussian ``G_i`` of the block ``R @ G_i``, where ``R`` holds
    the ``2^s`` sign rows, and the blocks are expanded only when read.
    ``apply`` never materializes the assembled matrix; use ``assembled`` only
    at small sizes.
    """

    pairs: list
    factors: list
    p: float

    @property
    def blocks(self) -> list:
        if not np.isinf(self.p) or not self.factors:
            return self.factors
        R = sign_enumeration_matrix(self.factors[0].shape[0])
        return [R @ G for G in self.factors]

    @property
    def total_rows(self) -> int:
        rows = [f.shape[0] for f in self.factors]
        if np.isinf(self.p):
            rows = [2 ** s for s in rows]
        return int(sum(rows))

    def apply(self, M):
        """Multiply the block-diagonal sketch against rows of ``M``."""
        M = np.asarray(M, dtype=float)
        pieces = [blk @ M[list(pair)] for pair, blk in zip(self.pairs, self.blocks)]
        if not pieces:
            shape = (0,) if M.ndim == 1 else (0, M.shape[1])
            return np.zeros(shape)
        return np.concatenate(pieces, axis=0)

    def assembled(self) -> np.ndarray:
        """Dense block-diagonal matrix (small instances only)."""
        n_cols = 1 + max(max(pair) for pair in self.pairs) if self.pairs else 0
        G = np.zeros((self.total_rows, n_cols))
        pos = 0
        for (a, b), blk in zip(self.pairs, self.blocks):
            rows = blk.shape[0]
            G[pos:pos + rows, a] = blk[:, 0]
            G[pos:pos + rows, b] = blk[:, 1]
            pos += rows
        return G


@dataclass
class LpSolution:
    """Solver output: minimizer, certified objective, and convergence flag."""

    y: np.ndarray
    objective: float
    converged: bool
    iterations: int
    x: np.ndarray | None = None


@dataclass
class SketchSolveResult:
    """Sketch-and-solve output with the heavy/light pair partition used.

    ``iterations`` counts the accepted Newton steps of the small solve.
    """

    xhat: np.ndarray
    sketched_objective: float
    converged: bool
    heavy: np.ndarray
    light: np.ndarray
    iterations: int


# ---------------------------------------------------------------------------
# lifting
# ---------------------------------------------------------------------------


def lift_instance(A, b) -> LiftedRegression:
    """Lift a complex regression instance to interleaved real form."""
    A = np.asarray(A, dtype=complex)
    b = np.asarray(b, dtype=complex).ravel()
    if A.ndim != 2:
        raise ValueError("lift_instance: A must be a matrix")
    if A.shape[0] != b.size:
        raise ValueError("lift_instance: A and b row counts differ")
    if not (np.isfinite(A).all() and np.isfinite(b).all()):
        raise ValueError("lift_instance: A and b must be finite")
    pairs = [(2 * i, 2 * i + 1) for i in range(A.shape[0])]
    return LiftedRegression(Ap=lift_matrix(A), bp=phi(b), pairs=pairs)


# ---------------------------------------------------------------------------
# moment calibration and sign enumeration
# ---------------------------------------------------------------------------


def gaussian_moment_scale(p) -> float:
    """Entry std making ``E|<g, y>|^p = ||y||_2^p`` for Gaussian ``g``.

    For a centred Gaussian with std ``sigma``, ``E|Z|^p`` equals
    ``sigma^p 2^{p/2} Gamma((p+1)/2) / sqrt(pi)``; solving for the std that
    cancels the constant gives ``(sqrt(pi) / (2^{p/2} Gamma((p+1)/2)))^{1/p}``.
    """
    p = float(p)
    if not (1.0 <= p < np.inf):
        raise ValueError("gaussian_moment_scale: p must be finite and >= 1")
    log_scale = (0.5 * math.log(math.pi) - 0.5 * p * math.log(2.0)
                 - math.lgamma(0.5 * (p + 1.0))) / p
    return math.exp(log_scale)


def _enumeration_width(s, caller) -> int:
    s = check_int(s, "%s: s" % caller)
    if s < 1:
        raise ValueError("%s: s must be >= 1" % caller)
    if s > MAX_ENUMERATION_BITS:
        raise ValueError("%s: s = %d exceeds the 2^%d-row budget"
                         % (caller, s, MAX_ENUMERATION_BITS))
    return s


def sign_enumeration_matrix(s) -> np.ndarray:
    """All ``2^s`` sign rows in ``{-1,+1}^s``, so ``max |R z| = ||z||_1``."""
    s = _enumeration_width(s, "sign_enumeration_matrix")
    codes = (np.arange(2 ** s)[:, None] >> np.arange(s)[None, :]) & 1
    return codes.astype(float) * 2.0 - 1.0


# ---------------------------------------------------------------------------
# p-norm leverage scores and pair classification
# ---------------------------------------------------------------------------


def lp_leverage_scores(M, p, embed_rows=None, seed=0) -> np.ndarray:
    """Row p-norm masses of an l2 well-conditioned basis for span(M).

    The basis is ``U = M R^{-1}`` with ``R`` from the Gaussian-embedding
    whitening kernel of ``approx_leverage_scores`` (QR of ``S M``, ``S``
    ``embed_rows`` x n, default 4 cols); each row's score is ``||U_i||_p^p``.
    ``p = 2`` short-circuits to exact leverage scores.  When ``R`` fails the
    kernel's rank test (smallest diagonal magnitude at most
    max(embed_rows, cols) * eps times the largest), ``U`` is the orthonormal
    ``span_basis`` of M from the SVD instead.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise ValueError("lp_leverage_scores: M must be a matrix")
    p = float(p)
    if not (1.0 <= p < np.inf):
        raise ValueError("lp_leverage_scores: p must be finite and >= 1")
    if p == 2.0:
        return exact_leverage_scores(M)
    R, _ = _embedded_factor(M, embed_rows, seed, "lp_leverage_scores")
    U = span_basis(M) if R is None else np.linalg.solve(R.T, M.T).T
    return np.sum(np.abs(U) ** p, axis=1)


def classify_pairs(scores, d, p):
    """Split pairs into heavy/light at the threshold ``d^(-1/q - 1)``.

    ``q`` is the dual exponent of ``p`` (infinite at ``p = 1``); a pair is
    heavy when either of its two rows reaches the threshold.  Returns sorted
    arrays of heavy and light pair indices.
    """
    scores = np.asarray(scores, dtype=float).ravel()
    if scores.size % 2:
        raise ValueError("classify_pairs: scores must cover whole row pairs")
    d = int(d)
    if d < 1:
        raise ValueError("classify_pairs: d must be >= 1")
    p = float(p)
    if not (p >= 1.0):
        raise ValueError("classify_pairs: p must satisfy p >= 1")
    inv_q = 1.0 - 1.0 / p  # 1/q with q = p/(p-1); zero at p = 1
    gamma = float(d) ** (-(inv_q + 1.0))
    pair_scores = np.maximum(scores[0::2], scores[1::2])
    heavy = np.flatnonzero(pair_scores >= gamma)
    light = np.flatnonzero(pair_scores < gamma)
    return heavy, light


# ---------------------------------------------------------------------------
# block sketch construction
# ---------------------------------------------------------------------------


def _block_sketch(pairs, p, seed, draw) -> BlockSketch:
    """Factors ``draw(i, rng)``, each from pair ``i``'s own child of
    ``seed``."""
    pairs = [(int(a), int(b)) for a, b in pairs]
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)  # built once, not once per pair
    factors = [draw(i, seeded_generator(child_seed(seed, i)))
               for i in range(len(pairs))]
    return BlockSketch(pairs=pairs, factors=factors, p=p)


def build_sketch_finite_p(pairs, heavy, t, p, seed=0) -> BlockSketch:
    """Independent Gaussian blocks: ``t x 2`` for heavy pairs, ``1 x 2`` else.

    Entries have std ``gaussian_moment_scale(p)``; heavy blocks are scaled by
    ``t^(-1/p)`` so heavy and light contributions estimate the same pair norm.
    """
    p = float(p)
    if not (1.0 <= p < np.inf):
        raise ValueError("build_sketch_finite_p: p must be finite and >= 1")
    t = check_int(t, "build_sketch_finite_p: t")
    if t < 1:
        raise ValueError("build_sketch_finite_p: t must be >= 1")
    heavy_set = {int(i) for i in heavy}
    if any(not 0 <= i < len(pairs) for i in heavy_set):
        raise ValueError("build_sketch_finite_p: heavy index out of range")
    sigma = gaussian_moment_scale(p)
    heavy_scale = sigma * t ** (-1.0 / p)

    def draw(i, rng):
        if i in heavy_set:
            return heavy_scale * rng.standard_normal((t, 2))
        return sigma * rng.standard_normal((1, 2))

    return _block_sketch(pairs, p, seed, draw)


def build_sketch_inf(pairs, s, seed=0) -> BlockSketch:
    """Sign-enumeration blocks for the max-norm route.

    Every pair gets ``R @ G`` where ``G`` is ``s x 2`` Gaussian with entry std
    ``sqrt(pi/2)/s`` (so ``E||G y||_1 = ||y||_2``) and ``R`` enumerates all
    ``2^s`` sign rows, turning that l1 estimate into a max.  Only the
    factors ``G`` are stored; ``R @ G`` is formed when the blocks are read.
    """
    s = _enumeration_width(s, "build_sketch_inf")
    scale = math.sqrt(math.pi / 2.0) / s
    return _block_sketch(pairs, np.inf, seed,
                         lambda _, rng: scale * rng.standard_normal((s, 2)))


# ---------------------------------------------------------------------------
# residual rows: a dense matrix, or pair blocks on the lifted instance
# ---------------------------------------------------------------------------


def _newton_solve(hess, grad):
    # Cholesky on the Hessian; a least-squares solve of the same system only
    # for a Hessian too ill-conditioned to factor.
    import scipy.linalg  # here, so only lp solves pay SciPy's import cost

    try:
        chol = scipy.linalg.cho_factor(hess, check_finite=False)
        step = scipy.linalg.cho_solve(chol, -grad, check_finite=False)
        if np.all(np.isfinite(step)):
            return step
    except scipy.linalg.LinAlgError:
        pass
    return np.linalg.lstsq(hess, -grad, rcond=None)[0]


class _Groups:
    """Consecutive row groups: group ``g`` is the next ``sizes[g]`` rows."""

    def __init__(self, sizes):
        self.sizes = sizes
        self.starts = np.cumsum(sizes) - sizes
        uniform = sizes.size and (sizes == sizes[0]).all()
        self.width = sizes[0] if uniform else None

    def spread(self, v):
        """Each group's entry of ``v`` repeated over the group's rows."""
        return np.repeat(v, self.sizes, axis=0)

    def sum(self, x):
        """Row values ``x`` summed within each group."""
        if self.width is None:
            return np.add.reduceat(x, self.starts)
        return x.reshape(-1, self.width).sum(axis=1)

    def rows(self, u, M):
        """Row g: ``sum_k u_k M_k`` over the rows ``k`` of group ``g``."""
        if self.width is None:
            return np.add.reduceat(u[:, None] * M, self.starts, axis=0)
        return (u.reshape(-1, 1, self.width)
                @ M.reshape(-1, self.width, M.shape[1]))[:, 0]


class _DenseRows:
    """The residual rows ``M y - c`` of a dense instance."""

    def __init__(self, M, c):
        self.M, self.c = M, c
        self.data_scale = float(np.linalg.norm(c))

    def residual(self, y):
        return self.M @ y - self.c

    def lstsq(self):
        return np.linalg.lstsq(self.M, self.c, rcond=None)[0]

    def gram(self, row_weights):
        """``M^T diag(row_weights) M``; rows of weight 0 add nothing."""
        keep = row_weights > 0.0
        live = self.M[keep]
        return live.T @ (row_weights[keep, None] * live)

    def rmatvec(self, v):
        """``M^T v``."""
        return self.M.T @ v


class _PairBlockRows:
    """The rows of ``sketch.apply(Ap) y - sketch.apply(bp)``, not assembled.

    Row ``k`` is ``b_k . r_i``: its block row applied to its pair's lifted
    residual ``r_i = Ap[pair i] y - bp[pair i]``.  Weighted by ``w``, the
    rows of pair ``i`` contribute ``r_i^T C_i r_i`` with the 2 x 2
    ``C_i = sum_{k in pair i} w_k b_k b_k^T``: the weighted Gram matrix is
    ``sum_i Ap[pair i]^T C_i Ap[pair i]``, and the initial least-squares
    fit runs on the 2n rows ``sqrt(C_i) Ap[pair i]`` instead of on all rows.
    A transpose product sums ``v_k b_k`` within each pair before it meets
    ``Ap``.
    """

    def __init__(self, Ap, bp, sketch: BlockSketch):
        index = np.asarray(sketch.pairs, dtype=int).reshape(-1, 2)
        self.A = Ap[index]  # (pairs, 2, d)
        self.b = bp[index]  # (pairs, 2)
        self.A_rows = self.A.reshape(-1, self.A.shape[2])  # pair-major rows
        self.pair_rows = _Groups(np.array(
            [blk.shape[0] for blk in sketch.blocks], dtype=int))
        self.block_rows = np.concatenate([np.empty((0, 2))] + sketch.blocks)
        self.b0, self.b1 = self.block_rows.T.copy()  # block row entries
        self.outer = np.stack([self.b0 * self.b0, self.b0 * self.b1,
                               self.b1 * self.b1], axis=1)
        self.data_scale = float(np.linalg.norm(self._rows(self.b)))

    def _rows(self, r):
        r = self.pair_rows.spread(r)
        return self.b0 * r[:, 0] + self.b1 * r[:, 1]

    def _pair_grams(self, row_weights):
        c = np.add.reduceat(row_weights[:, None] * self.outer,
                            self.pair_rows.starts)
        return c[:, [0, 1, 1, 2]].reshape(-1, 2, 2)

    def _sqrt_rows(self, C):
        # symmetric square root of each C_i: by Cayley-Hamilton,
        # (C + sqrt(det C) I)^2 = (tr C + 2 sqrt(det C)) C
        S = C.reshape(-1, 4).copy()
        S[:, ::3] += np.sqrt(np.maximum(S[:, 0] * S[:, 3] - S[:, 1] ** 2,
                                        0.0))[:, None]
        trace = S[:, :1] + S[:, 3:]
        S = np.divide(S, np.sqrt(trace), out=np.zeros_like(S),
                      where=trace > 0.0).reshape(C.shape)
        return ((S @ self.A).reshape(self.A_rows.shape),
                (S @ self.b[:, :, None]).ravel())

    def residual(self, y):
        return self._rows((self.A_rows @ y).reshape(self.b.shape) - self.b)

    def lstsq(self):
        C = self._pair_grams(np.ones(self.b0.size))
        return np.linalg.lstsq(*self._sqrt_rows(C), rcond=None)[0]

    def gram(self, row_weights):
        """``M^T diag(row_weights) M`` for the unassembled rows ``M``."""
        C = self._pair_grams(row_weights)
        return self.A_rows.T @ (C @ self.A).reshape(self.A_rows.shape)

    def rmatvec(self, v):
        """``M^T v`` for the unassembled rows ``M``."""
        return self.A_rows.T @ self.pair_rows.rows(v, self.block_rows).ravel()


# ---------------------------------------------------------------------------
# solvers: grouped p-norm objectives over residual rows
# ---------------------------------------------------------------------------


def _newton_levels(smoothed, newton_step, bound, y, obj, mu, tol, floor,
                   fast_cut=0.5):
    """Damped Newton steps on a smoothed objective, temperature / 2.

    ``smoothed(y, mu)`` gives the smoothed objective ``F`` at ``y`` and
    temperature ``mu``, the true objective there, and what
    ``newton_step(parts, mu)`` reuses; that gives the Newton step on ``F``
    and its decrement ``-grad . step``.  ``bound(mu, F)`` gives how far the
    smoothing may lift ``min F`` above the optimum, and the decrement that
    ends a level.  Starting from ``y`` (objective ``obj``) at ``mu``, each
    step backtracks to the Armijo condition at 1e-4, and once a level's
    decrement is below its bound ``mu`` halves, or shrinks by ``fast_cut``
    when the level's first decrement was already a tenth of that bound (the
    iterate barely moves as ``mu`` falls).  The fit is converged once
    the smoothing bound plus the decrement (an estimate of ``F - min F``),
    which together bound the objective's excess over the optimum, are at
    most ``tol`` times the best objective seen (and at least ``floor``).
    Returns that best iterate, its objective, the flag and the number of
    accepted steps.
    """
    best_y, best_obj = y, obj
    iterations = 0
    converged = False
    while True:
        F, _, parts = smoothed(y, mu)
        for calls in range(50):
            step, decrement = newton_step(parts, mu)
            if calls == 0:
                first = decrement
            stalled = not decrement > 0.0
            theta = 1.0
            while not stalled:
                y_try = y + theta * step
                F_try, obj, parts_try = smoothed(y_try, mu)
                if F_try <= F - 1e-4 * theta * decrement:
                    iterations += 1
                    y, F, parts = y_try, F_try, parts_try
                    if obj < best_obj:
                        best_y, best_obj = y, obj
                    break
                theta *= 0.5
                stalled = theta < 1e-12
            excess, level_end = bound(mu, F)
            target = max(tol * best_obj, floor)
            converged = excess + decrement <= target
            if converged or stalled or decrement <= level_end:
                break
        # a level ending with its decrement at most level_end at this mu is
        # converged, so a level that got here stalled: halving mu again
        # cannot help
        if converged or excess + level_end <= target:
            break
        mu *= fast_cut if first <= 0.1 * level_end else 0.5
    return best_y, best_obj, converged, iterations


def _solve_grouped_finite(rows, sizes, y, p, tol):
    """Smoothed grouped p-norm fit by damped Newton steps, temperature / 2.

    The rows ``M y - c`` of ``rows`` come in consecutive groups of ``sizes``
    rows, and the objective is ``f = sum_g ||r_g||^p``.  At temperature
    ``mu`` it is smoothed into ``F = sum_g h_g^p`` with
    ``h_g = sqrt(||r_g||^2 + mu^2)``.  For ``p <= 2`` each term is at most
    ``mu^p`` above ``||r_g||^p``, so ``min F`` is at most ``G mu^p`` above
    the optimum for ``G`` groups; for ``p > 2`` the excess is at most
    ``(p/2) mu^2 sum_g h_g^(p-2)``, by Hoelder at most
    ``(p/2) mu^2 G^(2/p) F^(1-2/p)``.  ``mu`` starts at half the power mean
    of the starting group norms; a level ends when the Newton decrement is
    at most a tenth of that bound, and ``mu`` shrinks by 4 instead of 2 when
    the level began there.  The gradient is ``M^T (p h^(p-1) u)``
    with ``u = r / h`` per row, and the Hessian
    ``M^T diag(p h^(p-2)) M`` plus, per group, the rank-one term
    ``p (p-2) h_g^(p-2) (M_g^T u_g)(M_g^T u_g)^T``; for one-row groups the
    two merge into the row weight ``p h^(p-2) ((mu/h)^2 + (p-1) u^2)``.
    Residuals are taken in units of the data scale, so neither ``h^(p-2)``
    nor ``h^p`` leaves the floating-point range on tiny or huge data.
    """
    groups = _Groups(sizes)

    def group_norms(r):
        return np.sqrt(groups.sum(r * r))

    norms = group_norms(rows.residual(y))
    obj = lp_of_norms(norms, p)
    if p == 2.0 or obj <= 1e-14 * rows.data_scale:
        return LpSolution(y=y, objective=obj, converged=True, iterations=0)

    scale = rows.data_scale
    n_groups = sizes.size

    def smoothed(y, mu):
        r = rows.residual(y) / scale
        norms = group_norms(r)
        h = np.hypot(norms, mu)
        return float(np.sum(h ** p)), float(np.sum(norms ** p)), (r, h)

    def newton_step(parts, mu):
        r, h = parts
        curv = p * h ** (p - 2.0)
        u = r / groups.spread(h)
        if groups.width == 1:
            hess = rows.gram(curv * ((mu / h) ** 2 + (p - 1.0) * u * u))
        else:
            D = groups.rows(u, rows.M)  # row g: M_g^T u_g
            hess = rows.gram(groups.spread(curv)) \
                + D.T @ (((p - 2.0) * curv)[:, None] * D)
        grad = rows.rmatvec(groups.spread(curv * h) * u)
        step = _newton_solve(hess, grad)
        return scale * step, -float(grad @ step)

    def bound(mu, F):
        if p <= 2.0:
            excess = n_groups * mu ** p
        else:
            excess = (0.5 * p * mu * mu * n_groups ** (2.0 / p)
                      * F ** (1.0 - 2.0 / p))
        return excess, 0.1 * excess

    start = float(np.sum((norms / scale) ** p))
    floor = n_groups * 1e-15 ** p  # G mu^p at mu = 1e-15 of the data scale
    y, _, converged, iterations = _newton_levels(
        smoothed, newton_step, bound, y, start,
        0.5 * (start / n_groups) ** (1.0 / p), tol, floor, fast_cut=0.25)
    return LpSolution(y=y, objective=lp_of_norms(
        group_norms(rows.residual(y)), p), converged=converged,
        iterations=iterations)


def _solve_grouped_inf(rows, sizes, y, l1, tol):
    """Smoothed max-norm fit by damped Newton steps, temperature / 2.

    The rows ``M y - c`` of ``rows`` come in consecutive groups of ``sizes``
    rows, and the objective is the largest group norm: l1 when ``l1``, else
    l2.  At temperature ``mu`` group ``g``'s norm is smoothed into
    ``h_g = mu sum_k log 2cosh(r_k / mu)`` (l1, at most ``size mu log 2``
    above it) or ``h_g = sqrt(||r_g||^2 + mu^2)`` (l2, at most ``mu`` above
    it), and the max into ``F = mu log sum_g exp(h_g / mu)`` (at most
    ``mu log G`` above it).  For the l1 groups ``G_i r_i`` of a
    sign-enumeration sketch, ``F`` is exactly the log-sum-exp over all
    ``2^s`` signed rows ``sigma . G_i r_i``, because
    ``sum_sigma exp(sigma . g / mu) = prod_k 2cosh(g_k / mu)``; those rows
    are never formed.  ``mu`` starts at half the starting objective, and a
    level ends when the Newton decrement is below ``mu / 10``.
    """
    groups = _Groups(sizes)

    def group_norms(r):
        return groups.sum(np.abs(r)) if l1 else np.sqrt(groups.sum(r * r))

    def smoothed(y, mu):
        r = rows.residual(y)
        norms = group_norms(r)
        if l1:
            tail = np.exp(-2.0 * np.abs(r) / mu)
            h = norms + mu * groups.sum(np.log1p(tail))  # mu log 2cosh(r/mu)
        else:
            tail = None
            h = np.hypot(norms, mu)
        top = float(h.max())
        soft = np.exp((h - top) / mu)
        total = float(soft.sum())
        return (top + mu * math.log(total), float(norms.max()),
                (r, tail, h, soft / total))

    def newton_step(parts, mu):
        r, tail, h, soft = parts
        if l1:
            u = np.tanh(r / mu)
            row_w = groups.spread(soft) * (4.0 * tail / (1.0 + tail) ** 2) / mu
        else:
            h_rows = groups.spread(h)
            u = r / h_rows
            row_w = groups.spread(soft) / h_rows
        D = groups.rows(u, rows.M)  # row g: the gradient of h_g
        grad = soft @ D
        Dc = D - grad
        # at small mu most weights underflow to 0; those rows add nothing
        hess = rows.gram(row_w) + Dc.T @ ((soft / mu)[:, None] * Dc)
        if not l1:
            hess -= D.T @ ((soft / h)[:, None] * D)
        step = _newton_solve(hess, grad)
        return step, -float(grad @ step)

    obj = float(group_norms(rows.residual(y)).max(initial=0.0))
    if obj <= 1e-14 * rows.data_scale:
        return LpSolution(y=y, objective=obj, converged=True, iterations=0)

    gap_per_mu = math.log(sizes.size) + (
        float(sizes.max()) * math.log(2.0) if l1 else 1.0)
    y, obj, converged, iterations = _newton_levels(
        smoothed, newton_step, lambda mu, F: (mu * gap_per_mu, 0.1 * mu),
        y, obj, 0.5 * obj, tol, 1e-15 * rows.data_scale)
    return LpSolution(y=y, objective=obj, converged=converged,
                      iterations=iterations)


def _solve_grouped(M, c, groups, p, tol):
    """Validate and dispatch a solve; ``groups=None``: one group per row.

    The rows are put in group order and empty groups dropped, so both
    solvers see consecutive groups.  At ``p = infinity`` one-row groups are
    l1 groups (the row's absolute value) and other groups l2 groups.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim == 1:
        M = M[:, None]
    c = np.asarray(c, dtype=float).ravel()
    m = M.shape[0]
    if m != c.size:
        raise ValueError("lp solve: row counts of M and c differ")
    if not (np.isfinite(M).all() and np.isfinite(c).all()):
        raise ValueError("lp solve: M and c must be finite")
    p = float(p)
    if not (p == np.inf or p >= 1.0):
        raise ValueError("lp solve: p must satisfy p >= 1 or p = inf")
    if groups is None:
        sizes = np.ones(m, dtype=int)
    else:
        members = [np.asarray(g, dtype=int).ravel() for g in groups]
        order = np.concatenate([np.empty(0, dtype=int)] + members)
        if not np.array_equal(np.sort(order), np.arange(m)):
            raise ValueError("grouped_lp_solve: every row of M must lie in "
                             "exactly one group")
        M, c = M[order], c[order]
        sizes = np.array([g.size for g in members if g.size], dtype=int)
    rows = _DenseRows(M, c)
    y = rows.lstsq()
    if np.isinf(p):
        return _solve_grouped_inf(rows, sizes, y, groups is None, tol)
    return _solve_grouped_finite(rows, sizes, y, p, tol)


def small_lp_solve(M, c, p, tol=1e-10) -> LpSolution:
    """Minimize ``||M y - c||_p`` for a small dense instance."""
    return _solve_grouped(M, c, None, p, tol)


def grouped_lp_solve(M, c, groups, p, tol=1e-10) -> LpSolution:
    """Minimize the p-norm of per-group Euclidean residual norms.

    Every row of ``M`` must lie in exactly one group.
    """
    return _solve_grouped(M, c, groups, p, tol)


def complex_lp_solve(A, b, p, tol=1e-10) -> LpSolution:
    """Reference solver for ``min_x ||A x - b||_p`` over complex unknowns."""
    lifted = lift_instance(A, b)
    sol = grouped_lp_solve(lifted.Ap, lifted.bp, lifted.pairs, p, tol)
    sol.x = unphi(sol.y)
    return sol


# ---------------------------------------------------------------------------
# sketch-and-solve driver
# ---------------------------------------------------------------------------


def _default_heavy_rows(d_lifted, eps=0.5):
    return max(8, math.ceil(4.0 * d_lifted * math.log(2.0 / eps) / eps ** 2))


def sketch_and_solve(A, b, p, *, t=None, s=None, all_heavy=True, seed=0,
                     tol=1e-10) -> SketchSolveResult:
    """Compress a complex p-norm regression pair-by-pair, then solve it.

    Finite ``p`` uses Gaussian pair blocks (every pair heavy by default, the
    experimental setting; otherwise heavy pairs are detected from the p-norm
    leverage scores of the lifted ``[A b]``) and takes ``t``.  ``p = infinity``
    uses the sign-enumeration route and requires ``s``; it is solved on the
    ``n s`` rows ``G_i Ap[pair i]``, never on the ``n 2^s`` signed rows.  The
    compressed instance is solved without assembling its rows.
    Returns its complex solution together with its certified objective.
    """
    if t is not None:
        t = check_int(t, "sketch_and_solve: t")
    if s is not None:
        s = check_int(s, "sketch_and_solve: s")
    A = np.asarray(A, dtype=complex)
    lifted = lift_instance(A, b)
    n = A.shape[0]
    p = float(p)
    heavy, light = np.arange(n), np.empty(0, dtype=int)
    if np.isinf(p):
        if s is None:
            raise ValueError("sketch_and_solve: p = inf requires s")
        if t is not None:
            raise ValueError("sketch_and_solve: t applies to finite p only")
        sketch = build_sketch_inf(lifted.pairs, s, seed=seed)
        # l1 groups G_i r_i on the n s rows J_i = G_i Ap[pair i]; the first
        # fit minimizes sum_i ||G_i r_i||^2 on the 2n rows R_i Ap[pair i],
        # with R_i^T R_i = G_i^T G_i from a QR of G_i
        G = np.stack(sketch.factors)
        A2 = lifted.Ap.reshape(n, 2, -1)
        b2 = lifted.bp.reshape(n, 2, 1)
        R = np.linalg.qr(G, mode="r")
        y = np.linalg.lstsq((R @ A2).reshape(-1, A2.shape[2]),
                            (R @ b2).ravel(), rcond=None)[0]
        rows = _DenseRows((G @ A2).reshape(-1, A2.shape[2]),
                          (G @ b2).ravel())
        sol = _solve_grouped_inf(rows, np.full(n, G.shape[1]), y, True, tol)
    else:
        if s is not None:
            raise ValueError("sketch_and_solve: s applies to p = inf only")
        if t is None:
            t = _default_heavy_rows(lifted.Ap.shape[1])
        if not all_heavy:
            scored = np.hstack([lifted.Ap, lifted.bp[:, None]])
            scores = lp_leverage_scores(scored, p, seed=seed)
            heavy, light = classify_pairs(scores, scored.shape[1], p)
        sketch = build_sketch_finite_p(lifted.pairs, heavy, t, p, seed=seed)
        rows = _PairBlockRows(lifted.Ap, lifted.bp, sketch)
        sizes = np.ones(sketch.total_rows, dtype=int)
        sol = _solve_grouped_finite(rows, sizes, rows.lstsq(), p, tol)
    return SketchSolveResult(xhat=unphi(sol.y),
                             sketched_objective=sol.objective,
                             converged=sol.converged,
                             heavy=np.asarray(heavy, dtype=int),
                             light=np.asarray(light, dtype=int),
                             iterations=sol.iterations)
