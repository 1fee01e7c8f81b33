"""Row leverage scores, weighted row-sampling sketches, and score schemes.

A sampling sketch selects t rows independently with replacement from a
probability vector p and rescales pick j of row i by 1/sqrt(t * p_i), making
the sampled Gram matrix an unbiased estimate: E[C^T C] = B^T B.  Scores can be
exact (Cholesky-QR, with the thin SVD as fallback), approximated in o(n d^2)
structure (Gaussian embedding + QR + JL projection, the whitening kernel
shared with ``lp_regression.lp_leverage_scores``), or derived from an
optimization problem's local curvature ("schemes": uniform / leverage /
row-norm / their mixed variants).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import hessian_oracle
from .core_complex import (_check_finite, check_int, seeded_generator,
                           spectral_norm, svd)
from .hessian_oracle import _charge

#: The row-sampling schemes of ``scheme_probabilities``, canonically spelled.
SAMPLING_SCHEMES = ("uniform", "ls", "rn", "ls-mx", "rn-mx")


@dataclass
class SamplingSketch:
    """Weighted row selection: pick j takes row ``rows[j]`` scaled by ``weights[j]``."""

    source_rows: int
    rows: np.ndarray
    weights: np.ndarray

    def __len__(self) -> int:
        return int(self.rows.size)


@dataclass
class SchemeResult:
    """Normalized sampling probabilities plus a degenerate-input flag."""

    probs: np.ndarray
    fell_back: bool = False


def span_basis(B) -> np.ndarray:
    """Orthonormal basis of range(B): the rank-truncated thin-SVD factor U.

    Singular values at or below the standard cutoff
    max(sigma) * max(n, d) * eps count as zero; a zero matrix has an empty
    (n x 0) basis.
    """
    B = np.asarray(B)
    U, sigma, _ = svd(B)
    if sigma.size == 0 or sigma[0] == 0.0:
        return U[:, :0]
    cutoff = sigma[0] * max(B.shape) * np.finfo(np.float64).eps
    return U[:, :int(np.count_nonzero(sigma > cutoff))]


#: Largest condition number of the Cholesky factor L that the fast path of
#: ``exact_leverage_scores`` accepts; scores then err by about cond(L)^2 * eps.
#: ``ls_det_fraction_plan``'s remainder downdate holds cond(L) cond(M) to it.
CHOLESKY_QR_MAX_COND = 1e4

#: Most entries in one row block of ``_row_energies``: a block's product
#: (64 KiB) stays small enough for the allocator to reuse, where a fresh
#: n x d temporary was page-faulted in again at every call.
_ROW_BLOCK_ENTRIES = 2 ** 13


def exact_leverage_scores(B) -> np.ndarray:
    """Row leverage scores l_i = diag(B (B*B)^+ B*)_i.

    Entries lie in [0, 1] and sum to rank(B).  A real, tall B is whitened by
    Cholesky-QR: with L the lower Cholesky factor of the Gram B^T B, the
    scores are the row energies ||b_i L^{-T}||^2, taken over equal row
    blocks of at most 2^13 entries, so no n x d whitened copy of B is
    formed.  That needs cond(L) <= 1e4 (``CHOLESKY_QR_MAX_COND``);
    otherwise (a failed factorization, complex or wide input, or no
    columns) the scores are the squared row norms of the rank-truncated
    ``span_basis`` of B.  NumPy only: no ``scipy.linalg`` call, whose
    separate BLAS thread pool would contend with NumPy's.
    """
    return _whitened_scores(B)[0]


def _whitened_scores(B):
    """``exact_leverage_scores(B)`` and the whitening they came from:
    (L^{-1}, cond(L)) for the lower Cholesky factor L of B^T B, or None
    where the scores are the ``span_basis`` fallback's."""
    B = np.asarray(B)
    n, d = B.shape
    if 0 < d <= n and not np.iscomplexobj(B):
        B = B.astype(float, copy=False)
        with np.errstate(over="ignore", invalid="ignore"):
            G = B.T @ B
        whitening = _cholesky_inverse(G)
        if whitening is not None:
            return _row_energies(B, whitening[0].T), whitening
    return np.sum(np.abs(span_basis(B)) ** 2, axis=1), None


def _cholesky_inverse(G, max_cond: float = CHOLESKY_QR_MAX_COND):
    """(L^{-1}, cond(L)) for the lower Cholesky factor L of the symmetric G,
    or None when G is not finite, the factorization fails or cond(L)
    exceeds ``max_cond``."""
    if not np.all(np.isfinite(G)):
        return None
    try:
        L = np.linalg.cholesky(G)
    except np.linalg.LinAlgError:
        return None
    cond = np.linalg.cond(L)
    if not cond <= max_cond:
        return None
    return np.linalg.inv(L), cond


def _row_energies(B, T) -> np.ndarray:
    """Squared row norms of B T, over equal row blocks of at most 2^13
    entries of the product, whose products are the only temporaries.  Each
    row's value is the one a single product B @ T gives wherever the BLAS
    computes a row alike in both (pinned for up to 48 columns); on an
    AVX-512 OpenBLAS, products of 60 or more columns can differ in the
    last bit."""
    n = B.shape[0]
    cap = max(1, _ROW_BLOCK_ENTRIES // T.shape[1])  # rows
    blocks = max(1, -(-n // cap))
    size = max(1, -(-n // blocks))
    out = np.empty(n)
    for start in range(0, n, size):
        W = B[start:start + size] @ T
        np.einsum("ij,ij->i", W, W, out=out[start:start + size])
    return out


def _embedded_factor(M, embed_rows, rng, caller):
    """R factor of the Gaussian embedding S M.

    S is ``embed_rows`` x n (default 4 cols) with N(0, 1/embed_rows) entries,
    drawn from ``rng``; callers draw on from the same generator.  R comes
    from ``np.linalg.qr(S @ M, mode="r")``, so no Q is formed.  R is None
    when it fails the rank test: its smallest diagonal magnitude is at most
    max(embed_rows, cols) * eps times its largest, the cutoff for the size of
    the matrix factored.
    """
    n, d = M.shape
    s = 4 * d if embed_rows is None else check_int(embed_rows,
                                                   f"{caller}: embed_rows")
    if s < d:
        raise ValueError(f"{caller}: embed_rows must be >= cols")
    _check_finite(M, caller)
    S = rng.standard_normal((s, n)) / np.sqrt(s)
    R = np.linalg.qr(S @ M, mode="r")
    diag = np.abs(np.diag(R))
    tol = max(s, d) * np.finfo(np.float64).eps
    # written so that a NaN diagonal (S M overflowed) fails the test too
    if diag.size == 0 or not diag.min() > tol * diag.max():
        return None
    return R


def approx_leverage_scores(B, embed_rows: int | None = None,
                           jl_cols: int | None = None, seed=0) -> np.ndarray:
    """Approximate leverage scores without forming any n x n intermediate.

    Pipeline: a dense Gaussian embedding S (``embed_rows`` x n, default 4d
    rows) compresses B; the R factor of QR(S B) whitens it; a JL projection G
    (d x ``jl_cols`` Gaussian, scaled 1/sqrt(jl_cols), default
    ceil(8 ln n) columns) reduces the row-norm computation.  S and then G
    come from one Philox stream: ``seeded_generator(seed)``.  Returns
    ||e_i^T B R^{-1} G||^2, a (1 +- O(eps)) estimate of the exact scores with
    high probability.  NumPy only, as in ``exact_leverage_scores``: R is
    taken by ``np.linalg.qr(mode="r")`` and R^{-1} G by ``np.linalg.solve``.

    Raises ValueError when R fails the rank test of the embedding (smallest
    diagonal magnitude at most max(embed_rows, d) * eps times the largest:
    rank-deficient B); use exact_leverage_scores in that case.
    """
    rng = seeded_generator(seed, "approx_leverage_scores: seed")
    B = np.asarray(B)
    n, d = B.shape
    if jl_cols is None:
        r = int(np.ceil(8 * np.log(max(n, 2))))
    else:
        r = check_int(jl_cols, "approx_leverage_scores: jl_cols", 1)
    R = _embedded_factor(B, embed_rows, rng, "approx_leverage_scores")
    if R is None:
        raise ValueError(
            "approx_leverage_scores: rank-deficient input (singular R factor); "
            "use exact_leverage_scores instead"
        )
    G = rng.standard_normal((d, r)) / np.sqrt(r)
    W = np.linalg.solve(R, G)  # R^{-1} G, d x r
    proj = B @ W
    return np.sum(np.abs(proj) ** 2, axis=1)


def build_sampling_sketch(probs, t: int, seed=0) -> SamplingSketch:
    """Draw t rows i.i.d. with replacement from probs; weight = 1/sqrt(t p_i).

    The rows are the ones ``seeded_generator(seed).choice(probs.size, t,
    p=probs/total)`` draws (``seed`` an integer >= 0, a ``SeedSequence`` or
    a ``Generator``), by the inverse-CDF search ``choice`` runs after its own
    input checks, which the checks here already cover.
    """
    rng = seeded_generator(seed, "build_sampling_sketch: seed")
    probs = np.asarray(probs, dtype=float)
    t = check_int(t, "build_sampling_sketch: t", 1)
    if probs.ndim != 1:
        raise ValueError("build_sampling_sketch: probabilities must be 1-D")
    if np.any(probs < 0) or not np.all(np.isfinite(probs)):
        raise ValueError("build_sampling_sketch: probabilities must be finite and >= 0")
    total = probs.sum()
    if abs(total - 1.0) > 1e-9:
        raise ValueError(
            f"build_sampling_sketch: probabilities sum to {total!r}, expected 1"
        )
    cdf = np.cumsum(probs / total)
    cdf /= cdf[-1]
    rows = cdf.searchsorted(rng.random(t), side="right")
    weights = 1.0 / np.sqrt(t * probs[rows])
    return SamplingSketch(source_rows=int(probs.size), rows=rows, weights=weights)


def apply_sketch(S: SamplingSketch, B) -> np.ndarray:
    """Materialize the sketched matrix C: row j = weights[j] * B[rows[j]];
    a vector ``B`` gives its t weighted entries."""
    B = np.asarray(B)
    if B.ndim == 0:
        raise ValueError("apply_sketch: B must have a row axis, not be a "
                         "scalar")
    if S.source_rows != B.shape[0]:
        raise ValueError("apply_sketch: sketch built over a different row count")
    if S.rows.size and (S.rows.min() < 0 or S.rows.max() >= B.shape[0]):
        raise ValueError("apply_sketch: row index out of range")
    return S.weights.reshape((-1,) + (1,) * (B.ndim - 1)) * B[S.rows]


def canonical_scheme(scheme: str) -> str:
    """A scheme name as the library spells it: trimmed, lower-case, and with
    ``_`` read as ``-`` (so ``LS_MX`` names ``ls-mx``)."""
    return scheme.strip().lower().replace("_", "-")


def scheme_probabilities(problem, x, scheme: str, meter=None,
                         cache: dict | None = None) -> SchemeResult:
    """Normalized row-sampling probabilities for one curvature-aware scheme.

    Schemes (D = diag of second derivatives at x, rows a_i of problem.A):

    - ``uniform``: 1/n.
    - ``ls``: leverage scores of D^{1/2} A, computed in real arithmetic on
      |D|^{1/2} A (identical scores since (D^{1/2}A)^* (D^{1/2}A) = A^T|D|A).
    - ``rn``: |f_i''| * ||a_i||^2.
    - ``ls-mx``: leverage(A) + leverage(D A), the split-product variant.
    - ``rn-mx``: ||a_i|| + ||(D A)_i||.

    All-zero scores fall back to uniform with a RuntimeWarning and a flag.
    The optional meter is charged per the documented unit policy (row norms of
    an n x d matrix = 1 unit; a leverage computation = d units; the d_diag
    evaluation charges itself).  ``cache`` persists the x-independent pieces
    (leverage/row norms of A) across outer iterations.
    """
    name, scheme = scheme, canonical_scheme(scheme)
    if scheme not in SAMPLING_SCHEMES:
        raise ValueError(f"unknown sampling scheme {name!r}")
    A = problem.A
    n, d = A.shape
    if scheme == "uniform":
        return SchemeResult(np.full(n, 1.0 / n))
    if cache is None:
        cache = {}
    dvec = hessian_oracle.d_diag(problem, x, meter=meter)
    absd = np.abs(dvec)
    if scheme == "ls":
        _charge(meter, d)
        scores = exact_leverage_scores(np.sqrt(absd)[:, None] * A)
    elif scheme == "rn":
        _charge(meter, 1)
        scores = absd * _cached_row_sqnorms(A, cache)
    elif scheme == "ls-mx":
        if "lev_A" not in cache:
            _charge(meter, d)
            cache["lev_A"] = exact_leverage_scores(A)
        _charge(meter, d)
        scores = cache["lev_A"] + exact_leverage_scores(absd[:, None] * A)
    else:  # rn-mx
        _charge(meter, 1)
        rn = np.sqrt(_cached_row_sqnorms(A, cache))
        scores = rn + absd * rn
    total = scores.sum()
    if total <= 0.0:
        warnings.warn(
            f"scheme {scheme!r}: all scores are zero; falling back to uniform",
            RuntimeWarning,
        )
        return SchemeResult(np.full(n, 1.0 / n), fell_back=True)
    return SchemeResult(scores / total)


def _cached_row_sqnorms(A, cache: dict) -> np.ndarray:
    if "row_sqnorms_A" not in cache:
        cache["row_sqnorms_A"] = np.einsum("ij,ij->i", A, A)
    return cache["row_sqnorms_A"]


def gamma_factor(B, approx_scores) -> float:
    """Spectral norm of sum_i (||B_i||^2 / scores_i) B_i* B_i.

    The sampling-complexity inflation factor attached to approximate scores.
    Zero rows contribute nothing; a zero score on a nonzero row is invalid.
    """
    B = np.asarray(B)
    scores = np.asarray(approx_scores, dtype=float)
    sqnorms = np.sum(np.abs(B) ** 2, axis=1)
    nonzero = sqnorms > 0
    if np.any(nonzero & (scores <= 0)):
        raise ValueError("gamma_factor: zero/negative score on a nonzero row")
    w = np.zeros_like(sqnorms)
    w[nonzero] = sqnorms[nonzero] / scores[nonzero]
    M = (B.conj() * w[:, None]).T @ B
    return spectral_norm(M)


def embedding_distortion(S, M) -> float:
    """Worst squared-length distortion of S on the (complex) column span of M.

    Returns max_i |sigma_i(S Q)^2 - 1| where Q is an orthonormal basis of the
    real span of (Re M, Im M).  A return value eta certifies
    | ||S x||^2 - ||x||^2 | <= eta ||x||^2 for every complex x in range(M),
    which is the hypothesis of the sketched product bound
    ||A* S^T S B - A* B|| <= eta ||A|| ||B||.
    """
    M = np.asarray(M)
    X = np.hstack([M.real, M.imag]) if np.iscomplexobj(M) else M.real
    Q = span_basis(X)
    sig = np.linalg.svd(np.asarray(S) @ Q, compute_uv=False)
    return float(np.max(np.abs(sig**2 - 1.0)))
