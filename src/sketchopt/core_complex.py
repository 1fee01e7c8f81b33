"""Complex linear algebra, complex->real lifting, mixed norms, seeded streams.

A complex vector v in C^n is represented in real form by interleaving real and
imaginary parts, phi(v) in R^{2n}; a complex scalar y = c + d i acts on those
pairs through the 2x2 block

    lift_scalar(y) = [[c, -d],
                      [d,  c]]

chosen so that lift_scalar(y) @ phi(x) = phi(y * x) with no conjugation, and
consequently lift_matrix(A) @ phi(x) = phi(A @ x).  Residual norms transfer
through the mixed (p,2)-norm: the lp norm of the per-pair Euclidean norms of a
real vector of even length equals the complex lp norm before lifting.

One rule per kind checks arguments: ``check_int`` counts, ``check_real`` real
parameters in a range, ``check_p`` exponents and ``check_seed`` seeds.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

#: default Hermitian tolerance of ``min_eig_hermitian``, relative to the
#: largest entry magnitude (at least 1)
DEFAULT_RTOL = 1e-10


def _check_finite(M: np.ndarray, name: str) -> None:
    if not np.all(np.isfinite(M)):
        raise ValueError(f"{name}: input has non-finite entries")


def check_int(value, name: str, minimum: int | None = None) -> int:
    """``value`` as an ``int``; a bool, a non-integer or a value below
    ``minimum`` raises ``ValueError``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}")
    return int(value)


def check_real(value, name: str, minimum: float, maximum: float | None = None,
               strict: bool = False) -> float:
    """``value`` as a finite ``float`` at or above ``minimum`` and at or
    below ``maximum`` (strictly between them if ``strict``); a bool, a
    non-real or any other value raises ``ValueError``."""
    # float first: the numbers.Real test is slow for the common case
    if isinstance(value, bool) or not isinstance(value, (float, numbers.Real)):
        raise ValueError(f"{name} must be a real number")
    value = float(value)
    top = math.inf if maximum is None else maximum
    if not (math.isfinite(value) and (minimum < value < top if strict
                                      else minimum <= value <= top)):
        if maximum is None:
            rule = f"finite and {'>' if strict else '>='} {minimum}"
        else:
            ends = "()" if strict else "[]"
            rule = f"in {ends[0]}{minimum}, {maximum}{ends[1]}"
        raise ValueError(f"{name} must be {rule}")
    return value


def check_p(value, name: str, finite: bool = False) -> float:
    """``value`` as a ``float`` exponent: ``p >= 1``, or ``p = inf`` unless
    ``finite``; a bool, a non-number or any other value raises
    ``ValueError``."""
    rule = "must be finite and >= 1" if finite \
        else "must satisfy p >= 1 or p = inf"
    if isinstance(value, bool) or not isinstance(value, numbers.Real) \
            or not (1.0 <= value < math.inf
                    or (value == math.inf and not finite)):
        raise ValueError(f"{name} {rule}")
    return float(value)


def check_seed(seed, name: str) -> np.random.SeedSequence:
    """``seed`` as a ``SeedSequence``: one is returned as it is, an integer
    >= 0 is wrapped in a new one, and anything else, ``None`` too, raises."""
    if isinstance(seed, np.random.SeedSequence):
        return seed
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) \
            or seed < 0:
        raise ValueError(f"{name} must be an integer >= 0 or a SeedSequence")
    return np.random.SeedSequence(int(seed))


def seeded_generator(seed, name: str = "seeded_generator: seed"):
    """Philox generator for a seed that ``check_seed`` accepts; a
    ``Generator`` is returned as it is, so callers can share one stream."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.Generator(np.random.Philox(check_seed(seed, name)))


def child_seed(seed, i: int) -> np.random.SeedSequence:
    """Child ``i >= 0`` of a seed that ``check_seed`` accepts.

    Equal to ``SeedSequence(seed).spawn(i + 1)[i]`` for an int, and to the
    same child of a fresh copy of a ``SeedSequence``, but derived from the
    index rather than by a stateful ``spawn``: the caller's object is never
    mutated, and skipped indices do not shift later children.
    """
    root = check_seed(seed, "child_seed: seed")
    i = check_int(i, "child_seed: i", 0)
    return np.random.SeedSequence(root.entropy,
                                  spawn_key=root.spawn_key + (i,),
                                  pool_size=root.pool_size)


def svd(M):
    """Thin singular value decomposition M = U @ diag(sigma) @ Vstar.

    Returns (U, sigma, Vstar) with orthonormal columns in U, rows in Vstar,
    and sigma sorted in descending order.  Raises ValueError on non-finite
    input.
    """
    M = np.asarray(M)
    _check_finite(M, "svd")
    U, sigma, Vstar = np.linalg.svd(M, full_matrices=False)
    return U, sigma, Vstar


def qr(M):
    """Reduced QR factorization M = Q @ R for a tall matrix (rows >= cols).

    Q has orthonormal columns and R is upper-triangular.  Rank-deficient
    inputs still factor; R then carries a (near-)zero diagonal entry and it is
    the caller's job to detect it before inverting R.
    """
    M = np.asarray(M)
    if M.ndim != 2 or M.shape[0] < M.shape[1]:
        raise ValueError("qr: expected a tall matrix (rows >= cols)")
    _check_finite(M, "qr")
    Q, R = np.linalg.qr(M, mode="reduced")
    return Q, R


def lift_scalar(z):
    """Real 2x2 representation [[c, -d], [d, c]] of the scalar z = c + d i."""
    z = complex(z)
    return np.array([[z.real, -z.imag], [z.imag, z.real]])


def phi(v):
    """Interleave real and imaginary parts: C^n -> R^{2n}.

    Entry pair (2j, 2j+1) of the output is (Re v_j, Im v_j).
    """
    v = np.asarray(v, dtype=complex).ravel()
    out = np.empty(2 * v.size)
    out[0::2] = v.real
    out[1::2] = v.imag
    return out


def unphi(y):
    """Inverse of phi: reassemble a complex vector from interleaved pairs."""
    y = np.asarray(y, dtype=float).ravel()
    if y.size % 2:
        raise ValueError("unphi: length must be even")
    return y[0::2] + 1j * y[1::2]


def lift_matrix(A):
    """Real 2m x 2n block representation of a complex matrix.

    Block (i, j) equals lift_scalar(A[i, j]), so that
    lift_matrix(A) @ phi(x) = phi(A @ x) for every complex x.
    """
    A = np.asarray(A, dtype=complex)
    m, n = A.shape
    out = np.zeros((2 * m, 2 * n))
    out[0::2, 0::2] = A.real
    out[0::2, 1::2] = -A.imag
    out[1::2, 0::2] = A.imag
    out[1::2, 1::2] = A.real
    return out


def lp_of_norms(norms, p):
    """Overflow-safe ``(sum norms^p)^(1/p)`` of non-negative norms.

    For p = inf, the maximum norm; an empty vector has norm 0.
    """
    norms = np.asarray(norms, dtype=float)
    top = float(norms.max(initial=0.0))
    if np.isinf(p) or top == 0.0:
        return top
    return float(top * np.sum((norms / top) ** p) ** (1.0 / p))


def mixed_norm(y, p):
    """lp norm of the per-pair Euclidean norms of an even-length real vector.

    For p = inf, the maximum pair norm.  Equals the complex lp norm of
    unphi(y).
    """
    y = np.asarray(y, dtype=float).ravel()
    if y.size % 2:
        raise ValueError("mixed_norm: length must be even")
    p = check_p(p, "mixed_norm: p")
    return lp_of_norms(np.hypot(y[0::2], y[1::2]), p)


def spectral_norm(M):
    """Largest singular value of M (0 for an empty matrix)."""
    M = np.asarray(M)
    if M.size == 0:
        return 0.0
    _check_finite(M, "spectral_norm")
    return float(np.linalg.norm(M, 2))


def min_eig_hermitian(M, tol: float = DEFAULT_RTOL):
    """Smallest eigenvalue of a Hermitian matrix.

    Rejects inputs whose anti-Hermitian part exceeds tol relative to the
    matrix scale; computes eigenvalues of the Hermitian part for stability.
    """
    M = np.asarray(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("min_eig_hermitian: expected a square matrix")
    _check_finite(M, "min_eig_hermitian")
    check_real(tol, "min_eig_hermitian: tol", 0)
    scale = max(1.0, float(np.abs(M).max()))
    if np.abs(M - M.conj().T).max() > tol * scale:
        raise ValueError("min_eig_hermitian: input is not Hermitian within tolerance")
    H = 0.5 * (M + M.conj().T)
    return float(np.linalg.eigvalsh(H)[0])
