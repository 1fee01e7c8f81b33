"""Streaming bilinear-form estimation via a tensor-product count sketch.

Estimates ``u^T (A^T B) v`` from a ``k``-bucket sketch of the row pairs.
The streaming path (``ingest``/``ts_pair``) forms no d x d or n x d product:
each row pair ``(a_i, b_i)`` is count-sketched separately and the two bucket
vectors are circularly convolved (by FFT), which equals count-sketching the
rank-one tensor ``a_i (x) b_i`` under the derived hash
``(h1 + h2 mod k, s1 * s2)``.  Accumulating those sketches and pairing the
result with the sketch of ``u (x) v`` gives an unbiased estimate whose
variance shrinks like ``1/k`` times the squared product of the query norms
and the Frobenius norm of ``A^T B`` — the post-cancellation magnitude, not
the gross row-norm mass.

Because the accumulator is linear, it is also the count sketch of
``sum_i a_i (x) b_i = A^T B`` under the derived hash.  ``estimate``, which
sees all rows at once, uses that: it forms the d x d Gram ``A^T B`` once and
scatters it into each repetition's buckets, which gives the sketch the
``ingest`` loop would build, up to rounding.

All inner products are bilinear (no conjugation): the target itself uses the
plain transpose throughout, so complex inputs are supported by linearity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core_complex import check_int, child_seed, seeded_generator

__all__ = [
    "TensorSketchState",
    "estimate",
    "estimate_vmv",
    "ingest",
    "query_vec",
    "ts_new",
    "ts_pair",
]


@dataclass
class TensorSketchState:
    """Bucket count, seeded hash/sign tables, and the complex accumulator.

    Hash tables are materialized lazily: the table entry for coordinate ``i``
    is the ``i``-th draw of a fixed per-table stream, so growing to a larger
    dimension extends the tables without changing existing entries.
    """

    k: int
    q: np.ndarray
    _streams: list = field(repr=False, default_factory=list)
    _h1: np.ndarray = field(repr=False, default=None)
    _h2: np.ndarray = field(repr=False, default=None)
    _s1: np.ndarray = field(repr=False, default=None)
    _s2: np.ndarray = field(repr=False, default=None)
    _dim: int = field(repr=False, default=0)

    def _ensure(self, d: int) -> None:
        if self._h1 is not None and d <= self._dim:
            return
        gens = [seeded_generator(s) for s in self._streams]
        self._h1 = gens[0].integers(0, self.k, size=d)
        self._h2 = gens[1].integers(0, self.k, size=d)
        self._s1 = gens[2].integers(0, 2, size=d) * 2.0 - 1.0
        self._s2 = gens[3].integers(0, 2, size=d) * 2.0 - 1.0
        self._dim = d

    def tables(self, d: int):
        """Hash and sign tables for dimension ``d``: ``(h1, h2, s1, s2)``."""
        self._ensure(int(d))
        d = int(d)
        return (self._h1[:d].copy(), self._h2[:d].copy(),
                self._s1[:d].copy(), self._s2[:d].copy())


def ts_new(k, seed=0) -> TensorSketchState:
    """Fresh sketch state with ``k`` buckets and seed-fixed hash functions."""
    k = check_int(k, "ts_new: k")
    if k < 1:
        raise ValueError("ts_new: k must be >= 1")
    return TensorSketchState(k=k, q=np.zeros(k, dtype=complex),
                             _streams=[child_seed(seed, j) for j in range(4)])


def _count_sketch(x, h, s, k):
    out = np.zeros(k, dtype=complex)
    np.add.at(out, h, s * x)
    return out


def ts_pair(state: TensorSketchState, a, b) -> np.ndarray:
    """Sketch of the rank-one tensor ``a (x) b`` into ``k`` buckets.

    Computed as the circular convolution (via FFT) of the two per-factor
    count sketches; identical to count-sketching ``a (x) b`` directly under
    the derived hash ``(h1 + h2 mod k, s1 s2)``.
    """
    a = np.asarray(a, dtype=complex).ravel()
    b = np.asarray(b, dtype=complex).ravel()
    if a.size != b.size:
        raise ValueError("ts_pair: a and b lengths differ")
    state._ensure(a.size)
    d, k = a.size, state.k
    ca = _count_sketch(a, state._h1[:d], state._s1[:d], k)
    cb = _count_sketch(b, state._h2[:d], state._s2[:d], k)
    return np.fft.ifft(np.fft.fft(ca) * np.fft.fft(cb))


def ingest(state: TensorSketchState, a, b) -> TensorSketchState:
    """Accumulate the sketch of ``a (x) b`` into the state (in place)."""
    state.q += ts_pair(state, a, b)
    return state


def query_vec(state: TensorSketchState, u, v) -> np.ndarray:
    """Sketch of the query tensor ``u (x) v``; does not touch the accumulator."""
    return ts_pair(state, u, v)


def estimate_vmv(state: TensorSketchState, u, v) -> complex:
    """Bilinear pairing of the query sketch with the accumulator."""
    p = query_vec(state, u, v)
    return complex(np.sum(p * state.q))


def _scatter_gram(state: TensorSketchState, G) -> None:
    """Accumulate the count sketch of the d x d matrix ``G`` (in place).

    Entry ``G[j, l]`` lands in bucket ``(h1[j] + h2[l]) % k`` with sign
    ``s1[j] s2[l]``: with ``G = A^T B`` this is the sum of
    ``ts_pair(state, a_i, b_i)`` over the rows.
    """
    h1, h2, s1, s2 = state.tables(G.shape[0])
    buckets = ((h1[:, None] + h2) % state.k).ravel()
    w = (s1[:, None] * G * s2).ravel()
    state.q += (np.bincount(buckets, w.real, state.k)
                + 1j * np.bincount(buckets, w.imag, state.k))


def estimate(A, B, u, v, k, reps=1, seed=0) -> complex:
    """Sketch all row pairs of ``A, B`` and estimate ``u^T (A^T B) v``.

    Runs ``reps`` independent states, state ``r`` seeded with
    ``child_seed(seed, r)``; for ``reps > 1`` the estimates are grouped into
    chunks of ``ceil(reps/3)`` and combined by the median of the group
    means, taken separately on real and imaginary parts.  Each state's
    accumulator is the one ``ingest`` of every row pair would build (up to
    rounding), filled by one scatter of the shared Gram ``A^T B``.
    """
    A = np.asarray(A, dtype=complex)
    B = np.asarray(B, dtype=complex)
    u = np.asarray(u, dtype=complex).ravel()
    v = np.asarray(v, dtype=complex).ravel()
    if A.ndim != 2 or B.ndim != 2 or A.shape[0] != B.shape[0]:
        raise ValueError("estimate: A and B must share their row count")
    if A.shape[1] != B.shape[1]:
        raise ValueError("estimate: A and B must share their column count")
    if u.size != A.shape[1] or v.size != B.shape[1]:
        raise ValueError("estimate: query lengths must match column counts")
    if not all(np.isfinite(x).all() for x in (A, B, u, v)):
        raise ValueError("estimate: A, B, u and v must be finite "
                         "(found NaN or Inf)")
    k = check_int(k, "estimate: k")
    reps = check_int(reps, "estimate: reps")
    if reps < 1:
        raise ValueError("estimate: reps must be >= 1")
    G = A.T @ B
    ests = np.empty(reps, dtype=complex)
    for r in range(reps):
        state = ts_new(k, child_seed(seed, r))
        _scatter_gram(state, G)
        ests[r] = estimate_vmv(state, u, v)
    if reps == 1:
        return complex(ests[0])
    group = math.ceil(reps / 3)
    means = np.array([ests[j:j + group].mean()
                      for j in range(0, reps, group)])
    return complex(np.median(means.real) + 1j * np.median(means.imag))
