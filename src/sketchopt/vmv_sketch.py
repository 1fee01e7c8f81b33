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
sees all rows at once, uses that: it forms the d x d Gram ``A^T B`` once,
scatters it into each repetition's buckets (the sketch the ``ingest`` loop
would build, up to rounding) and pairs those buckets with the query by one
d x d gather, ``sum_jl s1[j] u[j] q[(h1[j] + h2[l]) % k] s2[l] v[l]``, which
equals ``estimate_vmv``'s pairing with the query sketch.  Only the streaming
path runs FFTs.

A state's four hash and sign tables come from one counter-based Philox
stream keyed by its seed (Salmon et al., "Parallel Random Numbers: As Easy
as 1, 2, 3", SC 2011), four raw 64-bit draws per coordinate; the layout is
on ``TensorSketchState``.  ``estimate`` draws one stream per repetition,
keyed by the seed ``ts_new`` gets on the streaming path.

All inner products are bilinear (no conjugation): the target itself uses the
plain transpose throughout, so complex inputs are supported by linearity.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .core_complex import check_int, check_seed, child_seed

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

    All four tables come from one Philox stream keyed by the state's seed:
    coordinate ``i`` takes the raw 64-bit draws ``4i .. 4i+3``, ``h1`` and
    ``h2`` as the first two mod ``k`` (bias at most ``k / 2**64``) and ``s1``
    and ``s2`` as ``+-1`` from the top bits of the other two.  Tables are
    materialized lazily; growing to a larger dimension draws further along
    the same stream, so existing entries keep their values.
    """

    k: int
    q: np.ndarray
    _seed: np.random.SeedSequence = field(repr=False)
    _h1: np.ndarray = field(repr=False, default=None)
    _h2: np.ndarray = field(repr=False, default=None)
    _s1: np.ndarray = field(repr=False, default=None)
    _s2: np.ndarray = field(repr=False, default=None)
    _dim: int = field(repr=False, default=0)

    def _ensure(self, d: int) -> None:
        if self._h1 is not None and d <= self._dim:
            return
        raw = np.random.Philox(self._seed).random_raw(4 * d).reshape(d, 4).T
        self._h1, self._h2 = (raw[:2] % np.uint64(self.k)).astype(np.intp)
        self._s1, self._s2 = (raw[2:] >> np.uint64(63)) * 2.0 - 1.0
        self._dim = d

    def tables(self, d: int):
        """Hash and sign tables for dimension ``d``: ``(h1, h2, s1, s2)``."""
        d = check_int(d, "TensorSketchState.tables: d", 0)
        self._ensure(d)
        return (self._h1[:d].copy(), self._h2[:d].copy(),
                self._s1[:d].copy(), self._s2[:d].copy())


def ts_new(k, seed=0) -> TensorSketchState:
    """Fresh sketch state with ``k`` buckets and seed-fixed hash functions.

    ``seed`` is an integer >= 0 or a ``SeedSequence`` (read, never spawned
    from); any other seed raises ``ValueError`` here, not at the first table
    draw.
    """
    seed = check_seed(seed, "ts_new: seed")
    k = check_int(k, "ts_new: k", 1)
    return TensorSketchState(k=k, q=np.zeros(k, dtype=complex), _seed=seed)


def _count_sketch(x, h, s, k):
    out = np.zeros(k, dtype=complex)
    np.add.at(out, h, s * x)
    return out


def ts_pair(state: TensorSketchState, a, b) -> np.ndarray:
    """Sketch of the rank-one tensor ``a (x) b`` into ``k`` buckets.

    Computed as the circular convolution (via FFT) of the two per-factor
    count sketches; identical to count-sketching ``a (x) b`` directly under
    the derived hash ``(h1 + h2 mod k, s1 s2)``.  ``a`` and ``b`` are one
    row each: an input with more than one dimension raises ``ValueError``.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.ndim > 1 or b.ndim > 1:
        raise ValueError("ts_pair: a and b must be one-dimensional rows")
    a, b = a.ravel(), b.ravel()
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


def _gram_estimate(G, u, v, k, seed) -> complex:
    """One repetition of ``estimate`` on the shared Gram ``G = A^T B``.

    Entry ``G[j, l]`` lands in bucket ``(h1[j] + h2[l]) % k`` with sign
    ``s1[j] s2[l]`` (with ``G = A^T B`` these buckets are the sum of
    ``ts_pair(state, a_i, b_i)`` over the rows).  The query sketch is paired
    with them entry by entry: the signs fold into ``u`` and ``v`` and the
    buckets are gathered back onto the d x d grid, so no FFT runs.
    """
    h1, h2, s1, s2 = ts_new(k, seed).tables(G.shape[0])
    buckets = (h1[:, None] + h2) % k
    signs = s1[:, None] * s2
    flat = buckets.ravel()
    q = np.empty(k, dtype=complex)
    q.real = np.bincount(flat, (signs * G.real).ravel(), k)
    q.imag = np.bincount(flat, (signs * G.imag).ravel(), k)
    return complex((s1 * u) @ (q[buckets] @ (s2 * v)))


def _median_of_means(ests) -> complex:
    """Median of the group means of ``ests``, real and imaginary parts apart.

    Groups hold ``ceil(reps/3)`` estimates, so there are two or three means;
    one-element groups are their own means.
    """
    group = math.ceil(len(ests) / 3)
    means = ests if group == 1 else [
        complex(np.mean(ests[j:j + group])) for j in range(0, len(ests), group)]

    def median(xs):
        xs = sorted(xs)
        return xs[1] if len(xs) == 3 else (xs[0] + xs[1]) / 2

    return complex(median([m.real for m in means]),
                   median([m.imag for m in means]))


def estimate(A, B, u, v, k, reps=1, seed=0) -> complex:
    """Sketch all row pairs of ``A, B`` and estimate ``u^T (A^T B) v``.

    Runs ``reps`` independent states, state ``r`` seeded with
    ``child_seed(seed, r)`` (``seed`` an integer >= 0 or a ``SeedSequence``);
    for ``reps > 1`` the estimates are grouped into
    chunks of ``ceil(reps/3)`` and combined by the median of the group
    means, taken separately on real and imaginary parts.  Each state's
    buckets are the ones ``ingest`` of every row pair would build (up to
    rounding), filled by one scatter of the shared Gram ``A^T B``, and are
    paired with the query by one gather rather than by ``query_vec``'s FFTs:
    the result equals ``estimate_vmv`` on those buckets up to rounding.

    ``u`` or ``v`` with more than one dimension raises ``ValueError``, as
    in ``ts_pair``.  Finiteness is checked on ``u``, ``v`` and the Gram: a
    NaN or Inf in ``A`` or ``B`` reaches it, and so does a Gram that
    overflows although ``A`` and ``B`` are finite.  Both raise
    ``ValueError``, as does a repetition whose buckets or pairing overflow.
    """
    seed = check_seed(seed, "estimate: seed")
    if np.ndim(u) > 1 or np.ndim(v) > 1:
        raise ValueError("estimate: u and v must be one-dimensional vectors")
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
    if not (np.isfinite(u).all() and np.isfinite(v).all()):
        raise ValueError("estimate: u and v must be finite (found NaN or Inf)")
    k = check_int(k, "estimate: k", 1)
    reps = check_int(reps, "estimate: reps", 1)
    with np.errstate(over="ignore", invalid="ignore"):
        G = A.T @ B
        if not np.isfinite(G).all():
            raise ValueError("estimate: A^T B must be finite (NaN or Inf in "
                             "A or B, or the Gram overflowed)")
        ests = [_gram_estimate(G, u, v, k, child_seed(seed, r))
                for r in range(reps)]
    if not all(cmath.isfinite(e) for e in ests):
        raise ValueError("estimate: the sketched pairing is not finite "
                         "(the buckets or the query overflowed)")
    return ests[0] if reps == 1 else _median_of_means(ests)
