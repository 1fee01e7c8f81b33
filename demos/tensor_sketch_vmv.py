"""Bilinear forms u^T (A^T B) v from a k-bucket tensor sketch.

Each row pair (a_i, b_i) is hashed into k buckets as a degree-2 tensor
sketch; the accumulated buckets answer any query u, v later.  A stream fed
through `ingest` never forms A^T B; the one-call `estimate` used here sees
all rows at once and scatters A^T B into the buckets directly, which gives
the same sketch, then pairs the buckets with the query by a gather instead
of sketching u (x) v by FFTs.  Because the accumulator is linear in
sum_i a_i (x) b_i, estimates concentrate around the true bilinear form:
quadrupling the bucket count roughly halves the error, and a stream whose
rank-one terms cancel exactly is estimated as zero even when the naive
magnitude sum is enormous.
"""

import numpy as np

from sketchopt.vmv_sketch import estimate

rng = np.random.default_rng(31)


def crandn(*shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


A, B = crandn(60, 6), crandn(60, 6)
u, v = crandn(6), crandn(6)
exact = complex(u @ (A.T @ B) @ v)

print(f"exact u^T (A^T B) v = {exact:.4f}")
print()
print(f"{'buckets k':>10} {'median |error|':>15}   (101 seeds each)")
for k in (8, 32, 128, 512):
    errors = [abs(estimate(A, B, u, v, k=k, seed=s) - exact)
              for s in range(101)]
    print(f"{k:>10} {np.median(errors):>15.4f}")

print()
e = estimate(A, B, u, v, k=64, reps=5, seed=1)
print(f"median of 5 repetitions at k=64: error {abs(e - exact):.4f}")

a, b = 100.0 * crandn(5), 100.0 * crandn(5)
A_c = np.tile(a, (40, 1))
B_c = np.vstack([np.tile(b, (20, 1)), np.tile(-b, (20, 1))])
mass = 40 * np.linalg.norm(a) * np.linalg.norm(b)
est = estimate(A_c, B_c, u[:5], v[:5], k=16, seed=2)
print()
print(f"cancelling stream: sum_i |a_i||b_i| = {mass:.2e}, A^T B = 0")
print(f"sketch estimate {abs(est):.2e} -- the cancellation survives hashing")
