"""Tests for the complex linear-algebra primitives and the lifting maps.

Independent oracles used here: power iteration for the largest singular value,
direct complex evaluation for lifted norms, and entrywise reconstruction.
"""

import numpy as np
import pytest

from sketchopt.core_complex import (
    check_p,
    child_seed,
    lift_matrix,
    lift_scalar,
    min_eig_hermitian,
    mixed_norm,
    phi,
    qr,
    spectral_norm,
    svd,
    unphi,
)


def rand_cmat(rng, n, d):
    return rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))


def rand_cvec(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def power_iteration_norm(M, iters=500, seed=7):
    """Largest singular value of M via power iteration on M*M."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(M.shape[1]) + 1j * rng.standard_normal(M.shape[1])
    v /= np.linalg.norm(v)
    for _ in range(iters):
        w = M.conj().T @ (M @ v)
        nw = np.linalg.norm(w)
        if nw == 0:
            return 0.0
        v = w / nw
    return float(np.sqrt(np.linalg.norm(M.conj().T @ (M @ v))))


# ---------------------------------------------------------------------------
# svd


def test_svd_identity_singular_values():
    U, sigma, Vstar = svd(np.eye(3))
    assert np.allclose(sigma, np.ones(3))


def test_svd_imaginary_diagonal():
    M = np.array([[2j, 0.0], [0.0, 0.0]])
    _, sigma, _ = svd(M)
    assert np.allclose(sigma, [2.0, 0.0])


def test_svd_reconstruction_random():
    rng = np.random.default_rng(0)
    M = rand_cmat(rng, 5, 3)
    U, sigma, Vstar = svd(M)
    R = U @ np.diag(sigma) @ Vstar
    scale = np.linalg.norm(M)
    assert np.max(np.abs(M - R)) <= 1e-10 * scale
    # orthonormal columns
    assert np.allclose(U.conj().T @ U, np.eye(3), atol=1e-12)
    assert np.allclose(Vstar @ Vstar.conj().T, np.eye(3), atol=1e-12)
    # descending order
    assert np.all(np.diff(sigma) <= 0)


def test_svd_rejects_nonfinite():
    M = np.array([[1.0, np.nan], [0.0, 1.0]])
    with pytest.raises(ValueError):
        svd(M)


# ---------------------------------------------------------------------------
# qr


def test_qr_orthonormal_input_phase_diagonal():
    rng = np.random.default_rng(1)
    Q0, _ = np.linalg.qr(rand_cmat(rng, 6, 4))
    Q, R = qr(Q0)
    # R must be diagonal with unit-modulus entries
    off = R - np.diag(np.diag(R))
    assert np.max(np.abs(off)) < 1e-12
    assert np.allclose(np.abs(np.diag(R)), 1.0, atol=1e-12)


def test_qr_real_orthonormality():
    rng = np.random.default_rng(2)
    M = rng.standard_normal((4, 2))
    Q, R = qr(M)
    assert np.max(np.abs(Q.T @ Q - np.eye(2))) <= 1e-12
    assert np.max(np.abs(Q @ R - M)) <= 1e-12
    # upper-triangular
    assert np.allclose(R, np.triu(R))


def test_qr_duplicated_column_rank_deficiency():
    rng = np.random.default_rng(3)
    a = rng.standard_normal(5)
    M = np.stack([a, a], axis=1)
    _, R = qr(M)
    diag = np.abs(np.diag(R))
    assert diag.min() <= 1e-10 * max(1.0, diag.max())


def test_qr_requires_tall_input():
    with pytest.raises(ValueError):
        qr(np.ones((2, 3)))


# ---------------------------------------------------------------------------
# lifting


def test_lift_scalar_zero_and_one():
    assert np.allclose(lift_scalar(0), np.zeros((2, 2)))
    assert np.allclose(lift_scalar(1), np.eye(2))


def test_lift_scalar_imaginary_unit_action():
    L = lift_scalar(1j)
    assert np.allclose(L, [[0.0, -1.0], [1.0, 0.0]])
    # lift(y) @ phi(x) = phi(y x) with y = i, x = 1 + i -> phi(i - 1) = (-1, 1)
    out = L @ phi(np.array([1.0 + 1.0j]))
    assert np.allclose(out, [-1.0, 1.0])


def test_lift_scalar_ring_homomorphism():
    rng = np.random.default_rng(4)
    for _ in range(1000):
        z, w = rand_cvec(rng, 2)
        assert np.max(np.abs(lift_scalar(z * w) - lift_scalar(z) @ lift_scalar(w))) <= 1e-12
        assert np.max(np.abs(lift_scalar(z + w) - (lift_scalar(z) + lift_scalar(w)))) <= 1e-12


def test_phi_examples_and_roundtrip():
    assert np.allclose(phi(np.array([1 + 2j])), [1.0, 2.0])
    assert np.allclose(phi(np.zeros(3, dtype=complex)), np.zeros(6))
    rng = np.random.default_rng(5)
    v = rand_cvec(rng, 9)
    assert np.allclose(unphi(phi(v)), v)


def test_lift_matrix_small_cases():
    assert np.allclose(lift_matrix(np.array([[1.0]])), np.eye(2))
    out = lift_matrix(np.array([[1j]])) @ phi(np.array([1.0 + 0j]))
    assert np.allclose(out, phi(np.array([1j])))


def test_lift_matrix_residual_norm_identity():
    rng = np.random.default_rng(6)
    A = rand_cmat(rng, 6, 3)
    x = rand_cvec(rng, 3)
    b = rand_cvec(rng, 6)
    y = lift_matrix(A) @ phi(x) - phi(b)
    r = A @ x - b
    for p in (1, 2, np.inf):
        lhs = mixed_norm(y, p)
        rhs = np.linalg.norm(r, ord=p)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, rhs)


# ---------------------------------------------------------------------------
# mixed norm


def test_mixed_norm_single_pair():
    assert mixed_norm(np.array([3.0, 4.0, 0.0, 0.0]), 1) == pytest.approx(5.0)


def test_mixed_norm_inf_pair_max():
    assert mixed_norm(np.array([3.0, 4.0, 5.0, 12.0]), np.inf) == pytest.approx(13.0)


def test_mixed_norm_matches_complex_p_norm():
    rng = np.random.default_rng(7)
    v = rand_cvec(rng, 11)
    for p in (1, 1.5, 2, 3, np.inf):
        ref = np.linalg.norm(v, ord=p) if p != 1.5 else float(np.sum(np.abs(v) ** 1.5) ** (1 / 1.5))
        assert mixed_norm(phi(v), p) == pytest.approx(ref, rel=1e-12)


def test_mixed_norm_rejects_odd_length():
    with pytest.raises(ValueError):
        mixed_norm(np.ones(5), 2)


def test_mixed_norm_rejects_bad_order():
    with pytest.raises(ValueError):
        mixed_norm(np.ones(4), 0.5)


def test_check_p_takes_numbers_from_one_up():
    for value in (1, 1.5, np.float64(3.0), np.int64(2)):
        assert check_p(value, "f: p") == float(value)
        assert check_p(value, "f: p", finite=True) == float(value)
    assert check_p(np.inf, "f: p") == np.inf
    for value in (True, 0.5, np.nan, -np.inf, "2", None):
        with pytest.raises(ValueError,
                           match="^f: p must satisfy p >= 1 or p = inf$"):
            check_p(value, "f: p")
    for value in (True, np.inf, np.nan, 0.5):
        with pytest.raises(ValueError,
                           match="^f: p must be finite and >= 1$"):
            check_p(value, "f: p", finite=True)


# ---------------------------------------------------------------------------
# spectral norm / min eig


def test_spectral_norm_trivial():
    assert spectral_norm(np.eye(4)) == pytest.approx(1.0)
    assert spectral_norm(np.diag([2.0, 3j])) == pytest.approx(3.0)


def test_spectral_norm_matches_power_iteration():
    rng = np.random.default_rng(8)
    M = rand_cmat(rng, 7, 4)
    assert spectral_norm(M) == pytest.approx(power_iteration_norm(M), abs=1e-8)


def test_spectral_norm_transpose_invariance():
    rng = np.random.default_rng(9)
    M = rand_cmat(rng, 5, 3)
    s = spectral_norm(M)
    assert spectral_norm(M.conj().T) == pytest.approx(s, rel=1e-12)
    assert spectral_norm(M.T) == pytest.approx(s, rel=1e-12)


def test_min_eig_hermitian_cases():
    assert min_eig_hermitian(np.eye(3)) == pytest.approx(1.0)
    assert min_eig_hermitian(np.diag([-2.0, 5.0])) == pytest.approx(-2.0)
    rng = np.random.default_rng(10)
    X = rand_cmat(rng, 6, 4)
    assert min_eig_hermitian(X.conj().T @ X) >= -1e-10


def test_min_eig_hermitian_rejects_non_hermitian():
    with pytest.raises(ValueError):
        min_eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("tol", [np.nan, np.inf, -1e-12])
def test_min_eig_hermitian_rejects_bad_tol(tol):
    # a NaN tol used to turn the Hermitian test off, and a negative one
    # rejected even an exactly Hermitian matrix as not Hermitian
    for M in ([[1.0, 5.0], [0.0, 1.0]], np.eye(2)):
        with pytest.raises(ValueError, match="^min_eig_hermitian: tol must "
                                             "be finite and >= 0$"):
            min_eig_hermitian(np.array(M), tol=tol)
    assert min_eig_hermitian(np.eye(2), tol=0.0) == 1.0


def test_child_seed_equals_spawned_child_and_leaves_root_alone():
    for root in (np.random.SeedSequence(21),
                 np.random.SeedSequence(21).spawn(3)[2]):
        eager = np.random.SeedSequence(
            root.entropy, spawn_key=root.spawn_key,
            pool_size=root.pool_size).spawn(5)
        for i in (4, 0, 2):
            np.testing.assert_array_equal(
                child_seed(root, i).generate_state(4),
                eager[i].generate_state(4))
        assert root.n_children_spawned == 0
    np.testing.assert_array_equal(
        child_seed(21, 3).generate_state(4),
        np.random.SeedSequence(21).spawn(4)[3].generate_state(4))
