import numpy as np
import pytest

from thermalcluster.linalg import (
    KETS,
    ConfigError,
    PositivityError,
    fidelity,
    partial_transpose,
    tensor_all,
    trace_norm,
    validate_density_matrix,
)


def random_density(dim, rng, rank=None):
    rank = dim if rank is None else rank
    a = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def bell_state():
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1 / np.sqrt(2)
    return np.outer(v, v.conj())


def test_tensor_all_order():
    x = np.diag([1.0, 2.0])
    y = np.diag([3.0, 5.0])
    z = np.diag([7.0, 11.0])
    out = tensor_all([x, y, z])
    # qubit 0 is the leftmost factor, i.e. the most significant bit
    assert out[0, 0] == 1 * 3 * 7
    assert out[4, 4] == 2 * 3 * 7
    assert out[1, 1] == 1 * 3 * 11


def test_kets_are_unit_eigenstates():
    for lab, ket in KETS.items():
        assert abs(np.linalg.norm(ket) - 1.0) < 1e-14, lab


def test_validate_accepts_valid_states():
    rng = np.random.default_rng(1)
    for dim in (2, 4, 8):
        rho = random_density(dim, rng)
        assert validate_density_matrix(rho) is rho


def test_validate_rejects_non_hermitian():
    m = np.array([[0.5, 0.1], [0.3, 0.5]], dtype=complex)
    with pytest.raises(ValueError, match="Hermitian"):
        validate_density_matrix(m)


def test_validate_rejects_wrong_trace():
    with pytest.raises(ValueError, match="trace"):
        validate_density_matrix(np.eye(2))


def test_validate_positivity_clamp_boundary():
    # eigenvalue -5e-10 is inside the clamp, -5e-9 is not
    ok = np.diag([1.0 + 5e-10, -5e-10]).astype(complex)
    validate_density_matrix(ok)
    bad = np.diag([1.0 + 5e-9, -5e-9]).astype(complex)
    with pytest.raises(PositivityError):
        validate_density_matrix(bad)


def test_partial_transpose_involution_and_trace():
    rng = np.random.default_rng(4)
    rho = random_density(8, rng)
    pt = partial_transpose(rho, [1])
    assert abs(np.trace(pt).real - 1.0) < 1e-12
    assert np.allclose(pt, pt.conj().T)
    assert np.allclose(partial_transpose(pt, [1]), rho)


def test_partial_transpose_full_set_is_transpose():
    rng = np.random.default_rng(5)
    rho = random_density(4, rng)
    assert np.allclose(partial_transpose(rho, [0, 1]), rho.T)


def test_partial_transpose_bell_eigenvalues():
    w = np.linalg.eigvalsh(partial_transpose(bell_state(), [0]))
    assert np.allclose(sorted(w), [-0.5, 0.5, 0.5, 0.5])


def test_partial_transpose_separable_stays_positive():
    rng = np.random.default_rng(6)
    rho = sum(
        p * np.kron(random_density(2, rng), random_density(2, rng))
        for p in (0.2, 0.3, 0.5)
    )
    w = np.linalg.eigvalsh(partial_transpose(rho, [0]))
    assert w[0] > -1e-12


def test_partial_transpose_rejects_bad_dimension_and_qubit():
    with pytest.raises(ConfigError, match=r"^dimension 6 is not a power of 2$"):
        partial_transpose(np.eye(6) / 6, [0])
    with pytest.raises(ConfigError, match=r"^qubit index out of range for n=2: \[0, 2\]$"):
        partial_transpose(bell_state(), [0, 2])
    # the other shape checks in linalg raise the same type
    with pytest.raises(ConfigError, match=r"^dimension mismatch: \(2, 2\) vs \(4, 4\)$"):
        fidelity(np.eye(2) / 2, np.eye(4) / 4)
    with pytest.raises(ConfigError, match=r"^expected a square matrix, got shape \(2, 4\)$"):
        validate_density_matrix(np.ones((2, 4)) / 2)


def test_trace_norm():
    rng = np.random.default_rng(8)
    rho = random_density(4, rng)
    assert abs(trace_norm(rho) - 1.0) < 1e-12
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    assert abs(trace_norm(m) - np.linalg.svd(m, compute_uv=False).sum()) < 1e-10


def test_fidelity_pure_state_overlap():
    rng = np.random.default_rng(9)
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    v /= np.linalg.norm(v)
    psi = np.outer(v, v.conj())
    sigma = random_density(4, rng)
    overlap = float((v.conj() @ sigma @ v).real)
    assert abs(fidelity(psi, sigma) - overlap) < 1e-8


def test_fidelity_properties():
    rng = np.random.default_rng(10)
    for _ in range(5):
        rho = random_density(4, rng)
        sigma = random_density(4, rng)
        f = fidelity(rho, sigma)
        assert 0.0 <= f <= 1.0
        assert abs(f - fidelity(sigma, rho)) < 1e-9
        assert fidelity(rho, rho) > 1.0 - 1e-12


def test_fidelity_orthogonal_states():
    a = np.diag([1.0, 0.0]).astype(complex)
    b = np.diag([0.0, 1.0]).astype(complex)
    assert fidelity(a, b) < 1e-14

