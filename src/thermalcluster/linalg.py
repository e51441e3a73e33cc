"""Dense complex-matrix primitives shared by every other module.

Everything here operates on plain numpy arrays. States live in the
computational basis with qubit 0 as the LEFTMOST tensor factor, i.e. the
most significant bit of the basis index. That single convention is relied
on throughout.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ConfigError",
    "PositivityError",
    "EIG_CLAMP",
    "I2",
    "X",
    "Z",
    "KETS",
    "tensor_all",
    "validate_density_matrix",
    "partial_transpose",
    "hermitian_expm",
    "trace_norm",
    "fidelity",
]

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)

# The six Pauli eigenstates, keyed by the labels used in measurement
# settings: z0,z1 = |0>,|1>; x+,x- = |+>,|->; y+,y- = |r>,|l>.
KETS = {
    "z0": np.array([1.0, 0.0], dtype=complex),
    "z1": np.array([0.0, 1.0], dtype=complex),
    "x+": np.array([1.0, 1.0], dtype=complex) / np.sqrt(2),
    "x-": np.array([1.0, -1.0], dtype=complex) / np.sqrt(2),
    "y+": np.array([1.0, 1.0j], dtype=complex) / np.sqrt(2),
    "y-": np.array([1.0, -1.0j], dtype=complex) / np.sqrt(2),
}

# Eigenvalues in [-EIG_CLAMP, 0) are treated as numerical zeros; anything
# more negative means the matrix is genuinely not positive semidefinite.
EIG_CLAMP = 1e-9

HERMITICITY_ATOL = 1e-10
TRACE_ATOL = 1e-10


class ConfigError(ValueError):
    """An argument outside its domain; the command line exits 1 on it."""


class PositivityError(ValueError):
    """A matrix required to be positive semidefinite is not."""


def tensor_all(factors):
    """Kronecker product of a sequence of operators, left to right."""
    out = np.asarray(factors[0])
    for f in factors[1:]:
        out = np.kron(out, np.asarray(f))
    return out


def _n_qubits(dim):
    n = int(round(np.log2(dim)))
    if 2**n != dim:
        raise ValueError(f"dimension {dim} is not a power of 2")
    return n


def validate_density_matrix(rho):
    """Check Hermiticity, unit trace, and numerical positivity of ``rho``.

    Returns the array unchanged so calls can be chained. Raises ValueError
    for Hermiticity/trace violations and PositivityError when the minimum
    eigenvalue falls below -EIG_CLAMP.
    """
    rho = np.asarray(rho)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {rho.shape}")
    herm = np.abs(rho - rho.conj().T).max()
    if herm > HERMITICITY_ATOL:
        raise ValueError(f"matrix is not Hermitian (max asymmetry {herm:.3e})")
    tr = np.trace(rho).real
    if abs(tr - 1.0) > TRACE_ATOL:
        raise ValueError(f"trace is {tr!r}, expected 1")
    w_min = float(np.linalg.eigvalsh(rho)[0])
    if w_min < -EIG_CLAMP:
        raise PositivityError(f"minimum eigenvalue {w_min:.3e} below -{EIG_CLAMP}")
    return rho


def partial_transpose(rho, subset, n=None):
    """Transpose the tensor factors of ``subset`` in place.

    The result is Hermitian with unit trace but need not be positive;
    its negative eigenvalues witness entanglement across the cut.
    """
    rho = np.asarray(rho)
    if n is None:
        n = _n_qubits(rho.shape[0])
    subset = set(int(q) for q in subset)
    if subset and (max(subset) >= n or min(subset) < 0):
        raise ValueError(f"qubit index out of range for n={n}: {sorted(subset)}")
    t = rho.reshape((2,) * (2 * n))
    perm = list(range(2 * n))
    for q in subset:
        perm[q], perm[n + q] = perm[n + q], perm[q]
    return t.transpose(perm).reshape(rho.shape)


def hermitian_expm(h, scale=1.0):
    """exp(scale * h) for Hermitian ``h`` via eigendecomposition."""
    h = np.asarray(h)
    herm = np.abs(h - h.conj().T).max()
    if herm > HERMITICITY_ATOL:
        raise ValueError(f"matrix is not Hermitian (max asymmetry {herm:.3e})")
    w, v = np.linalg.eigh(h)
    return (v * np.exp(scale * w)) @ v.conj().T


def _clamped_eigvals(w):
    w = np.where((w < 0) & (w >= -EIG_CLAMP), 0.0, w)
    if w[0] < 0:
        raise PositivityError(f"minimum eigenvalue {w[0]:.3e} below -{EIG_CLAMP}")
    return w


def _sqrtm_psd(m):
    w, v = np.linalg.eigh(m)
    w = _clamped_eigvals(w)
    return (v * np.sqrt(w)) @ v.conj().T


def trace_norm(m):
    """Sum of singular values. For Hermitian input, sum of |eigenvalues|."""
    m = np.asarray(m)
    if np.abs(m - m.conj().T).max() <= HERMITICITY_ATOL:
        return float(np.abs(np.linalg.eigvalsh(m)).sum())
    return float(np.linalg.svd(m, compute_uv=False).sum())


def fidelity(rho, sigma):
    """Uhlmann fidelity F = (Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2.

    Squared convention, so F(|psi>, sigma) = <psi|sigma|psi>. Symmetric in
    its arguments and equal to 1 iff the states coincide.
    """
    rho = np.asarray(rho)
    sigma = np.asarray(sigma)
    if rho.shape != sigma.shape:
        raise ValueError(f"dimension mismatch: {rho.shape} vs {sigma.shape}")
    sq = _sqrtm_psd(rho)
    w = np.linalg.eigvalsh(sq @ sigma @ sq)
    w = _clamped_eigvals(w)
    f = float(np.sqrt(w).sum() ** 2)
    # guard against roundoff pushing slightly past 1
    return min(f, 1.0)

