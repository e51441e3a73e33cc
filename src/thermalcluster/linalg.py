"""Dense complex-matrix primitives shared by every other module.

Everything here operates on plain numpy arrays. States live in the
computational basis with qubit 0 as the LEFTMOST tensor factor, i.e. the
most significant bit of the basis index. That single convention is relied
on throughout.
"""

from __future__ import annotations

import numbers

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


def _check_integer(name, value):
    # Python counts a bool as an int, but no argument takes one as a count
    # or a seed
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ConfigError(f"{name} must be an integer")


def _check_nonnegative(name, value):
    _check_integer(name, value)
    if value < 0:
        raise ConfigError(f"{name} must be nonnegative")


def _states(rho, d=None, stack=True):
    # rho as an array and n, for one matrix or a stack (..., d, d) with d = 2^n;
    # stack=False admits one matrix only, and d one matrix of that size
    rho = np.asarray(rho)
    shape = rho.shape
    if d is not None and shape != (d, d):
        raise ConfigError(f"expected an {d}x{d} density matrix, got shape {shape}")
    if len(shape) < 2 or (len(shape) > 2 and not stack) or shape[-2] != shape[-1]:
        raise ConfigError(f"expected a square matrix, got shape {shape}")
    n = shape[-1].bit_length() - 1
    if 2**n != shape[-1]:
        raise ConfigError(f"dimension {shape[-1]} is not a power of 2")
    return rho, n


class PositivityError(ValueError):
    """A matrix required to be positive semidefinite is not."""


def tensor_all(factors):
    """Kronecker product of a sequence of operators, left to right."""
    out = np.asarray(factors[0])
    for f in factors[1:]:
        out = np.kron(out, np.asarray(f))
    return out


def validate_density_matrix(rho):
    """Check Hermiticity, unit trace, and numerical positivity of ``rho``.

    Returns the array unchanged so calls can be chained. Raises ConfigError
    for anything but one square matrix of size 2^n, ValueError for
    Hermiticity/trace violations and PositivityError when the minimum
    eigenvalue falls below -EIG_CLAMP.
    """
    rho, _ = _states(rho, stack=False)
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


def partial_transpose(rho, subset):
    """Transpose the tensor factors of ``subset`` in place.

    ``rho`` is one matrix or a stack (..., d, d) with d = 2^n, each matrix
    transposed on its own. The result is Hermitian with unit trace but need not be
    positive; its negative eigenvalues witness entanglement across the cut.
    """
    rho, n = _states(rho)
    subset = set(int(q) for q in subset)
    if subset and (max(subset) >= n or min(subset) < 0):
        raise ConfigError(f"qubit index out of range for n={n}: {sorted(subset)}")
    lead = rho.ndim - 2
    t = rho.reshape(rho.shape[:lead] + (2,) * (2 * n))
    perm = list(range(lead + 2 * n))
    for q in subset:
        perm[lead + q], perm[lead + n + q] = perm[lead + n + q], perm[lead + q]
    return t.transpose(perm).reshape(rho.shape)


def _float_or_stack(x):
    # the result for one matrix as a Python float, for a stack as an array
    return float(x) if np.ndim(x) == 0 else x


def _clamped_eigvals(w):
    # w: ascending eigenvalues of one matrix, or of each matrix in a stack
    w = np.where((w < 0) & (w >= -EIG_CLAMP), 0.0, w)
    w_min = w[..., 0].min()
    if w_min < 0:
        raise PositivityError(f"minimum eigenvalue {w_min:.3e} below -{EIG_CLAMP}")
    return w


def _sqrtm_psd(m):
    w, v = np.linalg.eigh(m)
    w = _clamped_eigvals(w)
    return (v * np.sqrt(w)[..., None, :]) @ v.conj().swapaxes(-1, -2)


def fidelity(rho, sigma):
    """Uhlmann fidelity F = (Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2.

    Squared convention, so F(|psi>, sigma) = <psi|sigma|psi>. Symmetric in
    its arguments and equal to 1 iff the states coincide. ``rho`` and
    ``sigma`` are two matrices, or two stacks (..., d, d) of one shape
    compared item by item; a stack gives an array of fidelities from one
    batched eigh and one batched eigvalsh, and PositivityError if any
    matrix fails.
    """
    rho, sigma = np.asarray(rho), np.asarray(sigma)
    if rho.shape != sigma.shape:
        raise ConfigError(f"dimension mismatch: {rho.shape} vs {sigma.shape}")
    _states(rho)
    sq = _sqrtm_psd(rho)
    w = np.linalg.eigvalsh(sq @ sigma @ sq)
    w = _clamped_eigvals(w)
    s = np.sqrt(w).sum(axis=-1)
    # square each trace with the scalar pow() that one matrix gets: numpy's
    # vector square differs from it in the last bit for about 1 value in 1,200
    f = np.array([v**2 for v in np.ravel(s).tolist()]).reshape(np.shape(s))
    # guard against roundoff pushing slightly past 1
    return _float_or_stack(np.where(f > 1.0, 1.0, f))
