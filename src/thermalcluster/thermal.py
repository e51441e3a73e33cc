"""Thermal states by two routes: Gibbs exponentiation and local dephasing.

For the parent Hamiltonian of a graph state, the Gibbs state at temperature
T equals the ground state pushed through independent single-qubit dephasing
channels of strength p = 2/(1 + e^(Delta/T)). Both routes are implemented
so each can serve as an oracle for the other.

Temperatures are always the dimensionless ratio T/Delta (k_B = 1). The
endpoints are explicit branches: t = 0 gives the ground-state projector,
t = +inf the maximally mixed state.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .graphs import build_graph_state, parent_hamiltonian
from .linalg import ConfigError, _float_or_stack, _is_real, _reals

__all__ = [
    "p_from_temperature",
    "temperature_from_p",
    "gibbs_state",
    "thermal_state_model",
]


def p_from_temperature(t_over_delta):
    """Dephasing strength p = 2/(1 + e^(Delta/T)); p(0) = 0, p(inf) = 1.

    An array of temperatures gives an array, item i the call on item i.
    """
    t = _reals(t_over_delta, "temperature must be a nonnegative number")
    # one ndarray reduction, cheaper on one number than np.all over a
    # comparison; a NaN propagates through min and is refused, and the
    # initial value lets an empty array through
    if not t.min(initial=0.0) >= 0:
        raise ConfigError("temperature must be a nonnegative number")
    # e^(-Delta/T), as e^(Delta/T) would overflow: it underflows quietly to 0
    # as T -> 0, and it is e^(-inf) = 0 at T = 0 (abs makes -0.0 into 0.0)
    # and e^(-0) = 1 at T = inf
    with np.errstate(divide="ignore", over="ignore"):
        e = np.exp(-1.0 / np.abs(t))
    return _float_or_stack(2.0 * e / (1.0 + e))


def temperature_from_p(p):
    """Inverse map T/Delta = 1/(ln(2-p) - ln p); 0 at p=0, +inf at p=1.

    An array of p gives an array, item i the call on item i.
    """
    p = _reals(p, "p must lie in [0, 1]")
    if not (p.min(initial=0.0) >= 0 and p.max(initial=1.0) <= 1):  # as in p_from_temperature
        raise ConfigError("p must lie in [0, 1]")
    # ln 0 = -inf gives T = 1/inf = 0 at p = 0, and 1/0 = inf at p = 1
    with np.errstate(divide="ignore"):
        return _float_or_stack(1.0 / (np.log(2.0 - p) - np.log(p)))


def gibbs_state(g, t_over_delta):
    """e^(-H/T) / Tr e^(-H/T) for the parent Hamiltonian of ``g``.

    The state depends on the graph and the ratio T/Delta only, so H is
    built with gap 1 and the exponent is -H / t_over_delta. The
    eigendecomposition of H is computed once per graph.

    An array of temperatures gives a C-contiguous stack (..., d, d) from one
    batched product; item i is the state at t_over_delta[i] to the bit, each
    temperature taking its own branch (ground projector, T = inf, or the
    exponential).
    """
    t = _reals(t_over_delta, "temperatures must be numbers")
    p = p_from_temperature(t)
    dim = 2**g.n_vertices
    out = np.empty(t.shape + (dim, dim), dtype=complex)
    # where e^(-1/T) underflows (T below about 1/745) the state is the ground
    # projector to double precision; there the inexact ground-energy shift
    # of _shifted_eigh, divided by T, would overflow the exponential
    out[p == 0] = _pure_state_and_factor_index(g)[0]
    out[np.isinf(t)] = np.eye(dim, dtype=complex) / dim
    warm = (p > 0) & ~np.isinf(t)
    if warm.any():
        w, v = _shifted_eigh(g)
        rho = (v * np.exp(np.multiply.outer(-1.0 / t[warm], w))[..., None, :]) @ v.conj().T
        out[warm] = rho / np.trace(rho, axis1=-2, axis2=-1).real[:, None, None]
    return out


@functools.lru_cache(maxsize=8)
def _shifted_eigh(g):
    # eigendecomposition of H - E_0: shifting by the ground energy keeps
    # e^(-(H - E_0)/T) from overflowing
    h = parent_hamiltonian(g)
    shift = float(np.linalg.eigvalsh(h)[0])
    w, v = np.linalg.eigh(h - shift * np.eye(h.shape[0]))
    for arr in (w, v):
        arr.flags.writeable = False
    return w, v


def thermal_state_model(g, p, alpha=np.pi):
    """Graph state followed by the phase-gate channel on every qubit.

    Each qubit is left alone with probability 1 - p/2 and hit by
    F(alpha) = diag(1, e^(i*alpha)) with probability p/2. That channel is
    diagonal in the computational basis: it multiplies the coherence
    |i><j| by K_ij = prod_q [(1 - p/2) + (p/2) e^(i*alpha*(b_i^q - b_j^q))],
    where b_i^q is bit q of i, and leaves the populations alone. So the
    state is exactly |G><G| multiplied entry by entry by K.

    An array of p gives a C-contiguous stack (..., d, d), item i the state
    at p[i] to the bit.

    With alpha = pi this is the Gibbs state at temperature_from_p(p);
    alpha = 0.84*pi models an imperfect entangling gate of the kind photonic
    implementations are fit by.
    """
    p = _reals(p, "p must be numbers")
    if not (p.min(initial=0.0) >= 0 and p.max(initial=1.0) <= 1):  # as in p_from_temperature
        raise ConfigError("p must lie in [0, 1]")
    if not (_is_real(alpha) and -np.inf < alpha < np.inf):
        raise ConfigError("alpha must be a finite real number")
    pure, factor_index = _pure_state_and_factor_index(g)
    # one qubit's factor [[1, c], [conj(c), 1]], flattened: entry 2 b_i + b_j
    c = _coherence(p, alpha)
    one = np.ones_like(c)
    k = np.stack([one, c, np.conj(c), one], axis=-1)
    # K_ij is the product over qubits of their factors' entries, taken in
    # qubit order (k_0 k_1) k_2 ... as the Kronecker product k (x) k (x) ...
    kk = k[..., factor_index[0]]
    for idx in factor_index[1:]:
        kk = kk * k[..., idx]
    return np.ascontiguousarray(pure * kk)


def _coherence(p, alpha):
    # the entry c = K_ij of one qubit's channel factor at b_i = 0, b_j = 1,
    # (1 - p/2) + (p/2) e^(-i*alpha), for an array p; the model states and
    # the closed-form preparation fidelity of model rows (mbqc) both take c
    # from here, so the two cannot drift apart
    return (1.0 - p / 2.0) + (p / 2.0) * np.exp(-1j * alpha)


def _fidelity_to_gibbs(p, alpha):
    # fidelity of thermal_state_model(g, p, alpha) to the Gibbs state at
    # temperature_from_p(p), for an array p and any 3-qubit graph g. The
    # channel is diagonal, so it commutes with the CZ gates: both states are
    # U (rho_q (x) rho_q (x) rho_q) U^dagger with rho_q = [[1, c], [c*, 1]] / 2,
    # c = (1 - p/2) + (p/2) e^(-i alpha) for the model and 1 - p for the Gibbs
    # state. Fidelity is unitarily invariant and multiplies over products, so
    # F = f^3 with the qubit fidelity f = tr(rho sigma) + 2 sqrt(det rho det sigma)
    # (Hubner, Phys. Lett. A 163, 239 (1992)). With h = |sin(alpha/2)|,
    # Re c = 1 - p h^2 and 1 - |c|^2 = h^2 p (2 - p), so
    # f = (1 + (1 - p)(1 - p h^2) + p (2 - p) h) / 2, summed here as
    # 1 - (p/2)(1 - h (2 - p - h (1 - p))), whose rounding gives exactly
    # 1 - p/2 at alpha = 0 (h = 0) and exactly 1 at alpha = pi (h = 1)
    h = abs(math.sin(0.5 * alpha))
    f = (1.0 - 0.5 * p * (1.0 - h * ((2.0 - p) - h * (1.0 - p)))) ** 3
    return np.where(f > 1.0, 1.0, f)


@functools.lru_cache(maxsize=8)
def _pure_state_and_factor_index(g):
    # |G><G|, and for each qubit q the d x d table 2 b_i^q + b_j^q into its
    # flattened 2 x 2 factor, where b_i^q is bit q of i (qubit 0 leftmost)
    psi = build_graph_state(g)
    pure = np.outer(psi, psi.conj())
    n = g.n_vertices
    bits = (np.arange(2**n) >> np.arange(n - 1, -1, -1)[:, None]) & 1
    factor_index = 2 * bits[:, :, None] + bits[:, None, :]
    for arr in (pure, factor_index):
        arr.flags.writeable = False
    return pure, factor_index
