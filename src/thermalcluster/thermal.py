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

from dataclasses import dataclass

import numpy as np

from .graphs import build_graph_state, parent_hamiltonian
from .linalg import hermitian_expm, tensor_all

__all__ = [
    "TemperaturePoint",
    "p_from_temperature",
    "temperature_from_p",
    "gibbs_state",
    "thermal_state_model",
]


@dataclass(frozen=True)
class TemperaturePoint:
    """A (p, T/Delta) pair satisfying p = 2/(1 + e^(Delta/T))."""

    p: float
    t_over_delta: float

    @classmethod
    def from_p(cls, p):
        return cls(p=p, t_over_delta=temperature_from_p(p))

    @classmethod
    def from_temperature(cls, t_over_delta):
        return cls(p=p_from_temperature(t_over_delta), t_over_delta=t_over_delta)


def p_from_temperature(t_over_delta):
    """Dephasing strength p = 2/(1 + e^(Delta/T)); p(0) = 0, p(inf) = 1."""
    t = float(t_over_delta)
    if t < 0:
        raise ValueError("temperature must be nonnegative")
    if t == 0:
        return 0.0
    if np.isinf(t):
        return 1.0
    # e^(-Delta/T) underflows quietly to 0 as T -> 0; e^(Delta/T) would overflow
    e = np.exp(-1.0 / t)
    return float(2.0 * e / (1.0 + e))


def temperature_from_p(p):
    """Inverse map T/Delta = 1/(ln(2-p) - ln p); 0 at p=0, +inf at p=1."""
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if p == 0.0:
        return 0.0
    if p == 1.0:
        return float("inf")
    return float(1.0 / (np.log(2.0 - p) - np.log(p)))


def gibbs_state(g, t_over_delta):
    """e^(-H/T) / Tr e^(-H/T) for the parent Hamiltonian of ``g``.

    The state depends on the graph and the ratio T/Delta only, so H is
    built with gap 1 and the exponent is -H / t_over_delta.
    """
    t = float(t_over_delta)
    if t < 0:
        raise ValueError("temperature must be nonnegative")
    dim = 2**g.n_vertices
    if t == 0:
        psi = build_graph_state(g)
        return np.outer(psi, psi.conj())
    if np.isinf(t):
        return np.eye(dim, dtype=complex) / dim
    h = parent_hamiltonian(g)
    # shift by the ground energy before exponentiating to avoid overflow
    shift = float(np.linalg.eigvalsh(h)[0])
    rho = hermitian_expm(h - shift * np.eye(dim), -1.0 / t)
    return rho / np.trace(rho).real


def thermal_state_model(g, p, alpha=np.pi):
    """Graph state followed by the phase-gate channel on every qubit.

    Each qubit is left alone with probability 1 - p/2 and hit by
    F(alpha) = diag(1, e^(i*alpha)) with probability p/2. That channel is
    diagonal in the computational basis: it multiplies the coherence
    |i><j| by K_ij = prod_q [(1 - p/2) + (p/2) e^(i*alpha*(b_i^q - b_j^q))],
    where b_i^q is bit q of i, and leaves the populations alone. So the
    state is exactly |G><G| multiplied entry by entry by K.

    With alpha = pi this is the Gibbs state at temperature_from_p(p);
    alpha = 0.84*pi models an imperfect entangling gate of the kind photonic
    implementations are fit by.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    psi = build_graph_state(g)
    # one qubit's factor: entry [b_i, b_j]; b_i = 0, b_j = 1 gives e^(-i*alpha)
    c = (1.0 - p / 2.0) + (p / 2.0) * np.exp(-1j * alpha)
    k = np.array([[1.0, c], [np.conj(c), 1.0]])
    return np.outer(psi, psi.conj()) * tensor_all([k] * g.n_vertices)
