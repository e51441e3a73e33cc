"""Negativities, bipartition bookkeeping, and entanglement-regime classification.

The three-qubit chain passes through three regimes as temperature rises:
free entanglement (every cut NPT), bound entanglement (only the middle-qubit
cut stays NPT, so nothing is distillable by local operations on single
qubits), and PPT across every cut. ``transition_points`` locates the two
boundaries along the dephasing sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import CHAIN
from .linalg import ConfigError, partial_transpose, trace_norm
from .thermal import temperature_from_p, thermal_state_model

__all__ = [
    "BracketingError",
    "EntanglementReport",
    "TransitionPoints",
    "negativity",
    "all_bipartitions",
    "classify",
    "classify_values",
    "transition_points",
    "DEFAULT_TOL",
]

DEFAULT_TOL = 1e-9

PPT_ALL = "PPT_ALL"
BOUND = "BOUND"
FREE = "FREE"


class BracketingError(RuntimeError):
    """The swept quantity never crosses the threshold, so no root exists."""


def negativity(rho, side_a, n=None):
    """N = (trace norm of the partial transpose - 1) / 2.

    Equals the absolute sum of the negative eigenvalues of rho^(T_A): zero
    exactly for PPT states, and 1/2 for a two-qubit maximally entangled
    state. Tiny negative results from roundoff are clamped to 0.
    """
    pt = partial_transpose(rho, side_a, n)
    return max(0.0, 0.5 * (trace_norm(pt) - 1.0))


def all_bipartitions(n):
    """All 2^(n-1) - 1 distinct splits, each as the canonical side_a tuple.

    The canonical representative is the smaller side, ties broken
    lexicographically; for n=3 that is exactly the three single-qubit cuts
    (0,), (1,), (2,).
    """
    if n < 2:
        raise ConfigError("bipartitions need at least 2 qubits")
    seen = set()
    out = []
    for mask in range(1, 2**n - 1):
        side = tuple(q for q in range(n) if (mask >> q) & 1)
        other = tuple(q for q in range(n) if q not in side)
        canon = min(side, other, key=lambda s: (len(s), s))
        if canon not in seen:
            seen.add(canon)
            out.append(canon)
    return sorted(out, key=lambda s: (len(s), s))


@dataclass(frozen=True)
class EntanglementReport:
    negativities: dict  # side_a tuple -> negativity
    klass: str | None  # PPT_ALL / BOUND / FREE; None when n != 3


def classify_values(negs, tols):
    """Threshold-pattern rule shared by model states and reconstructions.

    ``negs`` and ``tols`` are parallel sequences (one tolerance per cut, so
    Monte Carlo error bars can stand in for a global tolerance).
    """
    above = [v > t for v, t in zip(negs, tols)]
    if not any(above):
        return PPT_ALL
    if all(above):
        return FREE
    return BOUND


def classify(rho):
    """Negativities across every bipartition plus the regime label at DEFAULT_TOL.

    The PPT_ALL label is a separability candidate only: a positive partial
    transpose across every cut does not prove the state separable. The
    named-class semantics follow the three-qubit analysis; for other sizes
    the report carries negativities with klass None.
    """
    rho = np.asarray(rho)
    n = int(round(np.log2(rho.shape[0])))
    cuts = all_bipartitions(n)
    negs = {c: negativity(rho, c, n) for c in cuts}
    klass = None
    if n == 3:
        klass = classify_values([negs[c] for c in cuts], [DEFAULT_TOL] * len(cuts))
    return EntanglementReport(negativities=negs, klass=klass)


@dataclass(frozen=True)
class TransitionPoints:
    p_free_to_bound: float
    p_bound_to_ppt: float
    t_free_to_bound: float
    t_bound_to_ppt: float


def _bisect_decreasing(f):
    # root of a decreasing f on the dephasing range [0, 1]; 80 halvings
    # reach the resolution of a double
    lo, hi = 0.0, 1.0
    flo, fhi = f(lo), f(hi)
    if flo <= 0 or fhi > 0:
        raise BracketingError(
            f"no sign change on [{lo}, {hi}]: f(lo)={flo:.3e}, f(hi)={fhi:.3e}"
        )
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def transition_points(alpha, tol=DEFAULT_TOL):
    """Locate where the end-qubit and middle-qubit negativities die out.

    Bisection on the dephasing strength p for the three-qubit chain model at
    the given phase-gate angle: the first root is where min(N_Ap, N_Bp)
    falls to ``tol`` (free -> bound), the second where N_Bs does (bound ->
    PPT everywhere). Raises BracketingError when a curve never crosses,
    e.g. alpha = 0 where the channel is the identity.
    """
    if not tol >= 0:
        raise ConfigError("tol must be nonnegative")

    def end_neg(p):
        rho = thermal_state_model(CHAIN, p, alpha)
        return min(negativity(rho, (0,), 3), negativity(rho, (2,), 3))

    def mid_neg(p):
        return negativity(thermal_state_model(CHAIN, p, alpha), (1,), 3)

    p_end = _bisect_decreasing(lambda p: end_neg(p) - tol)
    p_mid = _bisect_decreasing(lambda p: mid_neg(p) - tol)
    return TransitionPoints(
        p_free_to_bound=p_end,
        p_bound_to_ppt=p_mid,
        t_free_to_bound=temperature_from_p(p_end),
        t_bound_to_ppt=temperature_from_p(p_mid),
    )
