"""Negativities across the single-qubit cuts, and entanglement-regime classification.

The three-qubit chain passes through three regimes as temperature rises:
free entanglement (every cut NPT), bound entanglement (only the middle-qubit
cut stays NPT, so nothing is distillable by local operations on single
qubits), and PPT across every cut. ``transition_points`` locates the two
boundaries along the dephasing sweep. At any phase-gate angle the channel
is ideal dephasing up to local unitaries, which leave every negativity
unchanged. At alpha = pi both curves are polynomials in p, so the boundaries
are their roots in closed form (Newton's method for the cubic's), carried
to other angles in closed form; the only state a call builds is the check
that both curves cross at its angle. The same curves, carried to any angle,
give the negativities of the model rows of a sweep without building a
partial transpose.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import CHAIN
from .linalg import ConfigError, _float_or_stack, _is_real, _states, partial_transpose
from .thermal import temperature_from_p, thermal_state_model

__all__ = [
    "BracketingError",
    "EntanglementReport",
    "TransitionPoints",
    "negativity",
    "classify",
    "classify_values",
    "transition_points",
    "DEFAULT_TOL",
]

DEFAULT_TOL = 1e-9

# the three single-qubit cuts of the chain, the only distinct bipartitions
_CUTS = ((0,), (1,), (2,))

PPT_ALL = "PPT_ALL"
BOUND = "BOUND"
FREE = "FREE"
# indexed by how many of "some cut lies above its tolerance" and "every cut
# does" hold
_LABELS = (PPT_ALL, BOUND, FREE)


class BracketingError(RuntimeError):
    """The swept quantity never crosses the threshold, so no root exists."""


def negativity(rho, side_a):
    """N = (trace norm of the partial transpose - 1) / 2.

    Equals the absolute sum of the negative eigenvalues of rho^(T_A): zero
    exactly for PPT states, and 1/2 for a two-qubit maximally entangled
    state. Tiny negative results from roundoff are clamped to 0. ``rho`` is
    taken to be Hermitian: the eigenvalues come from eigvalsh, which reads
    one triangle of the partial transpose. A stack (..., d, d) gives an
    array of negativities from one batched eigvalsh.
    """
    return _negativity_of_pt(partial_transpose(rho, side_a))


def _negativity_of_pt(pt):
    x = 0.5 * (np.abs(np.linalg.eigvalsh(pt)).sum(axis=-1) - 1.0)
    return _float_or_stack(np.where(x > 0.0, x, 0.0))


@dataclass(frozen=True)
class EntanglementReport:
    negativities: dict  # side_a tuple -> negativity
    klass: str  # PPT_ALL / BOUND / FREE


def classify_values(negs, tols):
    """Threshold-pattern rule shared by model states and reconstructions.

    ``negs`` holds the negativities of one state along its last axis, or
    rows of them (..., 3); ``tols`` broadcasts against it, one tolerance per
    cut or per value, so Monte Carlo error bars can stand in for a global
    tolerance. One row gives one label, rows give a list of labels: PPT_ALL
    where no value exceeds its tolerance, FREE where all do, else BOUND.
    """
    above = np.greater(negs, tols)
    return np.array(_LABELS)[above.any(axis=-1).astype(int) + above.all(axis=-1)].tolist()


def classify(rho):
    """Negativities of one 3-qubit state across its cuts (0,), (1,), (2,),
    plus the regime label at DEFAULT_TOL.

    The PPT_ALL label is a separability candidate only: a positive partial
    transpose across every cut does not prove the state separable.
    """
    rho, _ = _states(rho, d=8, stack=False)
    negs = {c: negativity(rho, c) for c in _CUTS}
    return EntanglementReport(
        negativities=negs, klass=classify_values(list(negs.values()), DEFAULT_TOL)
    )


@dataclass(frozen=True)
class TransitionPoints:
    p_free_to_bound: float
    p_bound_to_ppt: float
    t_free_to_bound: float
    t_bound_to_ppt: float


def transition_points(alpha, tol=DEFAULT_TOL):
    """Locate where the end-qubit and middle-qubit negativities die out.

    Roots in the dephasing strength p over [0, 1] for the three-qubit chain
    model at the given phase-gate angle: the first where min(N_Ap, N_Bp)
    falls to ``tol`` (free -> bound), the second where N_Bs does (bound ->
    PPT everywhere). Raises BracketingError when a curve does not cross on
    [0, 1] at this angle, e.g. alpha = 0 where the channel is the identity;
    the end curve is checked first. That check, one model call, is the only
    state a call builds.

    At alpha = pi the eigenvalues of the partial transposes are polynomials
    in p, and the two curves are N_end = max(0, (p^2 - 4p + 2) / 4) and
    N_mid = max(0, (4 - 8p + 4p^2 - p^3) / 8). The end root is
    2 - sqrt(2 + 4 tol), taken in the rationalised form
    (2 - 4 tol) / (2 + sqrt(2 + 4 tol)), which does not cancel. The middle
    root is the one zero in [0, 1] of g(p) = p^3 - 4p^2 + 8p - 4 + 8 tol:
    g is increasing and concave there and g(0) < 0 once the check has
    passed, so Newton steps from p = 0 rise monotonically to it, and they
    stop at the first step that does not raise p. Both roots lie within a
    few ulps of where the exact sign of each curve minus tol changes.

    At another angle the channel multiplies each qubit's coherence |0><1|
    by c = (1 - p/2) + (p/2) e^(-i alpha) = |c| e^(i phi): it is ideal
    dephasing (alpha = pi) at p_eff = 1 - |c|, followed by the local phase
    gate diag(1, e^(-i phi)) on every qubit, which leaves every negativity
    unchanged. So the roots r in p_eff are those at alpha = pi, and since
    |c|^2 = 1 - s p (2 - p) with s = sin^2(alpha/2), the root at alpha is
    p = y / (1 + sqrt(1 - y)), y = min(1, r (2 - r) / s). This also holds
    at tol = 0, where a search at alpha itself ends where rounding noise
    decides the sign of a negativity clamped to 0, 0.04 off at 0.84 pi;
    the mapped root lies within 5e-15 of the tol = 1e-15 root.
    """
    if not (_is_real(tol) and tol >= 0):
        raise ConfigError("tol must be a nonnegative number")
    for flo, fhi in _excess(alpha, tol):
        if flo <= 0 or fhi > 0:
            raise BracketingError(
                f"no sign change on [0.0, 1.0]: f(lo)={flo:.3e}, f(hi)={fhi:.3e}"
            )
    roots = _pi_roots(float(tol))
    s = math.sin(0.5 * alpha) ** 2
    if s != 1.0:
        ys = (min(1.0, r * (2.0 - r) / s) for r in roots)
        roots = [y / (1.0 + math.sqrt(1.0 - y)) for y in ys]
    return TransitionPoints(*roots, *temperature_from_p(np.array(roots)).tolist())


def _chain_negativities(p, alpha):
    # (N_Ap, N_Bp, N_Bs) of the model state at each dephasing strength of
    # the array p, stacked on the last axis: the alpha = pi curves at
    # p_eff = 1 - |c| (see transition_points), where 1 - |c|^2 = s y with
    # s = sin^2(alpha/2) and y = p (2 - p), so p_eff = s y / (1 + |c|)
    x = math.sin(0.5 * alpha) ** 2 * (p * (2.0 - p))
    q = x / (1.0 + np.sqrt(1.0 - x))
    end = ((q - 4.0) * q + 2.0) / 4.0
    mid = _mid_cubic(q, -4.0) / -8.0
    negs = np.stack([end, end, mid], axis=-1)
    return np.where(negs > 0.0, negs, 0.0)


def _mid_cubic(p, c):
    # p^3 - 4p^2 + 8p + c: with c = -4 it is -8 N_Bs at alpha = pi before
    # the clamp at 0, with c = 8 tol - 4 the g of transition_points
    return ((p - 4.0) * p + 8.0) * p + c


def _pi_roots(tol):
    # the end root in its rationalised form, and Newton's steps on g from 0
    # up to the middle root (see transition_points)
    c = 8.0 * tol - 4.0
    p = 0.0
    while True:
        step = p - _mid_cubic(p, c) / ((3.0 * p - 8.0) * p + 8.0)
        if not step > p:
            return (2.0 - 4.0 * tol) / (2.0 + math.sqrt(2.0 + 4.0 * tol)), p
        p = step


def _excess(alpha, tol):
    # (f(0), f(1)) of the end curve min(N_Ap, N_Bp) - tol and of the middle
    # curve N_Bs - tol, from one model call and one eigvalsh
    rho = thermal_state_model(CHAIN, np.array([0.0, 1.0]), alpha)
    negs = _negativity_of_pt(np.stack([partial_transpose(rho, c) for c in _CUTS]))
    return [(np.minimum(negs[0], negs[2]) - tol).tolist(), (negs[1] - tol).tolist()]
