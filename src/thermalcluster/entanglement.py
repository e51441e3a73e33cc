"""Negativities across the single-qubit cuts, and entanglement-regime classification.

The three-qubit chain passes through three regimes as temperature rises:
free entanglement (every cut NPT), bound entanglement (only the middle-qubit
cut stays NPT, so nothing is distillable by local operations on single
qubits), and PPT across every cut. ``transition_points`` locates the two
boundaries along the dephasing sweep. At any phase-gate angle the channel
is ideal dephasing up to local unitaries, which leave every negativity
unchanged, so the boundaries are searched once per tolerance at alpha = pi,
by bisection to double resolution from few batched calls, cached, and
carried to other angles in closed form.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .graphs import CHAIN
from .linalg import ConfigError, _float_or_stack, _states, partial_transpose
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

# transition_points: midpoints listed per curve and round, and the cap on
# halvings per curve
_PATH_LEN = 6
_MAX_HALVINGS = 80

# the three single-qubit cuts of the chain, the only distinct bipartitions
_CUTS = ((0,), (1,), (2,))

PPT_ALL = "PPT_ALL"
BOUND = "BOUND"
FREE = "FREE"


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
    """Negativities of one 3-qubit state across its cuts (0,), (1,), (2,),
    plus the regime label at DEFAULT_TOL.

    The PPT_ALL label is a separability candidate only: a positive partial
    transpose across every cut does not prove the state separable.
    """
    rho, _ = _states(rho, d=8)
    negs = {c: negativity(rho, c) for c in _CUTS}
    return EntanglementReport(
        negativities=negs, klass=classify_values(list(negs.values()), [DEFAULT_TOL] * 3)
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
    the end curve is checked first. That check, one model call, is all a
    call costs once its tolerance has been searched.

    The channel multiplies each qubit's coherence |0><1| by
    c = (1 - p/2) + (p/2) e^(-i alpha) = |c| e^(i phi): it is ideal
    dephasing (alpha = pi) at p_eff = 1 - |c|, followed by the local phase
    gate diag(1, e^(-i phi)) on every qubit, which leaves every negativity
    unchanged. So the roots r in p_eff are those at alpha = pi, searched
    once per tolerance and cached, and since |c|^2 = 1 - s p (2 - p) with
    s = sin^2(alpha/2), the root at alpha is p = y / (1 + sqrt(1 - y)),
    y = min(1, r (2 - r) / s). At alpha = pi it is r, to the bit. This also
    holds at tol = 0, where a search at alpha itself ends where rounding
    noise decides the sign of a negativity clamped to 0, 0.04 off at
    0.84 pi; the mapped root lies within 5e-15 of the tol = 1e-15 root.
    """
    if not tol >= 0:
        raise ConfigError("tol must be nonnegative")
    for flo, fhi in _excess(alpha, tol, [0.0, 1.0], [0.0, 1.0]):
        if flo <= 0 or fhi > 0:
            raise BracketingError(
                f"no sign change on [0.0, 1.0]: f(lo)={flo:.3e}, f(hi)={fhi:.3e}"
            )
    roots = _pi_roots(float(tol))
    s = math.sin(0.5 * alpha) ** 2
    if s != 1.0:
        ys = (min(1.0, r * (2.0 - r) / s) for r in roots)
        roots = [y / (1.0 + math.sqrt(1.0 - y)) for y in ys]
    p_end, p_mid = roots
    return TransitionPoints(
        p_free_to_bound=p_end,
        p_bound_to_ppt=p_mid,
        t_free_to_bound=temperature_from_p(p_end),
        t_bound_to_ppt=temperature_from_p(p_mid),
    )


def _excess(alpha, tol, p_end, p_mid):
    # negativity - tol of the end curve at each p_end and of the middle
    # curve at each p_mid, from one model call and one eigvalsh
    rho = thermal_state_model(CHAIN, np.array(p_end + p_mid, dtype=float), alpha)
    n = len(p_end)
    negs = _negativity_of_pt(np.concatenate([
        partial_transpose(rho[:n], (0,)),
        partial_transpose(rho[:n], (2,)),
        partial_transpose(rho[n:], (1,)),
    ]))
    return [
        (np.minimum(negs[:n], negs[n:2 * n]) - tol).tolist(),
        (negs[2 * n:] - tol).tolist(),
    ]


@functools.lru_cache(maxsize=8)
def _pi_roots(tol):
    # both roots at alpha = pi by predicted-path bisection. Each round lists,
    # for each curve, the next few midpoints bisection would visit if every
    # decision went toward the regula-falsi estimate from f(lo) and f(hi);
    # both lists are evaluated with one _excess call, and each is walked
    # with bisection's rule until a listed point is no longer the midpoint of
    # the current bracket. Every point evaluated is one bisection evaluates,
    # so both roots are bisection's to the bit, from far fewer rounds when
    # the prediction holds. The cap is 80 halvings per curve, the resolution
    # of a double; a curve stops earlier once no midpoint lies strictly
    # inside its bracket. transition_points has checked the brackets at its
    # own angle; at pi f(0) is the same, and f(1) = -tol since the state at
    # p = 1 is its diagonal, whose negativity is 0
    brackets = [
        _Bracket(0.0, 1.0, flo, fhi)
        for flo, fhi in _excess(math.pi, tol, [0.0, 1.0], [0.0, 1.0])
    ]
    while True:
        paths = [b.predicted_path() for b in brackets]
        if not any(paths):
            break
        for b, path, fs in zip(brackets, paths, _excess(math.pi, tol, *paths)):
            b.walk(path, fs)
    return tuple(0.5 * (b.lo + b.hi) for b in brackets)


@dataclass
class _Bracket:
    # one curve's bisection bracket; f(lo) > 0 >= f(hi) throughout
    lo: float
    hi: float
    flo: float
    fhi: float
    halvings: int = 0

    def predicted_path(self):
        # the next midpoints bisection visits if each decision goes toward
        # the regula-falsi root; empty once the bracket cannot shrink or has
        # had its _MAX_HALVINGS
        root = self.lo + self.flo * (self.hi - self.lo) / (self.flo - self.fhi)
        lo, hi = self.lo, self.hi
        path = []
        for _ in range(min(_PATH_LEN, _MAX_HALVINGS - self.halvings)):
            m = 0.5 * (lo + hi)
            if not lo < m < hi:
                break
            path.append(m)
            if m < root:
                lo = m
            else:
                hi = m
        return path

    def walk(self, path, fs):
        # bisection's steps on f(path), while the path is still bisection's
        for m, f in zip(path, fs):
            if m != 0.5 * (self.lo + self.hi):
                break
            if f > 0:
                self.lo, self.flo = m, f
            else:
                self.hi, self.fhi = m, f
            self.halvings += 1
