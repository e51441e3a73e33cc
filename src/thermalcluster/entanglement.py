"""Negativities across the single-qubit cuts, and entanglement-regime classification.

The three-qubit chain passes through three regimes as temperature rises:
free entanglement (every cut NPT), bound entanglement (only the middle-qubit
cut stays NPT, so nothing is distillable by local operations on single
qubits), and PPT across every cut. ``transition_points`` locates the two
boundaries along the dephasing sweep by bisection to double resolution,
evaluating each round several midpoints of the path regula falsi predicts
in one batched call, so it returns plain bisection's bits from fewer calls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import CHAIN
from .linalg import ConfigError, _chain_state, _float_or_stack, partial_transpose
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
    rho = _chain_state(rho)
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

    Bisection on the dephasing strength p over [0, 1] for the three-qubit
    chain model at the given phase-gate angle: the first root is where
    min(N_Ap, N_Bp) falls to ``tol`` (free -> bound), the second where N_Bs
    does (bound -> PPT everywhere). Raises BracketingError when a curve
    never crosses, e.g. alpha = 0 where the channel is the identity; the
    end curve is checked first.

    The search is predicted-path bisection. Each round lists, for each
    curve, the next few midpoints bisection would visit if every decision
    went toward the regula-falsi estimate from f(lo) and f(hi). Both
    curves' lists are built with one thermal_state_model call and their
    negativities taken from one batched eigvalsh; each list is then walked
    with bisection's rule until a listed point is no longer the midpoint of
    the current bracket. Every point evaluated is one bisection evaluates,
    so every field is bisection's to the bit. Each round halves every open
    bracket at least once, so the search takes no more rounds than
    bisection, and far fewer when the prediction holds. The cap is 80
    halvings per curve, the resolution of a double; a curve stops earlier
    once no midpoint lies strictly inside its bracket, since f(lo) > 0 >=
    f(hi) holds throughout and further halvings would change nothing.
    """
    if not tol >= 0:
        raise ConfigError("tol must be nonnegative")

    def excess(p_end, p_mid):
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

    brackets = []
    for flo, fhi in excess([0.0, 1.0], [0.0, 1.0]):
        if flo <= 0 or fhi > 0:
            raise BracketingError(
                f"no sign change on [0.0, 1.0]: f(lo)={flo:.3e}, f(hi)={fhi:.3e}"
            )
        brackets.append(_Bracket(0.0, 1.0, flo, fhi))
    while True:
        paths = [b.predicted_path() for b in brackets]
        if not any(paths):
            break
        for b, path, fs in zip(brackets, paths, excess(*paths)):
            b.walk(path, fs)
    p_end, p_mid = (0.5 * (b.lo + b.hi) for b in brackets)
    return TransitionPoints(
        p_free_to_bound=p_end,
        p_bound_to_ppt=p_mid,
        t_free_to_bound=temperature_from_p(p_end),
        t_bound_to_ppt=temperature_from_p(p_mid),
    )


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
