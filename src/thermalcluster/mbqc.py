"""Measurement-based single-qubit state preparation on the 3-qubit chain.

Measuring B_p (qubit 2) and B_s (qubit 1) in Pauli bases leaves a
conditional single-qubit state on A_p (qubit 0). At zero temperature every
conditional state is a Pauli eigenstate; those states are the targets, and
the preparation fidelity at finite temperature is how well the thermal
chain reproduces them.

The protocol that prepares an arbitrary target measures B_p in Z — its
outcome fixes a Z byproduct that the B_s targets absorb — and B_s in a
basis determined by the target. Specialized to the six mutually unbiased
targets this uses the basis pairs (Z,X) -> |0>,|1>, (Z,Y) -> |r>,|l>,
(Z,Z) -> |+>,|->. Because the single-shot fidelity is quadratic in the
target projector, averaging over the six MUB targets equals the average
over Haar-random targets exactly (the two-design property).
``haar_average_fidelity`` checks this by Monte Carlo as F_Haar = Tr(rho W_n),
with W_n fixed by (n_samples, seed).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .graphs import CHAIN, build_graph_state
from .linalg import KETS, ConfigError, _check_integer, _check_nonnegative, _states, tensor_all

__all__ = [
    "AXES",
    "ENABLED_PAIRS",
    "PREPARATION_PAIRS",
    "PreparationRecord",
    "conditional_state",
    "target_map",
    "preparation_records",
    "average_preparation_fidelity",
    "classical_threshold",
    "haar_average_fidelity",
]

AXES = ("X", "Y", "Z")

# Eigenstate labels per measurement axis, outcome 0 then outcome 1.
_AXIS_LABELS = {"X": ("x+", "x-"), "Y": ("y+", "y-"), "Z": ("z0", "z1")}

# Basis pairs (basis_bp, basis_bs) whose zero-temperature conditional states
# are Pauli eigenstates for all four outcomes. (X, Z) is excluded: two of
# its outcomes never occur on the ideal cluster, so they define no target.
ENABLED_PAIRS = (
    ("X", "X"), ("X", "Y"),
    ("Y", "X"), ("Y", "Y"), ("Y", "Z"),
    ("Z", "X"), ("Z", "Y"), ("Z", "Z"),
)

# The pairs realizing arbitrary-target preparation (B_p cut in Z, B_s
# rotated); one per target axis, covering all six MUB targets. The average
# over this set is the figure-of-merit curve with the 2/3 crossing.
PREPARATION_PAIRS = (("Z", "X"), ("Z", "Y"), ("Z", "Z"))

_ZERO_PROB = 1e-12


@dataclass(frozen=True)
class PreparationRecord:
    basis_bp: str
    basis_bs: str
    outcome_bp: int
    outcome_bs: int
    probability: float
    conditional_state: np.ndarray
    target_state: np.ndarray
    fidelity: float


def conditional_state(rho, basis_bp, basis_bs, outcome_bp, outcome_bs):
    """Probability and conditional A_p state after measuring B_p and B_s.

    Outcomes with probability below 1e-12 report the maximally mixed state;
    the vanishing probability itself flags that the branch never occurs.
    """
    ket_bp = KETS[_AXIS_LABELS[basis_bp][outcome_bp]]
    ket_bs = KETS[_AXIS_LABELS[basis_bs][outcome_bs]]
    t = _states(rho, d=8)[0].reshape(2, 2, 2, 2, 2, 2)
    m = np.einsum("k,ajkbJK,K->ajbJ", ket_bp.conj(), t, ket_bp)
    red = np.einsum("j,ajbJ,J->ab", ket_bs.conj(), m, ket_bs)  # <bs, bp| rho |bs, bp>
    prob = float(np.trace(red).real)
    if prob < _ZERO_PROB:
        return prob, np.eye(2, dtype=complex) / 2.0
    return prob, red / prob


def _phase_fixed(v):
    idx = int(np.argmax(np.abs(v) > 1e-9))
    return v * np.exp(-1j * np.angle(v[idx]))


def target_map():
    """Targets for every enabled basis pair and outcome, from the p=0 run.

    The target of (pair, outcomes) is DEFINED as the conditional state the
    ideal cluster produces there, which makes the ideal fidelity 1 by
    construction. Returns {(basis_bp, basis_bs, outcome_bp, outcome_bs):
    unit vector}. Raises if the enabled set failed to cover all three axes
    (that would be a programming error, not bad input).
    """
    return dict(_target_map_cached())


@lru_cache(maxsize=1)
def _target_map_cached():
    psi = build_graph_state(CHAIN)
    rho0 = np.outer(psi, psi.conj())
    out = {}
    axes_hit = set()
    for bp, bs in ENABLED_PAIRS:
        for op, os_ in itertools.product((0, 1), repeat=2):
            prob, cond = conditional_state(rho0, bp, bs, op, os_)
            if prob < _ZERO_PROB:
                raise ValueError(f"pair ({bp},{bs}) has a zero-probability outcome")
            w, v = np.linalg.eigh(cond)
            if w[-1] < 1.0 - 1e-9:
                raise ValueError(f"p=0 conditional for ({bp},{bs}) is not pure")
            vec = _phase_fixed(v[:, -1])
            out[(bp, bs, op, os_)] = vec
            axes_hit.add(_classify_axis(vec))
    if axes_hit != set(AXES):
        raise ValueError(f"enabled set covers axes {sorted(axes_hit)}, expected all three")
    return out


def _classify_axis(vec):
    for lab, ket in KETS.items():
        if abs(abs(np.vdot(ket, vec)) - 1.0) < 1e-9:
            return lab[0].upper()
    raise ValueError("state is not a Pauli eigenstate")


def preparation_records(rho, pairs=ENABLED_PAIRS):
    """Full per-outcome breakdown of the preparation against its targets."""
    rho, _ = _states(rho, d=8)
    targets = target_map()
    records = []
    for bp, bs in pairs:
        for op, os_ in itertools.product((0, 1), repeat=2):
            prob, cond = conditional_state(rho, bp, bs, op, os_)
            tgt = targets[(bp, bs, op, os_)]
            fid = float((tgt.conj() @ cond @ tgt).real)
            records.append(
                PreparationRecord(
                    basis_bp=bp, basis_bs=bs, outcome_bp=op, outcome_bs=os_,
                    probability=prob, conditional_state=cond,
                    target_state=tgt, fidelity=fid,
                )
            )
    return records


def average_preparation_fidelity(rho):
    """Preparation fidelity F = Tr(rho W), averaged over PREPARATION_PAIRS.

    F is the mean over the three pairs of the sum over outcomes of
    probability times fidelity, what an experiment records. Each term is
    <target, bs, bp| rho |target, bs, bp>, so F is linear in rho with
    W = (1/3) sum |target><target| (x) |bs><bs| (x) |bp><bp| over the 12
    (pair, outcome) branches. This is the two-design average whose curve
    crosses the classical threshold 2/3 near T/Delta = 1.13 on the ideal
    sweep; it is 1 on the pure cluster and 1/2 on the maximally mixed state.
    """
    return float(np.vdot(_preparation_operator(), _states(rho, d=8)[0]).real)


@lru_cache(maxsize=1)
def _preparation_operator():
    targets = _target_map_cached()
    w = np.zeros((8, 8), dtype=complex)
    for bp, bs in PREPARATION_PAIRS:
        for op, os_ in itertools.product((0, 1), repeat=2):
            ket_bp = KETS[_AXIS_LABELS[bp][op]]
            ket_bs = KETS[_AXIS_LABELS[bs][os_]]
            v = tensor_all([targets[(bp, bs, op, os_)], ket_bs, ket_bp])
            w += np.outer(v, v.conj())
    return w / len(PREPARATION_PAIRS)


def classical_threshold():
    """Best average fidelity of any classical measure-and-resend strategy."""
    return 2.0 / 3.0


def haar_average_fidelity(rho, n_samples, seed):
    """Monte Carlo average of the preparation fidelity over Haar targets.

    For a Haar-random target psi = a|+> + b|->, B_p is measured in Z and
    B_s in the basis {conj(a)|0> + conj(b)|1>, orthogonal}; each outcome's
    target v is the pure cluster's conditional ket <bs, bp|psi0>, normalised.
    Each outcome adds <v, bs, bp| rho |v, bs, bp>, probability times fidelity,
    so F_Haar = Tr(rho W_n) with W_n = (1/n) sum |v, bs, bp><v, bs, bp|, fixed
    by (n_samples, seed) and built once per pair. By the two-design property
    it estimates the MUB average within Monte Carlo error.
    """
    rho, _ = _states(rho, d=8)
    _check_integer("n_samples", n_samples)
    if n_samples < 1:
        raise ConfigError("need at least one sample")
    _check_nonnegative("seed", seed)
    return float(np.vdot(_haar_operator(n_samples, seed), rho).real)


@lru_cache(maxsize=1)
def _haar_operator(n_samples, seed):
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(n_samples, 2)) + 1j * rng.normal(size=(n_samples, 2))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
    w = raw @ hadamard.T  # coefficients of the target in the |+>,|-> basis
    bs0 = w.conj()
    bs1 = np.stack([-w[:, 1], w[:, 0]], axis=1)

    psi0 = build_graph_state(CHAIN).reshape(2, 2, 2)
    op = np.zeros((8, 8), dtype=complex)
    for ket_bs in (bs0, bs1):
        for lab in ("z0", "z1"):
            ket_bp = KETS[lab]
            v = np.einsum("sj,ajk,k->sa", ket_bs.conj(), psi0, ket_bp.conj())
            v /= np.linalg.norm(v, axis=1, keepdims=True)
            x = np.einsum("sa,sj,k->sajk", v, ket_bs, ket_bp).reshape(n_samples, 8)
            op += x.T @ x.conj()
    op /= n_samples
    op.flags.writeable = False
    return op
