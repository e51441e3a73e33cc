"""Simulated projective tomography with Poissonian counts.

The measurement model follows the optical experiment: for each product
projector setting the detector registers a Poisson-distributed number of
coincidences with mean flux * Tr(rho * Pi). Reconstruction is offered both
as least-squares linear inversion (with eigenvalue clipping to the physical
set) and as Poisson maximum likelihood. The likelihood is concave in rho,
so the MLE is found by accelerated projected gradient ascent (FISTA with
backtracking and momentum restarts, after Shang, Zhang and Ng, PRA 95,
062336 (2017)) and certified by the Frank-Wolfe gap, an upper bound on how
far the returned log-likelihood lies below the maximum (cf. Glancy, Knill
and Girard, NJP 14, 095017 (2012)). Error bars come from Monte Carlo
resampling of the counts, the standard procedure for coincidence data, with
every resample reconstructed by maximum likelihood.

Both reconstructions and the count model use the same linear maps, built
once per settings tuple and cached: row s of the (S, d*d) matrix P is
Pi_s flattened, so the probabilities are q = Re(conj(P) vec rho) and the
gradient of the likelihood is sum_s w_s Pi_s = (w P) reshaped.

Many records on one settings tuple (a sweep's records and their Monte Carlo
resamples) are solved by a lockstep variant of the same MLE: each round
projects one trial per unfinished record with a single batched ``eigh``,
and every record keeps its own step size, momentum and stops. The
projection, the probability map, the gradient and the step test are shared
by both solvers and work on one state or a stack. In a stack every
product is taken per record, never across records, so a record's result
is the same bit for bit alone or in any batch, and its log-likelihood
agrees with ``mle_reconstruct``'s within the reported gap.

All randomness flows from explicit integer seeds; nothing reads ambient
entropy, so every pipeline built on this module is reproducible bit for bit.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .linalg import KETS

__all__ = [
    "STANDARD_ALPHABET",
    "MUB_ALPHABET",
    "CountRecord",
    "ReconstructionResult",
    "standard_settings",
    "mub_settings",
    "setting_projector",
    "projector_stack",
    "setting_label",
    "parse_setting_label",
    "simulate_counts",
    "expected_probabilities",
    "poisson_log_likelihood",
    "linear_inversion",
    "mle_reconstruct",
    "monte_carlo_states",
    "monte_carlo_statistic",
]

# Minimal informationally complete product family: 4^n settings.
STANDARD_ALPHABET = ("z0", "z1", "x+", "y+")
# Overcomplete 6^n family over all Pauli eigenstates, for robustness studies.
MUB_ALPHABET = ("z0", "z1", "x+", "x-", "y+", "y-")


def standard_settings(n):
    """All 4^n product settings over {|0>, |1>, |+>, |r>}."""
    if n < 1:
        raise ValueError("need at least one qubit")
    return list(itertools.product(STANDARD_ALPHABET, repeat=n))


def mub_settings(n):
    """All 6^n product settings over the full Pauli-eigenstate alphabet."""
    if n < 1:
        raise ValueError("need at least one qubit")
    return list(itertools.product(MUB_ALPHABET, repeat=n))


def setting_projector(setting):
    """Rank-1 product projector for one setting."""
    v = np.array([1.0 + 0.0j])
    for lab in setting:
        v = np.kron(v, KETS[lab])
    return np.outer(v, v.conj())


def projector_stack(settings):
    """(S, d, d) array of all setting projectors."""
    mats = [setting_projector(s) for s in settings]
    return np.array(mats)


@dataclass(frozen=True)
class _LinearMaps:
    # pf: P = projector_stack(settings).reshape(S, d*d) viewed as real
    # (S, 2*d*d), interleaving real and imaginary parts. For Hermitian Pi_s,
    # Re Tr(rho Pi_s) = sum_ij Re rho_ij Re Pi_ij + Im rho_ij Im Pi_ij, so
    # q = pf @ (rho viewed as real), and w @ pf viewed as complex is
    # sum_s w_s Pi_s. lin: the transposed pseudo-inverse of conj(P) in the
    # same real view, so b @ lin is the least-squares solution of
    # Tr(rho Pi_s) = b_s. All arrays are read-only: every caller shares them.
    d: int
    rank: int
    pf: np.ndarray
    lin: np.ndarray


@functools.lru_cache(maxsize=8)
def _cached_maps(settings):
    pi = projector_stack(settings)
    s, d = pi.shape[0], pi.shape[1]
    p = pi.reshape(s, d * d)
    lin = np.ascontiguousarray(np.linalg.pinv(p.conj()).T)
    pf, lin = p.view(np.float64), lin.view(np.float64)
    pf.flags.writeable = False
    lin.flags.writeable = False
    return _LinearMaps(d=d, rank=int(np.linalg.matrix_rank(p)), pf=pf, lin=lin)


def _linear_maps(settings):
    return _cached_maps(tuple(tuple(s) for s in settings))


def _probabilities(pf, rho):
    # q of one state, or of each state in a stack (..., d, d): one product
    # with pf per state, so no state's q depends on the rest of its stack
    v = np.ascontiguousarray(rho, dtype=complex).view(np.float64)
    return (pf @ v.reshape(*v.shape[:-2], pf.shape[1], 1))[..., 0]


def setting_label(setting):
    """Compact text label, e.g. ('z0','x+','y+') -> 'z0x+y+'."""
    return "".join(setting)


def parse_setting_label(label):
    """Inverse of setting_label; labels are fixed-width two-character tokens."""
    if len(label) % 2 != 0:
        raise ValueError(f"bad setting label {label!r}")
    toks = tuple(label[i : i + 2] for i in range(0, len(label), 2))
    for t in toks:
        if t not in KETS:
            raise ValueError(f"unknown setting token {t!r} in {label!r}")
    return toks


@dataclass(frozen=True)
class CountRecord:
    """Counts per setting plus the flux and seed that produced them.

    Counts are stored as floats: the Poisson sampler yields integers, but
    exact mean counts (noiseless diagnostics) are legitimate inputs to the
    reconstructors as well.
    """

    settings: tuple
    counts: np.ndarray
    flux: float
    seed: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "settings", tuple(tuple(s) for s in self.settings))
        counts = np.asarray(self.counts, dtype=float)
        object.__setattr__(self, "counts", counts)
        if counts.shape != (len(self.settings),):
            raise ValueError(
                f"{counts.shape[0] if counts.ndim else 0} counts for "
                f"{len(self.settings)} settings"
            )
        if np.any(counts < 0):
            raise ValueError("counts must be nonnegative")
        if not 0 < self.flux < np.inf:
            raise ValueError("flux must be positive and finite")
        if not self.settings:
            raise ValueError("a count record needs at least one setting")
        if len({len(s) for s in self.settings}) > 1:
            raise ValueError("settings mix different numbers of qubits")

    @property
    def n_qubits(self):
        return len(self.settings[0])

    def to_text(self):
        """Serialize as a text table: one 'label,count' row per setting."""
        lines = [f"# flux = {self.flux!r}", f"# seed = {self.seed!r}"]
        for s, c in zip(self.settings, self.counts):
            c_txt = repr(int(c)) if float(c).is_integer() else repr(float(c))
            lines.append(f"{setting_label(s)},{c_txt}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text):
        flux = None
        seed = None
        settings = []
        counts = []
        for raw in text.splitlines():
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                key, _, val = line.lstrip("# ").partition("=")
                key = key.strip()
                val = val.strip()
                if key == "flux":
                    flux = float(val)
                elif key == "seed":
                    seed = None if val in ("None", "none") else int(val)
                continue
            label, _, c_txt = line.partition(",")
            settings.append(parse_setting_label(label.strip()))
            counts.append(float(c_txt))
        if flux is None:
            raise ValueError("count table is missing the flux header")
        return cls(settings=tuple(settings), counts=np.array(counts), flux=flux, seed=seed)


@dataclass(frozen=True)
class ReconstructionResult:
    rho: np.ndarray
    method: str  # "LINEAR" or "MLE"
    iterations: int = 0
    log_likelihood: float | None = None
    converged: bool = True
    # MLE only: Frank-Wolfe gap, an upper bound on max log L - log_likelihood
    gap: float | None = None


def expected_probabilities(rho, settings):
    """Tr(rho * Pi_s) for every setting."""
    return _probabilities(_linear_maps(settings).pf, rho)


def simulate_counts(rho, settings, flux, seed):
    """Draw one Poisson count per setting with mean flux * Tr(rho * Pi)."""
    if not 0 < flux < np.inf:
        raise ValueError("flux must be positive and finite")
    means = np.clip(expected_probabilities(rho, settings), 0.0, None) * flux
    rng = np.random.default_rng(seed)
    counts = rng.poisson(means).astype(float)
    return CountRecord(settings=tuple(settings), counts=counts, flux=float(flux), seed=seed)


def poisson_log_likelihood(rho, rec):
    """log L = sum_s [c_s log(flux q_s) - flux q_s], dropping the c! constant."""
    q = expected_probabilities(rho, rec.settings)
    return _log_likelihood(q, rec.counts, rec.flux)


def _log_likelihood(q, counts, flux):
    pos = counts > 0
    if np.any(q[pos] <= 0):
        return -np.inf
    return float(np.sum(counts[pos] * np.log(flux * q[pos])) - flux * np.sum(q))


def _project_to_states(m):
    # nearest density matrix in Frobenius norm, for one matrix or a stack:
    # the eigenvalues minus the simplex threshold tau, clipped at 0. With
    # u the eigenvalues in descending order (eigh sorts them ascending),
    # t_j = (u_1 + ... + u_j - 1) / j rises while u_j > t_(j-1) and falls
    # after, so tau, t_j at the last such j, is max_j t_j.
    w, v = np.linalg.eigh(m)
    css = np.cumsum(w[..., ::-1], axis=-1)
    tau = np.max((css - 1.0) / np.arange(1, w.shape[-1] + 1), axis=-1, keepdims=True)
    return (v * np.maximum(w - tau, 0.0)[..., None, :]) @ v.conj().mT


def linear_inversion(rec):
    """Least-squares inversion of flux * Tr(rho Pi_s) = counts.

    The unconstrained solve gives the Hermitian unit-trace least-squares
    estimate, which can have negative eigenvalues; it is projected onto the
    nearest physical state (its eigenvalues onto the probability simplex).
    All-zero counts reconstruct to the maximally mixed state by convention.
    """
    maps = _linear_maps(rec.settings)
    d = maps.d
    if rec.counts.sum() == 0:
        return ReconstructionResult(rho=np.eye(d, dtype=complex) / d, method="LINEAR")
    if maps.rank < d * d:
        raise ValueError("settings are not informationally complete (rank-deficient)")
    return ReconstructionResult(rho=_linear_estimate(maps, rec), method="LINEAR")


def _linear_estimate(maps, rec):
    d = maps.d
    rho = ((rec.counts / rec.flux) @ maps.lin).view(np.complex128).reshape(d, d)
    rho = 0.5 * (rho + rho.conj().T)
    tr = np.trace(rho).real
    if abs(tr) < 1e-12:
        rho = np.eye(d, dtype=complex) / d
    else:
        rho = rho / tr
    return _project_to_states(rho)


def _gradient(pf, d, counts, q, flux, pos):
    # G = sum_s (c_s / q_s - flux) Pi_s for one record or a stack of them;
    # a setting with no counts (pos False) adds -flux Pi_s whatever its q_s
    w = counts / np.where(pos, q, 1.0) - flux
    return (w[..., None, :] @ pf).view(np.complex128).reshape(*w.shape[:-1], d, d)


def _fw_gap(grad, n_total, flux, q):
    # lambda_max(G) - Tr(rho G), with Tr(rho G) = sum_s (c_s / q_s - flux) q_s
    # = N - flux sum_s q_s
    lam_max = np.linalg.eigvalsh(grad)[..., -1]
    return np.maximum(0.0, lam_max - (n_total - flux * q.sum(axis=-1)))


def _lower_model_holds(c, r, step, eta):
    # log L(trial) - [log L(y) + <G(y), trial - y>] >= -|trial - y|^2 / (2 eta)
    # with r = q_trial / q_y - 1; the flux terms cancel exactly, leaving
    # this Bregman form
    s = step.reshape(*step.shape[:-2], step.shape[-2] * step.shape[-1])
    return np.vecdot(c, np.log1p(r) - r) >= -np.vecdot(s, s).real / (2.0 * eta)


def _gain(c, r, flux, dq):
    # log L(q + dq) - log L(q) with r = dq / q, computed from log1p so it
    # stays exact where |log L| ~ 1e8 and one ulp of it exceeds the gain
    return np.vecdot(c, np.log1p(r)) - flux * dq.sum(axis=-1)


def _start(maps, rec):
    # projected linear inversion when the settings are informationally
    # complete and it has a finite likelihood, else the maximally mixed state
    if maps.rank == maps.d * maps.d and rec.counts.any():
        x = _linear_estimate(maps, rec)
        q = _probabilities(maps.pf, x)
        if np.all(q[rec.counts > 0] > 0):
            return x, q
    x = np.eye(maps.d, dtype=complex) / maps.d
    return x, _probabilities(maps.pf, x)


def _result(x, q, gap, start, rec, iterations, converged):
    ll = _log_likelihood(q, rec.counts, rec.flux)
    x0, q0, gap0 = start
    ll0 = _log_likelihood(q0, rec.counts, rec.flux)
    if ll < ll0:
        # the whole ascent was below the rounding of log L itself
        x, ll, gap = x0, ll0, gap0
    return ReconstructionResult(
        rho=x, method="MLE", iterations=int(iterations),
        log_likelihood=ll, converged=bool(converged), gap=float(gap),
    )


# backtracking halvings of the step size allowed in one iteration
_MAX_HALVINGS = 60
# certified stop of both MLE solvers: Frank-Wolfe gap <= MLE_TOL per count
MLE_TOL = 1e-9


def mle_reconstruct(rec, max_iter=1500):
    """Poisson maximum-likelihood reconstruction with an optimality certificate.

    Maximizes log L(rho) = sum_s c_s log(flux q_s) - flux sum_s q_s over
    density matrices by accelerated projected gradient ascent (FISTA): a
    gradient step from an extrapolated point, then the eigenvalues projected
    onto the probability simplex. The start is projected linear inversion
    when the settings are informationally complete and that state has a
    finite likelihood, else the maximally mixed state. The step size is
    found by backtracking on the quadratic lower model of the concave
    likelihood, and grows 1.5x after each accepted step. The momentum
    restarts whenever a step would lower log L, so the iterates ascend
    monotonically and the returned state is the best one seen. Likelihood
    changes are computed from log1p of relative probability changes, which
    stays exact at high flux, where |log L| ~ 1e8 and one unit in its last
    place exceeds a late step's gain. If the whole ascent is smaller than
    the rounding of ``log_likelihood`` itself, the start is returned, so the
    reported likelihood is never below the start's.

    ``gap`` is the Frank-Wolfe gap lambda_max(G) - Tr(rho G) of the
    likelihood gradient G at the returned state. Because log L is concave,
    it bounds the shortfall: max log L - log_likelihood <= gap. Two stops
    set ``converged=True``: the certified stop, gap <= MLE_TOL * N with N
    the total count and the fixed tolerance MLE_TOL = 1e-9 (a log-likelihood
    tolerance per count, so it does not depend on the flux), and the
    stationary stop, three consecutive iterations in which no ascent step is
    representable in floating point.
    ``converged`` is False only when ``max_iter`` runs out first. All-zero
    counts give the maximally mixed state with gap 0 by convention. The
    output is always a valid density matrix.
    """
    maps = _linear_maps(rec.settings)
    pf, d = maps.pf, maps.d
    counts, flux = rec.counts, rec.flux
    n_total = counts.sum()
    x, qx = _start(maps, rec)
    if n_total == 0:
        return _result(x, qx, 0.0, (x, qx, 0.0), rec, 0, True)
    pos = counts > 0
    # the settings with counts; a slice when that is all of them, as a
    # view is cheaper to index than a mask
    sel = slice(None) if pos.all() else pos
    c = counts[sel]
    gap = _fw_gap(_gradient(pf, d, counts, qx, flux, pos), n_total, flux, qx)
    start = x, qx, gap
    x_prev, q_prev = x, qx
    y, qy = x, qx
    momentum = 1.0
    eta = 1.0 / flux
    stalls = 0
    iterations = 0
    converged = False
    for iterations in range(1, max_iter + 1):
        g = _gradient(pf, d, counts, qy, flux, pos)
        cand = None
        for _ in range(_MAX_HALVINGS):
            trial = _project_to_states(y + eta * g)
            q_trial = _probabilities(pf, trial)
            if (q_trial[sel] > 0).all():
                r = (q_trial[sel] - qy[sel]) / qy[sel]
                if _lower_model_holds(c, r, trial - y, eta):
                    cand, q_cand = trial, q_trial
                    break
            eta *= 0.5
        if cand is not None:
            eta *= 1.5
            dq = q_cand - qx
            gain = _gain(c, dq[sel] / qx[sel], flux, dq)
        if cand is not None and gain > 0:
            x_prev, q_prev, x, qx = x, qx, cand, q_cand
            stalls = 0
            gap = _fw_gap(_gradient(pf, d, counts, qx, flux, pos), n_total, flux, qx)
            if gap <= MLE_TOL * n_total:
                converged = True
                break
            nxt = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * momentum * momentum))
            beta = (momentum - 1.0) / nxt
            momentum = nxt
            y = x + beta * (x - x_prev)
            qy = qx + beta * (qx - q_prev)
            if not (qy[sel] > 0).all():
                y, qy, momentum = x, qx, 1.0
        elif y is not x:
            # the extrapolated step would lower log L: restart the momentum
            y, qy, momentum = x, qx, 1.0
        else:
            # no ascent step from x is representable
            stalls += 1
            if stalls == 3:
                converged = True
                break
    return _result(x, qx, gap, start, rec, iterations, converged)


def _mle_batch(recs, max_iter=1500):
    """``mle_reconstruct`` on each of many records that share one settings tuple.

    The records run in lockstep: each round projects one backtracking trial
    per unfinished record with a single batched ``eigh``, so the numpy call
    overhead of a round is shared by the whole batch. Every record keeps its
    own step size, momentum, halving, stall and iteration counts, and the
    same stops, certificate and rounding guard as ``mle_reconstruct``; a
    record leaves the batch when it stops. All arithmetic is elementwise or
    one product per record, never a product across records, so each result
    is bit for bit the same alone, in any subset and in any order.
    """
    if not recs:
        return []
    if any(r.settings != recs[0].settings for r in recs):
        raise ValueError("records in one batch must share their settings")
    maps = _linear_maps(recs[0].settings)
    pf, d = maps.pf, maps.d
    starts = [_start(maps, r) for r in recs]
    x0 = np.array([s[0] for s in starts])
    q0 = np.array([s[1] for s in starts])
    gap0 = np.zeros(len(recs))
    counts = np.array([r.counts for r in recs])
    flux = np.array([r.flux for r in recs])
    n_total = counts.sum(axis=-1)
    # the final state of each record; all-zero records end at their start
    x_end, q_end, gap_end = x0.copy(), q0.copy(), gap0.copy()
    iters_end = np.zeros(len(recs), dtype=int)
    conv_end = n_total == 0

    # state of the unfinished records, one row per entry of idx; every array
    # is compacted when records finish
    idx = np.flatnonzero(n_total > 0)
    c, fl, nt = counts[idx], flux[idx], n_total[idx]
    pos = c > 0

    def relative(dq, q, at):
        # dq / q on the settings with counts, 0 on the others
        return np.divide(dq, q, out=np.zeros_like(dq), where=pos[at])

    def certify(at):
        grad = _gradient(pf, d, c[at], qx[at], fl[at, None], pos[at])
        return _fw_gap(grad, nt[at], fl[at], qx[at])

    x, qx = x0[idx], q0[idx]
    gap = certify(slice(None))
    gap0[idx] = gap
    x_prev, q_prev, y, qy = x.copy(), qx.copy(), x.copy(), qx.copy()
    g = np.zeros_like(x)
    y_is_x = np.ones(idx.size, dtype=bool)
    momentum = np.ones(idx.size)
    eta = 1.0 / fl
    halvings = np.zeros(idx.size, dtype=int)
    stalls = np.zeros(idx.size, dtype=int)
    iterations = np.zeros(idx.size, dtype=int)
    converged = np.zeros(idx.size, dtype=bool)
    fresh = np.ones(idx.size, dtype=bool)
    while idx.size:
        # records that begin an iteration take the gradient at their y
        iterations[fresh] += 1
        halvings[fresh] = 0
        g[fresh] = _gradient(pf, d, c[fresh], qy[fresh], fl[fresh, None], pos[fresh])
        trial = _project_to_states(y + eta[:, None, None] * g)
        q_trial = _probabilities(pf, trial)
        ok = np.all((q_trial > 0) | ~pos, axis=-1)
        i = np.flatnonzero(ok)
        r = relative(q_trial[i] - qy[i], qy[i], i)
        ok[i] = _lower_model_holds(c[i], r, trial[i] - y[i], eta[i])
        eta *= np.where(ok, 1.5, 0.5)
        halvings += ~ok
        ended = ok | (halvings == _MAX_HALVINGS)

        # accepted trials that raise log L become the new iterates
        i = np.flatnonzero(ok)
        dq = q_trial[i] - qx[i]
        i = i[_gain(c[i], relative(dq, qx[i], i), fl[i], dq) > 0]
        stepped = np.zeros(idx.size, dtype=bool)
        stepped[i] = True
        x_prev[i], q_prev[i] = x[i], qx[i]
        x[i], qx[i] = trial[i], q_trial[i]
        stalls[i] = 0
        gap[i] = certify(i)
        converged[i] = gap[i] <= MLE_TOL * nt[i]
        i = i[~converged[i]]
        m = momentum[i]
        nxt = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * m * m))
        beta = (m - 1.0) / nxt
        momentum[i] = nxt
        y[i] = x[i] + beta[:, None, None] * (x[i] - x_prev[i])
        qy[i] = qx[i] + beta[:, None] * (qx[i] - q_prev[i])
        y_is_x[i] = False
        restart = i[~np.all((qy[i] > 0) | ~pos[i], axis=-1)]

        # iterations that ended without an ascent step
        i = np.flatnonzero(ended & ~stepped)
        # the extrapolated step would lower log L: restart the momentum
        restart = np.concatenate([restart, i[~y_is_x[i]]])
        # no ascent step from x is representable
        i = i[y_is_x[i]]
        stalls[i] += 1
        converged[i] = stalls[i] == 3
        y[restart], qy[restart] = x[restart], qx[restart]
        momentum[restart] = 1.0
        y_is_x[restart] = True

        done = converged | (ended & (iterations == max_iter))
        fresh = ended & ~done
        if done.any():
            out = idx[done]
            x_end[out], q_end[out], gap_end[out] = x[done], qx[done], gap[done]
            iters_end[out], conv_end[out] = iterations[done], converged[done]
            keep = ~done
            (idx, c, fl, nt, pos, x, qx, x_prev, q_prev, y, qy, g, y_is_x, momentum,
             eta, halvings, stalls, iterations, gap, converged, fresh) = (
                a[keep] for a in (
                    idx, c, fl, nt, pos, x, qx, x_prev, q_prev, y, qy, g, y_is_x,
                    momentum, eta, halvings, stalls, iterations, gap, converged, fresh,
                )
            )
    return [
        _result(x_end[k], q_end[k], gap_end[k], (x0[k], q0[k], gap0[k]), rec,
                iters_end[k], conv_end[k])
        for k, rec in enumerate(recs)
    ]


def _resample(rec, seed):
    # counts ~ Poisson(mean = observed counts), from its own generator
    counts = np.random.default_rng(seed).poisson(rec.counts).astype(float)
    return CountRecord(settings=rec.settings, counts=counts, flux=rec.flux, seed=seed)


def monte_carlo_states(rec, n_samples, seed):
    """Yield MLE reconstructions of Poisson-resampled count records.

    Sample k draws counts ~ Poisson(mean = observed counts) from the
    generator seeded with seed + k, so the stream is independent of any
    scheduling or chunking of the consumer. All samples are solved in one
    lockstep ``_mle_batch`` before the first is yielded; a sample's state
    does not depend on the others in its batch, so sample k of seed s is
    bit for bit sample k - 1 of seed s + 1.
    """
    samples = [_resample(rec, seed + k) for k in range(n_samples)]
    try:
        results = _mle_batch(samples)
    except Exception as exc:
        raise RuntimeError("reconstruction of the resamples failed") from exc
    for res in results:
        yield res.rho


def monte_carlo_statistic(rec, statistic, n_samples, seed):
    """Mean and standard deviation of a statistic over count resamples.

    The usual error-bar procedure for counting experiments: resample every
    count from a Poisson distribution centered on the observed value,
    reconstruct each resample by maximum likelihood, and evaluate the
    statistic. Returns (mean, sample std).
    """
    if n_samples < 2:
        raise ValueError("need at least 2 samples for a standard deviation")
    vals = [float(statistic(rho)) for rho in monte_carlo_states(rec, n_samples, seed)]
    return float(np.mean(vals)), float(np.std(vals, ddof=1))
