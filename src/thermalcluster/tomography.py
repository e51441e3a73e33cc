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
resampling of the counts, the standard procedure for coincidence data.

Both reconstructions and the count model use the same linear maps, built
once per settings tuple and cached: row s of the (S, d*d) matrix P is
Pi_s flattened, so the probabilities are q = Re(conj(P) vec rho) and the
gradient of the likelihood is sum_s w_s Pi_s = (w P) reshaped.

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
    return pf @ np.ascontiguousarray(rho, dtype=complex).reshape(-1).view(np.float64)


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
        if not self.flux > 0:
            raise ValueError("flux must be positive")
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
    if not flux > 0:
        raise ValueError("flux must be positive")
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


def _simplex_project(w):
    # Euclidean projection of eigenvalues onto the probability simplex
    u = np.sort(w)[::-1]
    css = np.cumsum(u)
    k = np.nonzero(u * np.arange(1, len(w) + 1) > (css - 1.0))[0][-1]
    tau = (css[k] - 1.0) / (k + 1)
    return np.maximum(w - tau, 0.0)


def _project_to_states(m):
    # nearest density matrix in Frobenius norm: eigenvalues onto the simplex
    w, v = np.linalg.eigh(m)
    return (v * _simplex_project(w)) @ v.conj().T


def linear_inversion(rec, project=True):
    """Least-squares inversion of flux * Tr(rho Pi_s) = counts.

    The unconstrained solve returns the Hermitian unit-trace least-squares
    estimate, which can have negative eigenvalues; with ``project=True``
    (the default) the eigenvalues are clipped to the nearest physical state.
    All-zero counts reconstruct to the maximally mixed state by convention.
    """
    maps = _linear_maps(rec.settings)
    d = maps.d
    if rec.counts.sum() == 0:
        return ReconstructionResult(rho=np.eye(d, dtype=complex) / d, method="LINEAR")
    if maps.rank < d * d:
        raise ValueError("settings are not informationally complete (rank-deficient)")
    return ReconstructionResult(rho=_linear_estimate(maps, rec, project), method="LINEAR")


def _linear_estimate(maps, rec, project=True):
    d = maps.d
    rho = ((rec.counts / rec.flux) @ maps.lin).view(np.complex128).reshape(d, d)
    rho = 0.5 * (rho + rho.conj().T)
    tr = np.trace(rho).real
    if abs(tr) < 1e-12:
        rho = np.eye(d, dtype=complex) / d
    else:
        rho = rho / tr
    if project:
        rho = _project_to_states(rho)
    return rho


def mle_reconstruct(rec, max_iter=1500, tol=1e-9):
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
    set ``converged=True``: the certified stop, gap <= tol * N with N the
    total count (``tol`` is a log-likelihood tolerance per count, so it does
    not depend on the flux), and the stationary stop, three consecutive
    iterations in which no ascent step is representable in floating point.
    ``converged`` is False only when ``max_iter`` runs out first. All-zero
    counts give the maximally mixed state with gap 0 by convention. The
    output is always a valid density matrix.
    """
    maps = _linear_maps(rec.settings)
    pf, d = maps.pf, maps.d
    counts = rec.counts
    flux = rec.flux
    n_total = counts.sum()
    x = np.eye(d, dtype=complex) / d
    qx = _probabilities(pf, x)
    if n_total == 0:
        return ReconstructionResult(
            rho=x, method="MLE", iterations=0,
            log_likelihood=_log_likelihood(qx, counts, flux), converged=True, gap=0.0,
        )
    pos = counts > 0
    if pos.all():
        pos = slice(None)  # a view: cheaper to index than a mask
    c = counts[pos]

    def gradient(q):
        w = np.full(q.shape, -flux)
        w[pos] += c / q[pos]
        return (w @ pf).view(np.complex128).reshape(d, d)

    def fw_gap(q):
        # Tr(rho G) = sum_s (c_s / q_s - flux) q_s = N - flux sum_s q_s
        lam_max = np.linalg.eigvalsh(gradient(q))[-1]
        return max(0.0, float(lam_max - (n_total - flux * q.sum())))

    if maps.rank == d * d:
        lin = _linear_estimate(maps, rec)
        q_lin = _probabilities(pf, lin)
        if np.all(q_lin[pos] > 0):
            x, qx = lin, q_lin
    gap = fw_gap(qx)
    x0, q0, gap0 = x, qx, gap
    x_prev, q_prev = x, qx
    y, qy = x, qx
    momentum = 1.0
    eta = 1.0 / flux
    stalls = 0
    iterations = 0
    converged = False
    for iterations in range(1, max_iter + 1):
        g = gradient(qy)
        cand = None
        for _ in range(60):
            trial = _project_to_states(y + eta * g)
            q_trial = _probabilities(pf, trial)
            if np.all(q_trial[pos] > 0):
                # log L(trial) - [log L(y) + <G(y), trial - y>]; the flux
                # terms cancel exactly, leaving this Bregman form
                r = (q_trial[pos] - qy[pos]) / qy[pos]
                step = trial - y
                if c @ (np.log1p(r) - r) >= -np.vdot(step, step).real / (2.0 * eta):
                    cand, q_cand = trial, q_trial
                    break
            eta *= 0.5
        if cand is not None:
            eta *= 1.5
            dq = q_cand - qx
            gain = c @ np.log1p(dq[pos] / qx[pos]) - flux * dq.sum()
        if cand is not None and gain > 0:
            x_prev, q_prev, x, qx = x, qx, cand, q_cand
            stalls = 0
            gap = fw_gap(qx)
            if gap <= tol * n_total:
                converged = True
                break
            nxt = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * momentum * momentum))
            beta = (momentum - 1.0) / nxt
            momentum = nxt
            y = x + beta * (x - x_prev)
            qy = qx + beta * (qx - q_prev)
            if not np.all(qy[pos] > 0):
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
    ll, ll0 = _log_likelihood(qx, counts, flux), _log_likelihood(q0, counts, flux)
    if ll < ll0:
        # the whole ascent was below the rounding of log L itself
        x, ll, gap = x0, ll0, gap0
    return ReconstructionResult(
        rho=x, method="MLE", iterations=iterations,
        log_likelihood=ll, converged=converged, gap=gap,
    )


def _reconstruct(rec, method, project):
    if method == "mle":
        return mle_reconstruct(rec).rho
    if method == "linear":
        return linear_inversion(rec, project=project).rho
    raise ValueError(f"unknown reconstruction method {method!r}")


def monte_carlo_states(rec, n_samples, seed, method="mle", project=True):
    """Yield reconstructions of Poisson-resampled count records.

    Sample k draws counts ~ Poisson(mean = observed counts) from the
    generator seeded with seed + k, so the stream is independent of any
    scheduling or chunking of the consumer.
    """
    for k in range(n_samples):
        rng = np.random.default_rng(seed + k)
        resampled = rng.poisson(rec.counts).astype(float)
        sample = CountRecord(
            settings=rec.settings, counts=resampled, flux=rec.flux, seed=seed + k
        )
        try:
            yield _reconstruct(sample, method, project)
        except Exception as exc:
            raise RuntimeError(f"reconstruction failed for resample {k}") from exc


def monte_carlo_statistic(rec, statistic, n_samples, seed, method="mle", project=True):
    """Mean and standard deviation of a statistic over count resamples.

    The usual error-bar procedure for counting experiments: resample every
    count from a Poisson distribution centered on the observed value,
    reconstruct, and evaluate the statistic. Returns (mean, sample std).
    """
    if n_samples < 2:
        raise ValueError("need at least 2 samples for a standard deviation")
    vals = [
        float(statistic(rho))
        for rho in monte_carlo_states(rec, n_samples, seed, method, project)
    ]
    return float(np.mean(vals)), float(np.std(vals, ddof=1))
