"""Simulated projective tomography with Poissonian counts.

The measurement model follows the optical experiment: for each product
projector setting the detector registers a Poisson-distributed number of
coincidences with mean flux * Tr(rho * Pi). Reconstruction is offered both
as least-squares linear inversion (with eigenvalue clipping to the physical
set) and as Poisson maximum likelihood. The likelihood is concave in rho,
so the MLE is found by Newton's method on a log-det barrier path (Boyd and
Vandenberghe, Convex Optimization, 2004, ch. 11) and certified by the
Frank-Wolfe gap, an upper bound on how far the returned log-likelihood lies
below the maximum (cf. Glancy, Knill and Girard, NJP 14, 095017 (2012)).
On the standard settings the map from rho to the probabilities q is square
and invertible, and the settings in {z0, z1}^n sum to I, so tr rho is the
sum of their q. The maximum of log L over unit-trace Hermitian matrices is
then closed-form: q_s = c_s / N_Z on those settings (N_Z their total count)
and c_s / flux elsewhere. Where it is positive definite and every count is
positive it is the MLE, and the gap certifies it with 0 Newton steps. On
other informationally complete settings, where the least-squares estimate
is an interior state, the maximum usually lies inside the state set too,
and the solver starts there with plain Newton steps on log L, which
converge quadratically (Boyd and Vandenberghe, sec. 9.5); a record whose
Newton step is cut short goes back to the barrier path.
Error bars come from Monte Carlo resampling of the counts, the standard
procedure for coincidence data, with every resample reconstructed by
maximum likelihood.

Both reconstructions and the count model use the same linear maps, built
once per settings tuple and cached: row s of the (S, d*d) matrix P is
Pi_s flattened, so the probabilities are q = Re(conj(P) vec rho) and the
gradient of the likelihood is sum_s w_s Pi_s = (w P) reshaped.

The solver works on a stack of records that share one settings tuple (a
sweep's records and their Monte Carlo resamples); one record is a stack of
one. The stack is cut into chunks, the records with an interior start
first, so that those certified at their start do not wait on the barrier
path's rounds. Every unfinished record of a chunk takes a Newton step in
each round, with one batched ``eigh`` and ``solve`` and two batched
``eigvalsh`` (the certificate's and the line search's) for the whole
chunk. Every product is taken per record, never across records, so a
record's result is the same bit for bit alone or in any batch.

All randomness flows from explicit integer seeds; nothing reads ambient
entropy, so every pipeline built on this module is reproducible bit for bit.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .linalg import KETS, ConfigError, _check_integer, _check_nonnegative, _is_real, _states

__all__ = [
    "STANDARD_ALPHABET",
    "CountRecord",
    "ReconstructionResult",
    "standard_settings",
    "projector_stack",
    "setting_label",
    "parse_setting_label",
    "simulate_counts",
    "expected_probabilities",
    "poisson_log_likelihood",
    "linear_inversion",
    "mle_reconstruct",
    "monte_carlo_statistic",
]

# Minimal informationally complete product family: 4^n settings.
STANDARD_ALPHABET = ("z0", "z1", "x+", "y+")


def standard_settings(n):
    """All 4^n product settings over {|0>, |1>, |+>, |r>}."""
    _check_integer("n", n)
    if n < 1:
        raise ConfigError("need at least one qubit")
    return list(itertools.product(STANDARD_ALPHABET, repeat=n))


def _setting_ket(setting):
    v = np.array([1.0 + 0.0j])
    for lab in setting:
        v = np.kron(v, KETS[lab])
    return v


def projector_stack(settings):
    """(S, d, d) array of the rank-1 product projectors of the settings."""
    k = np.array([_setting_ket(s) for s in settings])
    return k[:, :, None] * k[:, None, :].conj()


@dataclass(frozen=True)
class _LinearMaps:
    # pf: P = projector_stack(settings).reshape(S, d*d) viewed as real
    # (S, 2*d*d), interleaving real and imaginary parts. For Hermitian Pi_s,
    # Re Tr(rho Pi_s) = sum_ij Re rho_ij Re Pi_ij + Im rho_ij Im Pi_ij, so
    # q = pf @ (rho viewed as real), and w @ pf viewed as complex is
    # sum_s w_s Pi_s. lin: the transposed pseudo-inverse of conj(P) in the
    # same real view, so b @ lin is the least-squares solution of
    # Tr(rho Pi_s) = b_s. kets: (S, d), row s the ket v_s of Pi_s = v_s v_s^H.
    # diag: (d, d - 1), columns the diagonals of the orthonormal traceless
    # diagonal generators (1, ..., 1, -k, 0, ..., 0) / sqrt(k (k + 1)).
    # zset: the trace functional, tr rho = sum_s l_s q_s with l_s the real
    # trace of row s of lin as a d x d matrix, as the (S,) mask l_s = 1,
    # where S = rank = d*d and every l_s is 0 or 1 (the standard settings:
    # the 2^n settings in {z0, z1}^n, which sum to I); None elsewhere.
    # All arrays are read-only: every caller shares them.
    d: int
    rank: int
    pf: np.ndarray
    lin: np.ndarray
    kets: np.ndarray
    diag: np.ndarray
    zset: np.ndarray | None


@functools.lru_cache(maxsize=8)
def _check_settings(settings):
    # one or more label tuples of one length over KETS; cached, as every record checks
    if not settings or len(set(map(len, settings))) > 1:
        raise ConfigError("settings must be one or more label tuples on one number of qubits")
    if not set().union(*settings) <= KETS.keys():
        raise ConfigError(f"setting labels must be among {sorted(KETS)}")


@functools.lru_cache(maxsize=8)
def _cached_maps(settings):
    _check_settings(settings)
    pi = projector_stack(settings)
    s, d = pi.shape[0], pi.shape[1]
    p = pi.reshape(s, d * d)
    lin = np.ascontiguousarray(np.linalg.pinv(p.conj()).T)
    rank = int(np.linalg.matrix_rank(p))
    ell = np.trace(lin.reshape(s, d, d), axis1=1, axis2=2).real
    zset = ell > 0.5
    zset.flags.writeable = False
    if not (s == rank == d * d and np.all(np.abs(ell - zset) < 1e-9)):
        zset = None
    pf, lin = p.view(np.float64), lin.view(np.float64)
    kets = np.array([_setting_ket(st) for st in settings])
    k = np.arange(1, d)
    diag = (np.triu(np.ones((d, d - 1))) - np.eye(d, d - 1, -1) * k) / np.sqrt(k * (k + 1))
    for arr in (pf, lin, kets, diag):
        arr.flags.writeable = False
    return _LinearMaps(d=d, rank=rank, pf=pf, lin=lin, kets=kets, diag=diag, zset=zset)


def _linear_maps(settings):
    return _cached_maps(tuple(map(tuple, settings)))


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
        raise ConfigError(f"bad setting label {label!r}")
    toks = tuple(label[i : i + 2] for i in range(0, len(label), 2))
    for t in toks:
        if t not in KETS:
            raise ConfigError(f"unknown setting token {t!r} in {label!r}")
    return toks


def _number(parse, text):
    try:
        return parse(text)
    except ValueError:
        raise ConfigError(f"bad number {text!r} in count table") from None


@dataclass(frozen=True)
class CountRecord:
    """Counts per setting plus the flux and seed that produced them.

    Counts are stored as floats: the Poisson sampler yields integers, but
    exact mean counts (noiseless diagnostics) are legitimate inputs to the
    reconstructors as well. The flux is stored as a Python float and the
    seed as None or a Python int, so numpy scalars round-trip through the
    text form.
    """

    settings: tuple
    counts: np.ndarray
    flux: float
    seed: int | None = None

    def __post_init__(self):
        try:
            settings = tuple(map(tuple, self.settings))
        except TypeError:
            raise ConfigError("settings must be a sequence of label tuples") from None
        object.__setattr__(self, "settings", settings)
        _check_settings(settings)
        try:
            counts = np.asarray(self.counts, dtype=float)
        except (TypeError, ValueError):
            raise ConfigError("counts must be numbers") from None
        object.__setattr__(self, "counts", counts)
        if counts.shape != (len(self.settings),):
            raise ConfigError(
                f"{counts.shape[0] if counts.ndim else 0} counts for "
                f"{len(self.settings)} settings"
            )
        if not np.all((counts >= 0) & (counts < np.inf)):
            raise ConfigError("counts must be nonnegative and finite")
        if not (_is_real(self.flux) and 0 < self.flux < np.inf):
            raise ConfigError("flux must be positive and finite")
        object.__setattr__(self, "flux", float(self.flux))
        if self.seed is not None:
            _check_nonnegative("seed", self.seed)
            object.__setattr__(self, "seed", int(self.seed))

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
                    flux = _number(float, val)
                elif key == "seed":
                    seed = None if val in ("None", "none") else _number(int, val)
                continue
            label, _, c_txt = line.partition(",")
            settings.append(parse_setting_label(label.strip()))
            counts.append(_number(float, c_txt))
        if flux is None:
            raise ConfigError("count table is missing the flux header")
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
    """Tr(rho * Pi_s) for every setting, of one state or of each in a stack."""
    rho, _ = _states(rho)
    maps = _linear_maps(settings)
    if rho.shape[-1] != maps.d:
        raise ConfigError(f"dimension mismatch: state {rho.shape[-1]}, settings {maps.d}")
    return _probabilities(maps.pf, rho)


# numpy's Poisson sampler refuses means above about 9.2e18
_MAX_FLUX = 1e18


def simulate_counts(rho, settings, flux, seed):
    """Draw one Poisson count per setting with mean flux * Tr(rho * Pi)."""
    if not (_is_real(flux) and 0 < flux <= _MAX_FLUX):
        raise ConfigError(f"flux must be positive and at most {_MAX_FLUX:g}")
    _check_nonnegative("seed", seed)
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
        raise ConfigError("settings are not informationally complete (rank-deficient)")
    return ReconstructionResult(
        rho=_project_to_states(_least_squares(maps, rec.counts, rec.flux)), method="LINEAR"
    )


def _inverse(maps, x):
    # the Hermitian part of the least-squares solution of Tr(rho Pi_s) = x_s,
    # of one record or a stack, one product per record
    d = maps.d
    rho = (x[..., None, :] @ maps.lin).view(np.complex128).reshape(*x.shape[:-1], d, d)
    return 0.5 * (rho + rho.conj().mT)


def _least_squares(maps, counts, flux):
    # the unprojected least-squares estimate of one record or a stack: the
    # solution of flux Tr(rho Pi_s) = c_s scaled to trace 1, or I/d where its
    # trace vanishes
    d = maps.d
    rho = _inverse(maps, counts / np.asarray(flux)[..., None])
    tr = np.trace(rho, axis1=-2, axis2=-1).real[..., None, None]
    flat = np.abs(tr) < 1e-12
    return np.where(flat, np.eye(d) / d, rho / np.where(flat, 1.0, tr))


_EPS = np.finfo(float).eps


def _fw_gap(pf, d, c, flux, q):
    # lambda_max(G) - Tr(rho G) for the likelihood gradient
    # G = sum_s w_s Pi_s, w_s = c_s / q_s - flux, of one record or a stack;
    # Tr(rho G) = sum_s (c_s / q_s - flux) q_s = N - flux sum_s q_s. Added to
    # it is a bound on the rounding of log L, a sum of S terms
    # c_s log(flux q_s) - flux q_s with each q_s a product over d*d entries,
    # so the certificate holds for the computed log L even where the gap
    # itself falls below one ulp of it
    n_total = c.sum(axis=-1)
    mean = flux * q.sum(axis=-1)
    w = c / q - flux[..., None]
    grad = (w[..., None, :] @ pf).view(np.complex128).reshape(*w.shape[:-1], d, d)
    lam_max = np.linalg.eigvalsh(grad)[..., -1]
    terms = n_total + mean + np.vecdot(c, np.abs(np.log(flux[..., None] * q)))
    return np.maximum(0.0, lam_max - (n_total - mean)) + (q.shape[-1] + d * d) * _EPS * terms


def _result(rho, q, gap, rec, ls, maps, iterations, converged):
    ll = _log_likelihood(q, rec.counts, rec.flux)
    if maps.rank == maps.d * maps.d and rec.counts.any():
        # projected linear inversion, if the solver ended below it; gap still
        # bounds max log L - ll, as ll only grows
        lin = _project_to_states(ls)
        ll_lin = _log_likelihood(_probabilities(maps.pf, lin), rec.counts, rec.flux)
        if ll < ll_lin:
            rho, ll = lin, ll_lin
    return ReconstructionResult(
        rho=rho, method="MLE", iterations=int(iterations),
        log_likelihood=ll, converged=bool(converged), gap=float(gap),
    )


def _rotated_map(wk, iu, ju, g):
    # (..., S, d*d - 1): entry (s, k) is Tr(Pi_s U B_k U^H) = <w_s|B_k|w_s>,
    # w_s = U^H v_s the rows of wk, for the basis B_k of _mle_batch
    z = wk[..., iu]
    np.conjugate(z, out=z)
    z *= wk[..., ju]
    a = np.concatenate([z.real, z.imag, (wk.real**2 + wk.imag**2) @ g], axis=-1)
    a[..., : 2 * iu.size] *= np.sqrt(2.0)
    return a


def _whitened_eigenvalues(lam, m):
    # eigenvalues nu of W = lam^-1/2 m lam^-1/2, for a state rho = U diag(lam)
    # U^H and a step U m U^H (one of each or stacks): rho + t U m U^H =
    # U lam^1/2 (I + t W) lam^1/2 U^H is positive definite iff 1 + t nu_min > 0,
    # and its log det exceeds log det rho by sum log1p(t nu)
    s = 1.0 / np.sqrt(lam)
    return np.linalg.eigvalsh(s[..., :, None] * m * s[..., None, :])


# certified stop of the MLE: Frank-Wolfe gap <= MLE_TOL per count
MLE_TOL = 1e-9
# fraction of the Newton decrement a line-search step must gain (Armijo),
# the halvings of the step tried before a record stays put for a step, and
# the floor on 1 + t nu_min, nu the eigenvalues of the step whitened by rho:
# a step keeps rho + t d_rho >= _BOUNDARY rho, a fraction 1 - _BOUNDARY of
# the way to the boundary, so rounding cannot make rho singular
_ARMIJO = 0.25
_LINE_SEARCH_STEPS = 40
_BOUNDARY = 0.01
# factor by which mu falls once a record is near the barrier problem's maximum
_MU_CUT = 30.0
# records solved together; the Newton system takes about 150 KB per record
_BATCH = 16


def mle_reconstruct(rec, max_iter=200):
    """Poisson maximum-likelihood reconstruction with an optimality certificate.

    Maximizes log L(rho) = sum_s c_s log(flux q_s) - flux sum_s q_s over
    density matrices by Newton's method on the log-det barrier path (Boyd
    and Vandenberghe, Convex Optimization, 2004, ch. 11). Each Newton step
    maximizes log L(rho) + mu log det rho over rho + sum_k x_k B~_k, where
    the B~_k are an orthonormal basis of the traceless Hermitian matrices
    taken in the eigenbasis of rho, so the trace stays 1 and the barrier's
    Hessian has a closed form. The barrier's Hessian is weighted by the mu
    the iterate was centred for, the primal-dual scaling of Helmberg, Rendl,
    Vanderbei and Wolkowicz (SIAM J. Optim. 6, 342 (1996)), so that the
    eigenvalues headed for 0 follow a cut of mu in one full step. The path
    starts at I/d with mu = N/d^2, N the total count. A record whose settings
    are informationally complete, whose counts are all positive and whose
    interior estimate is positive definite starts at that estimate with
    mu = 0 instead, taking plain Newton steps on log L. On the standard
    settings (S = d^2, with a trace functional that is 1 on the settings in
    {z0, z1}^n and 0 elsewhere) that estimate is the closed-form maximum of
    log L over unit-trace Hermitian matrices, rho = P^-1 q with
    q_s = c_s / N_Z on {z0, z1}^n, N_Z their total count, and c_s / flux
    elsewhere; its gradient is (N_Z - flux) I, so the gap certifies it with
    0 steps. Elsewhere it is the unprojected least-squares estimate; if its
    line search takes a step shorter than 1, the maximum may lie on the
    boundary, and it restarts at I/d with mu = N/d^2 (the steps taken count
    toward ``iterations`` and ``max_iter``). A backtracking line
    search asks for a quarter of the predicted ascent, computed from log1p of
    the relative probability changes and of the eigenvalues nu of the step
    whitened by rho, so that it stays exact at high flux, where |log L| ~
    1e8, and needs no eigenvalues of its trial states. It keeps rho positive
    definite with a margin: 1 + t nu_min >= 0.01, the fraction-to-the-boundary
    rule. mu falls thirtyfold whenever the squared Newton decrement is below
    mu/2, that is near the maximum of the barrier problem, which lies at most
    d mu below max log L. If projected linear inversion (on informationally
    complete settings) has a higher likelihood than the last iterate, it is
    returned instead.

    ``gap`` bounds the shortfall: max log L - log_likelihood <= gap. It is
    the Frank-Wolfe gap lambda_max(G) - Tr(rho G) of the likelihood gradient
    G at the last iterate, a bound because log L is concave, plus a bound
    on the rounding error of the computed log L. The solver
    stops with ``converged=True`` at gap <= MLE_TOL * N, with the fixed
    tolerance MLE_TOL = 1e-9 (a log-likelihood tolerance per count, so it
    does not depend on the flux); ``converged`` is False when ``max_iter``
    Newton steps run out first. All-zero counts give the maximally mixed
    state with gap 0 by convention. The output is always a valid density
    matrix.
    """
    _check_nonnegative("max_iter", max_iter)
    return _mle_batch([rec], max_iter)[0]


def _mle_batch(recs, max_iter=200):
    """``mle_reconstruct`` on each of many records that share one settings tuple.

    Each record picks its start from its own counts, with one batched
    ``eigvalsh`` of the estimates: on the standard settings the closed-form
    maximum, elsewhere the least-squares estimate, with mu = 0 where it is
    an interior state, I/d on the barrier path where it is not. The records
    are solved in chunks of _BATCH, those with the interior start first (in
    a stable order), so that a chunk of records certified at their start
    does not wait on the barrier path's rounds. Within a chunk every
    unfinished record takes its Newton step in the same round, so one
    batched ``eigh`` and ``solve`` and two batched ``eigvalsh`` serve the
    chunk, and a record leaves the round when it is certified. An interior
    record whose full step is refused rejoins the barrier path from I/d in
    the next round. All arithmetic is elementwise or one product per
    record, never a product across records, so each result is bit for bit
    the same alone, in any subset and in any order.
    """
    if not recs:
        return []
    if any(r.settings != recs[0].settings for r in recs):
        raise ValueError("records in one batch must share their settings")
    maps = _linear_maps(recs[0].settings)
    d = maps.d
    counts = np.array([r.counts for r in recs])
    flux = np.array([r.flux for r in recs])
    ls = _least_squares(maps, counts, flux)
    # the interior start (see mle_reconstruct), tested per record; q_s > 0
    # holds for a positive definite estimate, and is tested too in case
    # rounding breaks it
    est = ls if maps.zset is None else _closed_form(maps, counts, flux)
    interior = (
        (maps.rank == d * d)
        & np.all(counts > 0, axis=-1)
        & (np.linalg.eigvalsh(est)[:, 0] > 0.0)
        & np.all(_probabilities(maps.pf, est) > 0.0, axis=-1)
    )
    start = np.where(interior[:, None, None], est, np.eye(d) / d)
    order = np.argsort(~interior, kind="stable")
    results = [None] * len(recs)
    for lo in range(0, len(recs), _BATCH):
        idx = order[lo : lo + _BATCH]
        rho, q, gap, iterations, converged = _newton(
            maps, counts[idx], flux[idx], start[idx], interior[idx], max_iter
        )
        for j, n in enumerate(idx):
            results[n] = _result(
                rho[j], q[j], gap[j], recs[n], ls[n], maps, iterations[j], converged[j]
            )
    return results


def _closed_form(maps, counts, flux):
    # the maximum of log L over unit-trace Hermitian matrices, for settings
    # with a 0/1 trace functional (maps.zset), of one record or a stack: with
    # N_Z the count on zset, stationarity under tr rho = sum_zset q_s = 1 gives
    # q_s = c_s / N_Z on zset and c_s / flux elsewhere, and rho = P^-1 q. A
    # record with N_Z = 0 has a zero count, so it does not start here; its
    # N_Z is replaced by 1 only to keep the division finite
    n_z = counts[..., maps.zset].sum(axis=-1)
    n_z = np.where(n_z > 0, n_z, 1.0)[..., None]
    return _inverse(maps, counts / np.where(maps.zset, n_z, np.asarray(flux)[..., None]))


def _newton(maps, counts, flux, rho, interior, max_iter):
    # the Newton rounds of _mle_batch on one chunk, from the starts rho
    # (interior ones with mu = 0); returns the last iterates, their q, gaps,
    # step counts and convergence. rho and interior are the chunk's own copies
    pf, kets, g, d = maps.pf, maps.kets, maps.diag, maps.d
    iu, ju = np.triu_indices(d, 1)
    # coordinates 0 .. n_off - 1 are the pairs i < j, the rest the diagonal
    n_off = 2 * iu.size
    n_total = counts.sum(axis=-1)
    mixed = np.eye(d) / d
    q = _probabilities(pf, rho)
    mu_path = n_total / (d * d)
    mu = np.where(interior, 0.0, mu_path)
    mu_h = mu.copy()
    gap = np.zeros(len(counts))
    iterations = np.zeros(len(counts), dtype=int)
    live = np.flatnonzero(n_total > 0)
    for it in range(max_iter + 1):
        c, fl, ql, nl = counts[live], flux[live], q[live], n_total[live]
        gap[live] = _fw_gap(pf, d, c, fl, ql)
        keep = gap[live] > MLE_TOL * nl
        if it == max_iter or not keep.any():
            break
        live, c, fl, ql = live[keep], c[keep], fl[keep], ql[keep]
        w = c / ql
        iterations[live] = it + 1
        rl, ml, hl, k = rho[live], mu[live], mu_h[live], live.size

        # Newton step of log L + mu log det rho over rho + U (sum_k x_k B_k) U^H,
        # rho = U diag(lam) U^H, in the orthonormal traceless basis B_k:
        # (E_ij + E_ji)/sqrt2 and i(E_ji - E_ij)/sqrt2 for the pairs i < j,
        # then diag(g_k). There q moves by a x (_rotated_map), the barrier's
        # gradient Tr(rho^-1 B~_k) is 0 on the pairs and g^T (1/lam) on the
        # diagonal, and its Hessian Tr(rho^-1 B~_k rho^-1 B~_l) is diagonal,
        # 1/(lam_i lam_j) on the pairs, but for the diagonal's block
        # g^T diag(1/lam^2) g. The gradient takes mu, the Hessian mu_h, the mu
        # rho was centred for (the last step's): the primal-dual scaling
        # Z = mu_h rho^-1. After mu falls by _MU_CUT, a full step then takes an
        # eigenvalue headed for 0 from lam to about lam / _MU_CUT
        lam, u = np.linalg.eigh(rl)
        a = _rotated_map(kets @ u.conj(), iu, ju, g)
        inv_lam = 1.0 / lam
        grad = (a.mT @ (w - fl[:, None])[..., None])[..., 0]
        grad[:, n_off:] += ml[:, None] * (inv_lam[:, None, :] @ g)[:, 0]
        a *= (np.sqrt(c) / ql)[..., None]
        hess = a.mT @ a
        pairs = np.arange(n_off)
        hess[:, pairs, pairs] += hl[:, None] * np.tile(inv_lam[:, iu] * inv_lam[:, ju], 2)
        hess[:, n_off:, n_off:] += hl[:, None, None] * (g.T @ (inv_lam[..., None] ** 2 * g))
        step = np.linalg.solve(hess, grad[..., None])[..., 0]
        decrement = np.vecdot(grad, step)
        m = np.zeros((k, d, d), dtype=complex)
        m[:, iu, ju] = np.sqrt(0.5) * (step[:, : iu.size] - 1j * step[:, iu.size : n_off])
        m[:, ju, iu] = m[:, iu, ju].conj()
        m[:, range(d), range(d)] = (g @ step[:, n_off:, None])[..., 0]
        d_rho = u @ m @ u.conj().mT
        d_rho = 0.5 * (d_rho + d_rho.conj().mT)
        dq = _probabilities(pf, d_rho)
        nu = _whitened_eigenvalues(lam, m)
        mu_h[live] = ml
        mu[live] = np.where(decrement < 0.5 * ml, ml / _MU_CUT, ml)

        # backtracking: step t = 1, 1/2, ... until rho keeps a fraction of
        # its distance to the boundary, 1 + t nu_min >= _BOUNDARY, and the
        # gain reaches _ARMIJO * t * decrement. A record from the interior
        # start that does not take t = 1 goes back to the barrier path: its
        # maximum may lie on the boundary, where plain Newton slows down
        todo = np.arange(k)
        for j in range(_LINE_SEARCH_STEPS):
            t = 0.5**j
            r = t * dq[todo] / ql[todo]
            ok = (1.0 + t * nu[todo, 0] >= _BOUNDARY) & np.all(r > -1.0, axis=-1)
            i = todo[ok]
            gain = (
                np.vecdot(c[i], np.log1p(r[ok]))
                - t * fl[i] * dq[i].sum(axis=-1)
                + ml[i] * np.log1p(t * nu[i]).sum(axis=-1)
            )
            good = gain >= _ARMIJO * t * decrement[i]
            rho[live[i[good]]] = rl[i[good]] + t * d_rho[i[good]]
            ok[ok] = good
            todo = todo[~ok]
            if j == 0:
                inner = interior[live[todo]]
                back, todo = live[todo[inner]], todo[~inner]
                rho[back], interior[back] = mixed, False
                mu[back] = mu_h[back] = mu_path[back]
            if not todo.size:
                break
        q[live] = _probabilities(pf, rho[live])
    return rho, q, gap, iterations, gap <= MLE_TOL * n_total


def _resample(rec, seed):
    # counts ~ Poisson(mean = observed counts), from its own generator
    counts = np.random.default_rng(seed).poisson(rec.counts).astype(float)
    return CountRecord(settings=rec.settings, counts=counts, flux=rec.flux, seed=seed)


def monte_carlo_statistic(rec, statistic, n_samples, seed):
    """Mean and standard deviation of a statistic over count resamples.

    The usual error-bar procedure for counting experiments: resample every
    count from a Poisson distribution centered on the observed value,
    reconstruct each resample by maximum likelihood, and evaluate the
    statistic. Returns (mean, sample std). Sample k draws its counts from
    the generator seeded with seed + k, and all samples are solved in one
    ``_mle_batch``, in which no state depends on the others.
    """
    _check_integer("n_samples", n_samples)
    if n_samples < 2:
        raise ConfigError("need at least 2 samples for a standard deviation")
    _check_nonnegative("seed", seed)
    samples = [_resample(rec, seed + k) for k in range(n_samples)]
    try:
        results = _mle_batch(samples)
    except Exception as exc:
        raise RuntimeError("reconstruction of the resamples failed") from exc
    vals = [float(statistic(res.rho)) for res in results]
    return float(np.mean(vals)), float(np.std(vals, ddof=1))
