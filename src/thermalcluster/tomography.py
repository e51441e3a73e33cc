"""Simulated projective tomography with Poissonian counts.

The measurement model follows the optical experiment: for each product
projector setting the detector registers a Poisson-distributed number of
coincidences with mean flux * Tr(rho * Pi). Reconstruction is offered both
as least-squares linear inversion (with eigenvalue clipping to the physical
set) and as Poisson maximum likelihood. The likelihood is concave in rho,
so the MLE is found by Newton's method and certified by an upper bound on
how far the returned log-likelihood lies below the maximum: the smaller of
the Frank-Wolfe gap (cf. Glancy, Knill and Girard, NJP 14, 095017 (2012))
and a dual gap from weak duality, each plus a bound on its rounding. Each
record takes one of two starts:

- The closed form. On the standard settings the map from rho to the
  probabilities q is square and invertible, and the settings in
  {z0, z1}^n sum to I, so tr rho is the sum of their q. The maximum of
  log L over unit-trace Hermitian matrices is then closed-form:
  q_s = c_s / N_Z on those settings (N_Z their total count) and c_s / flux
  elsewhere. Where it is positive definite and every count is positive it
  is the MLE, and the gap certifies it with 0 Newton steps.
- Factored. Every other record writes rho = A A^H / tr(A A^H) with A a
  d x k matrix, the T^H T form of photonic MLE (James, Kwiat, Munro and
  White, PRA 64, 052312 (2001)) cut to rank k as in Burer and Monteiro
  (Math. Program. 95, 329 (2003)), and takes Newton steps in A from the
  positive part of its estimate (the closed form on the standard
  settings, the least-squares estimate elsewhere): its top k eigenvectors
  scaled by sqrt(lambda), with k = d where the estimate is positive
  definite. k grows where the gradient off the face calls for it, and
  shrinks where a column of A does. A record whose estimate has no
  positive eigenvalue, or whose positive part is orthogonal to a setting
  with a count, starts at I/d with k = d. Where the settings with a count
  do not see every direction (settings that are not informationally
  complete, or zero counts), the Newton system can be singular, and the
  step is then its least-norm solution.

Error bars come from Monte Carlo resampling of the counts, the standard
procedure for coincidence data, with every resample reconstructed by
maximum likelihood.

Both reconstructions and the count model use the same linear maps, built
once per settings tuple and cached: row s of the (S, d*d) matrix P is
Pi_s flattened, so the probabilities are q = Re(conj(P) vec rho) and the
gradient of the likelihood is sum_s w_s Pi_s = (w P) reshaped.

The solver works on a stack of records that share one settings tuple (a
sweep's records and their Monte Carlo resamples); one record is a stack of
one. The stack is cut into chunks, records with a positive definite
estimate first, so that records certified at their start do not wait on
other records' rounds. Every unfinished record of a chunk takes a Newton
step in each round, with one set of batched ``eigh``, ``solve`` and
``eigvalsh`` calls for the chunk; one ``eigh`` of each iterate and one of
its gradient serve both its certificate and its next step. Every product
is taken per record, never across records, so a record's result is the
same bit for bit alone or in any batch.

All randomness flows from explicit integer seeds; nothing reads ambient
entropy, so every pipeline built on this module is reproducible bit for bit.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .linalg import (
    KETS,
    ConfigError,
    _check_integer,
    _check_nonnegative,
    _float_or_stack,
    _is_real,
    _states,
)

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
    # pairs: the index arrays (i, j) of the pairs i < j of a d x d matrix.
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
    pairs: tuple
    zset: np.ndarray | None


@functools.lru_cache(maxsize=8)
def _check_settings(settings):
    # one or more label tuples of one length over KETS; cached, as every record checks
    if not settings or len(set(map(len, settings))) > 1:
        raise ConfigError("settings must be one or more label tuples on one number of qubits")
    if not set().union(*settings) <= KETS.keys():
        raise ConfigError(f"setting labels must be among {sorted(KETS)}")


def _product_inverse(settings):
    # lin and rank (see _LinearMaps) of the product settings over one alphabet
    # (the standard and MUB families), or None for other settings. There P is
    # the n-fold Kronecker power of the alphabet's (m, 4) map P1 up to a
    # column order, (i1 j1 i2 j2 ...) for (i1 i2 ... j1 j2 ...), so its
    # pseudo-inverse is the Kronecker power of pinv(P1) in that order and its
    # rank is rank(P1)^n. pinv(P1) comes from eigh of the 4 x 4 Gram matrix,
    # whose eigenvalues are 0 or of order 1 for any alphabet of KETS; no SVD
    # of the (S, d*d) matrix runs, nor its LAPACK workspace
    n = len(settings[0])
    alphabet = tuple(dict.fromkeys(s[0] for s in settings))
    if settings != tuple(itertools.product(alphabet, repeat=n)):
        return None
    a = projector_stack([(lab,) for lab in alphabet]).reshape(len(alphabet), 4).conj()
    w, v = np.linalg.eigh(a.conj().T @ a)
    keep = w > 1e-9 * w[-1]
    lin1 = ((v / np.where(keep, w, np.inf)) @ v.conj().T @ a.conj().T).T
    lin = functools.reduce(np.kron, [lin1] * n).reshape((len(settings),) + (2,) * (2 * n))
    lin = lin.transpose(0, *range(1, 2 * n, 2), *range(2, 2 * n + 1, 2))
    return np.ascontiguousarray(lin).reshape(len(settings), 4**n), int(keep.sum()) ** n


@functools.lru_cache(maxsize=8)
def _cached_maps(settings):
    _check_settings(settings)
    pi = projector_stack(settings)
    s, d = pi.shape[0], pi.shape[1]
    p = pi.reshape(s, d * d)
    lin, rank = _product_inverse(settings) or (
        np.ascontiguousarray(np.linalg.pinv(p.conj()).T), int(np.linalg.matrix_rank(p))
    )
    ell = np.trace(lin.reshape(s, d, d), axis1=1, axis2=2).real
    zset = ell > 0.5
    zset.flags.writeable = False
    if not (s == rank == d * d and np.all(np.abs(ell - zset) < 1e-9)):
        zset = None
    pf, lin = p.view(np.float64), lin.view(np.float64)
    kets = np.array([_setting_ket(st) for st in settings])
    pairs = np.triu_indices(d, 1)
    for arr in (pf, lin, kets, *pairs):
        arr.flags.writeable = False
    return _LinearMaps(d=d, rank=rank, pf=pf, lin=lin, kets=kets, pairs=pairs, zset=zset)


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


# numpy's Poisson sampler refuses means above about 9.2e18; a record's
# counts may exceed its flux, a draw at flux 1e18 by more than 1e9
_MAX_FLUX = 1e18


@dataclass(frozen=True)
class CountRecord:
    """Counts per setting plus the flux and seed that produced them.

    Counts are stored as floats: the Poisson sampler yields integers, but
    exact mean counts (noiseless diagnostics) are legitimate inputs to the
    reconstructors as well. The flux is stored as a Python float and the
    seed as None or a Python int, so numpy scalars round-trip through the
    text form. The flux is at most 1e18, the cap of simulate_counts, and a
    count at most twice that; beyond them the reconstructors' arithmetic
    overflows and numpy's Poisson resampling fails.
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
        if not np.all((counts >= 0) & (counts <= 2 * _MAX_FLUX)):
            raise ConfigError(f"counts must be finite, nonnegative and at most {2 * _MAX_FLUX:g}")
        if not (_is_real(self.flux) and 0 < self.flux <= _MAX_FLUX):
            raise ConfigError(f"flux must be positive and at most {_MAX_FLUX:g}")
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
    # MLE only: an upper bound on max log L - log_likelihood, the smaller of
    # the Frank-Wolfe gap and the dual gap, each plus its rounding
    gap: float | None = None


def expected_probabilities(rho, settings):
    """Tr(rho * Pi_s) for every setting, of one state or of each in a stack."""
    rho, _ = _states(rho)
    maps = _linear_maps(settings)
    if rho.shape[-1] != maps.d:
        raise ConfigError(f"dimension mismatch: state {rho.shape[-1]}, settings {maps.d}")
    return _probabilities(maps.pf, rho)


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


def _rounding(d, c, mean, logs, extra=0.0):
    # a bound on the rounding of a certificate: S + d*d ulps of the sum of
    # the magnitudes it adds up, N + flux sum_s q_s + sum_s c_s logs_s + extra.
    # log L is a sum of S terms c_s log(flux q_s) - flux q_s with each q_s a
    # product over d*d entries, so with logs_s = |log(flux q_s)| the bound
    # holds for the computed log L even where a gap falls below one ulp of it
    return (c.shape[-1] + d * d) * _EPS * (c.sum(axis=-1) + mean + np.vecdot(c, logs) + extra)


def _fw_gap(pf, d, c, flux, q):
    # lambda_max(G) - Tr(rho G) for the likelihood gradient
    # G = sum_s w_s Pi_s, w_s = c_s / q_s - flux, of one record or a stack;
    # Tr(rho G) = sum_s (c_s / q_s - flux) q_s = N - flux sum_s q_s, plus the
    # rounding of log L
    n_total = c.sum(axis=-1)
    mean = flux * q.sum(axis=-1)
    # a setting with c_s = 0 adds -flux Pi_s to G and nothing to the rounding
    # bound, whatever its q_s
    q = np.where(c > 0, q, 1.0)
    w = c / q - flux[..., None]
    grad = (w[..., None, :] @ pf).view(np.complex128).reshape(*w.shape[:-1], d, d)
    lam_max = np.linalg.eigvalsh(grad)[..., -1]
    logs = np.abs(np.log(flux[..., None] * q))
    return np.maximum(0.0, lam_max - (n_total - mean)) + _rounding(d, c, mean, logs)


class _Frame(NamedTuple):
    # what one round knows of each factored record of a stack, from one eigh
    # of its state and one of its gradient: rho's eigenvalues lam in
    # descending order, cut to the top k and to trace 1, and its
    # eigenvectors u in that order; wk, the rows w_s = U^H v_s; then, from
    # _gradient, qc (q with 1 where c_s = 0), the weights
    # w_s = c_s / q_s - flux (-flux where c_s = 0), mean = flux sum_s q_s,
    # tau = Tr(rho G) = N - mean, U^H G U for the likelihood gradient
    # G = sum_s w_s Pi_s, and its eigenvalues mu and eigenvectors x. They
    # give the certificate at the iterate and the Newton step from it
    lam: np.ndarray
    u: np.ndarray
    wk: np.ndarray
    qc: np.ndarray
    w: np.ndarray
    mean: np.ndarray
    tau: np.ndarray
    grad: np.ndarray
    mu: np.ndarray
    x: np.ndarray


def _frame(maps, c, fl, ql, rl, k):
    lam, u = np.linalg.eigh(rl)
    lam, u = lam[:, ::-1], u[:, :, ::-1]
    lam = np.where(np.arange(maps.d) < k[:, None], np.maximum(lam, 0.0), 0.0)
    lam /= lam.sum(axis=-1, keepdims=True)
    wk = maps.kets @ u.conj()
    return _Frame(lam, u, wk, *_gradient(wk, c, fl, ql))


def _gradient(wk, c, fl, ql):
    # the fields of _Frame from qc on, at the probabilities ql
    qc = np.where(c > 0, ql, 1.0)
    w = c / qc - fl[:, None]
    mean = fl * ql.sum(axis=-1)
    g = (wk.mT * w[:, None, :]) @ wk.conj()
    g = 0.5 * (g + g.conj().mT)
    return [qc, w, mean, c.sum(axis=-1) - mean, g, *np.linalg.eigh(g)]


def _certificate(maps, c, fl, k, frame):
    # the bound on max log L - log L(rho) of each record of a stack, from its
    # _frame: the smaller of the Frank-Wolfe gap and a dual gap, each with
    # its rounding.
    # Weak duality: for any y with y_s > 0 where c_s > 0 and y_s >= 0
    # elsewhere, c_s log(flux q_s) <= c_s (log(flux c_s / y_s) - 1) + y_s q_s,
    # so max log L <= sum_(c_s > 0) c_s (log(flux c_s / y_s) - 1)
    # + lambda_max(sum_s (y_s - flux) Pi_s). At y = c / q + delta the shortfall
    # is at most lambda_max(G') - tau - sum_s c_s log1p(q_s delta_s / c_s), with
    # G' = G + sum_s delta_s Pi_s and tau = Tr(rho G); delta = 0 gives the
    # Frank-Wolfe gap. delta = -lin vec(H), H = U [U^H G U - tau I on the face
    # of rho] U^H, cancels G on the face, where the Frank-Wolfe gap is first
    # order in the error of G, so the dual gap is second order near the
    # maximum. G' is formed from the delta used, so the bound holds whatever
    # rounding delta carries; delta is clipped at 0 where c_s = 0, and a
    # record with y_s <= 0 on a counted setting keeps the Frank-Wolfe gap
    d, n = maps.d, len(c)
    seen = c > 0
    qc, mean, tau = frame.qc, frame.mean, frame.tau
    logs = np.abs(np.log(fl[:, None] * qc))
    fw = np.maximum(0.0, frame.mu[:, -1] - tau) + _rounding(d, c, mean, logs)
    face = np.arange(d) < k[:, None]
    h = frame.grad - tau[:, None, None] * np.eye(d)
    h = np.where(face[:, :, None] & face[:, None, :], h, 0.0)
    h = np.ascontiguousarray(frame.u @ h @ frame.u.conj().mT).view(np.float64)
    delta = -(maps.lin @ h.reshape(n, 2 * d * d, 1))[..., 0]
    delta = np.where(seen, delta, np.maximum(delta, 0.0))
    # x = q delta / c on the counted settings, where it is below 1e300 in
    # magnitude (the test itself cannot overflow); elsewhere the record
    # keeps the Frank-Wolfe gap
    qd = qc * delta
    fits = seen & (np.abs(qd) * 1e-300 <= c)
    x = np.divide(qd, c, out=np.zeros_like(qd), where=fits)
    feasible = ((x > -1.0) & (fits | ~seen)).all(axis=-1)
    l1p = np.log1p(np.where(feasible[:, None], x, 0.0))
    g_dual = frame.grad + (frame.wk.mT * delta[:, None, :]) @ frame.wk.conj()
    lam_d = np.linalg.eigvalsh(g_dual)[:, -1]
    dual = np.maximum(0.0, lam_d - tau - np.vecdot(c, l1p))
    dual += _rounding(d, c, mean, logs + np.abs(l1p), np.abs(lam_d))
    return np.minimum(fw, np.where(feasible, dual, np.inf))


def _rotated_map(wk, iu, ju, scale, g):
    # (..., S, d*d - 1): entry (s, k) is Tr(Pi_s U B_k U^H) = <w_s|B_k|w_s>,
    # w_s = U^H v_s the rows of wk, for the Hermitian B_k: (E_ij + E_ji)/sqrt2
    # and i(E_ji - E_ij)/sqrt2 for the pairs i < j, each times its entry of
    # scale (..., 1, pairs), then diag(g_k) for the columns g_k of g
    z = wk[..., iu]
    np.conjugate(z, out=z)
    z *= wk[..., ju]
    z *= np.sqrt(2.0) * scale
    return np.concatenate([z.real, z.imag, (wk.real**2 + wk.imag**2) @ g], axis=-1)


# certified stop of the MLE: the certificate (see _certificate) <= MLE_TOL per count
MLE_TOL = 1e-9
# fraction of the Newton decrement a line-search step must gain (Armijo),
# and the halvings of the step tried before a record stays put for a step
_ARMIJO = 0.25
_LINE_SEARCH_STEPS = 40
# records solved together; the Newton system takes about 150 KB per record
_BATCH = 16


def mle_reconstruct(rec, max_iter=200):
    """Poisson maximum-likelihood reconstruction with an optimality certificate.

    Maximizes log L(rho) = sum_s c_s log(flux q_s) - flux sum_s q_s over
    density matrices by Newton's method from one of two starts, chosen
    from the record's own counts. N is the total count.

    - Closed form: on the standard settings (S = d^2, with a trace
      functional that is 1 on the settings in {z0, z1}^n and 0 elsewhere)
      the maximum of log L over unit-trace Hermitian matrices is
      rho = P^-1 q with q_s = c_s / N_Z on {z0, z1}^n, N_Z their total
      count, and c_s / flux elsewhere; its gradient is (N_Z - flux) I. Where
      every count is positive and it is positive definite, it is the MLE,
      and the gap certifies it with 0 steps.
    - Factored: every other record starts at the positive part of its
      estimate (the closed form on the standard settings, elsewhere the
      unprojected least-squares estimate), rho = A A^H / tr(A A^H) with A
      the top k eigenvectors scaled by sqrt(lambda), k = d where the
      estimate is positive definite, and takes Newton steps in A (James,
      Kwiat, Munro and White, PRA 64, 052312 (2001); Burer and Monteiro,
      Math. Program. 95, 329 (2003)). A record whose estimate has no
      positive eigenvalue, or whose start has q_s = 0, up to the rounding
      of q, on a setting with a count, starts at I/d with k = d. The
      trapezoidal form of A, lower triangular in the eigenbasis with a real
      diagonal orthogonal to sqrt(lambda), removes the U(k) gauge and the
      scale, which leaves 2 d k - k^2 - 1 real coordinates. The Newton
      system uses the analytic Hessian of log L in A with the positive part
      of tau I - G, G the likelihood gradient and tau = Tr(rho G), so that
      it is positive definite where every count is positive on
      informationally complete settings. Elsewhere the settings with a
      count may not see every direction; where the system is singular to
      within half the digits (a Cholesky pivot test), the step is its
      least-norm solution. Where the top eigenvalue of G off the face
      exceeds tau by more than the Newton step can gain, the record takes a
      mixing step toward that eigenvector and k grows by 1; where the last
      column of A has shrunk below 1/100 of the one before and adding it
      back would not ascend, it is dropped and k falls by 1.

    Every step is taken by a backtracking line search that asks for a
    quarter of the predicted ascent, computed from log1p of the relative
    probability changes, so that it stays exact at high flux, where
    |log L| ~ 1e8, and needs no eigenvalues of its trial states. A setting
    with a zero count adds only -flux q_s to log L, so it takes no part in
    the log terms or in the test q_s > 0. If projected linear inversion
    (on informationally complete settings) has a higher likelihood than
    the last iterate, it is returned instead; a closed-form start still in
    place is the maximum over a superset of the states, so there it is not
    tried.

    ``gap`` bounds the shortfall: max log L - log_likelihood <= gap. It is
    the smaller of two bounds at the last iterate, each plus a bound on the
    rounding of its own terms and of the computed log L. One is the
    Frank-Wolfe gap lambda_max(G) - Tr(rho G) of the likelihood gradient G,
    a bound because log L is concave. The other is a dual gap from weak
    (Fenchel) duality, lambda_max(G') - Tr(rho G) - sum_s c_s
    log1p(q_s delta_s / c_s) with G' = G + sum_s delta_s Pi_s, where delta
    (from the least-squares map, clipped at 0 on zero counts) cancels G on
    the face of rho: it is second order in the error of G there, where the
    Frank-Wolfe gap is first order, so a record near its maximum need not
    take one more step to prove it. A start is tested by the Frank-Wolfe gap
    alone, so a closed-form start costs no eigenvectors. The solver
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
    ``eigvalsh`` of the estimates (on the standard settings the closed-form
    maximum, elsewhere the least-squares estimate): the estimate itself
    with k = d where it is positive definite, its positive part where it is
    not, and I/d with k = d where that part has no positive eigenvalue or
    where the start leaves q_s = 0, up to rounding, on a setting with a
    count. The records are solved in chunks of _BATCH, those with a
    positive definite estimate first (stably), so that a chunk of records
    certified at their start does not wait on the others' rounds. Within a
    chunk every unfinished record takes its Newton step in the same round,
    so one set of batched ``eigh``, ``solve`` and ``eigvalsh`` calls serves
    the chunk, and a record leaves the round when it is certified. All
    arithmetic is elementwise or one product per record, never a product
    across records, so each result is bit for bit the same alone, in any
    subset and in any order.
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
    # the starts (see mle_reconstruct), tested per record. A start must give
    # q_s above the rounding of its product with pf (2 d^2 terms of at most
    # 1) on every setting with a count: a positive part can be orthogonal to
    # a setting, and rounding can leave an estimate positive definite whose
    # q_s is 0 but for that rounding
    est = ls if maps.zset is None else _closed_form(maps, counts, flux)
    definite = np.linalg.eigvalsh(est)[:, 0] > 0.0
    start, rank = est.copy(), np.full(len(recs), d)
    cand = np.flatnonzero(~definite)
    if cand.size:  # an eigh of an empty stack still costs about 20 us
        start[cand], rank[cand] = _positive_part(est[cand])
    ok = (rank > 0) & np.all(
        (_probabilities(maps.pf, start) > maps.pf.shape[1] * _EPS) | (counts == 0.0), axis=-1
    )
    start[~ok], rank[~ok] = np.eye(d) / d, d
    definite &= ok
    order = np.argsort(~definite, kind="stable")
    # projected linear inversion is tried on informationally complete
    # settings, except where a closed-form start is still in place: that is
    # the maximum over a superset of the states, so it cannot be beaten
    at_max = definite & (maps.zset is not None) & np.all(counts > 0, axis=-1)
    tried = (maps.rank == d * d) & counts.any(axis=-1)
    results = [None] * len(recs)
    for lo in range(0, len(recs), _BATCH):
        idx = order[lo : lo + _BATCH]
        rho, q, gap, iterations, converged = _newton(
            maps, counts[idx], flux[idx], start[idx], rank[idx], max_iter
        )
        lin, ll_lin = np.empty_like(rho), np.full(len(idx), -np.inf)
        tr = np.flatnonzero(tried[idx] & ~(at_max[idx] & (iterations == 0)))
        if tr.size:
            lin[tr] = _project_to_states(ls[idx[tr]])
            for j, q_lin in zip(tr, _probabilities(maps.pf, lin[tr])):
                ll_lin[j] = _log_likelihood(q_lin, counts[idx[j]], flux[idx[j]])
        for j, n in enumerate(idx):
            ll = _log_likelihood(q[j], counts[n], flux[n])
            # projected linear inversion, if the solver ended below it; gap
            # still bounds max log L - ll, as ll only grows
            if ll < ll_lin[j]:
                rho[j], ll = lin[j], ll_lin[j]
            results[n] = ReconstructionResult(
                rho=rho[j], method="MLE", iterations=int(iterations[j]),
                log_likelihood=float(ll), converged=bool(converged[j]), gap=float(gap[j]),
            )
    return results


def _positive_part(est):
    # the factored start of each estimate in a stack: rho = A A^H / tr(A A^H),
    # with A its eigenvectors of positive eigenvalue scaled by sqrt(lambda),
    # and k, the number of those (rho is 0 where k = 0)
    lam, u = np.linalg.eigh(est)
    lam = np.maximum(lam, 0.0)
    total = lam.sum(axis=-1, keepdims=True)
    rho = (u * (lam / np.where(total > 0.0, total, 1.0))[:, None, :]) @ u.conj().mT
    return 0.5 * (rho + rho.conj().mT), np.count_nonzero(lam, axis=-1)


def _closed_form(maps, counts, flux):
    # the maximum of log L over unit-trace Hermitian matrices, for settings
    # with a 0/1 trace functional (maps.zset), of one record or a stack: with
    # N_Z the count on zset, stationarity under tr rho = sum_zset q_s = 1 gives
    # q_s = c_s / N_Z on zset and c_s / flux elsewhere, and rho = P^-1 q. A
    # record with N_Z = 0 has zero counts on zset, so it is never certified
    # here; its N_Z is replaced by 1 to keep the division finite, which
    # leaves a trace-0 estimate whose positive part is the record's start
    n_z = counts[..., maps.zset].sum(axis=-1)
    n_z = np.where(n_z > 0, n_z, 1.0)[..., None]
    return _inverse(maps, counts / np.where(maps.zset, n_z, np.asarray(flux)[..., None]))


def _newton(maps, counts, flux, rho, rank, max_iter):
    # the Newton rounds of _mle_batch on one chunk, from the starts rho of
    # rank k in the factored chart; returns the last iterates, their q, gaps,
    # step counts and convergence. rho and rank are the chunk's own copies.
    # The starts are tested by the Frank-Wolfe gap alone, which needs no
    # eigenvectors; after each step one _frame per live record gives its
    # certificate and, if it is not certified, its next step
    pf, d = maps.pf, maps.d
    n_total = counts.sum(axis=-1)
    tol = MLE_TOL * n_total
    q = _probabilities(pf, rho)
    gap = np.zeros(len(counts))
    iterations = np.zeros(len(counts), dtype=int)
    live = np.flatnonzero(n_total > 0)
    gap[live] = _fw_gap(pf, d, counts[live], flux[live], q[live])
    live = live[gap[live] > tol[live]]
    # the live records' own arrays, cut down only when a record leaves
    c, fl, ql, rl, kl = counts[live], flux[live], q[live], rho[live], rank[live]
    if live.size and max_iter:
        frame = _frame(maps, c, fl, ql, rl, kl)
    for it in range(1, max_iter + 1):
        if not live.size:
            break
        iterations[live] = it
        rl, kl = _factored_step(maps, c, fl, ql, rl, kl, frame)
        ql = _probabilities(pf, rl)
        frame = _frame(maps, c, fl, ql, rl, kl)
        gl = _certificate(maps, c, fl, kl, frame)
        rho[live], q[live], rank[live], gap[live] = rl, ql, kl, gl
        more = gl > tol[live]
        if not more.all():
            live, c, fl, ql, rl, kl = (v[more] for v in (live, c, fl, ql, rl, kl))
            frame = _Frame(*(f[more] for f in frame))
    return rho, q, gap, iterations, gap <= tol


def _factored_step(maps, c, fl, ql, rl, k, frame):
    # one step of each factored record of a stack, from its state rl, rank k
    # and _frame; returns the new states and ranks. ql and the frame are the
    # caller's arrays for this round: a record that drops a column has its
    # rows of them updated in place. The chart: rho = U diag(lam) U^H
    # cut to its top k eigenvalues, in descending order, is A A^H for
    # A = U B, B = diag(sqrt(lam)), and the step moves A to U (B + t D) and rho
    # to U (B + t D)(B + t D)^H U^H over its trace. D is lower trapezoidal in
    # the first k columns: complex D[j, i] for j > i, and a real diagonal
    # orthogonal to sqrt(lam) (through the columns of a Householder
    # reflection). So neither the U(k) gauge A -> A V nor the scale of A,
    # exact zero-curvature directions, is a coordinate, which leaves
    # 2 d k - k^2 - 1 of them; the rest of the d*d - 1 coordinates are held
    # at 0. There q moves by J x to first order, J as in _rotated_map with
    # each pair (i, j) scaled by 2 sqrt(lam_i) and the diagonal by
    # 2 sqrt(lam), and log L has the Hessian
    # -J^T diag(c / q^2) J - 2 Re tr(D^H (tau I - G) D), G the likelihood
    # gradient and tau = Tr(rho G). The system takes the positive part of
    # tau I - G, so it is positive definite where the settings with a count
    # see every direction; near a maximum with strict
    # complementarity tau I - G is positive semidefinite off the face and
    # small on it, and the step stays Newton's. A setting with c_s = 0 adds
    # only -flux q_s to log L: it has no log term, no curvature and no
    # bound q_s > 0, so each c / q below reads 1 for its q
    d = maps.d
    iu, ju = maps.pairs
    n_pair, n = iu.size, len(c)
    rows = np.arange(n)
    n_total = c.sum(axis=-1)
    seen = c > 0
    lam, u, wk, qc, w, _, tau, grad_m, mu_g, x = frame

    # k - 1 where column k shrank below 1/100 of column k - 1 and adding it
    # back to the state without it, rho0 with probabilities q0, ascends no
    # further (log L is concave along the segment, so rho0 is at least as
    # likely as rho)
    lk = lam[rows, k - 1]
    qk = np.abs(wk[rows, :, k - 1]) ** 2
    q0 = (ql - lk[:, None] * qk) / np.where(k > 1, 1.0 - lk, 1.0)[:, None]
    drop = (k > 1) & (lk < 0.01 * lam[rows, k - 2]) & ((q0 > 0.0) | ~seen).all(axis=-1)
    w0 = c / np.where(drop[:, None] & seen, q0, 1.0) - fl[:, None]
    drop &= np.vecdot(w0, qk - q0) <= 0.0
    k = k - drop
    face = np.arange(d) < k[:, None]
    if drop.any():  # the frame's fields at the state without the dropped column
        i = np.flatnonzero(drop)
        lam[i] = np.where(face[i], lam[i], 0.0)
        lam[i] /= lam[i].sum(axis=-1, keepdims=True)
        ql[i] = q0[i]
        qc[i], w[i], _, tau[i], grad_m[i], mu_g[i], x[i] = _gradient(wk[i], c[i], fl[i], ql[i])
    sq = np.sqrt(lam)

    # Householder reflection taking e_0 to sqrt(lam); its columns 1 .. d - 1
    # are orthonormal and orthogonal to sqrt(lam), those from k on are e_j
    v = sq.copy()
    v[:, 0] -= 1.0
    vv = np.vecdot(v, v)
    vv = 2.0 / np.where(vv > 0.0, vv, np.inf)
    hd = (np.eye(d) - v[:, :, None] * v[:, None, :] * vv[:, None, None])[:, :, 1:]
    a = _rotated_map(wk, iu, ju, np.sqrt(2.0 * lam[:, None, iu]), 2.0 * sq[:, :, None] * hd)
    # coordinates: real parts of the pairs, imaginary parts, the diagonal
    pre, pim, dia = slice(0, n_pair), slice(n_pair, 2 * n_pair), slice(2 * n_pair, None)
    grad = (a.mT @ w[..., None])[..., 0]
    # 2 Re tr(D^H K D), K the positive part of tau I - G, couples only the
    # coordinates of one column of D; those of the columns from k on, held
    # at 0, are coupled to no others, there or in J
    kp = (x * (2.0 * np.maximum(tau[:, None] - mu_g, 0.0))[:, None, :]) @ x.conj().mT
    kc = kp[:, ju[:, None], ju[None, :]] * (iu[:, None] == iu[None, :])
    kd = kp[:, ju, iu, None] * hd[:, iu, :]
    on = iu < k[:, None]
    active = np.concatenate([on, on, np.arange(1, d) < k[:, None]], axis=-1)
    a_w = a * (np.sqrt(c) / qc)[..., None]
    hess = a_w.mT @ a_w
    hess[:, pre, pre] += kc.real
    hess[:, pim, pim] += kc.real
    hess[:, pre, pim] -= kc.imag
    hess[:, pim, pre] += kc.imag
    hess[:, pre, dia] += kd.real
    hess[:, pim, dia] += kd.imag
    hess[:, dia, pre] += kd.real.mT
    hess[:, dia, pim] += kd.imag.mT
    hess[:, dia, dia] += hd.mT @ (kp.diagonal(axis1=1, axis2=2).real[:, :, None] * hd)
    hess.reshape(n, -1)[:, :: hess.shape[-1] + 1] += ~active
    # where the counted settings do not see every direction (settings that
    # are not informationally complete, or a zero count), hess can be
    # singular: the step there is its least-norm solution
    blind = rows if maps.rank < d * d else np.flatnonzero(~seen.all(axis=-1))
    least = [i for i in blind if _ill_conditioned(hess[i])]
    if least:
        h_least = hess[least]
        hess[least] = np.eye(hess.shape[-1])
    step = np.linalg.solve(hess, grad[..., None])[..., 0]
    if least:
        step[least] = (np.linalg.pinv(h_least, hermitian=True) @ grad[least, :, None])[..., 0]
    step *= active
    decrement = np.vecdot(grad, step)
    dm = np.zeros((n, d, d), dtype=complex)
    dm[:, ju, iu] = step[:, pre] + 1j * step[:, pim]
    dm.reshape(n, -1)[:, :: d + 1] = (hd @ step[:, dia, None])[..., 0]
    dq = (a @ step[..., None])[..., 0]
    z = wk @ dm.conj()
    p2 = (z.real**2 + z.imag**2).sum(axis=-1)
    nd = (dm.real**2 + dm.imag**2).sum(axis=(-2, -1))

    # k + 1 where the gradient off the face, at its top eigenpair (g, u), beats
    # tau by more than the Newton step can gain: the mixing step
    # (1 - eps) rho + eps u u^H, with eps from a Newton step in eps (the
    # face's diagonal is set below tau, so u lies off the face)
    low = (tau - np.abs(tau) - 1.0)[:, None, None] * np.eye(d)
    g_off = np.where(~face[:, :, None] & ~face[:, None, :], grad_m, low)
    # the eigenvector only where g beats tau, a few records in a hundred
    slope_off = np.linalg.eigvalsh(g_off)[:, -1] - tau
    uo = np.zeros((n, d), dtype=complex)
    up = np.flatnonzero(slope_off > 0.0)
    if up.size:
        g, vo = np.linalg.eigh(g_off[up])
        slope_off[up], uo[up] = g[:, -1] - tau[up], vo[:, :, -1]
    z = wk @ uo.conj()[..., None]
    qu = (z.real**2 + z.imag**2)[..., 0]
    curv_off = np.vecdot(c, (qu - ql) ** 2 / qc**2)
    add = (slope_off > 0.0) & (curv_off > 0.0) & (slope_off**2 > curv_off * decrement)
    eps = np.where(add, np.minimum(slope_off / np.where(add, curv_off, 1.0), 0.5), 0.0)

    # backtracking on either step: t = 1, 1/2, ... until the gain reaches
    # _ARMIJO * t * slope, with q(t) in closed form:
    # (q + t dq + t^2 |D^H w_s|^2) / (1 + t^2 |D|^2) for the Newton step, and
    # q + t eps (q_u - q) for the mixing step
    x1 = np.where(add[:, None], eps[:, None] * (qu - ql), dq)
    x2 = np.where(add[:, None], 0.0, p2)
    y2 = np.where(add, 0.0, nd)
    slope = np.where(add, eps * slope_off, decrement)
    t_step = np.zeros(n)
    todo = rows
    for j in range(_LINE_SEARCH_STEPS):
        t = 0.5**j
        num = t * x1[todo] + t * t * x2[todo]
        r = np.where(seen[todo], num / qc[todo], 0.0)
        ok = (r > -1.0).all(axis=-1)
        i = todo[ok]
        tt = t * t * y2[i]
        gain = (
            np.vecdot(c[i], np.log1p(r[ok]))
            - n_total[i] * np.log1p(tt)
            - fl[i] * (num[ok].sum(axis=-1) - tt * ql[i].sum(axis=-1)) / (1.0 + tt)
        )
        good = gain >= _ARMIJO * t * slope[i]
        t_step[i[good]] = t
        ok[ok] = good
        todo = todo[~ok]
        if not todo.size:
            break
    s = t_step * eps
    b = np.where(add, np.sqrt(1.0 - s), 1.0)[:, None, None] * sq[:, None, :] * np.eye(d)
    b = b + np.where(add, 0.0, t_step)[:, None, None] * dm
    if add.any():
        b[add, :, k[add]] += np.sqrt(s[add])[:, None] * uo[add]
    a = u @ b
    new = a @ a.conj().mT
    new /= new.trace(axis1=1, axis2=2).real[:, None, None]
    moved = (t_step > 0.0) | drop
    rl = np.where(moved[:, None, None], 0.5 * (new + new.conj().mT), rl)
    return rl, k + (add & (t_step > 0.0))


def _ill_conditioned(h):
    # whether the symmetric matrix h is not positive definite or has a
    # Cholesky pivot^2 below sqrt(eps) of its largest diagonal entry; a pivot^2
    # is at least its smallest eigenvalue, so its condition number then
    # exceeds 1/sqrt(eps), and solve would keep less than half the digits
    try:
        pivots = np.linalg.cholesky(h).diagonal() ** 2
    except np.linalg.LinAlgError:
        return True
    return bool(pivots.min() <= np.sqrt(_EPS) * h.diagonal().max())


def _resamples(rec, seed, n):
    # n records with counts ~ Poisson(mean = observed counts); record k
    # draws from its own generator, seeded with seed + k
    return [
        CountRecord(
            settings=rec.settings,
            counts=np.random.default_rng(seed + k).poisson(rec.counts).astype(float),
            flux=rec.flux,
            seed=seed + k,
        )
        for k in range(n)
    ]


def monte_carlo_statistic(rec, statistic, n_samples, seed):
    """Mean and standard deviation of a statistic over count resamples.

    The usual error-bar procedure for counting experiments: resample every
    count from a Poisson distribution centered on the observed value,
    reconstruct each resample by maximum likelihood, and evaluate the
    statistic. Returns (mean, sample std). The statistic may return a
    number, giving two floats, or a 1-D array, giving two arrays taken
    entry by entry, so several statistics share one set of reconstructions.
    Sample k draws its counts from the generator seeded with seed + k, and
    all samples are solved in one ``_mle_batch``, in which no state depends
    on the others.
    """
    _check_integer("n_samples", n_samples)
    if n_samples < 2:
        raise ConfigError("need at least 2 samples for a standard deviation")
    _check_nonnegative("seed", seed)
    try:
        results = _mle_batch(_resamples(rec, seed, n_samples))
    except Exception as exc:
        raise RuntimeError("reconstruction of the resamples failed") from exc
    vals = np.array([statistic(res.rho) for res in results], dtype=float)
    return _float_or_stack(np.mean(vals, axis=0)), _float_or_stack(np.std(vals, axis=0, ddof=1))
