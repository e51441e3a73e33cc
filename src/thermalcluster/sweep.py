"""Temperature sweeps over the 3-qubit chain and result-table emission.

A sweep walks a grid of dephasing strengths (or temperatures), builds the
model states of all its points as one stack, and collects negativities,
the entanglement class, the preparation fidelity, and the fidelity against
the ideal Gibbs state, each from one batched call over the stack. With
tomography enabled the quantities come from a simulated reconstruction
instead, with Monte Carlo error bars attached and the classification
thresholds replaced by those error bars.

A tomography sweep first draws every count record it needs, each point's
record followed by its Monte Carlo resamples, and then solves them all in
one batched maximum-likelihood call, in which every record takes its Newton
steps alongside the others and gets the result it would get alone.

Output is deterministic byte for byte for a fixed config: all randomness is
seeded, points are ordered by grid index, and emitted files carry no
timestamps.
"""

from __future__ import annotations

import hashlib
import json
import numbers
from dataclasses import dataclass

import numpy as np

from .entanglement import DEFAULT_TOL, classify_values, negativity
from .graphs import CHAIN, format_graph
from .linalg import ConfigError, _check_integer, fidelity
from .mbqc import average_preparation_fidelity
from .thermal import gibbs_state, p_from_temperature, temperature_from_p, thermal_state_model
from .tomography import _mle_batch, _resample, simulate_counts, standard_settings

# not called here; the benchmark's tracer test still looks the solver up in
# this namespace (perfbench/test_perfbench.py)
from .tomography import mle_reconstruct  # noqa: F401

__all__ = [
    "ConfigError",
    "SweepConfig",
    "SweepPoint",
    "run_sweep",
    "emit",
    "CSV_COLUMNS",
]

# the output table: each column's name and the SweepPoint field it holds
_COLUMNS = (
    ("p", "p"),
    ("t_over_delta", "t_over_delta"),
    ("neg_Ap", "neg_ap"), ("err_Ap", "err_ap"),
    ("neg_Bp", "neg_bp"), ("err_Bp", "err_bp"),
    ("neg_Bs", "neg_bs"), ("err_Bs", "err_bs"),
    ("class", "klass"),
    ("avg_fidelity", "avg_fidelity"),
    ("fid_error", "fid_error"),
    ("state_fidelity_vs_ideal", "state_fidelity_vs_ideal"),
)
CSV_COLUMNS = ",".join(col for col, _ in _COLUMNS)

# spacing between per-point seed blocks; point i uses seeds seed + i * stride
# up to seed + i * stride + mc_samples, so validate() requires mc_samples < stride
_SEED_STRIDE = 1_000_003


def _is_real(v):
    # Python counts a bool as an int, but no field takes one as a number
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


@dataclass(frozen=True)
class SweepConfig:
    alpha: float = float(np.pi)
    p_grid: tuple | None = None
    t_grid: tuple | None = None
    flux: float = 1e4
    mc_samples: int = 50
    seed: int = 0
    tomography_enabled: bool = False
    # ignored: sweeps run on one thread; kept only because the benchmark
    # (perfbench/workloads.py) still passes workers=1
    workers: int | None = None

    def validate(self):
        """Check the type of every field but ``workers``, then the grids; returns self.

        The angle, flux and seed are checked by the functions that take
        them, before any solve.
        """
        if not isinstance(self.tomography_enabled, bool):
            raise ConfigError("tomography_enabled must be true or false")
        for name in ("mc_samples", "seed"):
            _check_integer(name, getattr(self, name))
        for name in ("alpha", "flux"):
            if not _is_real(getattr(self, name)):
                raise ConfigError(f"{name} must be a real number")
        for name in ("p_grid", "t_grid"):
            grid = getattr(self, name)
            if not (grid is None or isinstance(grid, (list, tuple)) and all(map(_is_real, grid))):
                raise ConfigError(f"{name} must be a list or tuple of real numbers")
        if (self.p_grid is None) == (self.t_grid is None):
            raise ConfigError("provide exactly one of p_grid / t_grid")
        if self.p_grid is not None:
            bad = [p for p in self.p_grid if not 0.0 <= p <= 1.0]
            if bad:
                raise ConfigError(f"p_grid values outside [0, 1]: {bad}")
            if not self.p_grid:
                raise ConfigError("p_grid is empty")
        if self.t_grid is not None:
            bad = [t for t in self.t_grid if not t >= 0.0]
            if bad:
                raise ConfigError(f"t_grid values must be nonnegative: {bad}")
            if not self.t_grid:
                raise ConfigError("t_grid is empty")
        if self.tomography_enabled:
            if self.mc_samples < 2:
                raise ConfigError("mc_samples must be >= 2 when tomography is enabled")
            if self.mc_samples >= _SEED_STRIDE:
                raise ConfigError(
                    f"mc_samples must be below {_SEED_STRIDE}, or the seed "
                    "streams of neighbouring points overlap"
                )
        return self

    def config_hash(self):
        """Short content hash identifying the config in output provenance."""
        payload = {
            # every sweep runs on the chain; the entry keeps hashes stable
            "graph": format_graph(CHAIN),
            "alpha": repr(float(self.alpha)),
            "p_grid": [repr(float(p)) for p in self.p_grid] if self.p_grid else None,
            "t_grid": [repr(float(t)) for t in self.t_grid] if self.t_grid else None,
            "flux": repr(float(self.flux)),
            "mc_samples": self.mc_samples,
            "seed": self.seed,
            "tomography_enabled": self.tomography_enabled,
        }
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:12]


@dataclass(frozen=True)
class SweepPoint:
    p: float
    t_over_delta: float
    neg_ap: float
    neg_bp: float
    neg_bs: float
    err_ap: float
    err_bp: float
    err_bs: float
    klass: str
    avg_fidelity: float
    fid_error: float
    state_fidelity_vs_ideal: float


_CUTS = ((0,), (2,), (1,))  # A_p, B_p, B_s order used in the output columns


def _grid_points(cfg):
    if cfg.p_grid is not None:
        return [(float(p), temperature_from_p(p)) for p in cfg.p_grid]
    return [(p_from_temperature(t), float(t)) for t in cfg.t_grid]


def _measure(rhos):
    # the negativities of each state of a C-contiguous stack, one column per
    # cut in _CUTS order, and its preparation fidelity, taken row by row: the
    # vdot of a contiguous row gives the bits of the single call
    negs = np.stack([negativity(rhos, c, 3) for c in _CUTS], axis=-1)
    return negs, np.array([average_preparation_fidelity(rho) for rho in rhos])


def _rows(pts, rhos, negs, fids, errs):
    # errs: per point, the error bars of the three negativities and of the
    # preparation fidelity, zero for model rows
    ideal = fidelity(rhos, gibbs_state(CHAIN, np.array([t for _, t in pts])))
    rows = []
    for (p, t), neg, fid, err, f in zip(pts, negs, fids, errs, ideal):
        # classification significance at one Monte Carlo standard deviation
        tols = [max(e, DEFAULT_TOL) for e in err[:3]]
        rows.append(SweepPoint(
            p=p, t_over_delta=t,
            neg_ap=float(neg[0]), neg_bp=float(neg[1]), neg_bs=float(neg[2]),
            err_ap=float(err[0]), err_bp=float(err[1]), err_bs=float(err[2]),
            klass=classify_values(neg, tols),
            avg_fidelity=float(fid),
            fid_error=float(err[3]),
            state_fidelity_vs_ideal=float(f),
        ))
    return rows


def run_sweep(cfg):
    """Evaluate every grid point; rows are ordered by grid index.

    The model states of all points are one stack, and every quantity of a
    row comes from one batched call over the stack.
    """
    cfg.validate()
    pts = _grid_points(cfg)
    models = thermal_state_model(CHAIN, np.array([p for p, _ in pts]), cfg.alpha)
    if not cfg.tomography_enabled:
        return _rows(pts, models, *_measure(models), np.zeros((len(pts), 4)))
    settings = standard_settings(3)
    recs = []
    for i, model in enumerate(models):
        point_seed = cfg.seed + i * _SEED_STRIDE
        rec = simulate_counts(model, settings, cfg.flux, seed=point_seed)
        recs.append(rec)
        recs += [_resample(rec, point_seed + 1 + k) for k in range(cfg.mc_samples)]
    # each point's reconstruction followed by those of its resamples
    rhos = np.stack([res.rho for res in _mle_batch(recs)])
    negs, fids = _measure(rhos)
    n = 1 + cfg.mc_samples
    errs = [
        np.std(np.column_stack([negs[i + 1 : i + n], fids[i + 1 : i + n]]), axis=0, ddof=1)
        for i in range(0, len(rhos), n)
    ]
    return _rows(pts, rhos[::n], negs[::n], fids[::n], errs)


def _cells(pt):
    # column -> value of one row; JSON has no infinity, so an infinite
    # value (T = inf) is written "inf" in both formats
    cells = {}
    for col, field in _COLUMNS:
        v = getattr(pt, field)
        cells[col] = "inf" if isinstance(v, float) and np.isinf(v) else v
    return cells


def emit(points, fmt="csv", path=None, provenance=None):
    """Serialize sweep points as CSV or JSON; returns the text.

    When ``path`` is given the text is also written there. ``provenance``
    is a mapping (config hash, seed, tool version) recorded as comment
    lines in CSV or a top-level object in JSON, keeping emitted goldens
    self-describing without breaking determinism.
    """
    if not points:
        raise ValueError("no sweep points to emit")
    if fmt == "csv":
        lines = []
        if provenance:
            for k in sorted(provenance):
                lines.append(f"# {k} = {provenance[k]}")
        lines.append(CSV_COLUMNS)
        for pt in points:
            row = _cells(pt).values()
            lines.append(",".join(v if isinstance(v, str) else repr(float(v)) for v in row))
        text = "\n".join(lines) + "\n"
    elif fmt == "json":
        doc = {"points": [_cells(pt) for pt in points]}
        if provenance:
            doc["provenance"] = dict(provenance)
        text = json.dumps(doc, indent=2, allow_nan=False) + "\n"
    else:
        raise ConfigError(f"unknown output format {fmt!r}")
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text

