"""Temperature sweeps over the 3-qubit chain and result-table emission.

A sweep walks a grid of dephasing strengths (or temperatures) and collects
negativities, the entanglement class, the preparation fidelity, and the
fidelity against the ideal Gibbs state. Model rows build no state: every
quantity is a closed form in p and the angle, taken over the whole grid in
one call, exact to rounding or within a few ulps of the route through the
states. With tomography enabled the model states of all points are built
as one stack and the quantities come from a simulated reconstruction
instead, each from one batched call over its stack, with Monte Carlo error
bars attached and the classification thresholds replaced by those error
bars.

A tomography sweep first draws every count record it needs, each point's
record followed by its Monte Carlo resamples, and then solves them all in
one batched maximum-likelihood call, in which every record takes its Newton
steps alongside the others and gets the result it would get alone. Every
quantity, error bars included, stays an array column over the points until
the last step, which builds one SweepPoint per row.

Output is deterministic byte for byte for a fixed config: all randomness is
seeded, points are ordered by grid index, and emitted files carry no
timestamps.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields

import numpy as np

from .entanglement import DEFAULT_TOL, _chain_negativities, classify_values, negativity
from .graphs import CHAIN, format_graph
from .linalg import ConfigError, _check_integer, _is_real, fidelity
from .mbqc import _model_preparation_fidelity, average_preparation_fidelity
from .thermal import (
    _fidelity_to_gibbs,
    gibbs_state,
    p_from_temperature,
    temperature_from_p,
    thermal_state_model,
)
from .tomography import _mle_batch, _resamples, simulate_counts, standard_settings

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

        The angle must also be finite. The flux, seed and grid values are
        checked by the functions that take them, before any state is built.
        """
        if not isinstance(self.tomography_enabled, bool):
            raise ConfigError("tomography_enabled must be true or false")
        for name in ("mc_samples", "seed"):
            _check_integer(name, getattr(self, name))
        # no model state checks the angle of a model sweep
        if not (_is_real(self.alpha) and -np.inf < self.alpha < np.inf):
            raise ConfigError("alpha must be a finite real number")
        if not _is_real(self.flux):
            raise ConfigError("flux must be a real number")
        for name in ("p_grid", "t_grid"):
            grid = getattr(self, name)
            if not (grid is None or isinstance(grid, (list, tuple)) and all(map(_is_real, grid))):
                raise ConfigError(f"{name} must be a list or tuple of real numbers")
        if (self.p_grid is None) == (self.t_grid is None):
            raise ConfigError("provide exactly one of p_grid / t_grid")
        name = "p_grid" if self.p_grid is not None else "t_grid"
        if not getattr(self, name):
            raise ConfigError(f"{name} is empty")
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
_FIELDS = tuple(f.name for f in fields(SweepPoint))


def _rows(ps, ts, negs, fids, errs, ideal):
    # ps, ts: (n,), the grid; negs: (n, 3) in _CUTS order; errs: (n, 4), the
    # error bars of the negativities and of the preparation fidelity, zero
    # for model rows; fids, ideal: (n,), the preparation fidelities and the
    # fidelities to the Gibbs states. cols holds SweepPoint's fields in order,
    # one list each, the floats as Python floats; a row is classified at one
    # Monte Carlo standard deviation
    cols = np.column_stack([ps, ts, negs, errs[:, :3], fids, errs[:, 3], ideal]).T.tolist()
    cols.insert(_FIELDS.index("klass"), classify_values(negs, np.maximum(errs[:, :3], DEFAULT_TOL)))
    # the generated __init__ of a frozen dataclass sets each field through
    # object.__setattr__, about 2 us a row; a bare instance whose __dict__
    # is filled directly is the same row (equality, hash, repr and replace
    # read the fields) at a fraction of that
    rows = []
    for vals in zip(*cols):
        pt = object.__new__(SweepPoint)
        pt.__dict__.update(zip(_FIELDS, vals))
        rows.append(pt)
    return rows


def run_sweep(cfg):
    """Evaluate every grid point; rows are ordered by grid index.

    Model rows take their negativities, their preparation fidelity and
    their fidelity against the Gibbs state in closed form, with no state
    built. Tomography rows draw counts from the stack of the model states
    and take every quantity from one batched call over the stack of
    reconstructions.
    """
    cfg.validate()
    if cfg.p_grid is not None:
        ts = temperature_from_p(cfg.p_grid)
        ps = np.array(cfg.p_grid, dtype=float)
    else:
        ps = p_from_temperature(cfg.t_grid)
        ts = np.array(cfg.t_grid, dtype=float)
    if not cfg.tomography_enabled:
        return _rows(
            ps, ts, _chain_negativities(ps, cfg.alpha), _model_preparation_fidelity(ps, cfg.alpha),
            np.zeros((len(ps), 4)), _fidelity_to_gibbs(ps, cfg.alpha),
        )
    settings = standard_settings(3)
    recs = []
    for i, model in enumerate(thermal_state_model(CHAIN, ps, cfg.alpha)):
        point_seed = cfg.seed + i * _SEED_STRIDE
        rec = simulate_counts(model, settings, cfg.flux, seed=point_seed)
        recs += [rec] + _resamples(rec, point_seed + 1, cfg.mc_samples)
    # each point's reconstruction followed by those of its resamples
    rhos = np.stack([res.rho for res in _mle_batch(recs)])
    # per reconstruction: the negativities in _CUTS order, then the
    # preparation fidelity; per point: its record's values, then its
    # resamples' spread
    n = 1 + cfg.mc_samples
    fids = average_preparation_fidelity(rhos)
    vals = np.column_stack([negativity(rhos, c) for c in _CUTS] + [fids])
    vals = vals.reshape(len(ps), n, 4)
    ideal = fidelity(rhos[::n], gibbs_state(CHAIN, ts))
    return _rows(ps, ts, vals[:, 0, :3], vals[:, 0, 3], np.std(vals[:, 1:], axis=1, ddof=1), ideal)


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

