"""Temperature sweeps over the 3-qubit chain and result-table emission.

A sweep walks a grid of dephasing strengths (or temperatures), builds the
model state at each point, and collects negativities, the entanglement
class, the preparation fidelity, and the fidelity against the ideal Gibbs
state. With tomography enabled the quantities come from a simulated
reconstruction instead, with Monte Carlo error bars attached and the
classification thresholds replaced by those error bars.

A tomography sweep first draws every count record it needs, each point's
record followed by its Monte Carlo resamples, and then solves them all in
one lockstep maximum-likelihood batch, whose results do not depend on how
the records are batched.

Output is deterministic byte for byte for a fixed config: all randomness is
seeded, points are ordered by grid index, and emitted files carry no
timestamps.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .entanglement import DEFAULT_TOL, classify_values, negativity
from .graphs import CHAIN, format_graph
from .linalg import fidelity
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
    "load_json_points",
    "CSV_COLUMNS",
]

CSV_COLUMNS = (
    "p,t_over_delta,neg_Ap,err_Ap,neg_Bp,err_Bp,neg_Bs,err_Bs,"
    "class,avg_fidelity,fid_error,state_fidelity_vs_ideal"
)

# spacing between per-point seed blocks; point i uses seeds seed + i * stride
# up to seed + i * stride + mc_samples, so validate() requires mc_samples < stride
_SEED_STRIDE = 1_000_003


class ConfigError(ValueError):
    """Invalid sweep or CLI configuration; maps to exit code 1."""


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
            if not 0 < self.flux < np.inf:
                raise ConfigError("flux must be positive and finite when tomography is enabled")
            if self.seed < 0:
                raise ConfigError("seed must be nonnegative when tomography is enabled")
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


def _row(p, t, rho, errs=(0.0,) * 4):
    # errs: the error bars of the three negativities and of the preparation
    # fidelity, zero for a model row
    negs = [negativity(rho, c, 3) for c in _CUTS]
    # classification significance at one Monte Carlo standard deviation
    tols = [max(e, DEFAULT_TOL) for e in errs[:3]]
    return SweepPoint(
        p=p, t_over_delta=t,
        neg_ap=negs[0], neg_bp=negs[1], neg_bs=negs[2],
        err_ap=float(errs[0]), err_bp=float(errs[1]), err_bs=float(errs[2]),
        klass=classify_values(negs, tols),
        avg_fidelity=average_preparation_fidelity(rho),
        fid_error=float(errs[3]),
        state_fidelity_vs_ideal=fidelity(rho, gibbs_state(CHAIN, t)),
    )


def run_sweep(cfg):
    """Evaluate every grid point; rows are ordered by grid index."""
    cfg.validate()
    pts = _grid_points(cfg)
    if not cfg.tomography_enabled:
        return [_row(p, t, thermal_state_model(CHAIN, p, cfg.alpha)) for p, t in pts]
    settings = standard_settings(3)
    recs = []
    for i, (p, _) in enumerate(pts):
        model = thermal_state_model(CHAIN, p, cfg.alpha)
        point_seed = cfg.seed + i * _SEED_STRIDE
        rec = simulate_counts(model, settings, cfg.flux, seed=point_seed)
        recs.append(rec)
        recs += [_resample(rec, point_seed + 1 + k) for k in range(cfg.mc_samples)]
    rhos = [res.rho for res in _mle_batch(recs)]
    n = 1 + cfg.mc_samples
    rows = []
    for i, (p, t) in enumerate(pts):
        samples = np.array([
            [negativity(rho_k, c, 3) for c in _CUTS] + [average_preparation_fidelity(rho_k)]
            for rho_k in rhos[i * n + 1 : (i + 1) * n]
        ])
        rows.append(_row(p, t, rhos[i * n], np.std(samples, axis=0, ddof=1)))
    return rows


def _fmt(x):
    if np.isinf(x):
        return "inf"
    return repr(float(x))


def _point_dict(pt):
    return {
        "p": pt.p,
        "t_over_delta": "inf" if np.isinf(pt.t_over_delta) else pt.t_over_delta,
        "neg_Ap": pt.neg_ap, "err_Ap": pt.err_ap,
        "neg_Bp": pt.neg_bp, "err_Bp": pt.err_bp,
        "neg_Bs": pt.neg_bs, "err_Bs": pt.err_bs,
        "class": pt.klass,
        "avg_fidelity": pt.avg_fidelity,
        "fid_error": pt.fid_error,
        "state_fidelity_vs_ideal": pt.state_fidelity_vs_ideal,
    }


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
            row = (
                _fmt(pt.p), _fmt(pt.t_over_delta),
                _fmt(pt.neg_ap), _fmt(pt.err_ap),
                _fmt(pt.neg_bp), _fmt(pt.err_bp),
                _fmt(pt.neg_bs), _fmt(pt.err_bs),
                pt.klass,
                _fmt(pt.avg_fidelity), _fmt(pt.fid_error),
                _fmt(pt.state_fidelity_vs_ideal),
            )
            lines.append(",".join(row))
        text = "\n".join(lines) + "\n"
    elif fmt == "json":
        doc = {"points": [_point_dict(pt) for pt in points]}
        if provenance:
            doc["provenance"] = dict(provenance)
        text = json.dumps(doc, indent=2, allow_nan=False) + "\n"
    else:
        raise ConfigError(f"unknown output format {fmt!r}")
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text


def load_json_points(text):
    """Rebuild SweepPoint rows from emitted JSON (inverse of emit)."""
    doc = json.loads(text)
    points = []
    for d in doc["points"]:
        t = d["t_over_delta"]
        points.append(
            SweepPoint(
                p=float(d["p"]),
                t_over_delta=float("inf") if t == "inf" else float(t),
                neg_ap=float(d["neg_Ap"]), neg_bp=float(d["neg_Bp"]),
                neg_bs=float(d["neg_Bs"]),
                err_ap=float(d["err_Ap"]), err_bp=float(d["err_Bp"]),
                err_bs=float(d["err_Bs"]),
                klass=d["class"],
                avg_fidelity=float(d["avg_fidelity"]),
                fid_error=float(d["fid_error"]),
                state_fidelity_vs_ideal=float(d["state_fidelity_vs_ideal"]),
            )
        )
    return points
