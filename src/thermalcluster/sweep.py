"""Temperature sweeps over the 3-qubit chain and result-table emission.

A sweep walks a grid of dephasing strengths (or temperatures), builds the
model state at each point, and collects negativities, the entanglement
class, the preparation fidelity, and the fidelity against the ideal Gibbs
state. With tomography enabled the quantities come from a simulated
reconstruction instead, with Monte Carlo error bars attached and the
classification thresholds replaced by those error bars.

Output is deterministic byte for byte for a fixed config: all randomness is
seeded, points are ordered by grid index regardless of worker scheduling,
and emitted files carry no timestamps.
"""

from __future__ import annotations

import hashlib
import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .entanglement import DEFAULT_TOL, classify_values, negativity
from .graphs import Graph, format_graph, linear_graph
from .linalg import fidelity
from .mbqc import average_preparation_fidelity
from .thermal import gibbs_state, p_from_temperature, temperature_from_p, thermal_state_model
from .tomography import monte_carlo_states, simulate_counts, mle_reconstruct, standard_settings

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
    graph: Graph = field(default_factory=lambda: linear_graph(3))
    alpha: float = float(np.pi)
    p_grid: tuple | None = None
    t_grid: tuple | None = None
    flux: float = 1e4
    mc_samples: int = 50
    seed: int = 0
    tomography_enabled: bool = False
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
        if self.graph != linear_graph(3):
            raise ConfigError(
                "sweep columns and the preparation protocol are specific to "
                "the 3-qubit chain; graph must be linear_graph(3)"
            )
        if self.tomography_enabled:
            if self.mc_samples < 2:
                raise ConfigError("mc_samples must be >= 2 when tomography is enabled")
            if self.mc_samples >= _SEED_STRIDE:
                raise ConfigError(
                    f"mc_samples must be below {_SEED_STRIDE}, or the seed "
                    "streams of neighbouring points overlap"
                )
            if not self.flux > 0:
                raise ConfigError("flux must be positive when tomography is enabled")
        if self.workers is not None and self.workers < 1:
            raise ConfigError("workers must be >= 1")
        return self

    def config_hash(self):
        """Short content hash identifying the config in output provenance."""
        payload = {
            "graph": format_graph(self.graph),
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


def _eval_point(cfg, index, p, t):
    g = cfg.graph
    model = thermal_state_model(g, p, cfg.alpha)
    ideal = gibbs_state(g, 1.0, t)
    if not cfg.tomography_enabled:
        negs = [negativity(model, c, 3) for c in _CUTS]
        return SweepPoint(
            p=p, t_over_delta=t,
            neg_ap=negs[0], neg_bp=negs[1], neg_bs=negs[2],
            err_ap=0.0, err_bp=0.0, err_bs=0.0,
            klass=classify_values(negs, [DEFAULT_TOL] * 3),
            avg_fidelity=average_preparation_fidelity(model),
            fid_error=0.0,
            state_fidelity_vs_ideal=fidelity(model, ideal),
        )
    point_seed = cfg.seed + index * _SEED_STRIDE
    rec = simulate_counts(model, standard_settings(3), cfg.flux, seed=point_seed)
    rho_hat = mle_reconstruct(rec).rho
    negs = [negativity(rho_hat, c, 3) for c in _CUTS]
    avg_fid = average_preparation_fidelity(rho_hat)
    samples = np.empty((cfg.mc_samples, 4))
    for k, rho_k in enumerate(monte_carlo_states(rec, cfg.mc_samples, point_seed + 1)):
        samples[k, :3] = [negativity(rho_k, c, 3) for c in _CUTS]
        samples[k, 3] = average_preparation_fidelity(rho_k)
    errs = np.std(samples, axis=0, ddof=1)
    # classification significance at one Monte Carlo standard deviation
    tols = [max(e, DEFAULT_TOL) for e in errs[:3]]
    return SweepPoint(
        p=p, t_over_delta=t,
        neg_ap=negs[0], neg_bp=negs[1], neg_bs=negs[2],
        err_ap=float(errs[0]), err_bp=float(errs[1]), err_bs=float(errs[2]),
        klass=classify_values(negs, tols),
        avg_fidelity=avg_fid,
        fid_error=float(errs[3]),
        state_fidelity_vs_ideal=fidelity(rho_hat, ideal),
    )


def run_sweep(cfg):
    """Evaluate every grid point; rows are ordered by grid index."""
    cfg.validate()
    pts = _grid_points(cfg)
    workers = cfg.workers
    if workers is None:
        workers = min(4, len(pts), os.cpu_count() or 1)
    if workers <= 1 or len(pts) <= 1:
        return [_eval_point(cfg, i, p, t) for i, (p, t) in enumerate(pts)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(_eval_point, cfg, i, p, t) for i, (p, t) in enumerate(pts)]
        return [f.result() for f in futures]


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
