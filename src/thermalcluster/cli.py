"""Command-line front end.

Subcommands:

``sweep``
    Walk a grid of dephasing strengths or temperatures on the 3-qubit
    chain and emit a CSV or JSON result table (negativities, class,
    preparation fidelity, fidelity against the ideal thermal state).
``spectrum``
    Check the interaction-Hamiltonian spectrum of a graph against the
    closed-form level structure and print a report.
``tomo``
    Single-state round trip: simulate counts for the model at one
    temperature, reconstruct, and report the reconstruction quality.
``mbqc``
    Per-basis-pair preparation fidelity breakdown at one temperature.

Exit codes: 0 success, 1 configuration error (a ConfigError, raised by the
parsers here, for a file that cannot be read or written, or by any library
function for an out-of-domain argument), 2 any other failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys

import numpy as np

from . import __version__
from .entanglement import classify
from .graphs import CHAIN, parse_graph, verify_spectrum
from .linalg import ConfigError, fidelity
from .mbqc import (
    ENABLED_PAIRS,
    PREPARATION_PAIRS,
    average_preparation_fidelity,
    classical_threshold,
    preparation_records,
)
from .sweep import SweepConfig, emit, run_sweep
from .thermal import p_from_temperature, temperature_from_p, thermal_state_model
from .tomography import CountRecord, mle_reconstruct, simulate_counts, standard_settings

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    # argparse calls sys.exit(2) on bad flags; route through ConfigError
    # instead so the documented exit-code contract (1 = config) holds.
    def error(self, message):
        raise ConfigError(message)


def parse_alpha(text):
    """Parse a finite phase angle: plain radians, 'pi', or a multiple like '0.84pi'."""
    s = str(text).strip().lower().replace(" ", "").replace("*", "")
    scale = 1.0
    if s.endswith("pi"):
        s, scale = s[:-2], math.pi
        if s in ("", "+", "-"):
            s += "1"
    try:
        alpha = float(s) * scale
    except ValueError:
        raise ConfigError(f"cannot parse angle {text!r}") from None
    if not math.isfinite(alpha):
        raise ConfigError(f"angle must be finite, got {text!r}")
    return alpha


def parse_grid(text):
    """Parse a grid: comma list '0.1,0.2,0.3' or linspace 'start:stop:count'."""
    s = str(text).strip()
    if ":" in s:
        parts = s.split(":")
        if len(parts) != 3:
            raise ConfigError(f"grid range must be start:stop:count, got {text!r}")
        try:
            start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError:
            raise ConfigError(f"cannot parse grid range {text!r}") from None
        if count < 1:
            raise ConfigError("grid count must be >= 1")
        return tuple(float(v) for v in np.linspace(start, stop, count))
    try:
        vals = tuple(float(tok) for tok in s.split(",") if tok.strip())
    except ValueError:
        raise ConfigError(f"cannot parse grid {text!r}") from None
    if not vals:
        raise ConfigError("grid is empty")
    return vals


def _config_from_file(path):
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config file must hold a JSON object")
    # every SweepConfig field but workers, which the CLI does not set
    known = {f.name for f in dataclasses.fields(SweepConfig)} - {"workers"}
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    # SweepConfig.validate checks the types of the values
    out = dict(raw)
    if "alpha" in out:
        out["alpha"] = parse_alpha(out["alpha"])
    for key in ("p_grid", "t_grid"):
        val = out.get(key)
        if isinstance(val, str):
            out[key] = parse_grid(val)
        elif isinstance(val, list):
            out[key] = tuple(val)
    return out


def _build_sweep_config(args):
    fields = _config_from_file(args.config) if args.config else {}
    # flags override file values
    if args.alpha is not None:
        fields["alpha"] = parse_alpha(args.alpha)
    if args.p_grid is not None:
        fields["p_grid"] = parse_grid(args.p_grid)
        if args.t_grid is None:
            fields["t_grid"] = None
    if args.t_grid is not None:
        fields["t_grid"] = parse_grid(args.t_grid)
        if args.p_grid is None:
            fields["p_grid"] = None
    for key in ("flux", "mc_samples", "seed"):
        if getattr(args, key) is not None:
            fields[key] = getattr(args, key)
    if args.tomography:
        fields["tomography_enabled"] = True
    return SweepConfig(**fields)


def _cmd_sweep(args):
    cfg = _build_sweep_config(args)
    points = run_sweep(cfg)
    provenance = {
        "config_hash": cfg.config_hash(),
        "seed": cfg.seed,
        "tool_version": __version__,
    }
    text = emit(points, fmt=args.format, provenance=provenance)
    if args.output is None:
        sys.stdout.write(text)
    else:
        _write_file(args.output, text, "output file")
    return 0


def _cmd_spectrum(args):
    g = parse_graph(args.graph) if args.graph else CHAIN
    report = verify_spectrum(g, gap=args.gap)
    print(f"graph: {g.n_vertices} vertices, {len(g.edges)} edges")
    # + 0.0 turns a level that rounds to -0.0 into 0.0
    print(f"levels: {[round(e, 12) + 0.0 for e in report.levels]}")
    print(f"multiplicities: {list(report.multiplicities)}")
    print(f"ground state unique: {report.ground_unique}")
    print(f"gap matches {args.gap}: {report.gap_matches}")
    print(f"multiplicities binomial: {report.multiplicities_binomial}")
    ok = report.ground_unique and report.gap_matches and report.multiplicities_binomial
    if not ok:
        print("spectrum check FAILED", file=sys.stderr)
        return 2
    return 0


def _point_args(args):
    if (args.p is None) == (args.t is None):
        raise ConfigError("provide exactly one of --p / --t")
    if args.p is not None:
        return args.p, temperature_from_p(args.p)
    return p_from_temperature(args.t), args.t


def _write_file(path, text, what):
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {what}: {exc}") from None


def _load_counts(path):
    try:
        with open(path) as fh:
            return CountRecord.from_text(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read count file: {exc}") from None
    except ValueError as exc:
        raise ConfigError(f"bad count file {path}: {exc}") from None


def _cmd_tomo(args):
    p, t = _point_args(args)
    alpha = parse_alpha(args.alpha)
    rho = thermal_state_model(CHAIN, p, alpha)
    # --flux and --seed only matter to counts simulated here
    if args.load_counts:
        rec = _load_counts(args.load_counts)
        if rec.n_qubits != 3:
            raise ConfigError(
                f"count file holds {rec.n_qubits}-qubit settings; tomo models the 3-qubit chain"
            )
    else:
        rec = simulate_counts(rho, standard_settings(3), args.flux, seed=args.seed)
    if args.save_counts:
        _write_file(args.save_counts, rec.to_text(), "count file")
    result = mle_reconstruct(rec)
    rep = classify(result.rho)
    print(f"p = {p!r}, t_over_delta = {t!r}, alpha = {alpha!r}")
    print(f"counts: {len(rec.counts)} settings, flux = {rec.flux!r}")
    print(f"mle iterations = {result.iterations}, converged = {result.converged}")
    print(f"log_likelihood = {result.log_likelihood!r}")
    print(f"gap = {result.gap!r} (bound on max log_likelihood - log_likelihood)")
    print(f"fidelity vs model = {fidelity(result.rho, rho)!r}")
    for cut, val in sorted(rep.negativities.items()):
        print(f"negativity {cut}: {val!r}")
    return 0


def _cmd_mbqc(args):
    p, t = _point_args(args)
    alpha = parse_alpha(args.alpha)
    rho = thermal_state_model(CHAIN, p, alpha)
    print(f"p = {p!r}, t_over_delta = {t!r}, alpha = {alpha!r}")
    for pair in ENABLED_PAIRS:
        recs = preparation_records(rho, pairs=(pair,))
        fid = sum(r.probability * r.fidelity for r in recs)
        norm = sum(r.probability for r in recs)
        print(f"pair {pair[0]},{pair[1]}: fidelity = {fid / norm!r}")
    avg = average_preparation_fidelity(rho)
    thr = classical_threshold()
    verdict = "above" if avg > thr else "below"
    pairs_label = "+".join(f"{a}{b}" for a, b in PREPARATION_PAIRS)
    print(f"preparation average ({pairs_label}): {avg!r}")
    print(f"classical threshold: {thr!r} ({verdict})")
    return 0


def _add_point_flags(sub):
    sub.add_argument("--p", type=float, default=None, help="dephasing strength in [0, 1]")
    sub.add_argument("--t", type=float, default=None, help="temperature T/Delta (inf allowed)")
    sub.add_argument("--alpha", default="pi", help="phase angle, e.g. 'pi', '0.84pi', 2.64")


@functools.lru_cache(maxsize=1)
def _parser():
    # built once per process: parse_args leaves the parser as it found it
    parser = _Parser(prog="thermalcluster", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_sweep = sub.add_parser("sweep", help="run a temperature sweep and emit a table")
    p_sweep.add_argument("--config", default=None, help="JSON config file; flags override")
    p_sweep.add_argument("--p-grid", default=None, help="grid of p values ('0,0.5,1' or '0:1:11')")
    p_sweep.add_argument("--t-grid", default=None, help="grid of T/Delta values")
    p_sweep.add_argument("--alpha", default=None, help="phase angle ('pi', '0.84pi', radians)")
    p_sweep.add_argument("--flux", type=float, default=None, help="mean counts per unit projector weight")
    p_sweep.add_argument("--mc-samples", type=int, default=None, help="Monte Carlo resamples per point")
    p_sweep.add_argument("--seed", type=int, default=None, help="base RNG seed")
    p_sweep.add_argument("--tomography", action="store_true", help="reconstruct from simulated counts")
    p_sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sweep.add_argument("--output", default=None, help="write table here instead of stdout")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_spec = sub.add_parser("spectrum", help="verify a graph Hamiltonian spectrum")
    p_spec.add_argument("--graph", default=None, help="graph string like '3; 0-1,1-2'")
    p_spec.add_argument("--gap", type=float, default=1.0, help="energy gap Delta")
    p_spec.set_defaults(func=_cmd_spectrum)

    p_tomo = sub.add_parser("tomo", help="simulate and reconstruct one state")
    _add_point_flags(p_tomo)
    p_tomo.add_argument("--flux", type=float, default=1e4)
    p_tomo.add_argument("--seed", type=int, default=0)
    p_tomo.add_argument("--save-counts", default=None, help="write the count record here")
    p_tomo.add_argument("--load-counts", default=None, help="reconstruct from this record instead")
    p_tomo.set_defaults(func=_cmd_tomo)

    p_mbqc = sub.add_parser("mbqc", help="preparation fidelity breakdown at one point")
    _add_point_flags(p_mbqc)
    p_mbqc.set_defaults(func=_cmd_mbqc)

    return parser


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # numerical / runtime failures
        print(f"failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
