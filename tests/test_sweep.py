import pathlib

import numpy as np
import pytest

from thermalcluster import __version__
from thermalcluster.entanglement import BOUND, FREE, PPT_ALL
from thermalcluster.sweep import (
    CSV_COLUMNS,
    ConfigError,
    _SEED_STRIDE,
    SweepConfig,
    emit,
    load_json_points,
    run_sweep,
)

DATA = pathlib.Path(__file__).parent / "data"


def test_config_requires_exactly_one_grid():
    with pytest.raises(ConfigError, match="exactly one"):
        SweepConfig().validate()
    with pytest.raises(ConfigError, match="exactly one"):
        SweepConfig(p_grid=(0.1,), t_grid=(1.0,)).validate()


def test_config_field_validation():
    with pytest.raises(ConfigError, match="p_grid"):
        SweepConfig(p_grid=(1.5,)).validate()
    with pytest.raises(ConfigError, match="t_grid"):
        SweepConfig(t_grid=(-1.0,)).validate()
    with pytest.raises(ConfigError, match="empty"):
        SweepConfig(p_grid=()).validate()
    with pytest.raises(ConfigError, match="mc_samples"):
        SweepConfig(p_grid=(0.5,), tomography_enabled=True, mc_samples=1).validate()
    # seed streams of neighbouring points would overlap; validated, never run
    with pytest.raises(ConfigError, match="mc_samples"):
        SweepConfig(
            p_grid=(0.5,), tomography_enabled=True, mc_samples=_SEED_STRIDE
        ).validate()
    SweepConfig(
        p_grid=(0.5,), tomography_enabled=True, mc_samples=_SEED_STRIDE - 1
    ).validate()


def test_config_hash_ignores_workers():
    a = SweepConfig(p_grid=(0.5,), workers=1)
    b = SweepConfig(p_grid=(0.5,), workers=3)
    c = SweepConfig(p_grid=(0.6,), workers=1)
    assert a.config_hash() == b.config_hash()
    assert a.config_hash() != c.config_hash()


def test_pure_cluster_row():
    pts = run_sweep(SweepConfig(p_grid=(0.0,)))
    (pt,) = pts
    assert pt.t_over_delta == 0.0
    for v in (pt.neg_ap, pt.neg_bp, pt.neg_bs):
        assert abs(v - 0.5) < 1e-10
    assert pt.klass == FREE
    assert abs(pt.avg_fidelity - 1.0) < 1e-9
    assert abs(pt.state_fidelity_vs_ideal - 1.0) < 1e-9
    assert pt.err_ap == pt.err_bp == pt.err_bs == pt.fid_error == 0.0


def test_maximally_mixed_row():
    (pt,) = run_sweep(SweepConfig(p_grid=(1.0,)))
    assert pt.t_over_delta == np.inf
    assert pt.neg_ap == pt.neg_bp == pt.neg_bs == 0.0
    assert pt.klass == PPT_ALL
    assert abs(pt.avg_fidelity - 0.5) < 1e-9


def test_bound_row_in_experiment_window():
    cfg = SweepConfig(t_grid=tuple(np.linspace(0.1, 3.0, 30)), alpha=0.84 * np.pi)
    pts = run_sweep(cfg)
    near_18 = [pt for pt in pts if 1.7 <= pt.t_over_delta <= 2.0]
    assert near_18 and all(pt.klass == BOUND for pt in near_18)
    klasses = [pt.klass for pt in pts]
    assert klasses[0] == FREE and BOUND in klasses
    # at machine tolerance the middle cut only dies past T/Delta ~ 3.003
    (far,) = run_sweep(SweepConfig(t_grid=(3.5,), alpha=0.84 * np.pi))
    assert far.klass == PPT_ALL


def test_emit_csv_shape_and_header():
    pts = run_sweep(SweepConfig(p_grid=(0.2,)))
    text = emit(pts, "csv")
    lines = text.strip().split("\n")
    assert len(lines) == 2
    assert lines[0] == CSV_COLUMNS
    assert lines[1].split(",")[8] == FREE


def test_emit_serializes_infinite_temperature():
    pts = run_sweep(SweepConfig(p_grid=(1.0,)))
    text = emit(pts, "csv")
    assert text.strip().split("\n")[1].split(",")[1] == "inf"
    back = load_json_points(emit(pts, "json"))
    assert back[0].t_over_delta == np.inf


def test_emit_provenance_header():
    cfg = SweepConfig(p_grid=(0.2,), seed=3)
    text = emit(run_sweep(cfg), "csv", provenance={"config_hash": cfg.config_hash(), "seed": cfg.seed})
    head = text.split("\n")[:2]
    assert head[0] == f"# config_hash = {cfg.config_hash()}"
    assert head[1] == "# seed = 3"


def test_emit_rejects_empty_and_unknown_format():
    pts = run_sweep(SweepConfig(p_grid=(0.2,)))
    with pytest.raises(ValueError):
        emit([], "csv")
    with pytest.raises(ConfigError):
        emit(pts, "yaml")


def test_json_round_trip_identity():
    cfg = SweepConfig(
        t_grid=(0.5, 1.8), alpha=0.84 * np.pi,
        tomography_enabled=True, flux=1e3, mc_samples=4, seed=11,
    )
    pts = run_sweep(cfg)
    assert load_json_points(emit(pts, "json")) == pts


def test_emit_writes_file(tmp_path):
    pts = run_sweep(SweepConfig(p_grid=(0.2,)))
    path = tmp_path / "out.csv"
    text = emit(pts, "csv", path=str(path))
    assert path.read_text() == text


def test_tomography_sweep_deterministic():
    cfg = SweepConfig(t_grid=(1.0,), tomography_enabled=True, flux=2e3, mc_samples=6, seed=5)
    a = emit(run_sweep(cfg), "csv")
    b = emit(run_sweep(cfg), "csv")
    assert a == b


def test_tomography_errors_populated():
    cfg = SweepConfig(t_grid=(1.0,), tomography_enabled=True, flux=2e3, mc_samples=8, seed=5)
    (pt,) = run_sweep(cfg)
    for err in (pt.err_ap, pt.err_bp, pt.err_bs, pt.fid_error):
        assert err > 0
    assert 0.0 <= pt.state_fidelity_vs_ideal <= 1.0


def test_tomography_rows_converge_to_model_rows():
    # a single Poisson draw scatters by ~1 sigma, so per-seed agreement is
    # checked at 3 sigma; the flux -> infinity consistency shows up as the
    # absolute deviations shrinking across a flux decade
    t = 0.5
    model_pt = run_sweep(SweepConfig(t_grid=(t,)))[0]
    true = (model_pt.neg_ap, model_pt.neg_bp, model_pt.neg_bs, model_pt.avg_fidelity)
    max_dev = {}
    for flux in (5e3, 5e4):
        cfg = SweepConfig(t_grid=(t,), tomography_enabled=True, flux=flux, mc_samples=8, seed=1)
        (noisy,) = run_sweep(cfg)
        est = (noisy.neg_ap, noisy.neg_bp, noisy.neg_bs, noisy.avg_fidelity)
        err = (noisy.err_ap, noisy.err_bp, noisy.err_bs, noisy.fid_error)
        for tv, ev, er in zip(true, est, err):
            assert abs(ev - tv) <= 3.0 * er, (flux, tv, ev, er)
        max_dev[flux] = max(abs(ev - tv) for tv, ev in zip(true, est))
    assert max_dev[5e4] < max_dev[5e3]


def test_golden_sweep_regression():
    cfg = SweepConfig(
        t_grid=(0.5, 1.8), alpha=0.84 * np.pi,
        tomography_enabled=True, flux=2e3, mc_samples=8, seed=42,
    )
    provenance = {
        "config_hash": cfg.config_hash(),
        "seed": cfg.seed,
        "tool_version": __version__,
    }
    text = emit(run_sweep(cfg), "csv", provenance=provenance)
    assert text == (DATA / "sweep_golden.csv").read_text()
