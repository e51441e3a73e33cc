import dataclasses
import json
import pathlib
import warnings

import numpy as np
import pytest

from thermalcluster import __version__
from thermalcluster.entanglement import BOUND, FREE, PPT_ALL, negativity, transition_points
from thermalcluster.graphs import (
    CHAIN,
    Graph,
    linear_graph,
    parent_hamiltonian,
    parse_graph,
    verify_spectrum,
)
from thermalcluster.linalg import fidelity, validate_density_matrix
from thermalcluster.mbqc import (
    average_preparation_fidelity,
    conditional_state,
    haar_average_fidelity,
    preparation_records,
)
from thermalcluster.thermal import (
    gibbs_state,
    p_from_temperature,
    temperature_from_p,
    thermal_state_model,
)
from thermalcluster.tomography import (
    CountRecord,
    expected_probabilities,
    mle_reconstruct,
    monte_carlo_statistic,
    parse_setting_label,
    simulate_counts,
    standard_settings,
)
from thermalcluster.sweep import (
    CSV_COLUMNS,
    ConfigError,
    _SEED_STRIDE,
    SweepConfig,
    SweepPoint,
    emit,
    run_sweep,
)

DATA = pathlib.Path(__file__).parent / "data"


def json_points(text):
    # SweepPoint rows back from emitted JSON: the keys are the field names
    # up to case, but "class" for klass; "inf" parses as a float
    return [
        SweepPoint(**{k.lower(): float(v) for k, v in d.items() if k != "class"}, klass=d["class"])
        for d in json.loads(text)["points"]
    ]


def test_config_requires_exactly_one_grid():
    with pytest.raises(ConfigError, match="exactly one"):
        SweepConfig().validate()
    with pytest.raises(ConfigError, match="exactly one"):
        SweepConfig(p_grid=(0.1,), t_grid=(1.0,)).validate()


def test_config_field_validation():
    with pytest.raises(ConfigError, match="p_grid is empty"):
        SweepConfig(p_grid=()).validate()
    with pytest.raises(ConfigError, match="t_grid is empty"):
        SweepConfig(t_grid=[]).validate()
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
    # no model state is built on a model sweep, so the config refuses the
    # angle itself, on either branch, before any array work
    for alpha in (float("nan"), float("inf"), -float("inf")):
        for tomography in (False, True):
            cfg = SweepConfig(p_grid=(0.5,), alpha=alpha, tomography_enabled=tomography)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ConfigError, match="alpha must be a finite real number"):
                    cfg.validate()
                with pytest.raises(ConfigError, match="alpha must be a finite real number"):
                    run_sweep(cfg)


def tomography_sweep(**fields):
    fields = {"p_grid": (0.5,), "tomography_enabled": True, **fields}
    return lambda: run_sweep(SweepConfig(**fields))


def record(**fields):
    fields = {"settings": standard_settings(1), "counts": np.ones(4), "flux": 1.0, **fields}
    return lambda: CountRecord(**fields)


def counts(flux=1e3, seed=0, rho=None, settings=None):
    rho = thermal_state_model(CHAIN, 0.5) if rho is None else rho
    settings = standard_settings(3) if settings is None else settings
    return lambda: simulate_counts(rho, settings, flux, seed)


def mle(settings=(("z0",),), max_iter=200):
    # mle_reconstruct on a record built directly, not by simulate_counts
    rec = record(settings=settings, counts=np.ones(len(settings)))
    return lambda: mle_reconstruct(rec(), max_iter)


@pytest.mark.parametrize("call", [
    pytest.param(lambda: p_from_temperature(-1.0), id="p_from_temperature"),
    pytest.param(lambda: temperature_from_p(1.5), id="temperature_from_p"),
    pytest.param(lambda: gibbs_state(CHAIN, float("nan")), id="gibbs_state"),
    pytest.param(lambda: thermal_state_model(CHAIN, 1.5), id="model_p"),
    pytest.param(lambda: thermal_state_model(CHAIN, 0.5, float("inf")), id="model_alpha"),
    pytest.param(counts(flux=0.0), id="simulate_flux_zero"),
    pytest.param(counts(flux=1e300), id="simulate_flux_beyond_sampler"),
    pytest.param(counts(seed=-1), id="simulate_seed"),
    pytest.param(counts(seed=None), id="simulate_seed_none"),
    pytest.param(counts(seed=1.5), id="simulate_seed_float"),
    pytest.param(counts(seed=True), id="simulate_seed_bool"),
    # a state must match the settings' size and be finite
    pytest.param(counts(rho=np.eye(4) / 4), id="simulate_state_size"),
    pytest.param(
        lambda: expected_probabilities(np.eye(4) / 4, standard_settings(3)),
        id="probabilities_state_size",
    ),
    pytest.param(counts(rho=np.full((8, 8), np.nan)), id="simulate_state_nan"),
    pytest.param(counts(rho=np.full((8, 8), np.inf)), id="simulate_state_inf"),
    pytest.param(lambda: fidelity(np.full((2, 2), np.nan), np.eye(2) / 2), id="fidelity_nan"),
    pytest.param(lambda: fidelity(np.eye(2) / 2, np.full((2, 2), np.inf)), id="fidelity_inf"),
    pytest.param(lambda: negativity(np.full((4, 4), np.nan), (0,)), id="negativity_nan"),
    # wrong types: a cut that is not qubit indices, settings that are not
    # label tuples, a flux or counts that are not numbers
    pytest.param(lambda: negativity(np.eye(8) / 8, "a"), id="negativity_cut_string"),
    pytest.param(record(settings=5), id="record_settings_number"),
    pytest.param(record(flux="a"), id="record_flux_string"),
    pytest.param(record(counts=["a"]), id="record_counts_string"),
    pytest.param(counts(flux="a"), id="simulate_flux_string"),
    # a seed is None or a nonnegative integer
    pytest.param(record(seed="a"), id="record_seed_string"),
    pytest.param(record(seed=-1), id="record_seed_negative"),
    pytest.param(record(seed=2.5), id="record_seed_float"),
    pytest.param(record(seed=True), id="record_seed_bool"),
    # settings: an unknown label, a string in place of a label tuple, none
    pytest.param(counts(settings=[("q1", "z0", "z0")]), id="simulate_settings_label"),
    pytest.param(counts(settings=["z0z0z0"]), id="simulate_settings_string"),
    pytest.param(counts(settings=[]), id="simulate_settings_empty"),
    pytest.param(mle(settings=[("q1", "z0", "z0")]), id="mle_settings_label"),
    pytest.param(mle(settings=["z0z0z0"]), id="mle_settings_string"),
    pytest.param(mle(settings=[]), id="mle_settings_empty"),
    pytest.param(mle(settings=[("z0",), ("z0", "z1")]), id="mle_settings_lengths"),
    pytest.param(mle(max_iter=-1), id="mle_max_iter_negative"),
    pytest.param(mle(max_iter=True), id="mle_max_iter_bool"),
    pytest.param(mle(max_iter=2.5), id="mle_max_iter_float"),
    # every matrix argument is square of size 2^n: one shape check
    pytest.param(lambda: negativity(np.ones((8, 4)) / 8, (0,)), id="negativity_not_square"),
    pytest.param(lambda: negativity(np.ones(8) / 8, (0,)), id="negativity_1d"),
    pytest.param(lambda: fidelity(np.ones((2, 4)), np.ones((2, 4))), id="fidelity_not_square"),
    pytest.param(lambda: fidelity(np.ones(4) / 4, np.ones(4) / 4), id="fidelity_1d"),
    pytest.param(lambda: fidelity(np.eye(3) / 3, np.eye(3) / 3), id="fidelity_size_3"),
    pytest.param(lambda: validate_density_matrix(np.eye(6) / 6), id="validate_size_6"),
    pytest.param(record(counts=np.ones(3)), id="record_shape"),
    pytest.param(record(flux=float("inf")), id="record_flux"),
    # past the caps the reconstructors overflow and the Poisson resampling fails
    pytest.param(record(flux=np.nextafter(1e18, np.inf)), id="record_flux_cap"),
    pytest.param(record(flux=1e156), id="record_flux_huge"),
    pytest.param(record(counts=[1.0, 1.0, 1.0, np.nextafter(2e18, np.inf)]), id="record_count_cap"),
    pytest.param(record(counts=[1.0, 1.0, 1.0, 1e19]), id="record_count_huge"),
    pytest.param(lambda: CountRecord.from_text("z0,3\n"), id="from_text"),
    pytest.param(lambda: CountRecord.from_text("# flux = 1\nz0,abc\n"), id="from_text_count"),
    pytest.param(lambda: parse_setting_label("z0q-"), id="parse_setting_label"),
    pytest.param(lambda: Graph(3, frozenset({(0, 0)})), id="graph"),
    pytest.param(lambda: parse_graph("x; 0-1"), id="parse_graph"),
    pytest.param(lambda: linear_graph(1), id="linear_graph"),
    # a vertex count that is not an integer, edges that are not index pairs
    pytest.param(lambda: linear_graph("3"), id="linear_graph_string"),
    pytest.param(lambda: linear_graph(2.5), id="linear_graph_float"),
    pytest.param(lambda: Graph("3"), id="graph_vertices_string"),
    pytest.param(lambda: Graph(3, frozenset({(0,)})), id="graph_edge_single"),
    pytest.param(lambda: Graph(3, frozenset({("a", "b")})), id="graph_edge_strings"),
    pytest.param(lambda: parent_hamiltonian(CHAIN, "a"), id="gap_string"),
    pytest.param(lambda: parent_hamiltonian(CHAIN, gap=float("inf")), id="gap_infinite"),
    pytest.param(lambda: parent_hamiltonian(CHAIN, gap=0.0), id="gap_zero"),
    # one vertex over the cap; refused before any allocation
    pytest.param(lambda: parent_hamiltonian(Graph(11)), id="vertex_cap"),
    pytest.param(lambda: verify_spectrum(CHAIN, gap=-1.0), id="verify_spectrum"),
    pytest.param(lambda: standard_settings(0), id="standard_settings"),
    pytest.param(lambda: standard_settings("3"), id="standard_settings_string"),
    pytest.param(lambda: standard_settings(2.5), id="standard_settings_float"),
    pytest.param(lambda: standard_settings(True), id="standard_settings_bool"),
    pytest.param(lambda: transition_points(np.pi, tol=-1.0), id="transition_tol"),
    # scalars of the regime path that are not real numbers
    pytest.param(lambda: transition_points("a"), id="transition_alpha_string"),
    pytest.param(lambda: transition_points(1j), id="transition_alpha_complex"),
    pytest.param(lambda: transition_points(np.pi, tol="x"), id="transition_tol_string"),
    pytest.param(lambda: transition_points(np.pi, tol=None), id="transition_tol_none"),
    pytest.param(lambda: thermal_state_model(CHAIN, "a"), id="model_p_string"),
    pytest.param(lambda: thermal_state_model(CHAIN, 0.5, "a"), id="model_alpha_string"),
    pytest.param(lambda: p_from_temperature("a"), id="p_from_temperature_string"),
    pytest.param(lambda: temperature_from_p("a"), id="temperature_from_p_string"),
    pytest.param(lambda: temperature_from_p(None), id="temperature_from_p_none"),
    pytest.param(lambda: gibbs_state(CHAIN, "a"), id="gibbs_state_string"),
    # the same refusals for one value and for any item of an array, and no
    # bool or numeric string taken as a number
    pytest.param(lambda: p_from_temperature(True), id="p_from_temperature_bool"),
    pytest.param(lambda: temperature_from_p(False), id="temperature_from_p_bool"),
    pytest.param(lambda: p_from_temperature(np.array([0.5, -1.0])), id="p_from_temperature_array"),
    pytest.param(lambda: p_from_temperature([0.5, np.nan]), id="p_from_temperature_array_nan"),
    pytest.param(lambda: p_from_temperature([0.5, "1"]), id="p_from_temperature_array_string"),
    pytest.param(lambda: temperature_from_p(np.array([0.5, 1.5])), id="temperature_from_p_array"),
    pytest.param(lambda: temperature_from_p([0.5, None]), id="temperature_from_p_array_none"),
    pytest.param(lambda: gibbs_state(CHAIN, True), id="gibbs_state_bool"),
    pytest.param(lambda: thermal_state_model(CHAIN, "0.5"), id="model_p_numeric_string"),
    pytest.param(lambda: haar_average_fidelity(np.eye(8) / 8, 0, seed=0), id="haar_samples"),
    pytest.param(lambda: haar_average_fidelity(np.eye(8) / 8, 2.5, seed=0), id="haar_samples_float"),
    pytest.param(lambda: haar_average_fidelity(np.eye(8) / 8, 10, seed=-1), id="haar_seed"),
    # the preparation functions take one 3-qubit state, not a 2-qubit one
    pytest.param(lambda: haar_average_fidelity(np.eye(4) / 4, 10, seed=0), id="haar_shape"),
    pytest.param(lambda: average_preparation_fidelity(np.eye(4) / 4), id="prep_fidelity_shape"),
    pytest.param(lambda: preparation_records(np.eye(4) / 4), id="prep_records_shape"),
    pytest.param(lambda: conditional_state(np.eye(4) / 4, "Z", "X", 0, 0), id="conditional_shape"),
    # basis labels among X, Y, Z, outcomes 0 or 1, and pairs with a target
    pytest.param(lambda: conditional_state(np.eye(8) / 8, "Q", "X", 0, 0), id="conditional_basis"),
    pytest.param(lambda: conditional_state(np.eye(8) / 8, "Z", "X", 2, 0), id="conditional_outcome"),
    pytest.param(
        lambda: preparation_records(np.eye(8) / 8, pairs=[("X", "Z")]), id="prep_records_pair"
    ),
    pytest.param(lambda: monte_carlo_statistic(record()(), np.trace, 1, seed=0), id="mc_samples"),
    pytest.param(lambda: monte_carlo_statistic(record()(), np.trace, 2.5, seed=0), id="mc_samples_float"),
    pytest.param(lambda: monte_carlo_statistic(record()(), np.trace, 2, seed=None), id="mc_seed_none"),
    pytest.param(lambda: monte_carlo_statistic(record()(), np.trace, 2, seed=1.5), id="mc_seed_float"),
    pytest.param(lambda: monte_carlo_statistic(record()(), np.trace, 2, seed=-1), id="mc_seed_negative"),
    pytest.param(tomography_sweep(mc_samples=2.5), id="sweep_mc_samples_float"),
    pytest.param(tomography_sweep(seed=1.5), id="sweep_seed_float"),
    pytest.param(tomography_sweep(tomography_enabled="no"), id="sweep_flag_string"),
    pytest.param(tomography_sweep(flux="abc"), id="sweep_flux_string"),
    pytest.param(tomography_sweep(p_grid=5), id="sweep_grid_number"),
    # grid values are refused by the p <-> T maps, before any state is built
    pytest.param(lambda: run_sweep(SweepConfig(p_grid=(1.5,))), id="sweep_p_grid_range"),
    pytest.param(lambda: run_sweep(SweepConfig(t_grid=(-1.0,))), id="sweep_t_grid_negative"),
    pytest.param(lambda: run_sweep(SweepConfig(t_grid=(float("nan"),))), id="sweep_t_grid_nan"),
])
def test_bad_input_raises_config_error(call, monkeypatch):
    # one exception type for bad input, which is also a ValueError; a sweep
    # raises it before it builds its first state
    def no_work(*args):
        raise AssertionError("the sweep started work on a bad config")

    monkeypatch.setattr("thermalcluster.sweep.thermal_state_model", no_work)
    with pytest.raises(ConfigError) as info:
        call()
    assert isinstance(info.value, ValueError)


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
    assert json.loads(emit(pts, "json"))["points"][0]["t_over_delta"] == "inf"


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
    assert json_points(emit(pts, "json")) == pts


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


@pytest.mark.parametrize("tomography", [False, True])
def test_rows_hold_python_floats_and_a_class_name(tomography):
    # the rows are built from array columns; every field but klass is a
    # Python float, as the tables and SweepPoint equality expect
    cfg = SweepConfig(
        t_grid=(0.0, 0.5, 1.8, float("inf")), alpha=0.84 * np.pi,
        tomography_enabled=tomography, flux=2e3, mc_samples=3, seed=2,
    )
    for pt in run_sweep(cfg):
        for field in dataclasses.fields(SweepPoint):
            v = getattr(pt, field.name)
            assert type(v) is (str if field.name == "klass" else float), (field.name, v)
        # the rows skip the generated __init__ (see sweep._rows) but behave
        # as constructed ones: equal, with the same hash and repr, frozen,
        # and open to dataclasses.replace
        built = SweepPoint(*dataclasses.astuple(pt))
        assert type(pt) is SweepPoint
        assert pt == built and hash(pt) == hash(built) and repr(pt) == repr(built)
        with pytest.raises(dataclasses.FrozenInstanceError):
            pt.avg_fidelity = 0.0
        moved = dataclasses.replace(pt, avg_fidelity=0.25)
        assert moved.avg_fidelity == 0.25 and moved != pt
        assert dataclasses.replace(moved, avg_fidelity=pt.avg_fidelity) == pt


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


def test_golden_model_sweep_regression():
    # model rows to the last digit, at the ideal and the experiment's angle
    grid = tuple(float(t) for t in np.linspace(0.0, 3.0, 31))
    text = ""
    for alpha in (np.pi, 0.84 * np.pi):
        cfg = SweepConfig(t_grid=grid, alpha=float(alpha))
        provenance = {
            "config_hash": cfg.config_hash(),
            "seed": cfg.seed,
            "tool_version": __version__,
        }
        text += emit(run_sweep(cfg), "csv", provenance=provenance)
    assert text == (DATA / "model_sweep_golden.csv").read_text()


def test_golden_model_sweep_p_grid_regression():
    # the p-grid path, with its ends T = 0 and T = inf, to the last digit
    grid = tuple(float(p) for p in np.linspace(0.0, 1.0, 21))
    text = ""
    for alpha in (np.pi, 0.84 * np.pi):
        cfg = SweepConfig(p_grid=grid, alpha=float(alpha))
        provenance = {
            "config_hash": cfg.config_hash(),
            "seed": cfg.seed,
            "tool_version": __version__,
        }
        text += emit(run_sweep(cfg), "csv", provenance=provenance)
    assert text == (DATA / "model_sweep_p_golden.csv").read_text()


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
