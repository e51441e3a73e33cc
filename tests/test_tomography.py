import numpy as np
import pytest

from thermalcluster.graphs import linear_graph
from thermalcluster.linalg import validate_density_matrix
from thermalcluster.thermal import p_from_temperature, thermal_state_model
from thermalcluster.tomography import (
    CountRecord,
    _mle_batch,
    expected_probabilities,
    linear_inversion,
    mle_reconstruct,
    monte_carlo_states,
    monte_carlo_statistic,
    mub_settings,
    parse_setting_label,
    poisson_log_likelihood,
    projector_stack,
    setting_label,
    simulate_counts,
    standard_settings,
)


def model_state(p=0.3, alpha=np.pi):
    return thermal_state_model(linear_graph(3), p, alpha)


def noiseless_record(rho, settings, flux=1e4):
    counts = expected_probabilities(rho, settings) * flux
    return CountRecord(settings=tuple(settings), counts=counts, flux=flux)


def test_setting_counts():
    assert len(standard_settings(1)) == 4
    assert len(standard_settings(3)) == 64
    assert len(mub_settings(2)) == 36


def test_setting_labels_round_trip():
    for s in standard_settings(2):
        assert parse_setting_label(setting_label(s)) == s
    assert setting_label(("z0", "x+", "y+")) == "z0x+y+"
    with pytest.raises(ValueError):
        parse_setting_label("z0q-")
    with pytest.raises(ValueError):
        parse_setting_label("z0x")


def test_standard_settings_informationally_complete():
    for n in (1, 2):
        pi = projector_stack(standard_settings(n))
        a = pi.reshape(len(pi), -1)
        assert np.linalg.matrix_rank(a) == 4**n


def test_mub_settings_informationally_complete():
    pi = projector_stack(mub_settings(1))
    assert np.linalg.matrix_rank(pi.reshape(6, -1)) == 4


def test_count_record_validation():
    settings = standard_settings(1)
    with pytest.raises(ValueError):
        CountRecord(settings=settings, counts=np.ones(3), flux=1.0)
    with pytest.raises(ValueError):
        CountRecord(settings=settings, counts=-np.ones(4), flux=1.0)
    with pytest.raises(ValueError):
        CountRecord(settings=settings, counts=np.ones(4), flux=0.0)
    with pytest.raises(ValueError, match="qubits"):
        CountRecord.from_text("# flux = 10.0\nz0,5\nz0z1,3\n")
    with pytest.raises(ValueError, match="setting"):
        CountRecord.from_text("# flux = 10.0\n")


def test_count_record_text_round_trip():
    rho = model_state()
    rec = simulate_counts(rho, standard_settings(3), 5e3, seed=12)
    back = CountRecord.from_text(rec.to_text())
    assert back.settings == rec.settings
    assert np.array_equal(back.counts, rec.counts)
    assert back.flux == rec.flux and back.seed == rec.seed


def test_count_record_text_float_counts_and_none_seed():
    rec = CountRecord(
        settings=standard_settings(1),
        counts=np.array([0.25, 1.0, 3.5, 2.0]),
        flux=7.5,
    )
    back = CountRecord.from_text(rec.to_text())
    assert np.array_equal(back.counts, rec.counts)
    assert back.seed is None
    with pytest.raises(ValueError, match="flux"):
        CountRecord.from_text("z0,3\n")


def test_expected_probabilities_are_probabilities():
    rho = model_state(0.5, 0.84 * np.pi)
    q = expected_probabilities(rho, standard_settings(3))
    assert np.all(q >= -1e-12) and np.all(q <= 1 + 1e-12)


def test_simulate_counts_deterministic():
    rho = model_state()
    a = simulate_counts(rho, standard_settings(3), 1e3, seed=5)
    b = simulate_counts(rho, standard_settings(3), 1e3, seed=5)
    c = simulate_counts(rho, standard_settings(3), 1e3, seed=6)
    assert np.array_equal(a.counts, b.counts)
    assert not np.array_equal(a.counts, c.counts)


def test_linear_inversion_exact_on_noiseless_counts():
    rho = model_state(0.4, 0.84 * np.pi)
    rec = noiseless_record(rho, standard_settings(3))
    rho_hat = linear_inversion(rec).rho
    assert np.abs(rho_hat - rho).max() < 1e-10


def test_linear_inversion_projection_gives_valid_state():
    rho = model_state()
    rec = simulate_counts(rho, standard_settings(3), 500, seed=2)
    res = linear_inversion(rec)
    validate_density_matrix(res.rho)
    assert res.method == "LINEAR"


def test_linear_inversion_all_zero_counts():
    rec = CountRecord(
        settings=standard_settings(1), counts=np.zeros(4), flux=1.0
    )
    assert np.allclose(linear_inversion(rec).rho, np.eye(2) / 2)


def test_linear_inversion_rank_deficient_raises():
    # z-only settings cannot see coherences
    settings = (("z0",), ("z1",))
    rec = CountRecord(settings=settings, counts=np.array([3.0, 4.0]), flux=10.0)
    with pytest.raises(ValueError, match="complete"):
        linear_inversion(rec)


def test_mle_noiseless_recovers_state():
    from thermalcluster.linalg import fidelity

    rho = model_state(0.4, 0.84 * np.pi)
    rec = noiseless_record(rho, standard_settings(3), flux=1e4)
    res = mle_reconstruct(rec)
    assert res.converged
    assert 1.0 - fidelity(res.rho, rho) < 1e-5
    assert np.abs(res.rho - rho).max() < 1e-3
    validate_density_matrix(res.rho)


def test_mle_improves_likelihood_over_start():
    rho = model_state(0.2)
    rec = simulate_counts(rho, standard_settings(3), 2e3, seed=9)
    res = mle_reconstruct(rec)
    start_ll = poisson_log_likelihood(np.eye(8) / 8, rec)
    assert res.log_likelihood > start_ll
    assert res.log_likelihood >= poisson_log_likelihood(rho, rec) - 1e-6
    assert res.method == "MLE" and res.iterations >= 1
    assert np.isfinite(res.gap) and res.gap >= 0.0


def test_mle_all_zero_counts():
    rec = CountRecord(settings=standard_settings(1), counts=np.zeros(4), flux=1.0)
    res = mle_reconstruct(rec)
    assert np.allclose(res.rho, np.eye(2) / 2)
    assert res.converged
    assert res.gap == 0.0


def test_mle_converges_above_linear_inversion_at_high_flux():
    # a near-pure state at flux 1e6: |log L| ~ 1e8, so a stop on the
    # absolute step gain never fires and the cap ends short of the maximum
    rho = thermal_state_model(linear_graph(3), p_from_temperature(0.5), 0.84 * np.pi)
    rec = simulate_counts(rho, standard_settings(3), 1e6, seed=1000)
    res = mle_reconstruct(rec)
    assert res.converged
    ll_linear = poisson_log_likelihood(linear_inversion(rec).rho, rec)
    assert poisson_log_likelihood(res.rho, rec) >= ll_linear


def test_mle_flags_non_convergence():
    rho = model_state()
    rec = simulate_counts(rho, standard_settings(3), 1e4, seed=1)
    res = mle_reconstruct(rec, max_iter=3)
    assert not res.converged
    assert res.iterations == 3
    validate_density_matrix(res.rho)


def test_monte_carlo_seed_indexing():
    # sample k of seed s must equal sample k-1 of seed s+1: the stream is
    # indexed by seed + k, independent of how the consumer batches it
    rho = model_state()
    rec = simulate_counts(rho, standard_settings(3), 1e3, seed=0)
    # each call's samples are solved in one batch, and a sample's state
    # does not depend on the rest of its batch
    mle_a = list(monte_carlo_states(rec, 3, seed=10))
    mle_b = list(monte_carlo_states(rec, 2, seed=11))
    (mle_c,) = monte_carlo_states(rec, 1, seed=12)
    assert np.array_equal(mle_a[1], mle_b[0])
    assert np.array_equal(mle_a[2], mle_b[1])
    assert np.array_equal(mle_a[2], mle_c)


def test_monte_carlo_statistic_deterministic():
    rho = model_state(0.5)
    rec = simulate_counts(rho, standard_settings(3), 2e3, seed=4)
    stat = lambda r: float(np.trace(r @ r).real)
    a = monte_carlo_statistic(rec, stat, 6, seed=7)
    b = monte_carlo_statistic(rec, stat, 6, seed=7)
    assert a == b
    assert a[1] > 0


def test_monte_carlo_statistic_needs_two_samples():
    rec = CountRecord(settings=standard_settings(1), counts=np.ones(4), flux=1.0)
    with pytest.raises(ValueError):
        monte_carlo_statistic(rec, lambda r: 0.0, 1, seed=0)


def test_monte_carlo_wraps_reconstruction_failures(monkeypatch):
    def failing_batch(recs):
        raise np.linalg.LinAlgError("eigh did not converge")

    monkeypatch.setattr("thermalcluster.tomography._mle_batch", failing_batch)
    rec = CountRecord(settings=standard_settings(1), counts=np.ones(4), flux=1.0)
    with pytest.raises(RuntimeError, match="reconstruction of the resamples failed"):
        list(monte_carlo_states(rec, 2, seed=0))


@pytest.mark.filterwarnings("error")
def test_mle_batch_agrees_with_mle_reconstruct():
    # the lockstep batch against the one-record solver, on one mixed batch:
    # tomo_ladder cells, a record with zero counts and an all-zero record
    settings = standard_settings(3)
    recs = []
    for t in (0.5, 1.8):
        rho = thermal_state_model(linear_graph(3), p_from_temperature(t), 0.84 * np.pi)
        for flux in (1e3, 1e6):
            recs += [simulate_counts(rho, settings, flux, seed=s) for s in (40, 41, 42)]
    sparse = simulate_counts(model_state(0.1, 0.84 * np.pi), settings, 20.0, seed=3)
    assert 0 < np.count_nonzero(sparse.counts == 0) < len(settings)
    empty = CountRecord(settings=settings, counts=np.zeros(len(settings)), flux=1e3)
    recs += [sparse, empty]

    def check(batch, **kw):
        for rec, got in zip(batch, _mle_batch(batch, **kw)):
            ref = mle_reconstruct(rec, **kw)
            validate_density_matrix(got.rho)
            assert got.converged == ref.converged
            assert abs(got.log_likelihood - ref.log_likelihood) <= max(got.gap, ref.gap)
            yield got

    results = list(check(recs))
    assert all(res.converged for res in results)
    assert np.array_equal(results[-1].rho, np.eye(8) / 8)
    assert results[-1].gap == 0.0 and results[-1].iterations == 0
    capped = list(check(recs[:-1], max_iter=3))
    assert all(not res.converged and res.iterations == 3 for res in capped)
    # from the maximally mixed start the first trial has q = 0 on a setting
    # with counts, so a round ends with no trial to test
    lone = CountRecord(settings=(("z0",), ("z1",)), counts=np.array([5.0, 1.0]), flux=1.0)
    (res,) = check([lone])
    assert np.allclose(res.rho, np.diag([5.0, 1.0]) / 6.0, atol=1e-6)


def test_mle_batch_needs_one_settings_tuple():
    a = CountRecord(settings=standard_settings(1), counts=np.ones(4), flux=1.0)
    b = CountRecord(settings=mub_settings(1), counts=np.ones(6), flux=1.0)
    with pytest.raises(ValueError, match="settings"):
        _mle_batch([a, b])
    assert _mle_batch([]) == []
