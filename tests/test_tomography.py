import functools
import itertools

import numpy as np
import pytest

from thermalcluster import tomography
from thermalcluster.entanglement import negativity
from thermalcluster.graphs import Graph, linear_graph
from thermalcluster.linalg import KETS, ConfigError, validate_density_matrix
from thermalcluster.sweep import _SEED_STRIDE
from thermalcluster.thermal import p_from_temperature, thermal_state_model
from thermalcluster.tomography import (
    _BATCH,
    MLE_TOL,
    CountRecord,
    _cached_maps,
    _closed_form,
    _fw_gap,
    _least_squares,
    _linear_maps,
    _mle_batch,
    _newton,
    _positive_part,
    _resamples,
    expected_probabilities,
    linear_inversion,
    mle_reconstruct,
    monte_carlo_statistic,
    parse_setting_label,
    poisson_log_likelihood,
    projector_stack,
    setting_label,
    simulate_counts,
    standard_settings,
)


def mub_settings(n):
    # the overcomplete 6^n product family over all six Pauli eigenstates
    return list(itertools.product(("z0", "z1", "x+", "x-", "y+", "y-"), repeat=n))


def model_state(p=0.3, alpha=np.pi):
    return thermal_state_model(linear_graph(3), p, alpha)


def noiseless_record(rho, settings, flux=1e4):
    counts = expected_probabilities(rho, settings) * flux
    return CountRecord(settings=tuple(settings), counts=counts, flux=flux)


def test_setting_counts():
    assert len(standard_settings(1)) == 4
    assert len(standard_settings(3)) == 64


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


def test_projector_stack_is_outer_products():
    # bit for bit np.outer(v, v^*) of each setting's product ket
    settings = standard_settings(3)
    kets = [functools.reduce(np.kron, [KETS[lab] for lab in s]) for s in settings]
    assert np.array_equal(projector_stack(settings), [np.outer(v, v.conj()) for v in kets])


def test_mub_settings_informationally_complete():
    pi = projector_stack(mub_settings(1))
    assert np.linalg.matrix_rank(pi.reshape(6, -1)) == 4


def test_count_record_validation():
    settings = standard_settings(1)
    with pytest.raises(ValueError):
        CountRecord(settings=settings, counts=np.ones(3), flux=1.0)
    with pytest.raises(ValueError):
        CountRecord(settings=settings, counts=-np.ones(4), flux=1.0)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            CountRecord(settings=settings, counts=np.array([1.0, bad, 2.0, 3.0]), flux=1.0)
    with pytest.raises(ValueError):
        CountRecord(settings=settings, counts=np.ones(4), flux=0.0)
    with pytest.raises(ValueError, match="qubits"):
        CountRecord.from_text("# flux = 10.0\nz0,5\nz0z1,3\n")
    with pytest.raises(ValueError, match="setting"):
        CountRecord.from_text("# flux = 10.0\n")


def test_count_record_caps():
    # a draw at the flux cap may exceed it: seed 5 on |000> gives a count of
    # 1.0000000009681757e18, which stays a valid record, as does a count at
    # twice the cap; one step past either cap is refused
    rec = simulate_counts(np.diag(np.eye(8)[0]), standard_settings(3), 1e18, seed=5)
    assert rec.flux == 1e18 and rec.counts.max() == 1.0000000009681757e18
    assert np.array_equal(CountRecord.from_text(rec.to_text()).counts, rec.counts)
    settings = standard_settings(1)
    CountRecord(settings=settings, counts=[0.0, 0.0, 0.0, 2e18], flux=1e18)
    with pytest.raises(ConfigError, match=r"^flux must be positive and at most 1e\+18$"):
        CountRecord(settings=settings, counts=np.ones(4), flux=np.nextafter(1e18, np.inf))
    over = [0.0, 0.0, 0.0, np.nextafter(2e18, np.inf)]
    with pytest.raises(ConfigError, match=r"^counts must be finite, nonnegative and at most 2e\+18$"):
        CountRecord(settings=settings, counts=over, flux=1.0)


def test_count_record_text_round_trip():
    rho = model_state()
    rec = simulate_counts(rho, standard_settings(3), 5e3, seed=12)
    back = CountRecord.from_text(rec.to_text())
    assert back.settings == rec.settings
    assert np.array_equal(back.counts, rec.counts)
    assert back.flux == rec.flux and back.seed == rec.seed


def test_count_record_text_round_trips_numpy_scalars():
    # flux and seed are stored as Python numbers, so their reprs parse back
    rec = CountRecord(
        settings=standard_settings(1), counts=np.ones(4), flux=np.float64(2.0), seed=np.int64(5)
    )
    assert type(rec.flux) is float and type(rec.seed) is int
    back = CountRecord.from_text(rec.to_text())
    assert (back.flux, back.seed) == (2.0, 5)
    assert back.to_text() == rec.to_text()


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

    def samples(n, seed):
        # as monte_carlo_statistic draws and solves them
        return [res.rho for res in _mle_batch(_resamples(rec, seed, n))]

    mle_a = samples(3, seed=10)
    mle_b = samples(2, seed=11)
    (mle_c,) = samples(1, seed=12)
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


def test_monte_carlo_statistic_of_an_array_is_the_scalar_statistics():
    # a statistic returning several numbers gives, entry by entry, the
    # scalar calls' mean and std from the same reconstructions; a column sum
    # may add the terms in another order
    rec = simulate_counts(model_state(0.5), standard_settings(3), 2e3, seed=4)
    cuts = ((0,), (1,), (2,))
    mean, std = monte_carlo_statistic(rec, lambda r: [negativity(r, c) for c in cuts], 5, seed=7)
    assert mean.shape == std.shape == (3,)
    for c, m, s in zip(cuts, mean, std):
        m1, s1 = monte_carlo_statistic(rec, lambda r: negativity(r, c), 5, seed=7)
        assert type(m1) is float and type(s1) is float
        assert abs(m - m1) <= 1e-15 and abs(s - s1) <= 1e-15


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
        monte_carlo_statistic(rec, lambda r: 0.0, 2, seed=0)


def ends_on_the_dual(maps, counts, flux, q, gap):
    # whether each certificate is the dual gap: well below the Frank-Wolfe
    # gap at the same iterate (where the two agree, the Frank-Wolfe gap is
    # the reported one up to the rounding of its eigenvalue)
    return gap < 0.9 * _fw_gap(maps.pf, maps.d, counts, flux, q)


def test_mle_batch_results_do_not_depend_on_the_batch(monkeypatch):
    # each record's result is the same bit for bit alone, in one mixed batch
    # and in reverse order: tomo_ladder cells, a record with zero counts and
    # an all-zero record, more records than one chunk of the solver holds.
    # The batches mix the starts: the flux-1e6 records start at their
    # closed-form maximum, the flux-1e3 ones and the record with zero counts
    # in the factored chart at its positive part, and the all-zero record is
    # I/8 by convention. They mix the stops too: in one chunk of the batch
    # some records that took steps stop on the Frank-Wolfe gap (the near-pure
    # records at T/gap 0) and others on the dual gap
    settings = standard_settings(3)
    maps = _linear_maps(settings)
    recs = [simulate_counts(model_state(0.0, 0.84 * np.pi), settings, 1e3, seed=s) for s in (41, 42)]
    for t in (0.5, 1.8):
        rho = thermal_state_model(linear_graph(3), p_from_temperature(t), 0.84 * np.pi)
        for flux in (1e3, 1e6):
            recs += [simulate_counts(rho, settings, flux, seed=s) for s in (40, 41, 42, 43)]
    sparse = simulate_counts(model_state(0.1, 0.84 * np.pi), settings, 20.0, seed=3)
    assert 0 < np.count_nonzero(sparse.counts == 0) < len(settings)
    empty = CountRecord(settings=settings, counts=np.zeros(len(settings)), flux=1e3)
    recs += [sparse, empty]
    assert len(recs) > _BATCH

    stops = []

    def spy(maps, counts, flux, rho, rank, max_iter):
        out = _newton(maps, counts, flux, rho, rank, max_iter)
        dual = ends_on_the_dual(maps, counts, flux, out[1], out[2])
        stepped = out[3] > 0
        stops.append((np.any(stepped & dual), np.any(stepped & ~dual)))
        return out

    monkeypatch.setattr(tomography, "_newton", spy)
    _mle_batch(recs)
    assert (True, True) in stops
    monkeypatch.undo()

    def check(batch, **kw):
        alone = [mle_reconstruct(rec, **kw) for rec in batch]
        for got in (_mle_batch(batch, **kw), _mle_batch(batch[::-1], **kw)[::-1]):
            for a, b in zip(alone, got):
                assert np.array_equal(a.rho, b.rho)
                assert (a.iterations, a.converged, a.gap, a.log_likelihood) == (
                    b.iterations, b.converged, b.gap, b.log_likelihood
                )
        for res in alone:
            validate_density_matrix(res.rho)
        return alone

    results = check(recs)
    assert all(res.converged for res in results)
    steps = [res.iterations for res in results[:-1]]
    assert min(steps) == 0 and max(steps) >= 10
    assert np.array_equal(results[-1].rho, np.eye(8) / 8)
    assert results[-1].gap == 0.0 and results[-1].iterations == 0
    # the closed-form records are certified at their start, the others are
    # still unconverged after one step
    closed = [
        bool(np.all(rec.counts > 0))
        and np.linalg.eigvalsh(_closed_form(maps, rec.counts, rec.flux))[0] > 0.0
        for rec in recs[:-1]
    ]
    expected = [flux == 1e6 for t in (0.5, 1.8) for flux in (1e3, 1e6) for _ in range(4)]
    assert closed == [False] * 2 + expected + [False]
    capped = check(recs[:-1], max_iter=1)
    for res, cf in zip(capped, closed):
        assert (res.converged, res.iterations) == ((True, 0) if cf else (False, 1))
    # not informationally complete: the least-squares estimate, which keeps
    # at 0 the coherence the likelihood does not see, is certified at its start
    lone = CountRecord(settings=(("z0",), ("z1",)), counts=np.array([5.0, 1.0]), flux=1.0)
    (res,) = check([lone])
    assert res.iterations == 0
    assert np.allclose(res.rho, np.diag([5.0, 1.0]) / 6.0, atol=1e-6)


def diluted_rrho(rec, rho, steps, eps=0.5):
    # the diluted R rho R iteration (Rehacek, Hradil, Knill and Lvovsky,
    # PRA 75, 042108 (2007)) for log L = sum_s c_s log(flux q_s) - flux q_s,
    # with R = I + eps G / N and G = sum_s (c_s / q_s - flux) Pi_s; each step
    # stays a density matrix and ascends for small eps. A setting with a zero
    # count contributes -flux Pi_s to G, whatever its q_s
    pi = projector_stack(rec.settings)
    for _ in range(steps):
        q = np.einsum("sij,ji->s", pi, rho).real
        q = np.where(rec.counts > 0, q, 1.0)
        r = np.eye(len(rho)) + eps / rec.counts.sum() * np.einsum(
            "s,sij->ij", rec.counts / q - rec.flux, pi
        )
        rho = r @ rho @ r
        rho /= np.trace(rho).real
    return rho


def test_mle_certificate_against_diluted_rrho():
    # no state the independent iteration reaches, from I/8 or from the MLE
    # itself, beats the MLE's log L by more than its reported gap
    for t in (0.2, 1.8):
        rho = thermal_state_model(linear_graph(3), p_from_temperature(t), 0.84 * np.pi)
        for flux in (1e3, 1e6):
            rec = simulate_counts(rho, standard_settings(3), flux, seed=40)
            res = mle_reconstruct(rec)
            assert res.converged
            for start, steps in ((np.eye(8, dtype=complex) / 8, 500), (res.rho, 200)):
                oracle = poisson_log_likelihood(diluted_rrho(rec, start, steps), rec)
                assert oracle <= res.log_likelihood + res.gap, (t, flux, steps)


def test_dual_certificate_bounds_the_shortfall(monkeypatch):
    # records whose reported gap is the dual gap, below the Frank-Wolfe gap
    # at the same iterate: on the standard settings at flux 1e3, with 10
    # zero counts at flux 20, on the overcomplete MUB settings at flux 1e8
    # and on the {z0, x+}^2 settings that are not informationally complete.
    # (The near-pure records at T/gap 0 stop on the Frank-Wolfe gap.)
    # Neither the same solve run 20 steps longer (MLE_TOL at 0, so no
    # record stops on its certificate) nor the diluted R rho R iteration
    # from the MLE beats log L + gap, and converged still means
    # gap <= MLE_TOL * N
    nc = list(itertools.product(("z0", "x+"), repeat=2))
    recs = [
        simulate_counts(model_state(p_from_temperature(t), 0.84 * np.pi), settings, flux, seed)
        for settings, t, flux, seed in (
            (standard_settings(3), 0.5, 1e3, 40),
            (standard_settings(3), 0.5, 20.0, 3),
            (mub_settings(3), 0.5, 1e8, 0),
        )
    ]
    rho2 = thermal_state_model(linear_graph(2), p_from_temperature(1.8), 0.84 * np.pi)
    recs.append(simulate_counts(rho2, nc, 1e3, seed=2))
    assert np.count_nonzero(recs[1].counts == 0) == 10
    results = [mle_reconstruct(rec) for rec in recs]
    monkeypatch.setattr(tomography, "MLE_TOL", 0.0)
    longer = [mle_reconstruct(rec, max_iter=res.iterations + 20) for rec, res in zip(recs, results)]
    monkeypatch.undo()
    for rec, res, more in zip(recs, results, longer):
        maps = _linear_maps(rec.settings)
        q = expected_probabilities(res.rho, rec.settings)
        flux = np.array([rec.flux])
        assert ends_on_the_dual(maps, rec.counts[None], flux, q[None], np.array([res.gap]))[0]
        assert res.iterations > 0 and res.converged
        assert res.converged == (res.gap <= MLE_TOL * rec.counts.sum())
        assert not more.converged and more.iterations == res.iterations + 20
        assert more.log_likelihood <= res.log_likelihood + res.gap, rec.flux
        oracle = poisson_log_likelihood(diluted_rrho(rec, res.rho, 200), rec)
        assert oracle <= res.log_likelihood + res.gap, rec.flux


def test_mle_starts_at_a_positive_definite_estimate_or_its_positive_part():
    # every record has all counts positive and a positive-definite
    # least-squares estimate. On the standard settings at T/gap 1.8 the
    # closed-form maximum is positive definite too, so it is the MLE,
    # certified at its start with 0 steps. At T/gap 0.5 it is not: the
    # maximum lies on the boundary and the record starts in the factored
    # chart at the positive part of the closed form. On the overcomplete MUB
    # settings at T/gap 0.3 the record starts in the factored chart at its
    # least-squares estimate, with k = 8
    for settings, t, seed, steps in (
        (standard_settings(3), 1.8, 40, (0, 0)),
        (standard_settings(3), 0.5, 51, (1, 2)),
        (mub_settings(3), 0.3, 60, (9, 9)),
    ):
        maps = _linear_maps(settings)
        rho = thermal_state_model(linear_graph(3), p_from_temperature(t), 0.84 * np.pi)
        rec = simulate_counts(rho, settings, 1e6, seed=seed)
        assert np.all(rec.counts > 0)
        lam_ls = np.linalg.eigvalsh(_least_squares(maps, rec.counts, rec.flux))[0]
        assert lam_ls > 0.0
        if maps.zset is not None:
            lam_cf = np.linalg.eigvalsh(_closed_form(maps, rec.counts, rec.flux))[0]
            assert (lam_cf > 0.0) == (t == 1.8)
        res = mle_reconstruct(rec)
        assert res.converged and steps[0] <= res.iterations <= steps[1], (t, res.iterations)
        validate_density_matrix(res.rho)
        if t < 1.0:
            assert np.linalg.eigvalsh(res.rho)[0] < 0.1 * lam_ls
        # the diluted R rho R oracle, as in the test above
        for start, n in ((np.eye(8, dtype=complex) / 8, 500), (res.rho, 200)):
            oracle = poisson_log_likelihood(diluted_rrho(rec, start, n), rec)
            assert oracle <= res.log_likelihood + res.gap, (t, n)


def test_trace_functional_marks_the_z_settings():
    # tr rho = sum_s q_s over the 2^n settings in {z0, z1}^n, which sum to I;
    # the overcomplete MUB family has no 0/1 trace functional
    for n in (1, 2, 3):
        settings = standard_settings(n)
        zset = _cached_maps(tuple(settings)).zset
        assert zset.tolist() == [set(s) <= {"z0", "z1"} for s in settings]
        assert zset.sum() == 2**n and not zset.flags.writeable
        assert _cached_maps(tuple(mub_settings(n))).zset is None


def test_product_maps_match_the_full_pseudo_inverse():
    # product settings over one alphabet build lin and rank from the
    # single-qubit factor; the 64 x 64 pinv and matrix_rank are the reference,
    # and the least-squares map agrees with them at rounding level, rank
    # deficient alphabets included. Other settings take the full route
    families = [("z0", "z1", "x+", "y+"), ("z0", "z1", "x+", "x-", "y+", "y-"), ("z0", "x+")]
    for alphabet, n in itertools.product(families, (1, 2, 3)):
        settings = tuple(itertools.product(alphabet, repeat=n))
        p = projector_stack(settings).reshape(len(settings), -1)
        maps = _cached_maps(settings)
        assert maps.rank == np.linalg.matrix_rank(p)
        ref = np.ascontiguousarray(np.linalg.pinv(p.conj()).T).view(np.float64)
        assert np.abs(maps.lin - ref).max() < 1e-14, (alphabet, n)
        assert not maps.lin.flags.writeable
    mixed = (("z0", "x+"), ("x+", "z0"), ("y+", "y-"), ("z1", "z1"))
    p = projector_stack(mixed).reshape(4, -1)
    ref = np.ascontiguousarray(np.linalg.pinv(p.conj()).T).view(np.float64)
    assert np.array_equal(_cached_maps(mixed).lin, ref)


def mixed_start_solve(rec, max_iter=200):
    # the same counts solved in the full-rank factored chart from I/d,
    # skipping the start _mle_batch picks
    maps = _linear_maps(rec.settings)
    rho, q, gap, iterations, converged = _newton(
        maps, rec.counts[None], np.array([rec.flux]), np.eye(maps.d, dtype=complex)[None] / maps.d,
        np.array([maps.d]), max_iter,
    )
    assert converged[0] and iterations[0] > 0
    return rho[0], q[0], gap[0], iterations[0]


def test_closed_form_is_the_certified_maximum():
    # a closed-form record is certified with 0 steps, at a gap within
    # rounding; a solve of its counts from I/d agrees within the two
    # certificates. log L is concave with curvature at least
    # kappa = sum_s c_s dq_s^2 / max(q_s, q'_s)^2 along the segment between
    # the two solutions, so kappa / 2 <= gap + gap' bounds how far apart
    # their probabilities, and so their states, can lie
    settings = standard_settings(3)
    for t, flux, seed in ((np.inf, 1e3, 1), (1.8, 1e6, 0), (1.8, 1e8, 0)):
        rho = thermal_state_model(linear_graph(3), p_from_temperature(t), 0.84 * np.pi)
        rec = simulate_counts(rho, settings, flux, seed=seed)
        n = rec.counts.sum()
        res = mle_reconstruct(rec, max_iter=0)
        assert res.converged and res.iterations == 0
        assert res.gap <= 1e-12 * n, (t, flux, res.gap / n)
        rho_b, q_b, gap_b, _ = mixed_start_solve(rec)
        ll_b = poisson_log_likelihood(rho_b, rec)
        assert ll_b <= res.log_likelihood + res.gap
        assert res.log_likelihood <= ll_b + gap_b
        # projected linear inversion, which the solver skips here, cannot
        # beat the maximum over a superset of the states
        assert poisson_log_likelihood(linear_inversion(rec).rho, rec) <= res.log_likelihood
        q = expected_probabilities(res.rho, settings)
        kappa = np.sum(rec.counts * (q - q_b) ** 2 / np.maximum(q, q_b) ** 2)
        assert 0.5 * kappa <= res.gap + gap_b, (t, flux)
        assert np.abs(res.rho - rho_b).max() < 1e-4


def test_closed_form_start_takes_no_eigendecomposition(monkeypatch):
    # a structural guard that timing on a shared host cannot give: a record
    # certified at its closed form takes no positive part and no _frame, not
    # even of an empty stack; a record whose closed form is not positive
    # definite takes one positive part, and one _frame per round
    calls = []
    frames = []
    frame = tomography._frame

    def counted(est):
        calls.append(len(est))
        return _positive_part(est)

    def counted_frame(maps, c, *args):
        frames.append(len(c))
        return frame(maps, c, *args)

    monkeypatch.setattr(tomography, "_positive_part", counted)
    monkeypatch.setattr(tomography, "_frame", counted_frame)
    settings = standard_settings(3)
    maps = _linear_maps(settings)
    for t, flux, parts in ((1.8, 1e6, []), (0.5, 1e3, [1])):
        rho = thermal_state_model(linear_graph(3), p_from_temperature(t), 0.84 * np.pi)
        rec = simulate_counts(rho, settings, flux, seed=0)
        definite = np.linalg.eigvalsh(_closed_form(maps, rec.counts, rec.flux))[0] > 0.0
        assert definite == (not parts)
        calls.clear()
        frames.clear()
        res = mle_reconstruct(rec)
        assert res.converged and (res.iterations == 0) == definite
        assert calls == parts and frames == [1] * (res.iterations + (not definite))


def test_closed_form_needs_positive_counts_and_a_positive_estimate():
    # with max_iter=0 only a record that starts at its certified maximum
    # converges; one zero count, or a closed form that is not positive
    # definite, sends the record to the factored chart. A zero count c_s
    # makes <v_s| rho |v_s> = 0 in the closed form, so it is singular at
    # best; the count test covers rounding that leaves it positive
    settings = standard_settings(3)
    maps = _linear_maps(settings)
    rho = thermal_state_model(linear_graph(3), p_from_temperature(1.8), 0.84 * np.pi)
    rec = simulate_counts(rho, settings, 1e6, seed=0)
    assert mle_reconstruct(rec, max_iter=0).converged
    counts = rec.counts.copy()
    counts[np.argmin(counts)] = 0.0
    zero = CountRecord(settings=settings, counts=counts, flux=rec.flux)
    low = simulate_counts(rho, settings, 1e3, seed=0)
    assert np.all(low.counts > 0)
    assert np.linalg.eigvalsh(_closed_form(maps, low.counts, low.flux))[0] < 0.0
    for r in (zero, low):
        assert not mle_reconstruct(r, max_iter=0).converged
        res = mle_reconstruct(r)
        assert res.converged and res.iterations > 0


def test_factored_start_certifies_boundary_records():
    # flux-1e3 records whose closed form has k positive eigenvalues and at
    # least one <= 0, so their maximum lies on the boundary: each is
    # certified in the factored chart in a pinned number of Newton steps,
    # and no state the diluted R rho R iteration reaches beats
    # log L + gap. The MLE has rank
    # k where the positive part is the right face; at seed 42 the gradient
    # off the face adds a column (k + 1), at seed 43 the last column shrinks
    # and is dropped in the first step (k - 1), so the result has rank k - 1
    # up to rounding
    settings = standard_settings(3)
    maps = _linear_maps(settings)
    for t, seed, k, rank, steps in (
        (0.5, 40, 6, 6, 8), (1.8, 40, 7, 7, 4), (0.5, 42, 5, 6, 11), (0.5, 43, 6, 5, 6)
    ):
        rho = thermal_state_model(linear_graph(3), p_from_temperature(t), 0.84 * np.pi)
        rec = simulate_counts(rho, settings, 1e3, seed=seed)
        assert np.all(rec.counts > 0)
        est = _closed_form(maps, rec.counts[None], np.array([rec.flux]))
        assert np.linalg.eigvalsh(est)[0, 0] <= 0.0
        assert _positive_part(est)[1][0] == k
        res = mle_reconstruct(rec)
        assert res.converged and res.gap <= MLE_TOL * rec.counts.sum()
        assert res.iterations == steps, (t, seed, res.iterations)
        validate_density_matrix(res.rho)
        assert np.count_nonzero(np.linalg.eigvalsh(res.rho) > 1e-12) == rank, (t, seed)
        for start, n in ((np.eye(8, dtype=complex) / 8, 500), (res.rho, 200)):
            oracle = poisson_log_likelihood(diluted_rrho(rec, start, n), rec)
            assert oracle <= res.log_likelihood + res.gap, (t, seed, n)


def test_zero_counts_start_in_the_factored_chart():
    # records with zero counts take the factored chart too, where a setting
    # with c_s = 0 has no log term. Every {z0, z1}^3 count at 0 makes
    # N_Z = 0, so the closed form has trace 0; the record starts at its
    # positive part (k = 6) and is certified in 12 steps. On the 1-qubit MUB
    # family, counts on y+ and y- only give a least-squares estimate whose
    # positive part is |y-><y-|, so q = 0 on y+, which has a count: that
    # record starts at I/2
    settings = standard_settings(3)
    maps = _linear_maps(settings)
    rho = thermal_state_model(linear_graph(3), p_from_temperature(1.0), 0.84 * np.pi)
    counts = simulate_counts(rho, settings, 1e3, seed=0).counts
    zset = np.array([set(s) <= {"z0", "z1"} for s in settings])
    counts[zset] = 0.0
    assert np.all(counts[~zset] > 0)
    zero_z = CountRecord(settings=settings, counts=counts, flux=1e3)
    est = _closed_form(maps, counts[None], np.array([1e3]))
    assert abs(np.trace(est[0]).real) < 1e-12
    assert _positive_part(est)[1][0] == 6
    y_only = CountRecord(settings=mub_settings(1), counts=np.array([0, 0, 0, 0, 1, 3]), flux=1.0)
    maps1 = _linear_maps(y_only.settings)
    part, k = _positive_part(_least_squares(maps1, y_only.counts[None], np.array([1.0])))
    assert k[0] == 1 and expected_probabilities(part[0], y_only.settings)[4] < 1e-12
    for rec, steps in ((zero_z, 12), (y_only, 4)):
        res = mle_reconstruct(rec)
        assert res.converged and res.iterations == steps, res.iterations
        validate_density_matrix(res.rho)
        for start, n in ((np.eye(len(res.rho), dtype=complex) / len(res.rho), 500), (res.rho, 200)):
            oracle = poisson_log_likelihood(diluted_rrho(rec, start, n), rec)
            assert oracle <= res.log_likelihood + res.gap, (steps, n)


def sparse_record(settings, seed):
    # a few counts, some settings at 0, flux 0.1-1000 and a count scale
    # unrelated to it: records as sparse as a short or misaligned run gives
    rng = np.random.default_rng(seed)
    scale = 10 ** rng.uniform(-1, 2)
    keep = rng.uniform(size=len(settings)) < rng.uniform(0.2, 1)
    counts = rng.poisson(rng.uniform(0, scale, size=len(settings)) * keep).astype(float)
    return CountRecord(settings=settings, counts=counts, flux=10 ** rng.uniform(-1, 3))


def test_sparse_counts_are_certified():
    # where the counted settings do not see every direction, the Newton
    # matrix is singular even on complete settings: 1-qubit MUB counts on z
    # only leave the coherences free, and np.linalg.solve raises
    # LinAlgError there, so these records take the least-norm step. Counts
    # on x+ and x- only give a positive part |+><+| that misses x- up to
    # rounding: that record starts at I/2, not stuck at q = 1e-33 on a
    # counted setting. The seeded sparse records include a 2-qubit MUB
    # record (seed 24) on which the log-det barrier path raised
    # LinAlgError, and 3-qubit records (seeds 29, 48, 54) it left
    # unconverged at 200 steps
    mub1 = mub_settings(1)
    recs = [
        CountRecord(settings=mub1, counts=np.array([1, 2, 0, 0, 0, 0]), flux=10.0),
        CountRecord(settings=mub1, counts=np.array([0, 0, 3, 1, 0, 0]), flux=1.0),
    ]
    for settings in (mub1, mub_settings(2), standard_settings(3)):
        recs += [sparse_record(settings, seed) for seed in range(60)]
    recs = [rec for rec in recs if rec.counts.any()]
    assert len(recs) > 150
    steps = []
    for rec in recs:
        res = mle_reconstruct(rec)
        assert res.converged and res.gap <= MLE_TOL * rec.counts.sum(), rec.counts
        validate_density_matrix(res.rho)
        steps.append(res.iterations)
    assert max(steps) <= 12


def test_settings_that_are_not_complete_take_the_least_norm_step():
    # on {z0, x+}^2 the map to q has rank 4 < 16, so the Newton system is
    # singular (np.linalg.solve raises LinAlgError on it) and the step is
    # its least-norm solution. This record's positive part is not certified
    # at its start; it takes 12 steps
    settings = list(itertools.product(("z0", "x+"), repeat=2))
    assert _linear_maps(settings).rank == 4
    rho = thermal_state_model(linear_graph(2), p_from_temperature(0.0), 0.84 * np.pi)
    rec = simulate_counts(rho, settings, 1e4, seed=0)
    assert np.all(rec.counts > 0)
    res = mle_reconstruct(rec)
    assert res.converged and res.iterations == 12, res.iterations
    validate_density_matrix(res.rho)
    for start, n in ((np.eye(4, dtype=complex) / 4, 500), (res.rho, 200)):
        oracle = poisson_log_likelihood(diluted_rrho(rec, start, n), rec)
        assert oracle <= res.log_likelihood + res.gap, n


def test_mle_on_counts_at_another_flux_raises_no_warning():
    # counts drawn at flux 1e3 but recorded at flux 1e9: the solver runs
    # without a numpy warning and returns a density matrix, flagged
    # unconverged exactly when its gap exceeds the tolerance
    settings = standard_settings(3)
    rho = thermal_state_model(linear_graph(3), p_from_temperature(1.0), np.pi)
    counts = simulate_counts(rho, settings, 1e3, seed=0).counts
    rec = CountRecord(settings=settings, counts=counts, flux=1e9)
    res = mle_reconstruct(rec)
    validate_density_matrix(res.rho)
    assert np.isfinite(res.log_likelihood) and np.isfinite(res.gap)
    assert res.converged == (res.gap <= MLE_TOL * counts.sum())


def test_mle_step_counts_on_tomo_sweep_records(monkeypatch):
    # the records of a tomo_sweep request (T/gap 0.5 and 1.8 at 0.84 pi,
    # flux 2e3, 4 resamples per point) for seeds 0-19, 200 solves: the
    # counts repeat exactly, so the Newton work is pinned as caps, a count
    # no timing on a shared host can give. The slowest record of each
    # request sets its rounds, each one batched _factored_step. The caps
    # are the measured 1,041 record-steps, 167 rounds and 12 steps at most
    # (1,248, 188 and 13 with the Frank-Wolfe gap alone as the certificate)
    settings = standard_settings(3)
    models = [
        thermal_state_model(linear_graph(3), p_from_temperature(t), 0.84 * np.pi)
        for t in (0.5, 1.8)
    ]
    rounds = []
    step = tomography._factored_step

    def counted(maps, c, *args):
        rounds.append(len(c))
        return step(maps, c, *args)

    monkeypatch.setattr(tomography, "_factored_step", counted)
    steps = []
    for seed in range(20):
        recs = []
        for i, model in enumerate(models):
            point_seed = seed + i * _SEED_STRIDE
            rec = simulate_counts(model, settings, 2e3, seed=point_seed)
            recs += [rec] + _resamples(rec, point_seed + 1, 4)
        results = _mle_batch(recs)
        assert all(res.converged for res in results)
        steps += [res.iterations for res in results]
    assert len(steps) == 200 and sum(rounds) == sum(steps)
    assert sum(steps) <= 1041 and len(rounds) <= 167 and max(steps) <= 12


def test_mle_batch_of_mixed_starts_matches_each_record_alone():
    # more than one chunk of records, all starts interleaved (closed form,
    # factored, factored with zero counts, all-zero): the batch groups
    # them by start, and every result keeps the bits of its record
    # solved alone, in the caller's order, and in chunks of any size
    settings = standard_settings(3)
    recs = []
    for seed in range(7):
        for t, flux in ((1.8, 1e6), (0.8, 2e3), (np.inf, 1e3), (0.1, 20.0)):
            rho = thermal_state_model(linear_graph(3), p_from_temperature(t), 0.84 * np.pi)
            recs.append(simulate_counts(rho, settings, flux, seed=seed))
        recs.append(CountRecord(settings=settings, counts=np.zeros(len(settings)), flux=1e3))
    assert len(recs) > 2 * _BATCH
    assert all(np.any(rec.counts == 0) for rec in recs[3::5])
    got = _mle_batch(recs)
    steps = [res.iterations for res in got]
    assert 0 < steps.count(0) < len(recs)
    chunks = [r for lo in range(0, len(recs), 5) for r in _mle_batch(recs[lo : lo + 5])]
    for rec, b, c in zip(recs, got, chunks):
        a = mle_reconstruct(rec)
        for other in (b, c):
            assert np.array_equal(a.rho, other.rho)
            assert (a.iterations, a.converged, a.gap, a.log_likelihood) == (
                other.iterations, other.converged, other.gap, other.log_likelihood
            )


def test_mle_certified_on_extreme_inputs():
    # 1-3 qubits, both setting families, T/gap from 0 to inf and flux up
    # to 1e8, where the states are near pure and the counts near 1e8. Every
    # record not certified at its closed form takes the factored chart, the
    # 90 with a zero count included; the caps are the measured mean, 3.19,
    # and max, 16
    rows = []
    steps = []
    for n in (1, 2, 3):
        g = Graph(1) if n == 1 else linear_graph(n)
        for settings in (standard_settings(n), mub_settings(n)):
            for t in (0.0, 0.2, 1.0, np.inf):
                rho = thermal_state_model(g, p_from_temperature(t), 0.84 * np.pi)
                for flux in (1.0, 1e2, 1e4, 1e8):
                    for seed in (0, 1):
                        rec = simulate_counts(rho, settings, flux, seed=seed)
                        res = mle_reconstruct(rec)
                        rows.append((n, len(settings), t, flux, seed, res.converged,
                                     res.gap <= MLE_TOL * rec.counts.sum()))
                        steps.append(res.iterations)
    assert len(rows) == 192
    assert (3, 64, 0.2, 1e8, 0, True, True) in rows
    assert (3, 64, 0.2, 1e8, 1, True, True) in rows
    assert [r for r in rows if not (r[5] and r[6])] == []
    assert max(steps) <= 16
    assert np.mean(steps) <= 3.2


def test_mle_batch_needs_one_settings_tuple():
    a = CountRecord(settings=standard_settings(1), counts=np.ones(4), flux=1.0)
    b = CountRecord(settings=mub_settings(1), counts=np.ones(6), flux=1.0)
    with pytest.raises(ValueError, match="settings"):
        _mle_batch([a, b])
    assert _mle_batch([]) == []
