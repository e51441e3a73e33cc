import fractions
import functools
import itertools
import math

import numpy as np
import pytest

from thermalcluster.graphs import Graph, linear_graph
from thermalcluster.linalg import KETS, validate_density_matrix
from thermalcluster.thermal import p_from_temperature, thermal_state_model
from thermalcluster.tomography import (
    _BOUNDARY,
    MLE_TOL,
    CountRecord,
    _least_squares,
    _linear_maps,
    _mle_batch,
    _resample,
    _whitened_eigenvalues,
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

    def samples(n, seed):
        # as monte_carlo_statistic draws and solves them
        return [res.rho for res in _mle_batch([_resample(rec, seed + k) for k in range(n)])]

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


def test_mle_batch_results_do_not_depend_on_the_batch():
    # each record's result is the same bit for bit alone, in one mixed batch
    # and in reverse order: tomo_ladder cells, a record with zero counts and
    # an all-zero record, more records than one chunk of the solver holds.
    # The flux-1e6 records start at their least-squares estimate, the rest
    # on the barrier path, so the batches mix both starts
    settings = standard_settings(3)
    recs = []
    for t in (0.5, 1.8):
        rho = thermal_state_model(linear_graph(3), p_from_temperature(t), 0.84 * np.pi)
        for flux in (1e3, 1e6):
            recs += [simulate_counts(rho, settings, flux, seed=s) for s in (40, 41, 42, 43)]
    sparse = simulate_counts(model_state(0.1, 0.84 * np.pi), settings, 20.0, seed=3)
    assert 0 < np.count_nonzero(sparse.counts == 0) < len(settings)
    empty = CountRecord(settings=settings, counts=np.zeros(len(settings)), flux=1e3)
    recs += [sparse, empty]

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
    assert min(steps) <= 3 and max(steps) >= 10
    assert np.array_equal(results[-1].rho, np.eye(8) / 8)
    assert results[-1].gap == 0.0 and results[-1].iterations == 0
    capped = check(recs[:-1], max_iter=1)
    assert all(not res.converged and res.iterations == 1 for res in capped)
    # not informationally complete: the likelihood does not see the
    # coherence, which the barrier keeps at 0
    lone = CountRecord(settings=(("z0",), ("z1",)), counts=np.array([5.0, 1.0]), flux=1.0)
    (res,) = check([lone])
    assert np.allclose(res.rho, np.diag([5.0, 1.0]) / 6.0, atol=1e-6)


def diluted_rrho(rec, rho, steps, eps=0.5):
    # the diluted R rho R iteration (Rehacek, Hradil, Knill and Lvovsky,
    # PRA 75, 042108 (2007)) for log L = sum_s c_s log(flux q_s) - flux q_s,
    # with R = I + eps G / N and G = sum_s (c_s / q_s - flux) Pi_s; each step
    # stays a density matrix and ascends for small eps
    pi = projector_stack(rec.settings)
    for _ in range(steps):
        q = np.einsum("sij,ji->s", pi, rho).real
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


def test_mle_interior_start_and_its_fallback():
    # both records start at their least-squares estimate, which is positive
    # definite, with every count positive. At T/gap 1.8 the maximum lies
    # inside the state set and plain Newton certifies it in a few steps; at
    # T/gap 0.5 it lies on the boundary, a Newton step is cut short
    # and the record walks the barrier path from I/8 instead
    settings = standard_settings(3)
    maps = _linear_maps(settings)
    for t, seed, steps in ((1.8, 40, (1, 3)), (0.5, 51, (4, 29))):
        rho = thermal_state_model(linear_graph(3), p_from_temperature(t), 0.84 * np.pi)
        rec = simulate_counts(rho, settings, 1e6, seed=seed)
        assert np.all(rec.counts > 0)
        lam_ls = np.linalg.eigvalsh(_least_squares(maps, rec.counts, rec.flux))[0]
        assert lam_ls > 0.0
        res = mle_reconstruct(rec)
        assert res.converged and steps[0] <= res.iterations <= steps[1], (t, res.iterations)
        validate_density_matrix(res.rho)
        if t == 0.5:
            assert np.linalg.eigvalsh(res.rho)[0] < 0.1 * lam_ls
        # the diluted R rho R oracle, as in the test above
        for start, n in ((np.eye(8, dtype=complex) / 8, 500), (res.rho, 200)):
            oracle = poisson_log_likelihood(diluted_rrho(rec, start, n), rec)
            assert oracle <= res.log_likelihood + res.gap, (t, n)


def test_mle_certified_on_extreme_inputs():
    # 1-3 qubits, both setting families, T/gap from 0 to inf and flux up
    # to 1e8, where the states are near pure and the counts near 1e8. The
    # scaled barrier path takes at most 27 Newton steps on these cases, the
    # unscaled one (barrier Hessian weighted by the current mu) took 47.
    # Records whose least-squares estimate is an interior state start there
    # and take plain Newton steps: the mean falls from 18.1 to 14.8, the
    # maximum, set by records on the barrier path, stays
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
    assert max(steps) <= 29
    assert np.mean(steps) <= 15.5


def test_mle_batch_needs_one_settings_tuple():
    a = CountRecord(settings=standard_settings(1), counts=np.ones(4), flux=1.0)
    b = CountRecord(settings=mub_settings(1), counts=np.ones(6), flux=1.0)
    with pytest.raises(ValueError, match="settings"):
        _mle_batch([a, b])
    assert _mle_batch([]) == []


def exact_log_det_ratio(lam, m, t):
    # log det(diag(lam) + t m) - sum log lam without rounding: every float is
    # a dyadic rational, so one power of 2 turns the matrix into Gaussian
    # integers, and fraction-free (Bareiss) elimination gives the
    # determinant. Its leading minors are real, as the matrix is Hermitian
    f = fractions.Fraction
    t = f(float(t))
    entries = [
        [(t * f(float(z.real)) + (f(float(lam[i])) if i == j else 0), t * f(float(z.imag)))
         for j, z in enumerate(row)]
        for i, row in enumerate(m)
    ]
    scale = max(x.denominator for row in entries for z in row for x in z)
    a = [[[int(x * scale) for x in z] for z in row] for row in entries]
    n, prev = len(a), 1
    for k in range(n - 1):
        p = a[k][k][0]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                (ar, ai), (br, bi), (cr, ci) = a[i][j], a[i][k], a[k][j]
                a[i][j] = [(ar * p - (br * cr - bi * ci)) // prev,
                           (ai * p - (br * ci + bi * cr)) // prev]
        prev = p
    det = f(a[-1][-1][0], scale**n)
    return math.log(det / math.prod(f(float(x)) for x in lam))


def test_whitened_step_gives_log_det_and_positivity():
    # the line search's identity: with nu the eigenvalues of the step m
    # whitened by rho's eigenvalues lam, log det(rho + t d_rho) - log det rho
    # = sum log1p(t nu); the step t = 1, 1/2, ... it accepts, the first with
    # 1 + t nu_min >= _BOUNDARY, keeps rho + t d_rho positive definite.
    # Eigenvalues span 1e-9 to 1, where eigvalsh of rho + t d_rho itself is
    # off by up to ~1e-6 relative in the log det, so the reference is exact
    rng = np.random.default_rng(7)
    k, d = 12, 8

    def hermitian():
        z = rng.normal(size=(k, d, d)) + 1j * rng.normal(size=(k, d, d))
        return 0.5 * (z + z.conj().mT)

    lam = np.sort(10.0 ** rng.uniform(-9.0, 0.0, size=(k, d)), axis=-1)
    lam[:, 0], lam[:, -1] = 1e-9, 1.0
    u = np.linalg.qr(hermitian())[0]
    rho = (u * lam[:, None, :]) @ u.conj().mT
    rho = 0.5 * (rho + rho.conj().mT)
    m = hermitian()
    # as the solver steps: eigenbasis of rho, step built in it
    lam_r, u_r = np.linalg.eigh(rho)
    d_rho = u_r @ m @ u_r.conj().mT
    d_rho = 0.5 * (d_rho + d_rho.conj().mT)
    nu = _whitened_eigenvalues(lam_r, m)
    # one record alone gives the bits it gets in the stack
    assert np.array_equal(_whitened_eigenvalues(lam_r[3], m[3]), nu[3])
    for n in range(k):
        j = next(j for j in range(80) if 1.0 + 0.5**j * nu[n, 0] >= _BOUNDARY)
        for t in (0.5**j, 0.5 ** (j + 3)):
            got = np.log1p(t * nu[n]).sum()
            ref = exact_log_det_ratio(lam_r[n], m[n], t)
            assert abs(got - ref) <= 1e-9 * abs(ref), (n, t, got, ref)
            lam_new = np.linalg.eigvalsh(rho[n] + t * d_rho[n])
            assert lam_new[0] > 0.0
            # rho + t d_rho >= _BOUNDARY rho, up to rounding
            assert lam_new[0] >= 0.9 * _BOUNDARY * lam_r[n, 0]
