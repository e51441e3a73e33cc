"""End-to-end acceptance checks for the full pipeline.

Each test prints one PASS/FAIL line with the measured numbers so the run
log doubles as a quality report. Tolerances are part of the contract;
loosening them is not an option.
"""

import time

import numpy as np

from thermalcluster.entanglement import negativity, transition_points
from thermalcluster.graphs import linear_graph, verify_spectrum
from thermalcluster.linalg import fidelity, validate_density_matrix
from thermalcluster.mbqc import average_preparation_fidelity, classical_threshold
from thermalcluster.sweep import SweepConfig, emit, run_sweep
from thermalcluster.thermal import (
    gibbs_state,
    p_from_temperature,
    temperature_from_p,
    thermal_state_model,
)
from thermalcluster.tomography import (
    mle_reconstruct,
    monte_carlo_statistic,
    simulate_counts,
    standard_settings,
)

ALPHA_EXP = 0.84 * np.pi


def report(num, name, ok, detail=""):
    line = f"[acceptance {num}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_thermal_equivalence():
    t_start = time.time()
    worst = 0.0
    for n in (2, 3, 4):
        g = linear_graph(n)
        for p in np.linspace(0.0, 1.0, 101):
            via_gibbs = gibbs_state(g, temperature_from_p(p))
            via_channel = thermal_state_model(g, p, np.pi)
            worst = max(worst, float(np.abs(via_gibbs - via_channel).max()))
    elapsed = time.time() - t_start
    report(
        1, "Gibbs vs dephasing equivalence (n=2,3,4 x 101 p)",
        worst <= 1e-10 and elapsed < 10.0,
        f"max discrepancy {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_level_structure():
    rep = verify_spectrum(linear_graph(3), gap=1.0)
    levels_ok = np.allclose(rep.levels, (-1.5, -0.5, 0.5, 1.5), atol=1e-10)
    mult_ok = rep.multiplicities == (1, 3, 3, 1)
    gap_ok = abs(rep.gap - 1.0) <= 1e-10
    ok = levels_ok and mult_ok and rep.ground_unique and gap_ok
    report(
        2, "three-qubit chain spectrum",
        ok,
        f"levels {tuple(round(x, 12) for x in rep.levels)}, "
        f"multiplicities {rep.multiplicities}, unique ground {rep.ground_unique}",
    )


def test_criterion_3_regime_ordering_ideal():
    tp = transition_points(np.pi)
    ordering_ok = tp.t_free_to_bound < tp.t_bound_to_ppt
    pins_ok = (
        abs(tp.p_free_to_bound - 0.585786436213) < 1e-6
        and abs(tp.p_bound_to_ppt - 0.704402255402) < 1e-6
        and abs(tp.t_free_to_bound - 1.134592652711) < 1e-6
        and abs(tp.t_bound_to_ppt - 1.641017917676) < 1e-6
    )
    g = linear_graph(3)
    sym_worst = max(
        abs(
            negativity(thermal_state_model(g, p, np.pi), (0,))
            - negativity(thermal_state_model(g, p, np.pi), (2,))
        )
        for p in np.linspace(0.0, 1.0, 21)
    )
    report(
        3, "end cuts vanish before the middle cut (ideal channel)",
        ordering_ok and pins_ok and sym_worst <= 1e-10,
        f"T*_end={tp.t_free_to_bound:.6f} < T*_mid={tp.t_bound_to_ppt:.6f}, "
        f"end-cut asymmetry {sym_worst:.1e}",
    )


def test_criterion_4_bound_window_location():
    # positivity of all negativities is resolved at machine tolerance; the
    # middle-cut disappearance is a statement at the 0.02 error-bar scale
    t_end = transition_points(ALPHA_EXP, tol=1e-9).t_free_to_bound
    t_mid = transition_points(ALPHA_EXP, tol=0.02).t_bound_to_ppt
    windows_ok = 1.4 <= t_end <= 1.6 and 1.8 <= t_mid <= 2.1
    pins_ok = abs(t_end - 1.403119952246) < 1e-6 and abs(t_mid - 2.099797195981) < 1e-6
    rho_18 = thermal_state_model(linear_graph(3), p_from_temperature(1.8), ALPHA_EXP)
    n_mid_18 = negativity(rho_18, (1,))
    value_ok = 0.01 <= n_mid_18 <= 0.07
    report(
        4, "bound window location (alpha = 0.84 pi)",
        windows_ok and pins_ok and value_ok,
        f"T*_end={t_end:.4f} in [1.4,1.6], T*_mid={t_mid:.4f} in [1.8,2.1], "
        f"N_mid(1.8)={n_mid_18:.4f} in [0.01,0.07]",
    )


def test_criterion_5_benchmark_crossing():
    g = linear_graph(3)

    def margin(t):
        rho = thermal_state_model(g, p_from_temperature(t), np.pi)
        return average_preparation_fidelity(rho) - classical_threshold()

    lo, hi = 0.5, 2.0
    assert margin(lo) > 0 > margin(hi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if margin(mid) > 0:
            lo = mid
        else:
            hi = mid
    crossing = 0.5 * (lo + hi)
    f0 = average_preparation_fidelity(thermal_state_model(g, 0.0, np.pi))
    f_inf = average_preparation_fidelity(thermal_state_model(g, 1.0, np.pi))
    crossing_ok = 1.0 <= crossing <= 1.2
    endpoints_ok = abs(f0 - 1.0) <= 1e-9 and abs(f_inf - 0.5) <= 1e-9
    report(
        5, "preparation fidelity crosses 2/3",
        crossing_ok and endpoints_ok,
        f"crossing T/Delta={crossing:.6f} in [1.0,1.2], F(0)={f0:.12f}, F(inf)={f_inf:.12f}",
    )


def test_criterion_6_tomography_round_trip():
    t_start = time.time()
    g = linear_graph(3)
    rho = thermal_state_model(g, p_from_temperature(1.0), ALPHA_EXP)
    settings = standard_settings(3)
    hits = 0
    worst = 1.0
    for trial in range(100):
        rec = simulate_counts(rho, settings, 1e6, seed=1000 + trial)
        res = mle_reconstruct(rec)
        validate_density_matrix(res.rho)
        f = fidelity(res.rho, rho)
        worst = min(worst, f)
        hits += f >= 0.999
    elapsed = time.time() - t_start
    report(
        6, "tomography round trip at flux 1e6",
        hits >= 95 and elapsed < 120.0,
        f"{hits}/100 trials with F >= 0.999, worst F={worst:.6f}, {elapsed:.1f}s",
    )


def test_criterion_7_monte_carlo_error_bars():
    g = linear_graph(3)
    rho = thermal_state_model(g, p_from_temperature(1.0), ALPHA_EXP)
    settings = standard_settings(3)
    stat = lambda r: negativity(r, (1,))

    # error-bar size at the count scales the detectors actually deliver
    stds = {}
    scales = {}
    for flux in (2e3, 5e3):
        rec = simulate_counts(rho, settings, flux, seed=50)
        stds[flux] = monte_carlo_statistic(rec, stat, 40, seed=60)[1]
        means = rec.counts
        scales[flux] = (means.min(), means.mean(), means.max())
    window_ok = all(0.01 <= s <= 0.04 for s in stds.values())

    # scaling across three flux decades
    sigmas = []
    fluxes = (1e4, 1e5, 1e6)
    for flux in fluxes:
        rec = simulate_counts(rho, settings, flux, seed=70)
        sigmas.append(monte_carlo_statistic(rec, stat, 40, seed=80)[1])
    slope = np.polyfit(np.log10(fluxes), np.log10(sigmas), 1)[0]
    slope_ok = -0.6 <= slope <= -0.4
    report(
        7, "error-bar size and 1/sqrt(flux) scaling",
        window_ok and slope_ok,
        f"std(flux=2e3)={stds[2e3]:.4f}, std(flux=5e3)={stds[5e3]:.4f} "
        f"(counts/setting {scales[2e3][0]:.0f}-{scales[2e3][2]:.0f} and "
        f"{scales[5e3][0]:.0f}-{scales[5e3][2]:.0f}), log-log slope {slope:.3f}",
    )


def test_criterion_8_reconstruction_quality_floor():
    g = linear_graph(3)
    rho = thermal_state_model(g, p_from_temperature(1.0), ALPHA_EXP)
    settings = standard_settings(3)
    fids = []
    for trial in range(20):
        rec = simulate_counts(rho, settings, 1e4, seed=300 + trial)
        fids.append(fidelity(mle_reconstruct(rec).rho, rho))
    report(
        8, "reconstruction fidelity floor at lab-scale flux",
        min(fids) >= 0.93,
        f"min F={min(fids):.4f}, mean F={np.mean(fids):.4f} over 20 trials at flux 1e4",
    )


def test_criterion_9_determinism():
    g = linear_graph(3)
    rho = thermal_state_model(g, 0.5, ALPHA_EXP)
    settings = standard_settings(3)
    counts_same = (
        simulate_counts(rho, settings, 1e3, seed=9).to_text()
        == simulate_counts(rho, settings, 1e3, seed=9).to_text()
    )
    rec = simulate_counts(rho, settings, 2e3, seed=9)
    stat = lambda r: negativity(r, (1,))
    mc_same = (
        monte_carlo_statistic(rec, stat, 5, seed=4)
        == monte_carlo_statistic(rec, stat, 5, seed=4)
    )
    cfg = SweepConfig(
        t_grid=(0.7, 1.9), alpha=ALPHA_EXP,
        tomography_enabled=True, flux=1e3, mc_samples=4, seed=17,
    )
    prov = {"config_hash": cfg.config_hash(), "seed": cfg.seed}
    sweep_same = (
        emit(run_sweep(cfg), "csv", provenance=prov)
        == emit(run_sweep(cfg), "csv", provenance=prov)
    )
    report(
        9, "seeded pipelines are byte-identical",
        counts_same and mc_same and sweep_same,
        f"counts {counts_same}, monte carlo {mc_same}, sweep table {sweep_same}",
    )
