import warnings

import numpy as np
import pytest

from thermalcluster.graphs import build_graph_state, linear_graph
from thermalcluster.linalg import I2, Z, validate_density_matrix
from thermalcluster.thermal import (
    Channel,
    TemperaturePoint,
    apply_channels,
    dephasing_channel,
    gibbs_state,
    p_from_temperature,
    phase_gate_channel,
    temperature_from_p,
    thermal_state_model,
)


def test_temperature_map_endpoints():
    assert p_from_temperature(0.0) == 0.0
    assert p_from_temperature(np.inf) == 1.0
    assert temperature_from_p(0.0) == 0.0
    assert temperature_from_p(1.0) == np.inf


def test_temperature_map_small_temperature_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert p_from_temperature(1e-3) == 0.0
        assert p_from_temperature(5e-324) == 0.0


def test_temperature_map_round_trip():
    for p in np.linspace(0.0, 1.0, 101):
        assert abs(p_from_temperature(temperature_from_p(p)) - p) < 1e-12
    for t in np.linspace(0.01, 10.0, 50):
        assert abs(temperature_from_p(p_from_temperature(t)) - t) < 1e-9


def test_temperature_map_monotone():
    ts = np.linspace(0.0, 5.0, 60)
    ps = [p_from_temperature(t) for t in ts]
    assert all(b > a for a, b in zip(ps, ps[1:]))


def test_temperature_map_domain():
    with pytest.raises(ValueError):
        p_from_temperature(-0.1)
    with pytest.raises(ValueError):
        temperature_from_p(1.2)


def test_temperature_point_constructors():
    tp = TemperaturePoint.from_p(0.5)
    assert abs(tp.t_over_delta - temperature_from_p(0.5)) < 1e-15
    tp2 = TemperaturePoint.from_temperature(tp.t_over_delta)
    assert abs(tp2.p - 0.5) < 1e-12


def test_channel_weight_validation():
    with pytest.raises(ValueError):
        Channel(kraus_ops=((0.6, I2), (0.6, Z)), target_qubit=0)
    with pytest.raises(ValueError):
        Channel(kraus_ops=((1.2, I2), (-0.2, Z)), target_qubit=0)


def test_phase_gate_reduces_to_dephasing_at_pi():
    ch_pi = phase_gate_channel(0.3, np.pi, 1)
    ch_z = dephasing_channel(0.3, 1)
    for (w1, u1), (w2, u2) in zip(ch_pi.kraus_ops, ch_z.kraus_ops):
        assert abs(w1 - w2) < 1e-15
        assert np.allclose(u1, u2)


def test_gibbs_endpoints():
    g = linear_graph(3)
    psi = build_graph_state(g)
    assert np.allclose(gibbs_state(g, 1.0, 0.0), np.outer(psi, psi.conj()))
    assert np.allclose(gibbs_state(g, 1.0, np.inf), np.eye(8) / 8)


def test_gibbs_depends_on_ratio_only():
    g = linear_graph(2)
    assert np.allclose(gibbs_state(g, 1.0, 0.8), gibbs_state(g, 2.5, 0.8))


def test_gibbs_vs_dephasing_oracle():
    # the two independent constructions must agree for every chain length
    for n in (2, 3, 4):
        g = linear_graph(n)
        worst = 0.0
        for p in np.linspace(0.0, 1.0, 21):
            via_gibbs = gibbs_state(g, 1.0, temperature_from_p(p))
            via_channel = thermal_state_model(g, p, np.pi)
            worst = max(worst, float(np.abs(via_gibbs - via_channel).max()))
        assert worst < 1e-12, (n, worst)


def test_apply_channels_preserves_state_validity():
    g = linear_graph(3)
    psi = build_graph_state(g)
    rho = np.outer(psi, psi.conj())
    out = apply_channels(rho, [phase_gate_channel(0.7, 0.84 * np.pi, q) for q in range(3)])
    validate_density_matrix(out)


def test_apply_channels_qubit_range():
    rho = np.eye(4, dtype=complex) / 4
    with pytest.raises(ValueError):
        apply_channels(rho, [dephasing_channel(0.5, 2)])


def test_model_alpha_zero_is_identity_channel():
    g = linear_graph(3)
    psi = build_graph_state(g)
    pure = np.outer(psi, psi.conj())
    assert np.allclose(thermal_state_model(g, 0.9, 0.0), pure)


def test_model_p_zero_is_pure_cluster():
    g = linear_graph(3)
    psi = build_graph_state(g)
    assert np.allclose(thermal_state_model(g, 0.0, 0.84 * np.pi), np.outer(psi, psi.conj()))


def test_model_p_one_alpha_pi_is_maximally_mixed():
    g = linear_graph(2)
    assert np.allclose(thermal_state_model(g, 1.0, np.pi), np.eye(4) / 4)


def test_model_diagonal_is_alpha_independent():
    # the channel only rotates coherences; populations match the Gibbs ones
    g = linear_graph(3)
    a = thermal_state_model(g, 0.6, np.pi)
    b = thermal_state_model(g, 0.6, 0.84 * np.pi)
    assert np.allclose(np.diag(a), np.diag(b))
    assert not np.allclose(a, b)
