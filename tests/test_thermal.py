import itertools
import warnings

import numpy as np
import pytest

from thermalcluster.graphs import build_graph_state, linear_graph
from thermalcluster.linalg import I2, tensor_all, validate_density_matrix
from thermalcluster.thermal import (
    gibbs_state,
    p_from_temperature,
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
    for t in (-0.1, float("nan")):
        with pytest.raises(ValueError):
            p_from_temperature(t)
    with pytest.raises(ValueError):
        temperature_from_p(1.2)


def test_gibbs_state_domain():
    for t in (-0.1, float("nan")):
        with pytest.raises(ValueError, match="temperature"):
            gibbs_state(linear_graph(3), t)


def test_gibbs_endpoints():
    g = linear_graph(3)
    psi = build_graph_state(g)
    assert np.allclose(gibbs_state(g, 0.0), np.outer(psi, psi.conj()))
    assert np.allclose(gibbs_state(g, np.inf), np.eye(8) / 8)


def test_gibbs_state_below_the_underflow_temperature():
    # e^(-1/T) underflows below T ~ 1/745: the state is the ground projector
    # there, where exponentiating -H/T would overflow
    g = linear_graph(3)
    psi = build_graph_state(g)
    for t in (1e-320, 1e-20, 1e-3):
        assert np.array_equal(gibbs_state(g, t), np.outer(psi, psi.conj()))


def test_gibbs_vs_dephasing_oracle():
    # the two independent constructions must agree for every chain length
    for n in (2, 3, 4):
        g = linear_graph(n)
        worst = 0.0
        for p in np.linspace(0.0, 1.0, 21):
            via_gibbs = gibbs_state(g, temperature_from_p(p))
            via_channel = thermal_state_model(g, p, np.pi)
            worst = max(worst, float(np.abs(via_gibbs - via_channel).max()))
        assert worst < 1e-12, (n, worst)


def kraus_sum(g, p, alpha):
    # sum over the qubit subsets S hit by F(alpha) = diag(1, e^(i alpha)):
    # prod of the weights (p/2 on S, 1 - p/2 off S) times F_S rho F_S^dagger
    psi = build_graph_state(g)
    rho = np.outer(psi, psi.conj())
    f = np.diag([1.0, np.exp(1j * alpha)])
    out = np.zeros_like(rho)
    for hit in itertools.product((False, True), repeat=g.n_vertices):
        weight = np.prod([p / 2.0 if h else 1.0 - p / 2.0 for h in hit])
        big = tensor_all([f if h else I2 for h in hit])
        out += weight * (big @ rho @ big.conj().T)
    return out


def test_model_matches_kraus_sum():
    for n in (2, 3, 4):
        g = linear_graph(n)
        for alpha in (0.3, 0.84 * np.pi):
            for p in np.linspace(0.0, 1.0, 11):
                dev = np.abs(thermal_state_model(g, p, alpha) - kraus_sum(g, p, alpha)).max()
                assert dev < 1e-15, (n, alpha, p, dev)


def test_model_is_valid_state():
    validate_density_matrix(thermal_state_model(linear_graph(3), 0.7, 0.84 * np.pi))


def test_model_rejects_p_outside_unit_interval():
    g = linear_graph(3)
    for p in (-0.1, 1.2, float("nan")):
        with pytest.raises(ValueError):
            thermal_state_model(g, p, np.pi)
    for alpha in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="alpha"):
            thermal_state_model(g, 0.5, alpha)


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
