import math

import numpy as np
import pytest

from thermalcluster.graphs import (
    Graph,
    build_graph_state,
    format_graph,
    linear_graph,
    parent_hamiltonian,
    parse_graph,
    verify_spectrum,
)


def test_graph_normalizes_edges():
    g = Graph(3, edges=frozenset({(1, 0), (2, 1)}))
    assert g == linear_graph(3)
    assert g.neighbors(1) == [0, 2]
    assert g.neighbors(0) == [1]


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(3, edges=frozenset({(0, 0)}))
    with pytest.raises(ValueError):
        Graph(3, edges=frozenset({(0, 3)}))


def test_linear_graph():
    g = linear_graph(4)
    assert g.n_vertices == 4
    assert g.edges == frozenset({(0, 1), (1, 2), (2, 3)})
    with pytest.raises(ValueError):
        linear_graph(1)


def test_parse_format_round_trip():
    for text in ("3; 0-1,1-2", "2;", "5; 0-4,1-2"):
        g = parse_graph(text)
        assert parse_graph(format_graph(g)) == g
    assert parse_graph("3; 1-0, 2-1") == linear_graph(3)


def test_parse_graph_errors():
    for text in ("", "3; 0-0", "3; 0-3", "x; 0-1", "3; 0"):
        with pytest.raises(ValueError):
            parse_graph(text)


def test_graph_state_two_qubits():
    # CZ |++> = (|00> + |01> + |10> - |11>) / 2
    psi = build_graph_state(linear_graph(2))
    assert np.allclose(psi, np.array([1, 1, 1, -1]) / 2)


def test_graph_state_three_chain_closed_form():
    # (|+0+> + |-1->) / sqrt(2) with qubit order (A_p, B_s, B_p)
    plus = np.array([1, 1]) / np.sqrt(2)
    minus = np.array([1, -1]) / np.sqrt(2)
    z0 = np.array([1.0, 0.0])
    z1 = np.array([0.0, 1.0])
    expect = (
        np.kron(plus, np.kron(z0, plus)) + np.kron(minus, np.kron(z1, minus))
    ) / np.sqrt(2)
    psi = build_graph_state(linear_graph(3))
    assert np.allclose(psi, expect)


def test_graph_state_is_stabilized():
    from thermalcluster.graphs import _stabilizer_term

    for g in (linear_graph(2), linear_graph(3), linear_graph(4)):
        psi = build_graph_state(g)
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-12
        for i in range(g.n_vertices):
            assert np.allclose(_stabilizer_term(g, i) @ psi, psi)


def excited_state(g, mu):
    # Z^mu_q on each qubit q of the graph state: the vector with the
    # stabilizers in mu violated
    n = g.n_vertices
    bits = (np.arange(2**n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    return build_graph_state(g) * (-1.0) ** (bits @ np.asarray(mu))


def test_excited_states_orthonormal_eigenbasis():
    g = linear_graph(3)
    h = parent_hamiltonian(g, gap=1.0)
    states = {}
    for idx in range(8):
        mu = tuple((idx >> (2 - q)) & 1 for q in range(3))
        states[mu] = excited_state(g, mu)
    vecs = np.array([states[mu] for mu in sorted(states)])
    assert np.allclose(vecs @ vecs.conj().T, np.eye(8), atol=1e-12)
    for mu, v in states.items():
        energy = -0.5 * (3 - 2 * sum(mu))
        assert np.allclose(h @ v, energy * v, atol=1e-12)


def test_parent_hamiltonian_scaling():
    g = linear_graph(3)
    assert np.allclose(parent_hamiltonian(g, gap=2.0), 2 * parent_hamiltonian(g, gap=1.0))
    h = parent_hamiltonian(g)
    assert np.allclose(h, h.conj().T)


def test_verify_spectrum_chains():
    for n in (2, 3, 4):
        rep = verify_spectrum(linear_graph(n), gap=1.0)
        assert rep.ground_unique
        assert rep.gap_matches
        assert rep.multiplicities_binomial
        assert rep.multiplicities == tuple(math.comb(n, k) for k in range(n + 1))
        expect = tuple(-0.5 * (n - 2 * k) for k in range(n + 1))
        assert np.allclose(rep.levels, expect, atol=1e-10)
        assert abs(rep.gap - 1.0) < 1e-10


def test_verify_spectrum_any_graph():
    # the level structure depends only on N, not the edge set
    triangle = Graph(3, edges=frozenset({(0, 1), (1, 2), (0, 2)}))
    rep = verify_spectrum(triangle, gap=0.7)
    assert rep.ground_unique and rep.gap_matches and rep.multiplicities_binomial
    assert abs(rep.gap - 0.7) < 1e-10

