import itertools
import json
import pathlib

import numpy as np
import pytest

from thermalcluster.graphs import build_graph_state, linear_graph
from thermalcluster.linalg import KETS
from thermalcluster.mbqc import (
    ENABLED_PAIRS,
    PREPARATION_PAIRS,
    average_preparation_fidelity,
    classical_threshold,
    conditional_state,
    haar_average_fidelity,
    preparation_records,
    target_map,
    _haar_operator,
)
from thermalcluster.thermal import p_from_temperature, thermal_state_model

DATA = pathlib.Path(__file__).parent / "data"


def pure_cluster():
    psi = build_graph_state(linear_graph(3))
    return np.outer(psi, psi.conj())


def model(p, alpha=np.pi):
    return thermal_state_model(linear_graph(3), p, alpha)


def test_target_map_matches_golden_table():
    golden = json.loads((DATA / "mbqc_targets.json").read_text())
    tm = target_map()
    assert len(tm) == len(golden) == 32
    for key_txt, label in golden.items():
        bp, bs, op, os_ = key_txt.split(",")
        vec = tm[(bp, bs, int(op), int(os_))]
        overlap = abs(np.vdot(KETS[label], vec))
        assert abs(overlap - 1.0) < 1e-9, (key_txt, label)


def test_excluded_pair_has_impossible_outcomes():
    # (X, Z) on the ideal cluster: two outcome branches never fire, so no
    # target state can be defined there
    rho = pure_cluster()
    probs = [
        conditional_state(rho, "X", "Z", op, os_)[0]
        for op, os_ in itertools.product((0, 1), repeat=2)
    ]
    assert sum(1 for q in probs if q < 1e-12) == 2
    assert ("X", "Z") not in ENABLED_PAIRS


def test_outcome_probabilities_sum_to_one():
    rho = model(0.6, 0.84 * np.pi)
    for bp, bs in ENABLED_PAIRS:
        probs = [
            conditional_state(rho, bp, bs, op, os_)[0]
            for op, os_ in itertools.product((0, 1), repeat=2)
        ]
        assert abs(sum(probs) - 1.0) < 1e-12
        # on the preparation pairs every outcome keeps probability 1/4 on
        # model states, so probability and uniform outcome weights agree there
        if (bp, bs) in PREPARATION_PAIRS:
            assert all(abs(q - 0.25) < 1e-12 for q in probs), (bp, bs, probs)


def test_pure_cluster_prepares_targets_exactly():
    recs = preparation_records(pure_cluster())
    assert len(recs) == 32
    for r in recs:
        assert abs(r.probability - 0.25) < 1e-12
        assert abs(r.fidelity - 1.0) < 1e-12


def test_average_fidelity_endpoints():
    assert abs(average_preparation_fidelity(model(0.0)) - 1.0) < 1e-9
    assert abs(average_preparation_fidelity(model(1.0)) - 0.5) < 1e-9


def test_average_fidelity_monotone_in_p():
    vals = [average_preparation_fidelity(model(p, 0.84 * np.pi)) for p in np.linspace(0, 1, 11)]
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


def test_average_fidelity_matches_preparation_records():
    # Tr(rho W) against the branch-by-branch sum, on states off the model
    rng = np.random.default_rng(4)
    for _ in range(20):
        a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        recs = preparation_records(rho, pairs=PREPARATION_PAIRS)
        direct = sum(r.probability * r.fidelity for r in recs) / len(PREPARATION_PAIRS)
        assert abs(average_preparation_fidelity(rho) - direct) < 1e-15


def test_preparation_set_covers_all_axes():
    golden = json.loads((DATA / "mbqc_targets.json").read_text())
    labels = {
        golden[f"{bp},{bs},{op},{os_}"]
        for bp, bs in PREPARATION_PAIRS
        for op, os_ in itertools.product((0, 1), repeat=2)
    }
    assert labels == {"z0", "z1", "x+", "x-", "y+", "y-"}


def test_classical_threshold():
    assert classical_threshold() == 2.0 / 3.0


def test_haar_average_matches_mub_average():
    # two-design property: the MUB average equals the Haar average, so the
    # Monte Carlo estimate must agree within its own statistical error
    for t in (0.3, 1.0, 2.0):
        rho = model(p_from_temperature(t), 0.84 * np.pi)
        mub = average_preparation_fidelity(rho)
        haar = haar_average_fidelity(rho, 100_000, seed=21)
        assert abs(haar - mub) < 3e-3, (t, haar, mub)


def per_sample_haar_fidelity(rho, n_samples, seed):
    # the estimator sample by sample, from the same draws: each target is
    # the top eigenvector of the pure cluster's conditional state, and each
    # sample adds probability times fidelity of rho's conditional state
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(n_samples, 2)) + 1j * rng.normal(size=(n_samples, 2))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    w = raw @ (np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)).T
    bs_kets = (w.conj(), np.stack([-w[:, 1], w[:, 0]], axis=1))

    def reduced(r, ket_bs, ket_bp):
        t = r.reshape(2, 2, 2, 2, 2, 2)
        m = np.einsum("k,ajkbJK,K->ajbJ", ket_bp.conj(), t, ket_bp)
        return np.einsum("sj,ajbJ,sJ->sab", ket_bs.conj(), m, ket_bs)

    total = np.zeros(n_samples)
    for ket_bs in bs_kets:
        for lab in ("z0", "z1"):
            red = reduced(rho, ket_bs, KETS[lab])
            red0 = reduced(pure_cluster(), ket_bs, KETS[lab])
            vecs = np.linalg.eigh(red0)[1][:, :, -1]
            total += np.einsum("sa,sab,sb->s", vecs.conj(), red, vecs).real
    return total.mean()


def test_haar_average_is_the_per_sample_estimator():
    rng = np.random.default_rng(12)
    a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    off_model = a @ a.conj().T / np.trace(a @ a.conj().T).real
    for rho in (model(p_from_temperature(0.3), 0.84 * np.pi),
                model(p_from_temperature(2.0), 0.84 * np.pi), off_model):
        ref = per_sample_haar_fidelity(rho, 2000, seed=1)
        assert abs(haar_average_fidelity(rho, 2000, seed=1) - ref) < 1e-14
    # the anchors: every sample's target is exact on the pure cluster, and
    # I/8 gives each sample fidelity 1/2
    assert abs(haar_average_fidelity(pure_cluster(), 2000, seed=1) - 1.0) < 1e-12
    assert abs(haar_average_fidelity(np.eye(8) / 8, 2000, seed=1) - 0.5) < 1e-15


def test_haar_average_needs_a_sample():
    with pytest.raises(ValueError, match="sample"):
        haar_average_fidelity(model(0.5), 0, seed=1)


def test_haar_average_deterministic():
    rho = model(0.5)
    a = haar_average_fidelity(rho, 2000, seed=1)
    _haar_operator.cache_clear()  # rebuild W_n from the seed, not the cache
    b = haar_average_fidelity(rho, 2000, seed=1)
    assert a == b
