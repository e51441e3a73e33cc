"""Stacked primitives: item i of a stacked call is the single call on item i.

The sweep and the regime search are built on these stacks, so they also
pin how few calls one sweep and one search make.
"""

import itertools
import warnings

import numpy as np
import pytest

from thermalcluster import entanglement, mbqc, sweep
from thermalcluster.entanglement import (
    BOUND,
    FREE,
    PPT_ALL,
    classify_values,
    negativity,
    transition_points,
)
from thermalcluster.graphs import CHAIN
from thermalcluster.linalg import PositivityError, fidelity
from thermalcluster.mbqc import average_preparation_fidelity
from thermalcluster.sweep import SweepConfig, run_sweep
from thermalcluster.thermal import (
    gibbs_state,
    p_from_temperature,
    temperature_from_p,
    thermal_state_model,
)
from thermalcluster.tomography import _mle_batch, simulate_counts, standard_settings

P_GRID = (0.0, 0.3, 1.0)
T_GRID = (0.0, 1e-20, 0.7, np.inf)
# the regime map's temperature grid
DENSE_T = tuple(0.05 * k for k in range(1, 61))
# the temperature map's edges: T = 0 and inf, e^(-1/T) underflowing to 0
# about T = 1/745, and 1/T overflowing
EDGE_T = (
    0.0, 1e-20, 1 / 1500, np.nextafter(1 / 1500, 0), np.nextafter(1 / 1500, 1), 5e-324, np.inf,
)
EDGE_P = (0.0, 5e-324, 1 - 1e-16, 1.0)


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("a", [0.8, 0.84, 1.0])
def test_stacked_model_state_negativity_and_fidelity(a):
    alpha = a * np.pi
    stack = thermal_state_model(CHAIN, np.array(P_GRID), alpha)
    assert stack.shape == (3, 8, 8) and stack.flags.c_contiguous
    singles = [thermal_state_model(CHAIN, p, alpha) for p in P_GRID]
    assert all(_same_bits(s, r) for s, r in zip(stack, singles))
    for cut in ((0,), (1,), (2,)):
        negs = negativity(stack, cut)
        assert negs.tolist() == [negativity(r, cut) for r in singles]
    ts = [temperature_from_p(p) for p in P_GRID]
    fids = fidelity(stack, gibbs_state(CHAIN, np.array(ts)))
    assert fids.tolist() == [fidelity(r, gibbs_state(CHAIN, t)) for r, t in zip(singles, ts)]
    reverse = thermal_state_model(CHAIN, np.array(P_GRID[::-1]), alpha)
    assert _same_bits(reverse, stack[::-1].copy())


@pytest.mark.parametrize("ts", [T_GRID, DENSE_T])
def test_stacked_gibbs_state(ts):
    stack = gibbs_state(CHAIN, np.array(ts))
    assert stack.shape == (len(ts), 8, 8) and stack.flags.c_contiguous
    assert all(_same_bits(s, gibbs_state(CHAIN, t)) for s, t in zip(stack, ts))
    reverse = gibbs_state(CHAIN, np.array(ts[::-1]))
    assert _same_bits(reverse, stack[::-1].copy())


def test_stacked_temperature_map():
    # one array call gives the single calls' Python floats to the bit, with
    # no warning from the ends of the map
    ts = EDGE_T + DENSE_T
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ps = p_from_temperature(np.array(ts))
        singles = [p_from_temperature(t) for t in ts]
        assert all(type(p) is float for p in singles)
        assert _same_bits(ps, np.array(singles))
        grid = EDGE_P + tuple(singles)
        back = temperature_from_p(np.array(grid))
        singles = [temperature_from_p(p) for p in grid]
        assert all(type(t) is float for t in singles)
        assert _same_bits(back, np.array(singles))
    assert ps[:2].tolist() == [0.0, 0.0] and ps[6] == 1.0
    assert back[0] == 0.0 and back[3] == np.inf


def test_stacked_fidelity_on_the_regime_grid():
    # the rows of a model sweep: 60 states against their Gibbs states
    ps = p_from_temperature(np.array(DENSE_T))
    rhos = thermal_state_model(CHAIN, ps, 0.84 * np.pi)
    sigmas = gibbs_state(CHAIN, np.array(DENSE_T))
    assert fidelity(rhos, sigmas).tolist() == [fidelity(r, s) for r, s in zip(rhos, sigmas)]


def test_classify_values_columns_match_the_rule_row_by_row():
    # every pattern of cuts above their tolerance, with a value at 0, tied
    # with its tolerance or above it, at a global tolerance and at error bars
    rows, tols = [], []
    for tol in ([1e-9] * 3, [0.01, 0.02, 0.03]):
        for levels in itertools.product(range(3), repeat=3):
            rows.append([(0.0, t, 2.0 * t)[k] for k, t in zip(levels, tol)])
            tols.append(tol)
    expected = []
    for negs, tol in zip(rows, tols):
        above = [v > t for v, t in zip(negs, tol)]
        expected.append(FREE if all(above) else BOUND if any(above) else PPT_ALL)
    assert len({tuple(v > t for v, t in zip(*r)) for r in zip(rows, tols)}) == 8
    assert classify_values(np.array(rows), np.array(tols)) == expected
    assert [classify_values(r, t) for r, t in zip(rows, tols)] == expected
    assert classify_values(np.array(rows[-1:]), 1e-9) == [FREE]


def test_stacked_fidelity_raises_when_one_matrix_is_not_positive():
    good = np.eye(4, dtype=complex) / 4
    bad = np.diag([0.5, 0.5, 1e-6, -1e-6]).astype(complex)
    with pytest.raises(PositivityError, match="-1.000e-06"):
        fidelity(bad, good)
    with pytest.raises(PositivityError, match="-1.000e-06"):
        fidelity(np.stack([good, bad, good]), np.stack([good] * 3))
    # on the second argument the product sqrt(rho) sigma sqrt(rho) fails
    with pytest.raises(PositivityError):
        fidelity(good, bad)
    with pytest.raises(PositivityError):
        fidelity(np.stack([good] * 3), np.stack([good, good, bad]))


def _spy(monkeypatch, module, name):
    calls = []
    fn = getattr(module, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return calls


def _sweep_calls(monkeypatch, cfg):
    # the number of calls a sweep makes to each state-building or
    # state-reading function it imports
    counts = {
        name: _spy(monkeypatch, sweep, name)
        for name in (
            "thermal_state_model", "gibbs_state", "negativity", "fidelity",
            "average_preparation_fidelity", "_model_preparation_fidelity",
            "p_from_temperature", "temperature_from_p",
        )
    }
    points = run_sweep(cfg)
    return points, {name: len(c) for name, c in counts.items()}


def test_model_sweep_makes_one_call_per_quantity(monkeypatch):
    # a structural guard that timing on a shared host cannot give: a model
    # sweep builds no state; it takes the negativities, the fidelity against
    # the Gibbs states and the preparation fidelity in closed form, the last
    # in one call, with no model or Gibbs state, partial transpose or
    # eigensolver; the grid is mapped in one call on either kind of grid
    no_states = {
        "thermal_state_model": 0, "gibbs_state": 0, "negativity": 0, "fidelity": 0,
        "average_preparation_fidelity": 0, "_model_preparation_fidelity": 1,
    }
    points, calls = _sweep_calls(monkeypatch, SweepConfig(t_grid=DENSE_T, alpha=0.84 * np.pi))
    assert len(points) == 60
    assert calls == {**no_states, "p_from_temperature": 1, "temperature_from_p": 0}
    monkeypatch.undo()
    points, calls = _sweep_calls(monkeypatch, SweepConfig(p_grid=P_GRID, alpha=0.84 * np.pi))
    assert len(points) == 3
    assert calls == {**no_states, "p_from_temperature": 0, "temperature_from_p": 1}


def test_tomography_sweep_makes_one_call_per_quantity(monkeypatch):
    # reconstructions have no closed form: one batched call per quantity
    # over the stack of reconstructions
    cfg = SweepConfig(
        t_grid=(0.5, 1.8), alpha=0.84 * np.pi,
        tomography_enabled=True, flux=2e3, mc_samples=2, seed=3,
    )
    points, calls = _sweep_calls(monkeypatch, cfg)
    assert len(points) == 2
    assert calls == {
        "thermal_state_model": 1, "gibbs_state": 1, "negativity": 3, "fidelity": 1,
        "average_preparation_fidelity": 1, "_model_preparation_fidelity": 0,
        "p_from_temperature": 1, "temperature_from_p": 0,
    }


def test_stacked_preparation_fidelity():
    # on a model stack and on a reconstructed stack, item i is the single
    # call on item i, a Python float with the bits of Tr(rho W) as vdot
    # takes it
    models = thermal_state_model(CHAIN, p_from_temperature(np.array(DENSE_T)), 0.84 * np.pi)
    recs = [
        simulate_counts(m, standard_settings(3), 2e3, seed=i) for i, m in enumerate(models[::6])
    ]
    rhos = np.stack([res.rho for res in _mle_batch(recs)])
    w = mbqc._preparation_operator()
    for stack in (models, rhos):
        fids = average_preparation_fidelity(stack)
        singles = [average_preparation_fidelity(r) for r in stack]
        assert all(type(f) is float for f in singles)
        assert _same_bits(fids, np.array(singles))
        assert _same_bits(fids, np.array([np.vdot(w, r).real for r in stack]))
    by_rows = average_preparation_fidelity(models.reshape(6, 10, 8, 8))
    assert _same_bits(by_rows, average_preparation_fidelity(models).reshape(6, 10))


def test_transition_points_builds_both_midpoints_in_one_call(monkeypatch):
    # the roots are closed forms at pi carried to the angle, so every call,
    # first or repeated, builds only the states at p = 0 and 1 that check
    # both curves cross there, in one model call
    calls = _spy(monkeypatch, entanglement, "thermal_state_model")
    for tol in (0.02, 1e-9, 0.02):
        calls.clear()
        transition_points(0.84 * np.pi, tol)
        assert len(calls) == 1, tol
