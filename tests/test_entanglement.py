import math
import pathlib
from fractions import Fraction

import numpy as np
import pytest

from thermalcluster.entanglement import (
    BOUND,
    FREE,
    PPT_ALL,
    BracketingError,
    TransitionPoints,
    _chain_negativities,
    classify,
    classify_values,
    negativity,
    transition_points,
)
from thermalcluster.graphs import CHAIN, linear_graph
from thermalcluster.linalg import ConfigError
from thermalcluster.thermal import p_from_temperature, temperature_from_p, thermal_state_model

DATA = pathlib.Path(__file__).parent / "data"


def bell_state():
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1 / np.sqrt(2)
    return np.outer(v, v.conj())


def test_negativity_bell():
    assert abs(negativity(bell_state(), (0,)) - 0.5) < 1e-12


def test_negativity_product_state():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(2, 2))
    a = a @ a.T
    a /= np.trace(a)
    rho = np.kron(a, a).astype(complex)
    assert negativity(rho, (0,)) == 0.0


def test_negativity_ghz_cut():
    v = np.zeros(8, dtype=complex)
    v[0] = v[7] = 1 / np.sqrt(2)
    rho = np.outer(v, v.conj())
    for cut in ((0,), (1,), (2,)):
        assert abs(negativity(rho, cut) - 0.5) < 1e-12


def test_negativity_side_complement_symmetry():
    # N(A|B) = N(B|A): transposing the complement conjugates the matrix
    rho = thermal_state_model(linear_graph(3), 0.4, 0.84 * np.pi)
    assert abs(negativity(rho, (0,)) - negativity(rho, (1, 2))) < 1e-12


def test_classify_values_patterns():
    tol = [1e-9] * 3
    assert classify_values([0.0, 0.0, 0.0], tol) == PPT_ALL
    assert classify_values([0.0, 0.0, 0.1], tol) == BOUND
    assert classify_values([0.1, 0.0, 0.0], tol) == BOUND
    assert classify_values([0.1, 0.1, 0.1], tol) == FREE
    # values inside the tolerance count as zero
    assert classify_values([0.005, 0.001, 0.2], [0.01, 0.01, 0.01]) == BOUND


def test_classify_model_regimes():
    g = linear_graph(3)
    rep = classify(thermal_state_model(g, 0.3, np.pi))
    assert rep.klass == FREE
    rep = classify(thermal_state_model(g, 0.65, np.pi))
    assert rep.klass == BOUND
    rep = classify(thermal_state_model(g, 0.9, np.pi))
    assert rep.klass == PPT_ALL
    assert set(rep.negativities) == {(0,), (1,), (2,)}


def test_classify_other_sizes_have_no_class():
    # the regimes are those of the 3-qubit chain: a 2-qubit or a 4-qubit
    # state gets no report and no class
    for bad in (bell_state(), np.eye(16) / 16):
        with pytest.raises(ConfigError, match=r"^expected an 8x8 density matrix, got shape"):
            classify(bad)


def test_classify_rejects_a_dimension_that_is_not_a_power_of_2():
    # a dimension that is not a power of 2, a non-square matrix and a stack
    # of 8x8 matrices are all refused by the one 8x8 shape check
    for bad in (np.eye(6) / 6, np.ones((8, 4)) / 8, np.ones((2, 8, 8)) / 8):
        with pytest.raises(ConfigError, match=r"^expected an 8x8 density matrix, got shape"):
            classify(bad)


def test_end_qubit_symmetry():
    g = linear_graph(3)
    for p in np.linspace(0.0, 1.0, 21):
        rho = thermal_state_model(g, p, 0.84 * np.pi)
        assert abs(negativity(rho, (0,)) - negativity(rho, (2,))) < 1e-10


def test_transition_points_ideal_regression():
    # frozen after first derivation; the roots are closed forms
    tp = transition_points(np.pi)
    assert abs(tp.p_free_to_bound - 0.585786436213) < 1e-6
    assert abs(tp.p_bound_to_ppt - 0.704402255402) < 1e-6
    assert abs(tp.t_free_to_bound - 1.134592652711) < 1e-6
    assert abs(tp.t_bound_to_ppt - 1.641017917676) < 1e-6
    assert tp.t_free_to_bound < tp.t_bound_to_ppt


def test_transition_points_consistent_with_temperature_map():
    tp = transition_points(np.pi)
    assert abs(temperature_from_p(tp.p_free_to_bound) - tp.t_free_to_bound) < 1e-9


def test_transition_points_experiment_angle_regression():
    tp = transition_points(0.84 * np.pi)
    assert abs(tp.t_free_to_bound - 1.403119952246) < 1e-6
    # at the error-bar tolerance of the measurements the middle-cut
    # negativity becomes unresolvable much earlier than at machine zero
    tp_err = transition_points(0.84 * np.pi, tol=0.02)
    assert abs(tp_err.t_bound_to_ppt - 2.099797195981) < 1e-6
    assert tp_err.t_bound_to_ppt < tp.t_bound_to_ppt


def test_transition_points_require_bracketing():
    # alpha = 0 leaves the state pure at every p: nothing ever vanishes
    with pytest.raises(BracketingError):
        transition_points(0.0)
    with pytest.raises(ValueError, match="alpha"):
        transition_points(float("nan"))


def _bisect_decreasing(f):
    # one curve at a time, 80 halvings: plain bisection, the oracle the
    # closed-form roots are compared with
    lo, hi = 0.0, 1.0
    flo, fhi = f(lo), f(hi)
    if flo <= 0 or fhi > 0:
        raise BracketingError(
            f"no sign change on [{lo}, {hi}]: f(lo)={flo:.3e}, f(hi)={fhi:.3e}"
        )
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _sequential_transition_points(alpha, tol):
    def end_neg(p):
        rho = thermal_state_model(CHAIN, p, alpha)
        return min(negativity(rho, (0,)), negativity(rho, (2,)))

    def mid_neg(p):
        return negativity(thermal_state_model(CHAIN, p, alpha), (1,))

    p_end = _bisect_decreasing(lambda p: end_neg(p) - tol)
    p_mid = _bisect_decreasing(lambda p: mid_neg(p) - tol)
    return TransitionPoints(
        p_end, p_mid, temperature_from_p(p_end), temperature_from_p(p_mid)
    )


@pytest.mark.parametrize("tol", [0.0, 0.02, 1e-3, 1e-9, 0.1, 0.3])
@pytest.mark.parametrize("a", [0.8, 0.84, 0.9, 1.0])
def test_transition_points_match_sequential_bisection(a, tol):
    # every root lies within 1e-14 of sequential bisection at its angle. At
    # tol = 0 bisection ends where rounding noise in a negativity clamped
    # to 0 decides, so there the reference is its tol = 1e-15 root. Where
    # the reference finds no bracket, transition_points fails the same way
    alpha = a * np.pi
    try:
        ref = _sequential_transition_points(alpha, tol)
    except BracketingError as err:
        with pytest.raises(BracketingError) as got:
            transition_points(alpha, tol)
        assert str(got.value) == str(err)
        return
    got = transition_points(alpha, tol)
    if tol == 0.0:
        ref = _sequential_transition_points(alpha, 1e-15)
    assert abs(got.p_free_to_bound - ref.p_free_to_bound) <= 1e-14
    assert abs(got.p_bound_to_ppt - ref.p_bound_to_ppt) <= 1e-14


def _end_curve(p):
    # min(N_Ap, N_Bp) at alpha = pi before the clamp at 0
    return (p * p - 4 * p + 2) / 4


def _mid_curve(p):
    # N_Bs at alpha = pi before the clamp at 0
    return (4 - 8 * p + 4 * p * p - p * p * p) / 8


def test_pi_curves_are_the_closed_form_polynomials():
    ps = np.linspace(0.0, 1.0, 101)
    rho = thermal_state_model(CHAIN, ps, np.pi)
    curves = {(0,): _end_curve, (1,): _mid_curve, (2,): _end_curve}
    for cut, curve in curves.items():
        assert np.abs(negativity(rho, cut) - np.maximum(0.0, curve(ps))).max() <= 1e-15, cut


def _steps(x, n):
    # n ulps above x (below for n < 0)
    for _ in range(abs(n)):
        x = math.nextafter(x, math.copysign(math.inf, n))
    return x


@pytest.mark.parametrize("tol", [1e-15, 1e-12, 1e-9, 1e-6, *(round(0.01 * k, 2) for k in range(50))])
def test_pi_roots_lie_within_3_ulps_of_the_exact_sign_change(tol):
    # each curve minus tol, evaluated exactly in rationals, is positive 3
    # ulps below its root and not positive 3 ulps above it
    tp = transition_points(math.pi, tol)
    exact_tol = Fraction(tol)
    for root, curve in ((tp.p_free_to_bound, _end_curve), (tp.p_bound_to_ppt, _mid_curve)):
        assert curve(Fraction(_steps(root, -3))) > exact_tol, (tol, root)
        assert curve(Fraction(_steps(root, 3))) <= exact_tol, (tol, root)


def test_pi_free_to_bound_temperature_at_tol_0_is_one_over_asinh_1():
    # p = 2 - sqrt(2), so (2 - p) / p = 1 + sqrt(2) and T = 1 / ln(1 + sqrt(2))
    t = transition_points(math.pi, tol=0.0).t_free_to_bound
    assert abs(t - 1.0 / math.asinh(1.0)) <= 2 * math.ulp(t)


def test_phase_gate_channel_is_dephasing_up_to_local_phase_gates():
    # the channel multiplies each coherence |0><1| by c = |c| e^(i phi): the
    # state is the alpha = pi one at 1 - |c| conjugated by
    # diag(1, e^(-i phi)) on every qubit, so no negativity moves
    ps = np.linspace(0.0, 1.0, 21)
    weight = np.array([bin(i).count("1") for i in range(8)])
    for a in np.linspace(0.5, 1.0, 11):
        alpha = a * np.pi
        c = (1.0 - ps / 2.0) + (ps / 2.0) * np.exp(-1j * alpha)
        rho = thermal_state_model(CHAIN, ps, alpha)
        rho_pi = thermal_state_model(CHAIN, 1.0 - np.abs(c), np.pi)
        d = np.exp(-1j * np.angle(c)[:, None] * weight)
        assert np.abs(rho - d[:, :, None] * rho_pi * d[:, None, :].conj()).max() <= 1e-15
        for cut in ((0,), (1,), (2,)):
            assert np.abs(negativity(rho, cut) - negativity(rho_pi, cut)).max() <= 1e-14, (a, cut)


# the sweep's cuts, in the order of its columns neg_Ap, neg_Bp, neg_Bs
SWEEP_CUTS = ((0,), (2,), (1,))
ORACLE_T = (0.0, 1e-3, *np.linspace(0.1, 4.0, 40).tolist(), 10.0, math.inf)


@pytest.mark.parametrize("a", [-1.0, -0.84, 0.0, 0.3, 0.84, 1.0, 1.3, 2.0])
def test_chain_negativities_match_the_partial_transposes(a):
    # the closed form the sweep rows take, against the eigenvalues of the
    # partial transposes of the model states
    alpha = a * math.pi
    ps = np.array([p_from_temperature(t) for t in ORACLE_T])
    negs = _chain_negativities(ps, alpha)
    assert negs.shape == (len(ps), 3)
    rho = thermal_state_model(CHAIN, ps, alpha)
    for k, cut in enumerate(SWEEP_CUTS):
        assert np.abs(negs[:, k] - negativity(rho, cut)).max() <= 2e-15, cut


def test_chain_negativities_at_the_ends_of_the_sweep():
    for a in (-1.0, -0.84, 0.0, 0.3, 0.84, 1.0, 1.3, 2.0):
        assert _chain_negativities(np.array([0.0]), a * math.pi).tolist() == [[0.5] * 3], a
    # where both curves cross, every cut is PPT at T = inf
    for a in (-1.0, -0.84, 0.84, 1.0):
        assert _chain_negativities(np.array([1.0]), a * math.pi).tolist() == [[0.0] * 3], a


@pytest.mark.parametrize("a", [0.84, 0.9, 1.0])
def test_chain_negativities_meet_tol_at_the_transition_points(a):
    # the roots are the inverse map of the same curves
    tp = transition_points(a * math.pi, tol=0.02)
    negs = _chain_negativities(np.array([tp.p_free_to_bound, tp.p_bound_to_ppt]), a * math.pi)
    assert abs(negs[0, 0] - 0.02) <= 1e-14 and abs(negs[1, 2] - 0.02) <= 1e-14


def _transition_golden_text():
    # every field's repr at the regime map's slices and tolerances; a slice
    # where a curve does not cross reads BracketingError
    lines = ["alpha_over_pi,tol,p_free_to_bound,p_bound_to_ppt,t_free_to_bound,t_bound_to_ppt"]
    for tol in (0.02, 1e-9):
        for a in (round(0.80 + 0.02 * k, 2) for k in range(11)):
            try:
                tp = transition_points(a * math.pi, tol)
            except BracketingError:
                cells = ["BracketingError"] * 4
            else:
                cells = [repr(v) for v in vars(tp).values()]
            lines.append(",".join([repr(a), repr(tol), *cells]))
    return "\n".join(lines) + "\n"


def test_golden_transition_points_regression():
    # the text is regenerated in full and compared byte for byte
    assert _transition_golden_text() == (DATA / "transition_golden.csv").read_text()


def test_transition_points_report_the_curve_that_fails_to_bracket():
    # at 0.8 pi the end curve brackets a root at tol 1e-9 but the middle one
    # does not: N_Bs stays at 0.0065 at p = 1
    with pytest.raises(BracketingError, match=r"f\(hi\)=6\.506e-03$"):
        transition_points(0.8 * np.pi, 1e-9)
    with pytest.raises(BracketingError, match=r"f\(hi\)=5\.000e-01$"):
        transition_points(0.0, 1e-9)


def test_transition_points_reject_nan_and_negative_tol():
    for tol in (float("nan"), -1e-9):
        with pytest.raises(ValueError, match="tol"):
            transition_points(np.pi, tol=tol)


def test_negativity_monotone_on_ideal_curve():
    g = linear_graph(3)
    ps = np.linspace(0.0, 1.0, 21)
    negs = [negativity(thermal_state_model(g, p, np.pi), (1,)) for p in ps]
    assert all(a >= b - 1e-12 for a, b in zip(negs, negs[1:]))
