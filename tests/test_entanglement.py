import numpy as np
import pytest

from thermalcluster.entanglement import (
    BOUND,
    FREE,
    PPT_ALL,
    BracketingError,
    TransitionPoints,
    classify,
    classify_values,
    negativity,
    transition_points,
)
from thermalcluster.graphs import CHAIN, linear_graph
from thermalcluster.linalg import ConfigError
from thermalcluster.thermal import temperature_from_p, thermal_state_model


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
    # frozen after first derivation; the bisection is deterministic
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
    # one curve at a time, 80 halvings: plain bisection, whose every bit
    # transition_points keeps
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


# at tol 0.1 the two roots lie on either side of p = 1/2, so the two
# curves run out of representable midpoints in different rounds; at tol 0
# and 0.3 regula falsi mispredicts the most bisection steps
@pytest.mark.parametrize("tol", [0.0, 0.02, 1e-3, 1e-9, 0.1, 0.3])
@pytest.mark.parametrize("a", [0.8, 0.84, 0.9, 1.0])
def test_transition_points_match_sequential_bisection(a, tol):
    # the predicted-path search, its early stop and its per-curve cap give
    # every field to the bit; where the reference finds no bracket, it
    # fails the same way
    try:
        ref = _sequential_transition_points(a * np.pi, tol)
    except BracketingError as err:
        with pytest.raises(BracketingError) as got:
            transition_points(a * np.pi, tol)
        assert str(got.value) == str(err)
        return
    got = transition_points(a * np.pi, tol)
    assert got == ref
    assert [float(v).hex() for v in vars(got).values()] == [
        float(v).hex() for v in vars(ref).values()
    ]


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
