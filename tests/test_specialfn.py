import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexdimer import (
    ConvergenceError,
    chi,
    li,
    q_func,
    universal_constant,
    universal_constant_detail,
    zeta3,
)
from hexdimer import quadrature, specialfn
from hexdimer.quadrature import adaptive

from _reference import UNIVERSAL_CONSTANT, UNIVERSAL_CONSTANT_HP, ZETA3, reference_chi, same_bits


def test_chi_at_zero_and_small_argument():
    assert chi(0.0) == 1.0
    # Taylor values through z^4
    assert abs(chi(0.01) - (1 - 0.01**2 / 12 + 0.01**4 / 240)) < 1e-10


def test_chi_even_on_grid():
    for z in np.linspace(-10, 10, 81):
        assert abs(chi(z) - chi(-z)) < 1e-12


@given(st.floats(min_value=-10, max_value=10, allow_nan=False))
def test_chi_even_property(z):
    assert abs(chi(z) - chi(-z)) < 1e-12


def test_chi_matches_sinh_identity():
    # chi(z) = ((z/2)/sinh(z/2))^2, an independent closed form
    for z in (0.1, 1.0, 5.0, 17.3):
        ref = ((z / 2) / math.sinh(z / 2)) ** 2
        assert abs(chi(z) - ref) < 1e-14 * ref + 1e-300


def test_chi_taylor_remainder_is_order_z6():
    # remainder bounded by C z^6 (true coefficient 1/6048 ~ 1.65e-4) plus
    # float roundoff on the evaluated difference
    for z in np.linspace(1e-3, 0.5, 400):
        diff = abs(chi(z) - (1 - z**2 / 12 + z**4 / 240))
        assert diff <= 3e-4 * z**6 + 5e-16


# 0, both sides of the Taylor switch 1e-3, the tiniest and largest useful
# arguments, and negative z
SWITCH = 1e-3
CHI_POINTS = [0.0, -0.0, 1e-300, -1e-300, 5e-4, math.nextafter(SWITCH, 0.0), SWITCH,
              math.nextafter(SWITCH, 1.0), -SWITCH, 2e-3, 0.5, -3.0, 700.0, -700.0]


def test_chi_float_in_float_out():
    assert specialfn._CHI_TAYLOR_SWITCH == SWITCH
    for z in CHI_POINTS + [0, np.float64(2.0), np.array(2.0)]:
        assert type(chi(z)) is float


def test_chi_array_keeps_shape_and_matches_scalar_calls():
    z = np.array(CHI_POINTS[:12]).reshape(3, 4)
    got = chi(z)
    assert isinstance(got, np.ndarray) and got.shape == (3, 4)
    assert all(same_bits(g, chi(v)) for g, v in zip(got.ravel().tolist(), z.ravel().tolist()))
    row = chi(np.array(CHI_POINTS))
    assert row.shape == (len(CHI_POINTS),)
    assert all(same_bits(g, chi(v)) for g, v in zip(row.tolist(), CHI_POINTS))
    assert chi(np.array([])).shape == (0,)


def test_chi_taylor_branch_is_the_term_by_term_sum():
    # below the switch each value is the fsum of the Taylor series, as before
    # chi took arrays; above it np.exp and np.expm1 may move it by a few ulp
    small = [p for p in CHI_POINTS if abs(p) < SWITCH]
    assert all(same_bits(g, reference_chi(v)) for g, v in zip(chi(np.array(small)).tolist(), small))
    large = [p for p in CHI_POINTS if abs(p) >= SWITCH]
    assert all(abs(g - reference_chi(v)) <= 4 * math.ulp(reference_chi(v))
               for g, v in zip(chi(np.array(large)).tolist(), large))


def _mp_chi(z):
    """chi at the working precision of mpmath, with chi(0) = 1."""
    import mpmath
    return ((z / 2) / mpmath.sinh(z / 2)) ** 2 if z else mpmath.mpf(1)


def _mp_xi(z):
    """xi(z) = e^z chi''(z), chi'' by mpmath.diff."""
    import mpmath
    return mpmath.exp(z) * mpmath.diff(_mp_chi, z, 2)


# both sides of the series switch at 1.0, and the closed form's interior
Q_POINTS = [0.1, 0.25, 0.5, math.nextafter(1.0, 0.0), 1.0, 1.006, 1.5, 2.5, 3.0]


def test_q_func_values_and_relation():
    # Q(z) = (xi(z) - xi(0))/z with xi built from chi alone, at 40 digits.
    # Measured at 1,600 points each: the series within 6.0e-17 on [1e-3, 1),
    # the closed form within 3.4e-15 on [1, 3), largest at 1.006; gated at
    # about twice that
    mpmath = pytest.importorskip("mpmath")
    assert q_func(0.0) == -1.0 / 6.0
    with mpmath.workdps(40):
        for z in Q_POINTS:
            ref = (_mp_xi(mpmath.mpf(z)) + mpmath.mpf(1) / 6) / z
            tol = 1.2e-16 if z < specialfn._XI_SERIES_FLOOR else 7e-15
            assert abs(q_func(z) - ref) <= tol, z
    with pytest.raises(ValueError):
        q_func(-1.0)


def test_q_func_derivative_oracle_at_zero():
    # Q(0) = xi'(0), the derivative of the 40-digit xi, rounded once
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        assert q_func(0.0) == float(mpmath.diff(_mp_xi, 0))


def test_branch_continuity_at_switch():
    # the Q series/closed-form boundary
    switch = specialfn._XI_SERIES_FLOOR
    assert abs(q_func(switch - 1e-10) - q_func(switch + 1e-10)) < 1e-10
    # chi's own Taylor switch
    switch = specialfn._CHI_TAYLOR_SWITCH
    assert abs(chi(switch * (1 - 1e-8)) - chi(switch * (1 + 1e-8))) < 1e-13


def test_li_basic_values():
    assert li(3, 0.0) == 0.0
    assert abs(li(1, 0.5) - (-math.log(0.5))) < 1e-12
    assert li(1, 0.5) == -math.log1p(-0.5)
    assert abs(zeta3() - ZETA3) < 1e-10


def test_zeta3_is_the_nearest_double():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        assert same_bits(zeta3(), float(mpmath.zeta(3)))


def test_li3_matches_mpmath_on_the_closed_forms_arguments():
    # Li_3(e^-x) for sides and side sums x from 1e-16 to 40: the expansion in
    # x below x = 0.25, the series in z, stopped on its tail bound, above.
    # The worst error measured on these points is 0.72 ulp (43 ulp at x = 1e-3
    # when the series stopped on its last term alone)
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for x in np.geomspace(1e-16, 40.0, 101).tolist():
            z = math.exp(-x)
            ref = mpmath.polylog(3, z)
            assert abs(li(3, z) - ref) <= math.ulp(float(ref)), x


@pytest.mark.parametrize("s", [1, 2])
def test_li1_and_li2_match_mpmath_from_1e16_to_40(monkeypatch, s):
    # Li_1 is -log1p(-z); Li_2(e^-x) below x = 0.25 is its expansion in x, the
    # series in z above, which near z = 1 would need about 1/x terms.  The
    # worst errors measured on 1001 points from x = 1e-16 to 40 are 0.64 ulp
    # (Li_1) and 0.81 ulp (Li_2)
    mpmath = pytest.importorskip("mpmath")
    monkeypatch.setattr(specialfn, "_LI_N_MAX", 20000)
    with mpmath.workdps(40):
        for x in np.geomspace(1e-16, 40.0, 101).tolist():
            z = math.exp(-x)
            ref = mpmath.polylog(s, z)
            assert abs(li(s, z) - ref) <= math.ulp(float(ref)), x


def test_li_near_one_needs_no_long_series(monkeypatch):
    # the series in z would need about 1/x terms; Li_3 takes its expansion in
    # x there, and s >= 4 stops on the bound term * z * n / (s - 1)
    mpmath = pytest.importorskip("mpmath")
    monkeypatch.setattr(specialfn, "_LI_N_MAX", 20000)
    with mpmath.workdps(40):
        for s, x in ((1, 1e-7), (2, 1e-7), (3, 1e-7), (3, 1e-3), (4, 1e-3), (5, 1e-7)):
            z = math.exp(-x)
            assert abs(li(s, z) - mpmath.polylog(s, z)) <= 2 * math.ulp(li(s, z)), (s, x)


def test_li_divergence_and_domain():
    # the closed forms take Li_3(1) as zeta3(); z = 1 is outside the series
    for s in range(1, 6):
        with pytest.raises(ValueError):
            li(s, 1.0)
    with pytest.raises(ValueError):
        li(3, 1.5)
    with pytest.raises(ValueError):
        li(0, 0.5)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=5),
       st.floats(min_value=0.05, max_value=0.95),
       st.floats(min_value=0.01, max_value=0.04))
def test_li_monotonicity_properties(s, z, dz):
    assert li(s, z + dz) > li(s, z)
    assert li(s, z) <= li(s - 1, z) + 1e-15


def test_universal_constant_reference_value():
    value = universal_constant()
    assert abs(value - UNIVERSAL_CONSTANT) < 5e-6


def test_universal_constant_is_the_closed_form():
    # I_Q = 1/4 + 2 zeta'(-1) = 5/12 - 2 ln A, rounded once to the nearest double
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        closed = mpmath.mpf(1) / 4 + 2 * mpmath.zeta(-1, derivative=1)
        glaisher = mpmath.mpf(5) / 12 - 2 * mpmath.log(mpmath.glaisher)
        assert abs(closed - glaisher) < mpmath.mpf(10) ** -45
        assert float(closed) == universal_constant()
    value, err = universal_constant_detail()
    assert value == universal_constant() and err == math.ulp(value) / 2


def test_quadrature_of_q_matches_the_closed_form():
    # the defining integral in floats: ties Q itself to the constant
    value, _ = adaptive(lambda z: np.exp(-z) * np.asarray([q_func(t) for t in z]),
                        0.0, 60.0, rel_tol=1e-12)
    assert abs(value - universal_constant()) < 1e-13


def test_universal_constant_pinned_to_high_precision():
    # the reported error bound must cover the distance to a 30-digit value
    value, err = universal_constant_detail()
    assert abs(value - UNIVERSAL_CONSTANT_HP) <= err
    assert err < 1e-13


def test_quadrature_engine_calibration():
    # same engine on e^{-z} * (-1/6) must return -1/6 (+ tail below 1e-13)
    value, _ = adaptive(lambda z: np.exp(-z) * (-1 / 6.0), 0.0, 60.0, rel_tol=1e-13)
    assert abs(value - (-1 / 6.0)) < 1e-13


def test_li_convergence_cap(monkeypatch):
    # Li_2 near z = 1 now takes its expansion in x; Li_4 still sums the series.
    # partial is the exact sum of the 1000 terms, which a plain running sum
    # misses by 2 ulp here
    monkeypatch.setattr(specialfn, "_LI_N_MAX", 1000)
    with pytest.raises(ConvergenceError) as err:
        li(4, 0.999999)
    terms = [math.exp(n * math.log(0.999999)) / n**4 for n in range(1, 1001)]
    assert same_bits(err.value.partial, math.fsum(terms))
    assert same_bits(err.value.achieved, terms[-1])


def test_adaptive_quadrature_panel_budget(monkeypatch):
    monkeypatch.setattr(quadrature, "_MAX_PANELS", 8)
    with pytest.raises(ConvergenceError):
        adaptive(lambda z: 1.0 / np.sqrt(np.abs(z) + 1e-300), 0.0, 1.0, rel_tol=1e-14)
