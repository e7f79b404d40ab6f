import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexdimer import (
    ConvergenceError,
    chi,
    chi_dd,
    li,
    q_func,
    universal_constant,
    universal_constant_detail,
    xi,
    zeta3,
)
from hexdimer import specialfn
from hexdimer.quadrature import adaptive

from _reference import UNIVERSAL_CONSTANT, UNIVERSAL_CONSTANT_HP, ZETA3


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


def test_chi_dd_at_zero():
    assert chi_dd(0.0) == -1.0 / 6.0


def test_chi_dd_matches_finite_differences():
    for z in (0.5, 2.0):
        h = 1e-3
        coarse = (chi(z + h) - 2 * chi(z) + chi(z - h)) / h**2
        fine = (chi(z + h / 2) - 2 * chi(z) + chi(z - h / 2)) / (h / 2) ** 2
        richardson = (4 * fine - coarse) / 3
        assert abs(chi_dd(z) - richardson) < 1e-7


def test_chi_dd_richardson_grid():
    for z in np.linspace(0.1, 10, 34):
        h = 1e-2
        coarse = (chi(z + h) - 2 * chi(z) + chi(z - h)) / h**2
        fine = (chi(z + h / 2) - 2 * chi(z) + chi(z - h / 2)) / (h / 2) ** 2
        richardson = (4 * fine - coarse) / 3
        assert abs(chi_dd(z) - richardson) < 1e-9


def test_chi_dd_even():
    assert chi_dd(1.0) == chi_dd(-1.0)


def test_xi_defining_relation():
    assert xi(0.0) == -1.0 / 6.0
    assert abs(xi(1.0) - math.e * chi_dd(1.0)) < 1e-15
    # removable singularity: no blowup near zero
    v = xi(1e-8)
    assert math.isfinite(v) and abs(v - (-1 / 6)) < 1e-7


def test_q_func_values_and_relation():
    assert q_func(0.0) == -1.0 / 6.0
    for z in (0.5, 3.0):
        assert abs(q_func(z) * z + (-1 / 6) - xi(z)) < 1e-15
    with pytest.raises(ValueError):
        q_func(-1.0)


def test_q_func_derivative_oracle_at_zero():
    # Q(0) = xi'(0); symmetric difference of xi
    h = 1e-4
    fd = (xi(h) - xi(-h)) / (2 * h)
    assert abs(q_func(0.0) - fd) < 1e-8


def test_branch_continuity_at_switch():
    # effective series/closed-form boundary for xi-family is 0.25
    for f in (xi, chi_dd):
        left = f(0.25 - 1e-10)
        right = f(0.25 + 1e-10)
        assert abs(left - right) < 1e-10
    assert abs(q_func(0.25 - 1e-10) - q_func(0.25 + 1e-10)) < 1e-10
    # chi's own Taylor switch
    switch = specialfn._CHI_TAYLOR_SWITCH
    assert abs(chi(switch * (1 - 1e-8)) - chi(switch * (1 + 1e-8))) < 1e-13


def test_li_basic_values():
    assert li(3, 0.0) == 0.0
    assert abs(li(3, 1.0) - ZETA3) < 1e-10
    assert abs(li(1, 0.5) - (-math.log(0.5))) < 1e-12
    assert abs(zeta3() - ZETA3) < 1e-10


def test_li_divergence_and_domain():
    with pytest.raises(ValueError):
        li(1, 1.0)
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


def test_universal_constant_stability(monkeypatch):
    base, err = universal_constant_detail()
    assert base == universal_constant()
    assert err < 1e-10
    # the tail beyond the cut is below 1e-24, so doubling the cut moves nothing
    monkeypatch.setattr(specialfn, "_Z_CUT", 120.0)
    wider, _ = universal_constant_detail()
    assert abs(base - wider) < 1e-12


def test_universal_constant_pinned_to_high_precision():
    # the reported error bound must cover the true error, not just the
    # quadrature estimate: the integrand's roundoff near z = 0.25 dominates
    value, err = universal_constant_detail()
    assert abs(value - UNIVERSAL_CONSTANT_HP) <= err
    assert err < 1e-13


def test_integrand_roundoff_bounds_observed_error():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40

    def exact(z):
        z = mpmath.mpf(z)
        ez, d = mpmath.exp(-z), -mpmath.expm1(-z)
        xi_z = (6 * z * z * ez * ez + (ez - ez * ez) * (6 * z * z - 8 * z)
                + d * d * (z * z - 4 * z + 2)) / d**4
        return ez * (xi_z + mpmath.mpf(1) / 6) / z

    rng = np.random.default_rng(3)
    zs = np.concatenate([rng.uniform(1e-3, 0.25, 100), rng.uniform(0.25, 2.0, 300),
                         rng.uniform(2.0, 60.0, 200)])
    computed = np.exp(-zs) * np.asarray([q_func(z) for z in zs])
    bound = specialfn._integrand_roundoff(zs)
    observed = np.asarray([abs(float(mpmath.mpf(c) - exact(z))) for c, z in zip(computed, zs)])
    assert np.all(observed <= bound)


def test_quadrature_engine_calibration():
    # same engine on e^{-z} * (-1/6) must return -1/6 (+ tail below 1e-13)
    value, _ = adaptive(lambda z: np.exp(-z) * (-1 / 6.0), 0.0, 60.0, rel_tol=1e-13)
    assert abs(value - (-1 / 6.0)) < 1e-13


def test_li_convergence_cap():
    with pytest.raises(ConvergenceError):
        li(2, 0.999999, n_cap=100)


def test_adaptive_quadrature_panel_budget():
    with pytest.raises(ConvergenceError):
        adaptive(lambda z: 1.0 / np.sqrt(np.abs(z) + 1e-300), 0.0, 1.0,
                 rel_tol=1e-14, max_panels=8)
