import itertools
import math
from math import fsum

import numpy as np
import pytest

from hexdimer import (
    BoxShape,
    ConstantPhi,
    ConvergenceError,
    CosinePhi,
    INFINITE,
    Scenario,
    ScaledShape,
    free_energy_value,
    grid_samples,
    log_z_infinite,
    log_z_macmahon,
    log_z_sliced,
    oracle_partition,
    series_free_energy,
)
from hexdimer.enumeration import config_count
from hexdimer import partition
from hexdimer.partition import sliced_log_weight_exponents
from hexdimer.weights import PhiFunction, TabulatedPhi


def test_macmahon_small_boxes():
    assert abs(log_z_macmahon(BoxShape(1, 1, 1), 0.5) - math.log(1.5)) < 1e-15
    assert abs(log_z_macmahon(BoxShape(1, 1, 2), 0.5) - math.log(1.75)) < 1e-15


def test_macmahon_matches_enumeration():
    shape = BoxShape(3, 3, 3)
    assert abs(log_z_macmahon(shape, 0.7) - math.log(oracle_partition(shape, 0.7))) < 1e-10


def test_macmahon_symmetric_in_sides():
    vals = [log_z_macmahon(BoxShape(*perm), 0.6) for perm in itertools.permutations((2, 3, 4))]
    assert max(vals) - min(vals) < 1e-12 * max(map(abs, vals))


def test_macmahon_q_domain():
    for bad in (0.0, -0.5, 1.5, float("nan")):
        with pytest.raises(ValueError):
            log_z_macmahon(BoxShape(2, 2, 2), bad)
    with pytest.raises(ValueError):
        log_z_macmahon(BoxShape(2, 2, INFINITE), 0.5)
    with pytest.raises(ValueError):
        log_z_infinite(BoxShape(2, 2, INFINITE), 1.0)  # infinitely many configurations


def test_macmahon_q1_is_log_of_exact_count():
    # the q -> 1 limit of each grouped factor is (t-1)/(t-2)
    for sides in itertools.product((1, 2, 5, 12), repeat=3):
        shape = BoxShape(*sides)
        exact = math.log(config_count(shape))
        assert abs(log_z_macmahon(shape, 1.0) - exact) <= 4e-16 * exact
    shape = BoxShape(3, 3, 3)
    assert abs(log_z_macmahon(shape, 1.0) - math.log(oracle_partition(shape, 1.0))) < 1e-12
    assert abs(log_z_macmahon(BoxShape(4, 4, 8), 1.0) - math.log(184225041)) < 1e-14


def test_infinite_height_values():
    assert abs(log_z_infinite(BoxShape(1, 1, INFINITE), 0.5) - math.log(2.0)) < 1e-15
    expected = -math.log(1 - 0.3) - math.log(1 - 0.09)
    assert abs(log_z_infinite(BoxShape(1, 2, INFINITE), 0.3) - expected) < 1e-15
    with pytest.raises(ValueError):
        log_z_infinite(BoxShape(2, 2, 3), 0.5)


def test_macmahon_converges_to_infinite_height():
    q = 0.5
    inf_val = log_z_infinite(BoxShape(2, 2, INFINITE), q)
    prev_gap = None
    for k in (5, 10, 20, 200):
        gap = abs(log_z_macmahon(BoxShape(2, 2, k), q) - inf_val)
        if prev_gap is not None:
            assert gap <= prev_gap
        prev_gap = gap
    assert prev_gap < 1e-12


def test_macmahon_monotone_in_k():
    q = 0.6
    vals = [log_z_macmahon(BoxShape(2, 3, k), q) for k in range(1, 12)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_sliced_constant_phi_reduces_to_uniform():
    for (m, n) in ((2, 3), (4, 4)):
        eps = 0.25
        lhs = log_z_sliced(m, n, ConstantPhi(1.0), eps)
        rhs = log_z_infinite(BoxShape(m, n, INFINITE), math.exp(-eps))
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))


def test_sliced_single_box():
    # m = n = 1: one factor with exponent eps*phi(b-a) = eps*phi(0)
    eps = 0.2
    phi = CosinePhi()
    expected = -math.log1p(-math.exp(-eps * float(phi(0.0))))
    assert abs(log_z_sliced(1, 1, phi, eps) - expected) < 1e-15


def test_sliced_bit_identical_to_naive_double_loop():
    m, n, eps = 20, 60, 1.0 / 20  # a=1, b=3 at 1/eps = 20
    phi = CosinePhi()
    fast = log_z_sliced(m, n, phi, eps)
    # naive: recompute each slice-weight sum from scratch per cell (same
    # left-to-right order), then identical ufuncs and summation
    d = n - m
    exponents = np.empty((n, m))
    for i in range(n):
        for j in range(m):
            acc_minus = 0.0
            for kk in range(1, i + 1):
                acc_minus += float(phi((d - kk) * eps))
            acc_plus = 0.0
            for ll in range(1, j + 1):
                acc_plus += float(phi((d + ll) * eps))
            exponents[i, j] = eps * (float(phi(d * eps)) + (acc_minus + acc_plus))
    naive = -fsum(np.log1p(-np.exp(-exponents)).ravel())
    assert naive == fast


class CountingPhi(PhiFunction):
    """Delegates to a profile and counts the kernel's calls; check_positive is not counted."""

    def __init__(self, base):
        self.base = base
        self.id = base.id
        self.calls = 0

    def __call__(self, t):
        self.calls += 1
        return self.base(t)

    def check_positive(self, lo, hi, samples=2001):
        self.base.check_positive(lo, hi, samples)


def reference_sliced_f(a, b, phi, t):
    """Free energy at 1/eps = t from scalar prefix-sum loops and math.fsum."""
    eps = 1.0 / t
    box = ScaledShape(a, b, INFINITE, eps).box()
    m, n = box.m, box.n
    d = n - m
    c_minus, acc = [0.0] * n, 0.0
    for i in range(1, n):
        acc += float(phi((d - i) * eps))
        c_minus[i] = acc
    c_plus, acc = [0.0] * m, 0.0
    for j in range(1, m):
        acc += float(phi((d + j) * eps))
        c_plus[j] = acc
    exponents = eps * (float(phi(d * eps)) + (np.asarray(c_minus)[:, None] + np.asarray(c_plus)[None, :]))
    return -fsum(np.log1p(-np.exp(-exponents)).ravel()) / (m * n)


@pytest.mark.parametrize("profile", ["cosine", "tabulated"])
def test_sliced_grid_bit_identical_to_scalar_reference(profile):
    a, b = 1.0, 3.0
    if profile == "cosine":
        base = CosinePhi()
    else:
        t = np.linspace(-a - 0.5, b + 0.5, 321)
        base = TabulatedPhi(t, 1.0 + 0.08 * np.cos(t + 1.0) - 0.05 * np.cos(2.0 * t + 2.0))
    phi = CountingPhi(base)
    samples = grid_samples(Scenario("sliced", a, b, phi=phi), 2, 200)
    assert phi.calls <= 3 * len(samples)  # a scalar prefix loop makes m + n - 1 per point
    by_t = {s.inv_eps: s.f for s in samples}
    for t in (2, 3, 17, 64, 200):
        assert by_t[t] == reference_sliced_f(a, b, base, t)


def test_sliced_rejects_nonpositive_weights():
    from hexdimer import LinearPhi

    with pytest.raises(ValueError):
        log_z_sliced(4, 4, LinearPhi(0.1, -1.0), 0.25)  # phi < 0 inside the domain


def test_sliced_rejects_range_outside_table():
    # a = 1, b = 3 at 1/eps = 8 evaluates phi on [-7/8, 23/8]; the table covers [0, 1]
    t = np.linspace(0.0, 1.0, 11)
    phi = TabulatedPhi(t, np.ones_like(t))
    with pytest.raises(ValueError, match="tabulated range"):
        log_z_sliced(8, 24, phi, 1.0 / 8)
    assert log_z_sliced(1, 1, phi, 1.0 / 8) > 0  # the single slice t = 0 is covered


def test_sliced_exponent_matrix_shape():
    e = sliced_log_weight_exponents(3, 5, ConstantPhi(2.0), 0.5)
    assert e.shape == (5, 3)
    assert abs(e[0, 0] - 0.5 * 2.0) < 1e-15


def test_free_energy_unit_box_value():
    f = Scenario("finite", 1.0, 1.0, 1.0).free_energy(1.0)
    assert abs(f - (-math.log(1 + math.exp(-1.0)) / 6.0)) < 1e-15


def test_free_energy_sign_conventions():
    # finite boxes are negative, infinite-height (and sliced) positive
    assert free_energy_value(BoxShape(10, 10, 10), math.exp(-0.1)) < 0
    assert free_energy_value(BoxShape(10, 10, INFINITE), math.exp(-0.1)) > 0
    assert Scenario("sliced", 1.0, 1.0, phi=ConstantPhi(1.0)).free_energy(0.1) > 0
    assert Scenario("finite", 1.0, 1.0, 1.0).convention == "f = -ln(Z)/V"
    for kind, phi in (("infinite", None), ("sliced", ConstantPhi(1.0))):
        assert Scenario(kind, 1.0, 1.0, phi=phi).convention == "f = +ln(Z)/V"


def test_dual_evaluators_finite():
    for (a, b, c) in ((1.0, 1.0, 1.0), (3.0, 2.0, 1.0)):
        for t in (10, 50):
            scaled = ScaledShape(a, b, c, 1.0 / t)
            exact = free_energy_value(scaled.box(), math.exp(-scaled.eps))
            series = series_free_energy(scaled)
            assert abs(exact - series) < 1e-12


def test_dual_evaluators_infinite():
    for (a, b) in ((1.0, 1.0), (2.0, 1.0)):
        scaled = ScaledShape(a, b, INFINITE, 0.1)
        exact = free_energy_value(scaled.box(), math.exp(-scaled.eps))
        series = series_free_energy(scaled)
        assert abs(exact - series) < 1e-12


def test_series_follows_shape():
    # the height c picks the three-factor finite series or the two-factor one
    tall = series_free_energy(ScaledShape(1.0, 1.0, 40.0, 0.1))
    infinite = series_free_energy(ScaledShape(1.0, 1.0, INFINITE, 0.1))
    assert tall < 0 < infinite


def test_series_partial_sums_monotone(monkeypatch):
    # every term is positive, so looser tolerances give smaller magnitudes
    scaled = ScaledShape(1.0, 1.0, INFINITE, 0.1)
    tight = series_free_energy(scaled)
    monkeypatch.setattr(partition, "_SERIES_TERM_TOL", 1e-6)
    loose = series_free_energy(scaled)
    assert 0 < loose <= tight


def test_series_cap_raises(monkeypatch):
    monkeypatch.setattr(partition, "_SERIES_N_MAX", 10)
    scaled = ScaledShape(1.0, 1.0, 1.0, 0.01)
    with pytest.raises(ConvergenceError) as err:
        series_free_energy(scaled)
    assert err.value.partial is not None


def test_free_energy_scaled_sliced_sample():
    f = Scenario("sliced", 1.0, 3.0, phi=ConstantPhi(1.0)).free_energy(0.25)
    assert f == log_z_sliced(4, 12, ConstantPhi(1.0), 0.25) / 48


def test_grid_samples_shape():
    scenario = Scenario("infinite", 2.0, 1.0)
    samples = grid_samples(scenario, 2, 12)
    assert [s.inv_eps for s in samples] == list(range(2, 13))
    assert all(s.eps == 1.0 / s.inv_eps and s.f == scenario.free_energy(s.eps) for s in samples)
    for lo, hi in ((12, 2), (0, 5)):
        with pytest.raises(ValueError):
            grid_samples(scenario, lo, hi)


@pytest.mark.parametrize("kind,a,b,c,phi,match", [
    ("bogus", 1.0, 1.0, INFINITE, None, "unknown scenario"),
    ("infinite", math.inf, 1.0, INFINITE, None, "side a"),
    ("infinite", 1.0, -1.0, INFINITE, None, "side b"),
    ("finite", 1.0, 1.0, INFINITE, None, "side c"),
    ("finite", 1.0, 1.0, math.nan, None, "side c"),
    ("infinite", 1.0, 1.0, 2.0, None, "infinite height"),
    ("sliced", 1.0, 1.0, 2.0, CosinePhi(), "infinite height"),
    ("sliced", 1.0, 3.0, INFINITE, None, "needs a phi"),
    ("infinite", 1.0, 1.0, INFINITE, CosinePhi(), "takes no phi"),
    ("finite", 1.0, 1.0, 1.0, CosinePhi(), "takes no phi"),
])
def test_scenario_validation(kind, a, b, c, phi, match):
    with pytest.raises(ValueError, match=match):
        Scenario(kind, a, b, c, phi)


def test_scenario_checks_phi_on_the_box():
    from hexdimer import LinearPhi

    with pytest.raises(ValueError, match="strictly positive"):
        Scenario("sliced", 1.0, 3.0, phi=LinearPhi(1.0, -0.5))  # phi(3) < 0
    t = np.linspace(0.0, 1.0, 11)
    with pytest.raises(ValueError, match="tabulated range"):
        Scenario("sliced", 1.0, 3.0, phi=TabulatedPhi(t, np.ones_like(t)))


def test_scenario_coefficients_dispatch():
    from hexdimer import coeffs_finite, coeffs_infinite, coeffs_sliced

    assert Scenario("finite", 3.0, 2.0, 1.0).coefficients() == coeffs_finite(3.0, 2.0, 1.0)
    assert Scenario("infinite", 2.0, 1.0).coefficients() == coeffs_infinite(2.0, 1.0)
    phi = ConstantPhi(1.0)
    assert Scenario("sliced", 1.0, 1.0, phi=phi).coefficients() == coeffs_sliced(1.0, 1.0, phi)


def test_macmahon_gap_bounded_by_qk():
    # convergence to the infinite-height value is geometric in k
    q = 0.5
    inf_val = log_z_infinite(BoxShape(2, 2, INFINITE), q)
    gap5 = abs(log_z_macmahon(BoxShape(2, 2, 5), q) - inf_val)
    gap10 = abs(log_z_macmahon(BoxShape(2, 2, 10), q) - inf_val)
    assert gap10 <= 5.0 * gap5 * q**5
