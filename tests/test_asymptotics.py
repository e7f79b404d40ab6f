import math
from math import exp, fsum, log

import numpy as np
import pytest

from hexdimer import (
    BoxShape,
    CONVENTION_FINITE,
    CONVENTION_POSITIVE,
    ConstantPhi,
    CosinePhi,
    ExpansionCoefficients,
    LinearPhi,
    ScaledShape,
    coeffs_finite,
    coeffs_infinite,
    coeffs_sliced,
    free_energy_value,
    li,
    log_ratio_three,
    log_ratio_two,
    predict_free_energy,
    sliced_f0,
    sliced_f3,
    zeta3,
)

from _reference import TABLE1


def test_finite_f0_symmetric_cube():
    c = coeffs_finite(1.0, 1.0, 1.0)
    expected = (3 * li(3, exp(-1.0)) - 3 * li(3, exp(-2.0)) + li(3, exp(-3.0)) - zeta3()) / 6.0
    assert abs(c.f0 - expected) < 1e-15
    assert c.f1 == 0.0
    assert c.convention == CONVENTION_FINITE


def test_finite_f0_permutation_symmetric():
    import itertools

    vals = [coeffs_finite(*perm).f0 for perm in itertools.permutations((1.0, 2.0, 3.0))]
    assert max(vals) - min(vals) < 1e-12 * max(abs(v) for v in vals)


def test_finite_to_infinite_bracket_limit():
    # with c -> inf the Li3 terms carrying c vanish; compare the brackets:
    # 2s * f0_finite -> -(ab * f0_infinite)
    for (a, b) in ((1.0, 2.0), (2.0, 3.0)):
        c = 40.0
        s = a * b + b * c + a * c
        lhs = 2 * s * coeffs_finite(a, b, c).f0
        rhs = -a * b * coeffs_infinite(a, b).f0
        assert abs(lhs - rhs) < 1e-15


def test_infinite_coefficients():
    c = coeffs_infinite(1.0, 1.0)
    expected_f0 = zeta3() + li(3, exp(-2.0)) - 2 * li(3, exp(-1.0))
    assert abs(c.f0 - expected_f0) < 1e-15
    assert c.f1 == 0.0
    assert c.convention == CONVENTION_POSITIVE
    for (a, b) in ((1.0, 1.0), (2.0, 1.0), (1.0, 3.0)):
        assert 12 * a * b * coeffs_infinite(a, b).f2 == pytest.approx(1.0, abs=1e-15)


def test_finite_f2_sign_and_value():
    c = coeffs_finite(1.0, 1.0, 1.0)
    assert c.f2 == pytest.approx(-1.0 / 72.0, abs=1e-18)


def test_log_series_identity():
    # sum (H_n - 1)/n equals the closed-form log combination
    a, b, c = 1.0, 2.0, 3.0
    terms = []
    for n in range(1, 400):
        h = (-math.expm1(-n * a)) * (-math.expm1(-n * b)) * (-math.expm1(-n * c))
        terms.append((h - 1.0) / n)
    series = fsum(terms)
    assert abs(series - log_ratio_three(a, b, c)) < 1e-10
    # two-factor version
    terms2 = []
    for n in range(1, 400):
        h = (-math.expm1(-n * a)) * (-math.expm1(-n * b))
        terms2.append((h - 1.0) / n)
    assert abs(fsum(terms2) - log_ratio_two(a, b)) < 1e-10


def test_predictor_basics():
    c = ExpansionCoefficients(1.0, 0.0, 0.0, 0.0, scenario="finite")
    assert predict_free_energy(c, 0.5) == 1.0
    cf = coeffs_finite(1.0, 1.0, 1.0)
    assert abs(predict_free_energy(cf, 1e-9) - cf.f0) < 1e-12
    with pytest.raises(ValueError):
        predict_free_energy(c, 0.0)
    with pytest.raises(ValueError):
        predict_free_energy(c, 1.5)


def test_predictor_residual_scales_like_eps4():
    cf = coeffs_finite(1.0, 1.0, 1.0)
    resid = {}
    for t in (20, 50, 100):
        scaled = ScaledShape(1.0, 1.0, 1.0, 1.0 / t)
        exact = free_energy_value(scaled.box(), exp(-scaled.eps))
        resid[t] = abs(exact - predict_free_energy(cf, scaled.eps))
    assert resid[100] < 10.0 * (1.0 / 100) ** 4
    xs = [log(1.0 / t) for t in resid]
    ys = [log(r) for r in resid.values()]
    slope = np.polyfit(xs, ys, 1)[0]
    assert abs(slope - 4.0) < 0.3


def test_predictor_residual_ratio_bounded():
    # |exact - prediction| / eps^4 stays bounded over 1/eps in [50, 200]
    cf = coeffs_finite(1.0, 1.0, 1.0)
    ratios = []
    for t in range(50, 201, 10):
        eps = 1.0 / t
        exact = free_energy_value(BoxShape(t, t, t), exp(-eps))
        ratios.append(abs(exact - predict_free_energy(cf, eps)) / eps**4)
    assert max(ratios) / min(ratios) < 3.0


def test_constant_phi_reduction():
    for (a, b) in ((1.0, 3.0), (2.0, 3.0)):
        sliced = coeffs_sliced(a, b, ConstantPhi(1.0))
        infinite = coeffs_infinite(a, b)
        assert abs(sliced.f0 - infinite.f0) < 1e-10
        assert sliced.f1 == infinite.f1 == 0.0
        assert abs(sliced.f2 - infinite.f2) < 1e-12
        assert abs(sliced.f3 - infinite.f3) < 5e-4
        assert sliced.convention == CONVENTION_POSITIVE


def test_sliced_scaled_constant_reduction():
    # phi == const c reduces to the uniform case at rescaled rates
    a, b, c = 2.0, 3.0, 1.7
    sliced = coeffs_sliced(a, b, ConstantPhi(c))
    # f0: the exact reduction is li3-based with rates scaled by c
    expected_f0 = (zeta3() - li(3, exp(-a * c)) - li(3, exp(-b * c))
                   + li(3, exp(-(a + b) * c))) / (a * b * c * c)
    assert abs(sliced.f0 - expected_f0) < 1e-10


@pytest.mark.parametrize("phi,a,b", [
    (CosinePhi(), 1.0, 3.0),
    (CosinePhi(), 2.0, 3.0),
    (LinearPhi(1.0, 0.5), 1.0, 3.0),
    (LinearPhi(2.0, 0.5), 2.0, 3.0),
])
def test_sliced_against_reference_table(phi, a, b):
    f0_ref, _, _, _, f3_ref, _ = TABLE1[(phi.id, int(a), int(b))]
    coeffs = coeffs_sliced(a, b, phi)
    assert abs(coeffs.f0 - f0_ref) < 5e-8
    assert coeffs.f1 == 0.0
    assert 12 * a * b * coeffs.f2 == pytest.approx(1.0, abs=1e-15)
    assert abs(coeffs.f3 - f3_ref) < 2e-5
    assert coeffs.fd_noise is not None and coeffs.fd_noise < 1e-3 * abs(coeffs.f3)


# Table 1 analytic values (repr) as computed with quadrature nodes built
# separately for each n; the shared panels must stay within the tolerances
# below.  Columns: (phi, a, b, f0, f3, fd_noise)
TABLE1_ANALYTIC_PINNED = [
    (CosinePhi(), 1.0, 3.0, 0.47220669610174465, -0.04388943749866839, 6.535121027782054e-08),
    (CosinePhi(), 2.0, 3.0, 0.23592246763123817, -0.030398296766542966, 9.032917848934239e-09),
    (LinearPhi(1.0, 0.5), 1.0, 3.0, 0.09728859658058127, -0.03368911724350389, 9.998068551348669e-09),
    (LinearPhi(2.0, 0.5), 2.0, 3.0, 0.032804447483357924, -0.015094329785916048, 3.328279720735915e-09),
]


@pytest.mark.parametrize("phi,a,b,f0_pin,f3_pin,noise_pin", TABLE1_ANALYTIC_PINNED)
def test_sliced_table1_analytic_pinned(phi, a, b, f0_pin, f3_pin, noise_pin):
    assert abs(sliced_f0(a, b, phi) - f0_pin) <= 1e-13 * abs(f0_pin)
    f3, noise = sliced_f3(a, b, phi)
    assert abs(f3 - f3_pin) <= 1e-11
    assert abs(noise - noise_pin) <= 1e-12


class CountingCosinePhi(CosinePhi):
    """CosinePhi that counts every point at which it is evaluated."""

    def __init__(self):
        self.points = 0

    def _seen(self, t):
        self.points += int(np.size(t))
        return t

    def __call__(self, t):
        return super().__call__(self._seen(t))

    def d1(self, t):
        return super().d1(self._seen(t))

    def d2(self, t):
        return super().d2(self._seen(t))

    def antiderivative(self, t):
        return super().antiderivative(self._seen(t))


def test_sliced_f3_work_count():
    # the series nodes are shared by every n; nodes built per n would
    # evaluate phi at ~3e8 points here
    phi = CountingCosinePhi()
    sliced_f3(1.0, 3.0, phi)
    assert 0 < phi.points <= 2_000_000


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_nonfinite_sides_rejected(bad):
    for args in ((bad, 1.0, 1.0), (1.0, bad, 1.0), (1.0, 1.0, bad)):
        with pytest.raises(ValueError, match="finite"):
            coeffs_finite(*args)
    for args in ((bad, 1.0), (1.0, bad)):
        with pytest.raises(ValueError, match="finite"):
            coeffs_infinite(*args)
        with pytest.raises(ValueError, match="finite"):
            coeffs_sliced(*args, CosinePhi())
