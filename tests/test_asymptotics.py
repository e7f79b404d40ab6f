import math
from math import exp, fsum, log

import numpy as np
import pytest

from hexdimer import (
    BoxShape,
    ConstantPhi,
    ConvergenceError,
    CosinePhi,
    ExpansionCoefficients,
    LinearPhi,
    Scenario,
    TabulatedPhi,
    coeffs_finite,
    coeffs_infinite,
    coeffs_sliced,
    free_energy_value,
    li,
    phi_from_id,
    predict_free_energy,
    sliced_f0,
    sliced_f3,
    zeta3,
)
from hexdimer import asymptotics, specialfn
from hexdimer.asymptotics import _sliced_pieces, log_ratio_three, log_ratio_two

from _reference import SLICED_F0_MPMATH, SLICED_F3_EXACT_FIT, TABLE1, exact_data_f3


def test_finite_f0_symmetric_cube():
    c = coeffs_finite(1.0, 1.0, 1.0)
    expected = (3 * li(3, exp(-1.0)) - 3 * li(3, exp(-2.0)) + li(3, exp(-3.0)) - zeta3()) / 6.0
    assert abs(c.f0 - expected) < 1e-15
    assert c.f1 == 0.0


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
    for (a, b) in ((1.0, 1.0), (2.0, 1.0), (1.0, 3.0)):
        assert 12 * a * b * coeffs_infinite(a, b).f2 == pytest.approx(1.0, abs=1e-15)


def test_infinite_f0_at_a_side_near_zero(monkeypatch):
    # f0 = (zeta(3) + Li_3(e^-(a+b)) - Li_3(e^-a) - Li_3(e^-b)) / ab keeps about
    # 9 digits of its cancellation at a = 1e-7 (1.4e-9 measured against the
    # exact e^-a); a Li_3 series stopped on its last term alone was 2e-5 off,
    # one stopped on its tail bound never converged
    mpmath = pytest.importorskip("mpmath")
    monkeypatch.setattr(specialfn, "_LI_N_MAX", 20000)
    a, b = 1e-7, 1.0
    with mpmath.workdps(40):
        x, y = mpmath.mpf(a), mpmath.mpf(b)
        ref = (mpmath.zeta(3) + mpmath.polylog(3, mpmath.exp(-x - y))
               - mpmath.polylog(3, mpmath.exp(-x)) - mpmath.polylog(3, mpmath.exp(-y))) / (x * y)
        assert abs(coeffs_infinite(a, b).f0 - ref) <= 1e-8 * ref


def _mp_uniform_f0(a, b, c=None):
    """The uniform box's f0 at 60 digits with the exact e^-x (infinite
    height when c is None)."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        a, b = mpmath.mpf(a), mpmath.mpf(b)

        def g(x):
            return mpmath.polylog(3, mpmath.exp(-x))

        if c is None:
            return float((mpmath.zeta(3) + g(a + b) - g(a) - g(b)) / (a * b))
        c = mpmath.mpf(c)
        total = g(a) + g(b) + g(c) - g(a + b) - g(b + c) - g(a + c) + g(a + b + c) - mpmath.zeta(3)
        return float(total / (2 * (a * b + b * c + a * c)))


# the uniform f0 on thin sides prints wrong digits today; the fix removes these marks
ITEM_10 = pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 10")


@ITEM_10
def test_infinite_f0_on_two_thin_sides():
    # 1.4e-3 off: zeta(3) and the zeta(2) x terms cancel in the Li_3 sum
    ref = _mp_uniform_f0(1e-7, 1e-7)
    assert abs(coeffs_infinite(1e-7, 1e-7).f0 - ref) <= 1e-13 * ref


@ITEM_10
def test_finite_f0_on_three_thin_sides():
    # 7.1e-5 off
    ref = _mp_uniform_f0(1e-6, 1e-6, 1e-6)
    assert abs(coeffs_finite(1e-6, 1e-6, 1e-6).f0 - ref) <= 1e-13 * abs(ref)


def test_sliced_f0_on_an_elongated_box():
    # at constant phi = 1 this is the infinite box (1e-3, 1).  5.4e-16 off;
    # 12 equal s panels, the first 83 times wider than its lower edge, were
    # 2.2e-8 off
    ref = _mp_uniform_f0(1e-3, 1.0)
    assert abs(sliced_f0(1e-3, 1.0, ConstantPhi(1.0)) - ref) <= 5e-15 * ref


def test_sliced_f0_on_an_elongated_cosine_box():
    # 2.5e-15 off.  Newton's method started from u/phi(b-a) cycled on the b
    # side, 30 long, and printed 4.3e-7 high; 12 equal s panels, 1.6 wide,
    # left 1.9e-12
    ref = SLICED_F0_MPMATH[("cosine", 1, 30)]
    assert abs(sliced_f0(1.0, 30.0, CosinePhi()) - ref) <= 3e-14 * ref


def test_sliced_f0_s_panels():
    # the Table 1 boxes keep 12 equal panels per stretch; elsewhere they
    # double from the lower edge up to 1 wide and stop at s = _S_END, so a
    # far elongated box costs no more panels than (1, 300)
    assert asymptotics._s_panel_edges(0.41, 2.58) == list(np.linspace(0.41, 2.58, 13))[1:]
    edges = asymptotics._s_panel_edges(1e-3, 1.0)
    assert edges[:3] == [2e-3, 4e-3, 8e-3] and edges[-1] == 1.0
    widths = np.diff([1e-3, *edges])
    assert np.all(widths <= np.minimum(1.0, [1e-3, *edges[:-1]]))
    assert len(asymptotics._s_panel_edges(0.5, 1e5)) == 64
    assert asymptotics._s_panel_edges(80.0, 120.0) == []


def test_sliced_f0_sides_too_far_apart_rejected():
    # int phi over the a side rounds to 0 at b - a = 1e17
    with pytest.raises(ValueError, match="sides are too far apart"):
        sliced_f0(1.0, 1e17, CosinePhi())


@pytest.mark.parametrize("a, b", [(1e-300, 1e-300), (0, 1), (-1, 2)])
def test_sliced_f0_and_f3_check_the_sides(a, b):
    # sliced_f0 raised ZeroDivisionError on (1e-300, 1e-300) and called the
    # other two sides too far apart
    with pytest.raises(ValueError) as want:
        asymptotics._require_sides(a, b)
    for coefficient in (sliced_f0, sliced_f3):
        with pytest.raises(ValueError) as got:
            coefficient(a, b, CosinePhi())
        assert str(got.value) == str(want.value)


@pytest.mark.parametrize("x", [64.0, 1e3, 1e8, 1e13, 1e20, 1e150])
def test_sliced_f0_on_large_sides(x):
    # at constant phi this is the infinite box.  Graded s panels that reached
    # all the way to min(u(a), v(b)) were 1.2e-8 off at x = 1e13 and gave 0
    # from about 1e15, their first edge beyond the integrand's mass
    for c in (0.5, 1.0, 3.0):
        for r in (1.0, 2.0, 10.0):
            ref = coeffs_infinite(c * x, c * r * x).f0
            assert abs(sliced_f0(x, r * x, ConstantPhi(c)) - ref) <= 1e-14 * ref


def test_sliced_f0_inversion_that_cannot_converge_raises(monkeypatch):
    # cosine (1, 3) takes two Newton steps on each side
    monkeypatch.setattr(asymptotics, "_INVERSE_STEPS", 1)
    with pytest.raises(ConvergenceError, match=r"reached its step cap, 1, ") as err:
        sliced_f0(1.0, 3.0, CosinePhi())
    assert err.value.achieved > asymptotics._INVERSE_TOL


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
    c = ExpansionCoefficients(1.0, 0.0, 0.0, 0.0)
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
    cube = Scenario("finite", 1.0, 1.0, 1.0)
    for t in (20, 50, 100):
        exact = free_energy_value(cube.box(1.0 / t), exp(-1.0 / t))
        resid[t] = abs(exact - predict_free_energy(cf, 1.0 / t))
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


# (a, b, phi = c): relative gates on f0 and f3 at about 10x the measured gap
# (f0: 2.1e-16, 4.1e-16, 9.1e-16, 2.5e-15, 0, 1.6e-16; f3: 7.9e-15,
# 3.4e-13, 1.8e-15, 9.7e-13, 1.9e-12, 4.5e-12).  The f0 of (1, 300) is the
# elongated box of ROADMAP item 10: 12 equal s panels, 25 wide, left 2.8e-9
CONSTANT_PHI_GAPS = [
    (1.0, 3.0, 1.0, 2e-15, 8e-14),
    (2.0, 3.0, 1.7, 4e-15, 3.5e-12),
    (1.0, 1.0, 0.3, 1e-14, 2e-14),
    (0.1, 1.0, 1.0, 2.5e-14, 1e-11),
    (1.0, 30.0, 1.0, 3e-15, 2e-11),
    (1.0, 300.0, 1.0, 2e-15, 5e-11),
]


def test_constant_phi_reduction():
    # phi = c is the uniform box at sides (ac, bc), two independent routes:
    # f0 = f0_inf(ac, bc), f2 = c^2 f2_inf(ac, bc) = 1/(12ab) and
    # f3 = c^2 f3_inf(ac, bc) + ln c/(12ab)
    for a, b, c, f0_gate, f3_gate in CONSTANT_PHI_GAPS:
        sliced = coeffs_sliced(a, b, ConstantPhi(c))
        infinite = coeffs_infinite(a * c, b * c)
        f3 = c * c * infinite.f3 + log(c) / (12.0 * a * b)
        assert abs(sliced.f0 - infinite.f0) <= f0_gate * abs(infinite.f0), (a, b, c)
        assert sliced.f1 == infinite.f1 == 0.0
        assert sliced.f2 == pytest.approx(c * c * infinite.f2, rel=5e-16), (a, b, c)
        assert abs(sliced.f3 - f3) <= f3_gate * abs(f3), (a, b, c)


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
    assert abs(coeffs.f3 - f3_ref) < 1e-6


# Table 1 analytic values (repr); f3 is the eps-jet value at eps = 0.
# Columns: (phi, a, b, f0, f3)
TABLE1_ANALYTIC_PINNED = [
    (CosinePhi(), 1.0, 3.0, 0.47220669610174465, -0.04388302624171539),
    (CosinePhi(), 2.0, 3.0, 0.23592246763123817, -0.030398023784665516),
    (LinearPhi(1.0, 0.5), 1.0, 3.0, 0.09728859658058127, -0.03368831311545032),
    (LinearPhi(2.0, 0.5), 2.0, 3.0, 0.032804447483357924, -0.015094049763581066),
]


@pytest.mark.parametrize("phi,a,b,f0_pin,f3_pin", TABLE1_ANALYTIC_PINNED)
def test_sliced_table1_analytic_pinned(phi, a, b, f0_pin, f3_pin):
    assert abs(sliced_f0(a, b, phi) - f0_pin) <= 1e-13 * abs(f0_pin)
    f3 = sliced_f3(a, b, phi)
    assert isinstance(f3, float)
    assert abs(f3 - f3_pin) <= 1e-11


# coeffs_sliced(a, b, phi) as float.hex, recorded with numpy 2.4 on x86-64
# (another libm may move the last bits).  (3, 1) has a > b, at (2, 2) both
# sides of the f3 series share every panel, and const:1e-7 has rescaled sides
# 1e-7, where the uniform f0 cancels (ROADMAP item 10).
COEFFS_SLICED_BITS = [
    ("cosine", 1.0, 3.0, "0x1.e38a26f2d6399p-2", "-0x1.677d6051d8852p-5"),
    ("cosine", 2.0, 3.0, "0x1.e32b5196f13a1p-3", "-0x1.f20a8d8129b33p-6"),
    ("linear:1,0.5", 1.0, 3.0, "0x1.8e7e7cc965b85p-4", "-0x1.13f98362d31c3p-5"),
    ("linear:2,0.5", 2.0, 3.0, "0x1.0cbbe9a357038p-5", "-0x1.ee9a110ca4c91p-7"),
    ("cosine", 3.0, 1.0, "0x1.e38a26f2d6399p-2", "-0x1.677d6051d8bcdp-5"),
    ("linear:1,0.3", 2.0, 2.0, "0x1.ef2baaf8a243bp-3", "-0x1.2fd4c362d9de6p-5"),
    ("tabulated", 1.0, 3.0, "0x1.2c6b6bebc5d64p-2", "-0x1.3a621d700ca43p-5"),
    ("const:1e-7", 1.0, 1.0, "0x1.03b575525c668p+4", "-0x1.b8f88428e1380p-4"),
]


@pytest.mark.parametrize("phi_id,a,b,f0_bits,f3_bits", COEFFS_SLICED_BITS,
                         ids=[f"{p}-{a:g}-{b:g}" for p, a, b, *_ in COEFFS_SLICED_BITS])
def test_coeffs_sliced_bits_pinned(monkeypatch, phi_id, a, b, f0_bits, f3_bits):
    # the sliced f3 takes only the uniform box's f3, so a guard or a fix on
    # the uniform f0 cannot reach the sliced coefficients
    def never(*args):
        raise AssertionError("the uniform f0 ran")

    monkeypatch.setattr(asymptotics, "li", never)
    monkeypatch.setattr(asymptotics, "coeffs_infinite", never)
    if phi_id == "tabulated":
        t = np.linspace(-1.5, 3.5, 321)
        phi = TabulatedPhi(t, 1.0 + 0.08 * np.cos(t + 1.0) - 0.05 * np.cos(2.0 * t + 2.0))
    else:
        phi = phi_from_id(phi_id)
    coeffs = coeffs_sliced(a, b, phi)
    assert (coeffs.f0.hex(), coeffs.f3.hex()) == (f0_bits, f3_bits)


class IntegralOnlyCosinePhi(CosinePhi):
    """CosinePhi whose antiderivative runs only inside integral."""

    inside = False

    def integral(self, t0, t1):
        self.inside = True
        try:
            return super().integral(t0, t1)
        finally:
            self.inside = False

    def antiderivative(self, t):
        assert self.inside, "phi.antiderivative called outside phi.integral"
        return super().antiderivative(t)


def test_sliced_coefficients_integrate_phi_only_through_integral():
    # a stable PhiFunction.integral then reaches sliced_f0 and sliced_f3 alike;
    # the bits are those of CosinePhi itself
    coeffs = coeffs_sliced(1.0, 3.0, IntegralOnlyCosinePhi())
    _, _, _, f0_bits, f3_bits = COEFFS_SLICED_BITS[0]
    assert (coeffs.f0.hex(), coeffs.f3.hex()) == (f0_bits, f3_bits)


@pytest.mark.parametrize("phi_id,a,b", list(SLICED_F3_EXACT_FIT))
def test_sliced_f3_matches_exact_data(phi_id, a, b):
    # measured |sliced_f3 - pin|: cosine (1,3) 1.7e-11, cosine (2,3) 8.7e-12,
    # linear:1,0.5 (1,3) 2.0e-11, linear:2,0.5 (2,3) 8.8e-13, linear:1,0.3
    # (1,3) 2.1e-11; the gate leaves a factor of about 10
    f3 = sliced_f3(float(a), float(b), phi_from_id(phi_id))
    assert abs(f3 - SLICED_F3_EXACT_FIT[(phi_id, a, b)]) <= 2e-10


def test_exact_data_fit_reproduces_its_pin():
    # one live fit (about 0.4 s) ties SLICED_F3_EXACT_FIT to the exact evaluator
    scenario = Scenario("sliced", 1.0, 3.0, phi=CosinePhi())
    fitted = exact_data_f3(scenario)
    assert abs(fitted - SLICED_F3_EXACT_FIT[("cosine", 1, 3)]) <= 1e-11
    # measured 1.7e-11, as in test_sliced_f3_matches_exact_data
    assert abs(sliced_f3(1.0, 3.0, scenario.phi) - fitted) <= 2e-10


# relative gate on the two f0 routes where it is not 1e-12: the series
# route plateaus at 1.4e-12 on cosine (1, 300), where 12 equal s panels left
# sliced_f0 1.1e-4 off
JET_F0_GATES = {(1.0, 300.0): 1.5e-11}


@pytest.mark.parametrize("phi,a,b", [(phi, a, b) for phi, a, b, *_ in TABLE1_ANALYTIC_PINNED]
                         + [(CosinePhi(), 1.0, 300.0)])
def test_sliced_jet_lower_orders(phi, a, b):
    # f1 = 0, and the zeroth order plus the rescaled box is sliced_f0, an
    # independent route (the 1-D convolution integral)
    order0, order1, _ = _sliced_pieces(a, b, phi)
    eta = float(phi(b - a))
    assert abs(order1) <= 1e-14
    f0 = sliced_f0(a, b, phi)
    gate = JET_F0_GATES.get((a, b), 1e-12)
    assert abs(order0 + coeffs_infinite(a * eta, b * eta).f0 - f0) <= gate * abs(f0)


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


def test_sliced_f3_work_count(monkeypatch):
    # the series nodes are shared by every n; nodes built per n would
    # evaluate phi at ~3e8 points here.  One jet evaluation per f3.
    calls = []

    def counted(*args):
        calls.append(args)
        return _sliced_pieces(*args)

    monkeypatch.setattr(asymptotics, "_sliced_pieces", counted)
    phi = CountingCosinePhi()
    sliced_f3(1.0, 3.0, phi)
    assert 0 < phi.points <= 2_000_000
    assert len(calls) == 1


def test_sliced_f0_work_count():
    # phi at 547,805 points: from the table start each side takes two Newton
    # steps.  Twelve fixed steps from u/phi(b-a) took 2,728,431
    phi = CountingCosinePhi()
    sliced_f0(1.0, 3.0, phi)
    assert 0 < phi.points <= 600_000


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


def test_overflowing_area_rejected():
    # the closed forms divide by 12 ab, or 24(ab + bc + ca); an overflow there
    # would print zeros
    with pytest.raises(ValueError, match=r"ab\+bc\+ca = inf"):
        coeffs_finite(1e200, 1e200, 1.0)
    with pytest.raises(ValueError, match="which overflows"):
        coeffs_finite(1e154, 1e154, 1.0)
    for a, b in ((1e200, 1e200), (1e308, 3.0), (1e307, 15.0)):
        with pytest.raises(ValueError, match=r"ab = "):
            coeffs_infinite(a, b)
        with pytest.raises(ValueError, match=r"ab = "):
            coeffs_sliced(a, b, CosinePhi())
    # just inside: every coefficient but f1 is finite and nonzero
    c = coeffs_infinite(1e307, 1.0)
    assert all(math.isfinite(v) and v != 0.0 for v in (c.f0, c.f2, c.f3))
