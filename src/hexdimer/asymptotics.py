"""Closed-form finite-size expansion coefficients f0..f3 and the predictor.

f(eps) ~ f0 + f1 eps + f2 eps^2 ln(eps) + f3 eps^2, with f1 = 0 in every
scenario.  Signs follow the exact evaluators, whose conventions the partition
module owns: the finite box uses f = -ln Z/V, the infinite-height and sliced
scenarios use f = +ln Z/V, which is what the reference numeric table reports.

Matching rule (arbitrated against fits of exact data): the coefficient of
ln(eps) in d^2 f/d eps^2 is 2 f2, and the eps-independent remainder equals
3 f2 + 2 f3.

Sliced scenario: f0 is the double integral of -ln(1 - e^{-int phi}) reduced
to one dimension along the diagonal.  f3 comes from the smooth series
decomposition f = f_geo + f_plus + f_minus + f_cross (geometric-slope part
and the three Psi-correction parts), written as the uniform infinite box at
rescaled sides plus harmonic sums over n.  By the Mellin analysis of harmonic
sums (Flajolet, Gourdon and Dumas, Theor. Comput. Sci. 144, 1995) only the
box carries eps^2 ln eps; its f3 is the uniform box's closed form, and every
other eps^2 coefficient is the absolutely convergent sum of the summands'
second-order Taylor coefficients at eps = 0, computed with eps-jets.
"""
from __future__ import annotations

import math
import sys
from math import comb, exp, fsum, log, log1p
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, _shown
from .quadrature import gauss_legendre, log_graded_edges
from .specialfn import _LI3_C, _LI3_SERIES_SWITCH, li, universal_constant, zeta3
from .weights import PhiFunction


class ExpansionCoefficients(NamedTuple):
    """f0..f3 of f ~ f0 + f1 eps + f2 eps^2 ln(eps) + f3 eps^2; the sign
    convention is that of the Scenario they belong to."""

    f0: float
    f1: float
    f2: float
    f3: float


def predict_free_energy(coeffs: ExpansionCoefficients, eps: float) -> float:
    """f0 + f1 eps + f2 eps^2 ln(eps) + f3 eps^2."""
    if not (0.0 < eps <= 1.0):
        raise ValueError(f"eps must be in (0, 1], got {eps}")
    e2 = eps * eps
    return coeffs.f0 + coeffs.f1 * eps + coeffs.f2 * e2 * log(eps) + coeffs.f3 * e2


def log_ratio_two(a: float, b: float) -> float:
    """ln[(e^a-1)(e^b-1)/(e^{a+b}-1)], stably for large arguments."""
    return log1p(-exp(-a)) + log1p(-exp(-b)) - log1p(-exp(-a - b))


def log_ratio_three(a: float, b: float, c: float) -> float:
    """ln[(e^a-1)(e^b-1)(e^c-1)(e^{a+b+c}-1) / ((e^{a+b}-1)(e^{b+c}-1)(e^{a+c}-1))]."""
    return (log1p(-exp(-a)) + log1p(-exp(-b)) + log1p(-exp(-c)) + log1p(-exp(-a - b - c))
            - log1p(-exp(-a - b)) - log1p(-exp(-b - c)) - log1p(-exp(-a - c)))


def _require_sides(a: float, b: float, c: float | None = None, factor_name: str = "") -> None:
    """Check scaled sides for the closed forms; c is None for infinite height.

    An infinite side, or an area so large that the closed forms' divisor
    (12 ab, or 24(ab + bc + ca) for the finite box) overflows, would silently
    give zero or nan coefficients.  factor_name names a factor that the
    infinite-height sides carry, as in "a*phi(b-a)".
    """
    sides = {"a": a, "b": b} if c is None else {"a": a, "b": b, "c": c}
    sides = {name + factor_name: value for name, value in sides.items()}
    for name, value in sides.items():
        # compared, not passed to math.isfinite, which overflows on an int beyond the float range
        if not 0 < value <= sys.float_info.max:
            raise ValueError(f"side {name} must be finite and positive, got {_shown(value, '')}")
        # the closed forms take ln(1 - e^(-side)), which log1p(-1) cannot give
        if exp(-value) == 1.0:
            raise ValueError(f"side {name} = {value} is too small: e^(-{name}) rounds to 1 "
                             f"in floating point, so ln(1 - e^(-{name})) cannot be formed")
    if c is None:
        area, name, factor = a * b, f"ab{factor_name}^2" if factor_name else "ab", 12.0
    else:
        area, name, factor = a * b + b * c + a * c, "ab+bc+ca", 24.0
    if not math.isfinite(factor * area):
        raise ValueError(f"sides too large: {name} = {area}, and the closed forms divide by "
                         f"{factor:g}({name}), which overflows")


def coeffs_finite(a: float, b: float, c: float) -> ExpansionCoefficients:
    """Finite box, convention f = -ln Z/V."""
    _require_sides(a, b, c)
    s = a * b + b * c + a * c
    f0 = (li(3, exp(-a)) + li(3, exp(-b)) + li(3, exp(-c))
          - li(3, exp(-a - b)) - li(3, exp(-b - c)) - li(3, exp(-a - c))
          + li(3, exp(-a - b - c)) - zeta3()) / (2.0 * s)
    iq = universal_constant()
    f2 = -1.0 / (24.0 * s)
    f3 = -(iq - log_ratio_three(a, b, c) / 6.0 - 0.25) / (4.0 * s)
    return ExpansionCoefficients(f0, 0.0, f2, f3)


def _f3_infinite(a: float, b: float) -> float:
    """f3 of the infinite-height box at checked sides."""
    return (universal_constant() - log_ratio_two(a, b) / 6.0 - 0.25) / (2.0 * (a * b))


def coeffs_infinite(a: float, b: float) -> ExpansionCoefficients:
    """Infinite-height box, convention f = +ln Z/V."""
    _require_sides(a, b)
    ab = a * b
    if a + b < _LI3_SERIES_SWITCH:
        # li's expansion differenced in closed form, so zeta(3) and zeta(2) x
        # cancel exactly; the Li_3 sum below was 8.5e5 off at (1e-12, 1e-11)
        f0 = fsum([1.5, -log(a + b), -(a * a * log1p(b / a) + b * b * log1p(a / b)) / (2.0 * ab)]
                  + [c * comb(k, j) * a ** (j - 1) * b ** (k - j - 1)
                     for k, c in _LI3_C for j in range(1, k)])
    else:
        f0 = (zeta3() + li(3, exp(-a - b)) - li(3, exp(-a)) - li(3, exp(-b))) / ab
    return ExpansionCoefficients(f0, 0.0, 1.0 / (12.0 * ab), _f3_infinite(a, b))


# ---------------------------------------------------------------------------
# sliced scenario
# ---------------------------------------------------------------------------

_N_QUAD = 20
_EFOLDS = 48.0
_N_MAX = 2000

# sliced_f0's Newton inversion of int phi: points of its starting table, the
# largest move that ends it, as a fraction of the side, and its step cap
_INVERSE_TABLE = 257
_INVERSE_TOL = 2.0 ** -26
_INVERSE_STEPS = 12
# sliced_f0's s panels: equal panels per stretch past the graded start where
# they are narrow enough (_s_panel_edges), and the s at which every graded
# stretch stops, the graded start too
_S_PANELS = 12
_S_END = 64.0


def _row_dots(rows: np.ndarray, w: np.ndarray) -> np.ndarray:
    """np.dot(w, row) for each row.  A stacked matmul reduces every row with
    the same kernel as np.dot, so results match a per-row loop bit for bit
    (a plain rows @ w sums in another order)."""
    return np.matmul(w, rows[:, :, None])[:, 0]


def _s_panel_edges(lo: float, hi: float) -> list[float]:
    """Upper edges of sliced_f0's s panels on [lo, hi], lo > 0.

    These are 12 equal panels when each is at most 1 wide and no wider than
    lo, and hi <= _S_END.  Otherwise the panels double in width from lo up
    to 1 wide, and stop at s = _S_END, so no edge lies past it.  A panel
    wider than 1 loses digits to the poles of 1/phi near the real axis, and
    one wider than lo to the log singularity at s = 0.  Beyond _S_END,
    K(s) < e^-64 (1.6e-28), far below roundoff against the part of the
    integral near s = 0.  The stop bounds the work: without it, sides
    (1, 1e5) took 1e5 panels.
    """
    width = (hi - lo) / _S_PANELS
    if width <= min(1.0, lo) and hi <= _S_END:
        return list(np.linspace(lo, hi, _S_PANELS + 1))[1:]
    edges = [lo]
    while edges[-1] < min(hi, _S_END):
        edges.append(min(edges[-1] + min(edges[-1], 1.0), hi, _S_END))
    return edges[1:]


def sliced_f0(a: float, b: float, phi: PhiFunction) -> float:
    """Leading coefficient: (1/ab) int_0^b dy int_0^a dz -ln(1 - e^{-W(y,z)}).

    W(y, z) = int_{-y}^{z} phi(b-a+x) dx separates as v(y) + u(z), so after
    substituting to (u, v) the double integral collapses to a 1-D integral of
    K(s) = -ln(1-e^{-s}) against the convolution C(s) of the two inverse
    Jacobians.  The s -> 0 log singularity is handled by dyadic panel grading
    up to min(u(a), v(b), _S_END); _s_panel_edges places the panels beyond it.

    The inverse Jacobians need u -> z and v -> y at every node.  Newton's
    method starts from a monotone table of int phi at 257 points and stops
    after the first step that moves no node by more than 2^-26 of the side;
    the error left is about |phi'/2phi| step^2, below roundoff.  The Table 1
    boxes take two steps.  After 12 steps it raises ConvergenceError with
    the last move rather than return digits.
    """
    _require_sides(a, b)
    d = b - a
    phi.check_positive(-a, b)
    cap_u = float(phi.integral(d, b))        # u(a)
    cap_v = float(phi.integral(-a, d))       # v(b)
    if not min(cap_u, cap_v) > 0.0:
        raise ValueError(f"sliced_f0: int phi over a side rounds to {min(cap_u, cap_v)!r} "
                         f"at b - a = {d!r}; the sides are too far apart")

    def inverse(w, length, sign):
        # x in [0, length] with sign * int_d^{d + sign x} phi = w: z(u) on the
        # a side (sign +1), y(v) on the b side (sign -1).  Newton's method
        # starts from the interpolated table, which increases since phi > 0
        xs = np.linspace(0.0, length, _INVERSE_TABLE)
        x = np.interp(w, sign * phi.integral(d, d + sign * xs), xs)
        for _ in range(_INVERSE_STEPS):
            t = d + sign * x
            x, last = np.clip(x - (sign * phi.integral(d, t) - w) / phi(t), 0.0, length), x
            move = float(np.max(np.abs(x - last)))
            if move <= _INVERSE_TOL * length:
                return x
        raise ConvergenceError(f"sliced_f0: Newton's method inverting int phi on [0, {length:g}] "
                               f"reached its step cap, {_INVERSE_STEPS}, with a last move of "
                               f"{move:.3g}, above the tolerance {_INVERSE_TOL * length:.3g}",
                               achieved=move)

    gx, gw = gauss_legendre(32)

    def conv(s):
        # C(s) on an array of s nodes: one 32-node Gauss rule per node over
        # u in [max(0, s - v(b)), min(u(a), s)], all inversions at once
        u_lo, u_hi = np.maximum(0.0, s - cap_v), np.minimum(cap_u, s)
        mid, half = 0.5 * (u_hi + u_lo), 0.5 * (u_hi - u_lo)
        u = mid[:, None] + half[:, None] * gx
        vals = 1.0 / (phi(d + inverse(u, a, 1.0)) * phi(d - inverse(s[:, None] - u, b, -1.0)))
        return np.where(u_hi > u_lo, half * _row_dots(vals, gw), 0.0)

    m1, m2, end = min(cap_u, cap_v), max(cap_u, cap_v), cap_u + cap_v
    edges = list(log_graded_edges(0.0, min(m1, _S_END)))
    if m2 > m1 + 1e-15:
        edges += _s_panel_edges(m1, m2)
    edges += _s_panel_edges(m2, end)
    lo, hi = np.asarray(edges[:-1]), np.asarray(edges[1:])
    lo, hi = lo[hi > lo], hi[hi > lo]
    px, pw = gauss_legendre(24)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    s = (mid[:, None] + half[:, None] * px).ravel()
    # -ln(1 - e^{-s}) via expm1: exp(-s) rounds to 1.0 below s ~ 5e-17,
    # which the graded panels do reach
    vals = (-np.log(-np.expm1(-s)) * conv(s)).reshape(lo.size, px.size)
    total = fsum(half * _row_dots(vals, pw))
    return total / (a * b)


def _power_tail(n_last: int, t_prev: float, t_last: float) -> float:
    """Tail beyond n_last of a series whose terms ~ c3/n^3 + c4/n^4."""
    if t_prev == 0.0 and t_last == 0.0:
        return 0.0
    N = float(n_last)
    mat = np.array([[(N - 1.0) ** -3, (N - 1.0) ** -4], [N ** -3, N ** -4]])
    c3, c4 = np.linalg.solve(mat, np.array([t_prev, t_last]))
    tail3 = 1.0 / (2.0 * N**2) - 1.0 / (2.0 * N**3) + 1.0 / (4.0 * N**4)
    tail4 = 1.0 / (3.0 * N**3) - 1.0 / (2.0 * N**4) + 1.0 / (3.0 * N**5)
    return float(c3 * tail3 + c4 * tail4)


# Second-order eps-jets: a jet (c0, c1, c2) stands for c0 + c1 eps + c2 eps^2,
# each coefficient an array over the summation index n.

def _jet_mul(x, y):
    """Truncated Cauchy product."""
    return (x[0] * y[0], x[0] * y[1] + x[1] * y[0], x[0] * y[2] + x[1] * y[1] + x[2] * y[0])


def _jet_exp(e0, e1, e2):
    """Jet of exp(e0 + e1 eps + e2 eps^2)."""
    v = np.exp(e0)
    return (v, v * e1, v * (e2 + 0.5 * e1 * e1))


def _jet_add(x, y, sign=1.0):
    return tuple(u + sign * v for u, v in zip(x, y))


def _sliced_pieces(a: float, b: float, phi: PhiFunction) -> tuple[float, float, float]:
    """eps^0, eps^1 and eps^2 coefficients of f - f_box, with f_box the uniform
    infinite box with sides (a eta, b eta) at mesh eps eta, eta = phi(b-a).

    f = f_geo + f_plus + f_minus + f_cross is (1/ab) sum_n pref (A_- + S_-)
    (A_+ + S_+), and f_box is (1/ab) sum_n pref B(n eps eta)^2 H0 / (n eta)^2,
    with pref = e^{-n eps eta}/n, B(x) = x/(1 - e^{-x}), H0 = (1 - e^{-n b
    eta})(1 - e^{-n a eta}).  On the b side (s = -1, length b) and the a side
    (s = +1, length a), lambda = eta + s eps phi'/2 + eps^2 phi''/12,
    A = (1 - e^{-n L lambda}) B(n eps lambda) / (n lambda), and
    S = int_0^L Psi_n - eps/2 Psi_n(L) + eps^2/12 Psi_n'(L) with
    Psi_n = e^{-n r} - e^{-n x lambda}.  Only f_box carries eps^2 ln eps, so
    every other coefficient is the sum over n of the summands' Taylor
    coefficients at eps = 0; those decay at least like n^-3 and are summed
    to _N_MAX with a two-term power tail.  Both sides' int_0^L Psi_n run in
    one walk over their dyadic panels, and a panel they share forms the jet
    of e^{-n x lambda} once.
    """
    d = b - a
    eta, p1, p2 = float(phi(d)), float(phi.d1(d)), float(phi.d2(d))
    slope_min = 0.9 * phi.check_positive(-a, b)
    n = np.arange(1.0, _N_MAX + 1)
    gx, gw = gauss_legendre(_N_QUAD)
    gx01, gw01 = (gx + 1.0) / 2.0, gw / 2.0

    def lam(sgn):
        return (eta, 0.5 * sgn * p1, p2 / 12.0)

    def lam_jet(nn, x):
        # jet of e^{-n x lambda} on the a side.  The b side's is (v, -w, z):
        # lambda's eps term flips sign with s, and IEEE products are
        # symmetric in sign, so nothing else about it differs
        nx = -nn * x
        return _jet_exp(*(nx * c for c in lam(1.0)))

    def psi(nn, x, sgn, lam_a):
        # jet of Psi_n(x), r = s(Phi(d+sx) - Phi(d)) + eps (phi(d+sx) - eta)/2
        # + s eps^2 (phi'(d+sx) - phi'(d))/12, subtracted inside the integrand
        # so the O(x^2) cancellation near 0 is kept; lam_a = lam_jet(nn, x)
        t = d + sgn * x
        e_r = _jet_exp(-nn * sgn * phi.integral(d, t),
                       -nn * 0.5 * (phi(t) - eta), -nn * sgn * (phi.d1(t) - p1) / 12.0)
        v, w, z = lam_a
        return (e_r[0] - v, e_r[1] - w if sgn > 0 else e_r[1] + w, e_r[2] - z)

    def panels(length):
        # The integrand decays like e^{-n slope x} and is negligible beyond
        # x_cut(n).  All n share one set of dyadic panels on [0, length], so
        # phi is evaluated once per node; panel p adds to the prefix of n
        # whose x_cut lies above its lower edge.  The first edge puts 3
        # e-folds of the largest n below it.
        x_cut = np.minimum(length, _EFOLDS / (n * slope_min))
        x_min = float(x_cut[-1]) / 16.0
        levels = math.ceil(math.log2(length / x_min))
        edges = [0.0] + [x_min * 2.0**k for k in range(levels)] + [length]
        return [(lo, hi, int(np.count_nonzero(x_cut > lo)))
                for lo, hi in zip(edges[:-1], edges[1:])]

    def s_jets():
        # S for both sides in one walk over the union of their panels.  They
        # share all but the last one or two, and on a shared panel (same
        # edges and prefix of n) the lambda jet is formed once.  Ascending
        # panels keep each side's own order of accumulation.
        sides = ((b, -1.0), (a, +1.0))
        walk = {}
        for length, sgn in sides:
            for panel in panels(length):
                walk.setdefault(panel, []).append(sgn)
        out = {sgn: np.zeros((3, n.size)) for _, sgn in sides}
        for (lo, hi, count), sgns in sorted(walk.items()):
            nn, x = n[:count, None], lo + (hi - lo) * gx01
            lam_a = lam_jet(nn, x)
            for sgn in sgns:
                for k, c in enumerate(psi(nn, x, sgn, lam_a)):
                    out[sgn][k, :count] += (hi - lo) * (c @ gw01)
        jets = []
        for length, sgn in sides:
            end = psi(n, length, sgn, lam_jet(n, length))
            t_end = d + sgn * length
            r_end = sgn * float(phi.integral(d, t_end))
            dpsi_end = n * (eta * np.exp(-n * length * eta)
                            - float(phi(t_end)) * np.exp(-n * r_end))
            o = out[sgn]
            jets.append((o[0], o[1] - 0.5 * end[0], o[2] - 0.5 * end[1] + dpsi_end / 12.0))
        return jets

    def a_jet(length, sgn):
        l0, l1, l2 = lam(sgn)
        e = _jet_exp(-n * length * l0, -n * length * l1, -n * length * l2)
        one_minus = (-np.expm1(-n * length * l0), -e[1], -e[2])
        inv_n_lam = (1.0 / (n * l0), -l1 / (n * l0**2), (l1 * l1 / l0 - l2) / (n * l0**2))
        # B(n eps lambda) = 1 + n eps lambda/2 + (n eps lambda)^2/12 + O(eps^4)
        bern = (np.ones_like(n), n * l0 / 2.0, n * l1 / 2.0 + (n * l0) ** 2 / 12.0)
        return _jet_mul(_jet_mul(one_minus, inv_n_lam), bern)

    s_b, s_a = s_jets()
    side_b = _jet_add(a_jet(b, -1.0), s_b)
    side_a = _jet_add(a_jet(a, +1.0), s_a)
    h0 = np.expm1(-n * b * eta) * np.expm1(-n * a * eta) / (n * eta) ** 2
    box = (h0, h0 * n * eta, h0 * 5.0 * (n * eta) ** 2 / 12.0)  # H0 B(n eps eta)^2 / (n eta)^2
    pref = (1.0 / n, np.full_like(n, -eta), n * eta * eta / 2.0)
    terms = _jet_mul(pref, _jet_add(_jet_mul(side_b, side_a), box, -1.0))
    ab = a * b
    return tuple((fsum(t) + _power_tail(_N_MAX, float(t[-2]), float(t[-1]))) / ab for t in terms)


def sliced_f3(a: float, b: float, phi: PhiFunction) -> float:
    """The eps^2 coefficient for slice weights: eta^2 f3_inf(a eta, b eta) +
    ln(eta)/(12ab), the uniform infinite box's at the rescaled sides a*phi(b-a)
    and b*phi(b-a) (checked here), plus the eps^2 order of _sliced_pieces."""
    _require_sides(a, b)
    phi.check_positive(-a, b)
    eta = float(phi(b - a))
    _require_sides(a * eta, b * eta, factor_name="*phi(b-a)")
    return (eta * eta * _f3_infinite(a * eta, b * eta) + log(eta) / (12.0 * a * b)
            + _sliced_pieces(a, b, phi)[2])


def coeffs_sliced(a: float, b: float, phi: PhiFunction) -> ExpansionCoefficients:
    """Slice-weighted infinite-height box, convention f = +ln Z/V.  f3 comes
    first, so a rescaled side that sliced_f3 rejects is named before
    sliced_f0 runs."""
    f3 = sliced_f3(a, b, phi)
    return ExpansionCoefficients(sliced_f0(a, b, phi), 0.0, 1.0 / (12.0 * a * b), f3)
