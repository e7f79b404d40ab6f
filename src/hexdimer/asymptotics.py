"""Closed-form finite-size expansion coefficients f0..f3 and the predictor.

f(eps) ~ f0 + f1 eps + f2 eps^2 ln(eps) + f3 eps^2, with f1 = 0 in every
scenario.  Conventions follow the exact evaluators (see partition module):
the finite box uses f = -ln Z/V, the infinite-height and sliced scenarios
use f = +ln Z/V, which is what the reference numeric table reports.

Matching rule (arbitrated against fits of exact data): the coefficient of
ln(eps) in d^2 f/d eps^2 is 2 f2, and the eps-independent remainder equals
3 f2 + 2 f3.

Sliced scenario: f0 is the double integral of -ln(1 - e^{-int phi}) reduced
to one dimension along the diagonal; f3 is extracted from the smooth series
decomposition f = f_geo + f_plus + f_minus + f_cross (geometric-slope part
and the three Psi-correction parts).  f_geo admits a convergent continuation
to eps < 0, so its eps^2 coefficient comes from a true central second
difference at 0 (with the exact (1/(12ab)) eps^2 ln|eps| contribution
removed); the Psi parts diverge for eps < 0 and are fitted on positive eps
against {eps, eps^2, eps^3} instead.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from math import exp, fsum, log, log1p

import numpy as np

from .errors import FiniteDifferenceNoiseError
from .quadrature import gauss_legendre, log_graded_edges
from .specialfn import QuadratureSettings, li, universal_constant_cached, zeta3
from .weights import PhiFunction

CONVENTION_FINITE = "f = -ln(Z)/V"
CONVENTION_POSITIVE = "f = +ln(Z)/V"


@dataclass(frozen=True)
class ExpansionCoefficients:
    """Expansion coefficients with provenance and the adopted sign convention."""

    f0: float
    f1: float
    f2: float
    f3: float
    scenario: str
    provenance: str = "analytic"
    convention: str = CONVENTION_POSITIVE
    fd_noise: float | None = None

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.f0, self.f1, self.f2, self.f3)


@dataclass(frozen=True)
class SlicedDerivativeSettings:
    """Finite-difference steps for the sliced f3 extraction."""

    fd_steps: tuple[float, ...] = (1.0 / 64, 1.0 / 96, 1.0 / 128, 1.0 / 192)
    richardson_order: int = 2

    def __post_init__(self):
        steps = tuple(float(h) for h in self.fd_steps)
        if len(steps) < 3:
            raise ValueError("need at least 3 fd_steps")
        if any(h2 >= h1 for h1, h2 in zip(steps, steps[1:])) or steps[-1] <= 0:
            raise ValueError("fd_steps must be strictly decreasing and positive")
        if self.richardson_order < 1 or self.richardson_order + 1 > len(steps):
            raise ValueError("richardson_order must be >= 1 and < len(fd_steps)")
        object.__setattr__(self, "fd_steps", steps)


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


def _require_sides(**sides: float) -> None:
    # an infinite side would silently give zero or nan coefficients
    for name, value in sides.items():
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"side {name} must be finite and positive, got {value}")


def coeffs_finite(a: float, b: float, c: float,
                  quad: QuadratureSettings = QuadratureSettings()) -> ExpansionCoefficients:
    """Finite box, convention f = -ln Z/V."""
    _require_sides(a=a, b=b, c=c)
    s = a * b + b * c + a * c
    f0 = (li(3, exp(-a)) + li(3, exp(-b)) + li(3, exp(-c))
          - li(3, exp(-a - b)) - li(3, exp(-b - c)) - li(3, exp(-a - c))
          + li(3, exp(-a - b - c)) - zeta3()) / (2.0 * s)
    iq = universal_constant_cached(quad)
    f2 = -1.0 / (24.0 * s)
    f3 = -(iq - log_ratio_three(a, b, c) / 6.0 - 0.25) / (4.0 * s)
    return ExpansionCoefficients(f0, 0.0, f2, f3, scenario="finite",
                                 convention=CONVENTION_FINITE)


def coeffs_infinite(a: float, b: float,
                    quad: QuadratureSettings = QuadratureSettings()) -> ExpansionCoefficients:
    """Infinite-height box, convention f = +ln Z/V."""
    _require_sides(a=a, b=b)
    ab = a * b
    f0 = (zeta3() + li(3, exp(-a - b)) - li(3, exp(-a)) - li(3, exp(-b))) / ab
    iq = universal_constant_cached(quad)
    f2 = 1.0 / (12.0 * ab)
    f3 = (iq - log_ratio_two(a, b) / 6.0 - 0.25) / (2.0 * ab)
    return ExpansionCoefficients(f0, 0.0, f2, f3, scenario="infinite")


# ---------------------------------------------------------------------------
# sliced scenario
# ---------------------------------------------------------------------------

_N_QUAD = 20
_EFOLDS = 48.0
_N_MAX_ZERO = 6000
_N_SAFETY = 64


def _row_dots(rows: np.ndarray, w: np.ndarray) -> np.ndarray:
    """np.dot(w, row) for each row.  A stacked matmul reduces every row with
    the same kernel as np.dot, so results match a per-row loop bit for bit
    (a plain rows @ w sums in another order)."""
    return np.matmul(w, rows[:, :, None])[:, 0]


def sliced_f0(a: float, b: float, phi: PhiFunction) -> float:
    """Leading coefficient: (1/ab) int_0^b dy int_0^a dz -ln(1 - e^{-W(y,z)}).

    W(y, z) = int_{-y}^{z} phi(b-a+x) dx separates as v(y) + u(z), so after
    substituting to (u, v) the double integral collapses to a 1-D integral of
    K(s) = -ln(1-e^{-s}) against the convolution C(s) of the two inverse
    Jacobians.  The s -> 0 log singularity is handled by dyadic panel grading.
    """
    d = b - a
    phi.check_positive(-a, b)
    cap_u = float(phi.integral(d, b))        # u(a)
    cap_v = float(phi.integral(-a, d))       # v(b)

    def z_of_u(u):
        z = np.clip(np.asarray(u, dtype=float) / float(phi(d)), 0.0, a)
        for _ in range(12):
            z = np.clip(z - (phi.integral(d, d + z) - u) / phi(d + z), 0.0, a)
        return z

    def y_of_v(v):
        y = np.clip(np.asarray(v, dtype=float) / float(phi(d)), 0.0, b)
        for _ in range(12):
            y = np.clip(y - (phi.integral(d - y, d) - v) / phi(d - y), 0.0, b)
        return y

    gx, gw = gauss_legendre(32)

    def conv(s):
        # C(s) on an array of s nodes: one 32-node Gauss rule per node over
        # u in [max(0, s - v(b)), min(u(a), s)], all inversions at once
        u_lo, u_hi = np.maximum(0.0, s - cap_v), np.minimum(cap_u, s)
        mid, half = 0.5 * (u_hi + u_lo), 0.5 * (u_hi - u_lo)
        u = mid[:, None] + half[:, None] * gx
        vals = 1.0 / (phi(d + z_of_u(u)) * phi(d - y_of_v(s[:, None] - u)))
        return np.where(u_hi > u_lo, half * _row_dots(vals, gw), 0.0)

    m1, m2, end = min(cap_u, cap_v), max(cap_u, cap_v), cap_u + cap_v
    edges = list(log_graded_edges(0.0, m1))
    if m2 > m1 + 1e-15:
        edges += list(np.linspace(m1, m2, 13))[1:]
    edges += list(np.linspace(m2, end, 13))[1:]
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
    """Tail beyond n_last of a series whose terms ~ c4/n^4 + c5/n^5."""
    if t_prev == 0.0 and t_last == 0.0:
        return 0.0
    N = float(n_last)
    mat = np.array([[(N - 1.0) ** -4, (N - 1.0) ** -5], [N ** -4, N ** -5]])
    c4, c5 = np.linalg.solve(mat, np.array([t_prev, t_last]))
    tail4 = 1.0 / (3.0 * N**3) - 1.0 / (2.0 * N**4) + 1.0 / (3.0 * N**5)
    tail5 = 1.0 / (4.0 * N**4) - 1.0 / (2.0 * N**5) + 5.0 / (12.0 * N**6)
    return float(c4 * tail4 + c5 * tail5)


def _sliced_pieces(a: float, b: float, phi: PhiFunction, eps: float,
                   slope_min: float) -> tuple[float, float, float, float]:
    """Values (f_geo, f_plus, f_minus, f_cross) of the smooth decomposition.

    eps may be negative only for f_geo consumption: the Psi series diverge
    there, so the three Psi parts are returned as nan.
    """
    d = b - a
    eta = float(phi(d))
    p1 = float(phi.d1(d))
    p2 = float(phi.d2(d))
    lam_m = eta - 0.5 * eps * p1 + eps * eps / 12.0 * p2
    lam_p = eta + 0.5 * eps * p1 + eps * eps / 12.0 * p2

    if eps == 0.0:
        n_max = _N_MAX_ZERO
    else:
        n_max = int(math.ceil(_EFOLDS / (abs(eps) * eta))) + _N_SAFETY
    n = np.arange(1.0, n_max + 1)

    def geometric(length, lam):
        if eps == 0.0:
            return -np.expm1(-n * length * lam) / (n * lam)
        return eps * np.expm1(-n * length * lam) / np.expm1(-n * eps * lam)

    a_minus = geometric(b, lam_m)
    a_plus = geometric(a, lam_p)
    pref = np.exp(-n * eps * eta) / n
    ab = a * b
    if eps < 0.0:
        return fsum(pref * a_minus * a_plus) / ab, math.nan, math.nan, math.nan

    gx, gw = gauss_legendre(_N_QUAD)
    gx01, gw01 = (gx + 1.0) / 2.0, gw / 2.0

    def r_of(x, sgn):
        t = d + sgn * x
        return (sgn * (phi.antiderivative(t) - phi.antiderivative(d))
                + 0.5 * eps * (phi(t) - eta) + sgn * eps * eps / 12.0 * (phi.d1(t) - p1))

    def psi_sum(length, lam, sgn):
        # int_0^length Psi_n - eps/2 Psi_n(length) + eps^2/12 Psi_n'(length),
        # with Psi_n(0) = Psi_n'(0) = 0.  The integrand decays like
        # e^{-n slope x} and is negligible beyond x_cut(n).  All n share one
        # set of dyadic panels on [0, length], so r(x) is evaluated once per
        # node; panel p adds to the prefix of n whose x_cut lies above its
        # lower edge.  The first edge puts 3 e-folds of the largest n below it.
        x_cut = np.minimum(length, _EFOLDS / (n * slope_min))
        x_min = float(x_cut[-1]) / 16.0
        levels = math.ceil(math.log2(length / x_min))
        edges = [0.0] + [x_min * 2.0**k for k in range(levels)] + [length]
        out = np.zeros_like(n)
        for lo, hi in zip(edges[:-1], edges[1:]):
            count = int(np.count_nonzero(x_cut > lo))
            nn = n[:count, None]
            x = lo + (hi - lo) * gx01
            psi = np.exp(-nn * r_of(x, sgn)) - np.exp(-nn * (x * lam))
            out[:count] += (hi - lo) * (psi @ gw01)
        t_end = d + sgn * length
        r_end = float(r_of(length, sgn))
        rp_end = float(phi(t_end) + sgn * 0.5 * eps * phi.d1(t_end) + eps * eps / 12.0 * phi.d2(t_end))
        psi_end = np.exp(-n * r_end) - np.exp(-n * length * lam)
        dpsi_end = -n * rp_end * np.exp(-n * r_end) + n * lam * np.exp(-n * length * lam)
        return out - 0.5 * eps * psi_end + eps * eps / 12.0 * dpsi_end

    s_minus = psi_sum(b, lam_m, -1.0)
    s_plus = psi_sum(a, lam_p, +1.0)

    t_plus = pref * a_minus * s_plus
    t_minus = pref * s_minus * a_plus
    t_cross = pref * s_minus * s_plus
    f_plus = fsum(t_plus) / ab
    f_minus = fsum(t_minus) / ab
    f_cross = fsum(t_cross) / ab
    if eps == 0.0:
        f_geo = (zeta3() - li(3, exp(-a * eta)) - li(3, exp(-b * eta))
                 + li(3, exp(-(a + b) * eta))) / (ab * eta * eta)
        f_plus += _power_tail(n_max, float(t_plus[-2]), float(t_plus[-1])) / ab
        f_minus += _power_tail(n_max, float(t_minus[-2]), float(t_minus[-1])) / ab
        f_cross += _power_tail(n_max, float(t_cross[-2]), float(t_cross[-1])) / ab
    else:
        f_geo = fsum(pref * a_minus * a_plus) / ab
    return f_geo, f_plus, f_minus, f_cross


def _extrapolation_basis(order: int, kind: str, h: float) -> list[float]:
    if kind == "central":
        cols = [1.0, h * h * log(h), h * h, h**4 * log(h), h**4]
        return cols[:order + 1]
    cols = [h, h * h, h**3, h**4]
    return cols[:order + 1]


def sliced_f3(a: float, b: float, phi: PhiFunction,
              settings: SlicedDerivativeSettings = SlicedDerivativeSettings()) -> tuple[float, float]:
    """The eps^2 coefficient for slice weights, with a noise estimate.

    Returns (f3, noise).  The universal constant and the logarithmic terms
    are not assembled explicitly here; they live inside the geometric piece's
    central difference (its ln(h) part is removed with the exactly known
    coefficient 1/(6ab)).  Raises FiniteDifferenceNoiseError when the noise
    estimate exceeds 1e-3 of |f3|.
    """
    phi.check_positive(-a, b)
    slope_min = 0.9 * phi.min_on(-a, b)
    ab = a * b
    steps = settings.fd_steps
    order = settings.richardson_order

    base = _sliced_pieces(a, b, phi, 0.0, slope_min)
    rows_c, y_c = [], []
    rows_d, deltas = [], {1: [], 2: [], 3: []}
    for h in steps:
        plus = _sliced_pieces(a, b, phi, +h, slope_min)
        minus = _sliced_pieces(a, b, phi, -h, slope_min)
        w = (plus[0] - 2.0 * base[0] + minus[0]) / (h * h) - log(h) / (6.0 * ab)
        rows_c.append(_extrapolation_basis(order, "central", h))
        y_c.append(w)
        rows_d.append(_extrapolation_basis(order, "one_sided", h))
        for idx in (1, 2, 3):
            deltas[idx].append(plus[idx] - base[idx])

    mat_c = np.asarray(rows_c)
    coef_c, *_ = np.linalg.lstsq(mat_c, np.asarray(y_c), rcond=None)
    resid_c = float(np.max(np.abs(np.asarray(y_c) - mat_c @ coef_c)))
    f3 = coef_c[0] / 2.0
    noise = 0.5 * resid_c

    mat_d = np.asarray(rows_d)
    h_big = max(steps)
    for idx in (1, 2, 3):
        coef_d, *_ = np.linalg.lstsq(mat_d, np.asarray(deltas[idx]), rcond=None)
        f3 += coef_d[1]
        resid = float(np.max(np.abs(np.asarray(deltas[idx]) - mat_d @ coef_d)))
        noise += resid / (h_big * h_big)

    noise += 4.0e-15 * max(1.0, abs(base[0])) / min(steps) ** 2  # FD roundoff floor
    if noise > 1e-3 * max(abs(f3), 1e-12):
        raise FiniteDifferenceNoiseError(
            f"sliced f3 noise estimate {noise:.3e} exceeds 1e-3 of |f3| = {abs(f3):.3e}; "
            "use smaller fd_steps")
    return float(f3), float(noise)


def coeffs_sliced(a: float, b: float, phi: PhiFunction,
                  settings: SlicedDerivativeSettings = SlicedDerivativeSettings()) -> ExpansionCoefficients:
    """Slice-weighted infinite-height box, convention f = +ln Z/V."""
    _require_sides(a=a, b=b)
    f0 = sliced_f0(a, b, phi)
    f2 = 1.0 / (12.0 * a * b)
    f3, noise = sliced_f3(a, b, phi, settings)
    return ExpansionCoefficients(f0, 0.0, f2, f3, scenario="sliced", fd_noise=noise)
