"""Special functions for the free-energy asymptotics.

chi(z)   = e^{-z} (z / (1 - e^{-z}))^2   (even; equals ((z/2)/sinh(z/2))^2)
xi(z)    = e^{z} chi''(z)
Q(z)     = (xi(z) - xi(0)) / z,  xi(0) = chi''(0) = -1/6
Li_s(z)  = sum z^n / n^s
I_Q      = int_0^inf e^{-z} Q(z) dz      (the universal expansion constant)

chi is numerically benign everywhere (expm1 removes the 0/0); its Taylor
branch only covers |z| < 1e-3.  xi's closed form is a fourth-order 0/0: the
bracket collapses from O(1) terms to -z^4/6, losing ~|4 log10 z| digits, so
xi, chi'' and Q switch to an exact Bernoulli-generated Taylor series below
0.25 (the series converges for |z| < 2*pi; truncation at z^24 is below 1e-16
up to |z| ~ 0.8).
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, exp, expm1, factorial, fsum, isnan, log

import numpy as np

from .errors import ConvergenceError
from .quadrature import adaptive, gauss_legendre
from .summation import NeumaierSum

_CHI_TAYLOR_SWITCH = 1e-3
_LI_TERM_TOL = 1e-17
_XI_SERIES_FLOOR = 0.25
_SERIES_TERMS = 13  # even orders through z^24

# the universal constant: quadrature on [0, _Z_CUT] at _QUAD_REL_TOL, plus the
# tail bound; the total error bound must stay below _CONSTANT_REL_TOL * |I_Q|
_Z_CUT = 60.0  # >= 6, where the linear tail bound holds
_QUAD_REL_TOL = 1e-12
_CONSTANT_REL_TOL = 1e-10
_UNIT_ROUNDOFF = 2.0**-53
_EXP_ULPS = 2.0  # exp and expm1 are within one ulp: relative error <= 2u


def _bernoulli(n_max: int) -> list[Fraction]:
    """B_0 .. B_{n_max} by the defining recurrence, exact."""
    bern = [Fraction(1)]
    for m in range(1, n_max + 1):
        acc = Fraction(0)
        for k in range(m):
            acc += comb(m + 1, k) * bern[k]
        bern.append(-acc / (m + 1))
    return bern


def _series_coefficients():
    """Exact Taylor coefficients of chi, chi'' and xi about 0.

    chi(z) = sum_n (1-2n) B_{2n} / (2n)! z^{2n}; chi'' follows by index shift
    and xi = e^z chi'' by Cauchy product (done in exact rationals).
    """
    bern = _bernoulli(2 * _SERIES_TERMS)
    chi_c = [Fraction(1 - 2 * n) * bern[2 * n] / factorial(2 * n) for n in range(_SERIES_TERMS)]
    chidd_c = [Fraction(1 - 2 * n) * bern[2 * n] / factorial(2 * n - 2) for n in range(1, _SERIES_TERMS)]
    m_max = 2 * (_SERIES_TERMS - 1) - 1
    xi_c = []
    for m in range(m_max + 1):
        acc = Fraction(0)
        for i, c in enumerate(chidd_c):
            if 2 * i <= m:
                acc += c / factorial(m - 2 * i)
        xi_c.append(acc)
    return ([float(c) for c in chi_c], [float(c) for c in chidd_c], [float(c) for c in xi_c])


_CHI_C, _CHIDD_C, _XI_C = _series_coefficients()
# Q(z) = sum_m xi_{m+1} z^m; Q(0) = xi'(0) = -1/6
_Q_C = _XI_C[1:]


def _even_series(coeffs, z: float) -> float:
    z2 = z * z
    p = 1.0
    terms = []
    for c in coeffs:
        terms.append(c * p)
        p *= z2
    return fsum(terms)


def _poly(coeffs, z: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def chi(z: float) -> float:
    """chi(z) = e^{-z} (z/(1-e^{-z}))^2; even, chi(0) = 1."""
    t = abs(float(z))
    if t < _CHI_TAYLOR_SWITCH:
        return _even_series(_CHI_C, t)
    d = -expm1(-t)
    return t * t * exp(-t) / (d * d)


def _xi_bracket(z, ez, d):
    # xi = P e^{-2z} / (1-e^{-z})^4 with the constant/linear/quadratic-in-z
    # cancellations already absorbed, ez = e^{-z}, d = 1 - e^{-z}:
    #   P e^{-2z} = 6 z^2 e^{-2z} + (e^{-z}-e^{-2z})(6z^2-8z) + (1-e^{-z})^2 (z^2-4z+2)
    # The arithmetic is generic, so _Tracked values run the same operations.
    pe2 = 6.0 * z * z * ez * ez + (ez - ez * ez) * (6.0 * z * z - 8.0 * z) + d * d * (z * z - 4.0 * z + 2.0)
    return pe2 / (d * d * d * d)


def _xi_closed(z: float) -> float:
    return _xi_bracket(z, exp(-z), -expm1(-z))


def xi(z: float) -> float:
    """xi(z) = e^z chi''(z); xi(0) = -1/6."""
    z = float(z)
    if abs(z) < _XI_SERIES_FLOOR:
        return _poly(_XI_C, z)
    if z < 0:
        return exp(2.0 * z) * _xi_closed(-z)
    return _xi_closed(z)


def chi_dd(z: float) -> float:
    """Second derivative of chi; even, chi''(0) = -1/6."""
    t = abs(float(z))
    if t < _XI_SERIES_FLOOR:
        return _even_series(_CHIDD_C, t)
    return exp(-t) * _xi_closed(t)


def q_func(z: float) -> float:
    """Q(z) = (xi(z) - xi(0))/z for z >= 0, with Q(0) = xi'(0) = -1/6."""
    z = float(z)
    if z < 0 or isnan(z):
        raise ValueError(f"Q is defined for z >= 0, got {z}")
    if z < _XI_SERIES_FLOOR:
        return _poly(_Q_C, z)
    return (_xi_closed(z) + 1.0 / 6.0) / z


def li(s: int, z: float, n_cap: int = 10**7) -> float:
    """Polylogarithm Li_s(z) = sum_{n>=1} z^n / n^s for integer s >= 1, z in [0, 1].

    The series is summed with compensated accumulation until a term drops
    below _LI_TERM_TOL * |partial sum|.  At z = 1 (s >= 2 only) the polynomial
    tail is completed with an Euler-Maclaurin correction.
    """
    if not isinstance(s, int) or s < 1:
        raise ValueError(f"order s must be an integer >= 1, got {s!r}")
    if not (0.0 <= z <= 1.0):
        raise ValueError(f"argument z must lie in [0, 1], got {z}")
    if z == 0.0:
        return 0.0
    if z == 1.0:
        if s == 1:
            raise ValueError("Li_1(1) diverges (harmonic series)")
        return _zeta_em(s)
    acc = NeumaierSum()
    logz = log(z)
    n = 1
    while True:
        term = exp(n * logz) / n**s
        acc.add(term)
        if term < _LI_TERM_TOL * abs(acc.value):
            return acc.value
        n += 1
        if n > n_cap:
            raise ConvergenceError(f"Li_{s}({z}) did not converge within {n_cap} terms",
                                   partial=acc.value, achieved=term)


@lru_cache(maxsize=None)
def _zeta_em(s: int, n_direct: int = 10000) -> float:
    """zeta(s) for integer s >= 2: direct sum to N plus Euler-Maclaurin tail."""
    head = fsum(1.0 / n**s for n in range(1, n_direct + 1))
    N = float(n_direct)
    tail = (N ** (1 - s) / (s - 1) - 0.5 * N ** (-s) + s / 12.0 * N ** (-s - 1)
            - s * (s + 1) * (s + 2) / 720.0 * N ** (-s - 3))
    return head + tail


def zeta3() -> float:
    """Apery's constant zeta(3) = Li_3(1)."""
    return li(3, 1.0)


class _Tracked:
    """A float or array with a running roundoff bound mu (Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2nd ed., sec. 3.3): each rounded
    operation adds |result| to mu and later operations carry mu by their
    partials, so the value is within u * mu of exact, to first order."""

    def __init__(self, v, mu=0.0):
        self.v, self.mu = v, mu

    def __add__(self, o):
        o = o if isinstance(o, _Tracked) else _Tracked(o)
        return _rounded(self.v + o.v, self.mu + o.mu)

    def __sub__(self, o):
        return self + _Tracked(-o.v, o.mu)

    def __mul__(self, o):
        o = o if isinstance(o, _Tracked) else _Tracked(o)
        return _rounded(self.v * o.v, self.mu * abs(o.v) + o.mu * abs(self.v))

    def __truediv__(self, o):
        v = self.v / o.v
        return _rounded(v, (self.mu + o.mu * abs(v)) / abs(o.v))

    __radd__, __rmul__ = __add__, __mul__


def _rounded(v, mu):
    return _Tracked(v, mu + abs(v))


def _integrand_roundoff(z: np.ndarray) -> np.ndarray:
    """First-order bound on the floating-point error of the computed
    e^{-z} Q(z) at each node z > 0: a running bound over the operations of
    q_func (coefficients and 1/6 rounded once each), plus e^{-z} and 1 - e^{-z}
    within one ulp.  Those two feed several operations each, so their error
    enters through the signed derivatives of xi rather than per use.
    """
    t = _Tracked(z)
    series = _poly([_Tracked(c, abs(c)) for c in _Q_C], t)
    ez, d = np.exp(-z), -np.expm1(-z)
    xi_z = _xi_bracket(t, _Tracked(ez), _Tracked(d))
    closed = (xi_z + _Tracked(1.0 / 6.0, 1.0 / 6.0)) / t
    dxi_dez = (12.0 * z * z * ez + (1.0 - 2.0 * ez) * (6.0 * z * z - 8.0 * z)) / d**4
    dxi_dd = 2.0 * (z * z - 4.0 * z + 2.0) / d**3 - 4.0 * xi_z.v / d
    closed_mu = closed.mu + _EXP_ULPS * (np.abs(ez * dxi_dez) + np.abs(d * dxi_dd)) / z
    on_series = z < _XI_SERIES_FLOOR
    q = _Tracked(np.where(on_series, series.v, closed.v), np.where(on_series, series.mu, closed_mu))
    return _UNIT_ROUNDOFF * (_Tracked(ez, _EXP_ULPS * ez) * q).mu


@lru_cache(maxsize=None)
def universal_constant() -> float:
    """int_0^inf e^{-z} Q(z) dz, the universal finite-size constant (cached)."""
    value, _ = universal_constant_detail()
    return value


def universal_constant_detail():
    """As universal_constant, but returns (value, error_bound).

    The error bound sums the adaptive-panel estimate on [0, z_cut], the
    analytic tail bound |int_{z_cut}^inf e^{-z} Q| <= (z_cut + 1) e^{-z_cut}
    (using 0 < Q(z) < z for z >= 6), and the integral of the integrand's
    floating-point roundoff bound (_integrand_roundoff), which dominates.
    """
    def integrand(z):
        return np.exp(-z) * np.asarray([q_func(t) for t in np.atleast_1d(z)])

    value, err = adaptive(integrand, 0.0, _Z_CUT, rel_tol=_QUAD_REL_TOL)
    tail_bound = (_Z_CUT + 1.0) * exp(-_Z_CUT)
    # 15-point Gauss panels split at the series switch, widths doubling after it
    edges = np.array([0.0, _XI_SERIES_FLOOR, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, _Z_CUT])
    (gx, gw), half = gauss_legendre(15), 0.5 * np.diff(edges)[:, None]
    roundoff = fsum((half * gw * _integrand_roundoff(edges[:-1, None] + half * (gx + 1.0))).ravel())
    total_err = err + tail_bound + roundoff
    if total_err > _CONSTANT_REL_TOL * abs(value):
        raise ConvergenceError(
            f"universal constant quadrature reached {total_err:.3e}, "
            f"above rel_tol {_CONSTANT_REL_TOL:g}",
            partial=value, achieved=total_err)
    return value, total_err
