"""Special functions for the free-energy asymptotics.

chi(z)   = e^{-z} (z / (1 - e^{-z}))^2   (even; equals ((z/2)/sinh(z/2))^2)
xi(z)    = e^{z} chi''(z)
Q(z)     = (xi(z) - xi(0)) / z,  xi(0) = chi''(0) = -1/6
Li_s(z)  = sum z^n / n^s
I_Q      = int_0^inf e^{-z} Q(z) dz      (the universal expansion constant)

chi is numerically benign everywhere (expm1 removes the 0/0), so its Taylor
branch honors the configured switch.  xi's closed form is a fourth-order 0/0:
the bracket collapses from O(1) terms to -z^4/6, losing ~|4 log10 z| digits,
so xi, chi'' and Q switch to an exact Bernoulli-generated Taylor series below
a floor of 0.25 regardless of the configured switch (the series converges for
|z| < 2*pi; truncation at z^24 is below 1e-16 up to |z| ~ 0.8).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, exp, expm1, factorial, fsum, isnan, log

import numpy as np

from .errors import ConvergenceError
from .quadrature import adaptive
from .summation import NeumaierSum

_XI_SERIES_FLOOR = 0.25
_SERIES_TERMS = 13  # even orders through z^24


@dataclass(frozen=True)
class QuadratureSettings:
    """Tolerances for the universal-constant integral and series branches."""

    rel_tol: float = 1e-10
    z_cut: float = 60.0
    taylor_switch: float = 1e-3

    def __post_init__(self):
        if not self.rel_tol > 0:
            raise ValueError("rel_tol must be positive")
        if not self.taylor_switch > 0:
            raise ValueError("taylor_switch must be positive")
        if exp(-self.z_cut) >= self.rel_tol:
            raise ValueError("z_cut too small: exp(-z_cut) must be below rel_tol")


DEFAULT_SETTINGS = QuadratureSettings()


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


def chi(z: float, settings: QuadratureSettings = DEFAULT_SETTINGS) -> float:
    """chi(z) = e^{-z} (z/(1-e^{-z}))^2; even, chi(0) = 1."""
    t = abs(float(z))
    if t < settings.taylor_switch:
        return _even_series(_CHI_C, t)
    d = -expm1(-t)
    return t * t * exp(-t) / (d * d)


def _xi_closed(z: float) -> float:
    # xi = P e^{-2z} / (1-e^{-z})^4 with the constant/linear/quadratic-in-z
    # cancellations already absorbed:
    #   P e^{-2z} = 6 z^2 e^{-2z} + (e^{-z}-e^{-2z})(6z^2-8z) + (1-e^{-z})^2 (z^2-4z+2)
    ez = exp(-z)
    d = -expm1(-z)
    pe2 = 6.0 * z * z * ez * ez + (ez - ez * ez) * (6.0 * z * z - 8.0 * z) + d * d * (z * z - 4.0 * z + 2.0)
    return pe2 / (d * d * d * d)


def xi(z: float, settings: QuadratureSettings = DEFAULT_SETTINGS) -> float:
    """xi(z) = e^z chi''(z); xi(0) = -1/6."""
    z = float(z)
    switch = max(settings.taylor_switch, _XI_SERIES_FLOOR)
    if abs(z) < switch:
        return _poly(_XI_C, z)
    if z < 0:
        return exp(2.0 * z) * _xi_closed(-z)
    return _xi_closed(z)


def chi_dd(z: float, settings: QuadratureSettings = DEFAULT_SETTINGS) -> float:
    """Second derivative of chi; even, chi''(0) = -1/6."""
    t = abs(float(z))
    switch = max(settings.taylor_switch, _XI_SERIES_FLOOR)
    if t < switch:
        return _even_series(_CHIDD_C, t)
    return exp(-t) * _xi_closed(t)


def q_func(z: float, settings: QuadratureSettings = DEFAULT_SETTINGS) -> float:
    """Q(z) = (xi(z) - xi(0))/z for z >= 0, with Q(0) = xi'(0) = -1/6."""
    z = float(z)
    if z < 0 or isnan(z):
        raise ValueError(f"Q is defined for z >= 0, got {z}")
    switch = max(settings.taylor_switch, _XI_SERIES_FLOOR)
    if z < switch:
        return _poly(_Q_C, z)
    return (_xi_closed(z) + 1.0 / 6.0) / z


def li(s: int, z: float, term_tol: float = 1e-17, n_cap: int = 10**7) -> float:
    """Polylogarithm Li_s(z) = sum_{n>=1} z^n / n^s for integer s >= 1, z in [0, 1].

    The series is summed with compensated accumulation until a term drops
    below term_tol * |partial sum|.  At z = 1 (s >= 2 only) the polynomial
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
        if term < term_tol * abs(acc.value):
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


@lru_cache(maxsize=None)
def universal_constant(settings: QuadratureSettings = DEFAULT_SETTINGS) -> float:
    """int_0^inf e^{-z} Q(z) dz, the universal finite-size constant (cached per settings)."""
    value, _ = universal_constant_detail(settings)
    return value


def universal_constant_detail(settings: QuadratureSettings = DEFAULT_SETTINGS):
    """As universal_constant, but returns (value, error_bound).

    The error bound sums the adaptive-panel estimate on [0, z_cut] and the
    analytic tail bound |int_{z_cut}^inf e^{-z} Q| <= (z_cut + 1) e^{-z_cut},
    using 0 < Q(z) < z for z >= 6.
    """
    s = settings
    if s.z_cut < 6.0:
        raise ValueError("z_cut must be >= 6 for the linear tail bound to hold")

    def integrand(z):
        return np.exp(-z) * np.asarray([q_func(t, s) for t in np.atleast_1d(z)])

    value, err = adaptive(integrand, 0.0, s.z_cut, rel_tol=min(s.rel_tol, 1e-12))
    tail_bound = (s.z_cut + 1.0) * exp(-s.z_cut)
    total_err = err + tail_bound
    if total_err > s.rel_tol * abs(value):
        raise ConvergenceError(
            f"universal constant quadrature reached {total_err:.3e}, above rel_tol {s.rel_tol:g}",
            partial=value, achieved=total_err)
    return value, total_err
