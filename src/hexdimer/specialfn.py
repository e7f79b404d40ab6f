"""Special functions for the free-energy asymptotics.

chi(z)   = e^{-z} (z / (1 - e^{-z}))^2   (even; equals ((z/2)/sinh(z/2))^2)
Q(z)     = (xi(z) - xi(0)) / z,  xi(z) = e^{z} chi''(z),  xi(0) = -1/6
Li_s(z)  = sum z^n / n^s,  0 <= z < 1  (Li_1 = -log1p(-z); Li_2(e^-x) and
           Li_3(e^-x) for small x from their expansions in x)
zeta(3)  = Li_3(1), which the closed forms take as a literal
I_Q      = int_0^inf e^{-z} Q(z) dz = 1/4 + 2 zeta'(-1)   (the universal
           expansion constant, in closed form; see universal_constant_detail)

chi is numerically benign everywhere (expm1 removes the 0/0); its Taylor
branch only covers |z| < 1e-3.  xi's closed form is a fourth-order 0/0: the
bracket collapses from O(1) terms to -z^4/6, losing ~|4 log10 z| digits, so
Q switches to an exact Bernoulli-generated Taylor series below z = 1, near
where the two errors cross.  Against a 40-digit Q the series is within 6e-17
below 1 (it converges for |z| < 2*pi, but its truncation at z^24 costs up to
2.3e-15 relative on [1.05, 1.1) and 1e-8 on [1.5, 2)); the closed form is
1.5e-13 off near 0.28, and within 3.4e-15 from 1 to 3.
"""
from __future__ import annotations

from fractions import Fraction
from math import comb, exp, expm1, factorial, fsum, isnan, log, log1p, pi, ulp

import numpy as np

from .errors import ConvergenceError

_CHI_TAYLOR_SWITCH = 1e-3
_LI_TERM_TOL = 1e-17
_LI_N_MAX = 10**7
# Li_2(e^-x) and Li_3(e^-x) below this x come from their expansions in x
_LI3_SERIES_SWITCH = 0.25
_XI_SERIES_FLOOR = 1.0  # Q's series below, its closed form above
_SERIES_TERMS = 13  # even orders through z^24
# I_Q = 1/4 + 2 zeta'(-1) = 5/12 - 2 ln A to 38 digits; the literal rounds to
# the double nearest it, -0x1.4b21484854d02p-4
_UNIVERSAL_CONSTANT = -0.080842287400901858427839320485561285528
# zeta(3) to 40 digits; the literal rounds to the double nearest it, 0x1.33ba004f00621p+0
_ZETA3 = 1.202056903159594285399738161511449990765
_ZETA2 = pi * pi / 6.0  # the double nearest zeta(2), 0x1.a51a6625307d3p+0


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
    """Exact Taylor coefficients of chi and Q about 0.

    chi(z) = sum_n (1-2n) B_{2n} / (2n)! z^{2n}; chi'' follows by index shift,
    xi = e^z chi'' by Cauchy product (done in exact rationals) and
    Q(z) = sum_m xi_{m+1} z^m, so Q(0) = xi'(0) = -1/6.
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
    return [float(c) for c in chi_c], [float(c) for c in xi_c[1:]]


_CHI_C, _Q_C = _series_coefficients()


def _li_series_coefficients():
    """For s = 2 and 3, (k, c_k) with, for x < 2 pi,
        Li_2(e^-x) = zeta(2) - (1 - ln x) x + sum_k c_k x^k,
        Li_3(e^-x) = zeta(3) - zeta(2) x + (3/2 - ln x) x^2/2 + sum_k c_k x^k.
    c_k = zeta(s-k) (-1)^k / k! = (-1)^s B_{k-s+1} / ((k-s+1) k!) for k >= s,
    zero for even k-s >= 2; kept through x^14: the first term dropped is
    below 1e-22 at x = _LI3_SERIES_SWITCH."""
    bern = _bernoulli(13)
    return [[(k, float((-1) ** s * bern[k - s + 1] / ((k - s + 1) * factorial(k))))
             for k in range(s, 15) if bern[k - s + 1]] for s in (2, 3)]


_LI2_C, _LI3_C = _li_series_coefficients()


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


def chi(z):
    """chi(z) = e^{-z} (z/(1-e^{-z}))^2; even, chi(0) = 1.

    z is a float or an array: a float (or any 0-d input) gives a float, an
    array gives an array of its shape.  Both run the same numpy code, so an
    array's values are the scalar calls' values bit for bit.  Below |z| =
    _CHI_TAYLOR_SWITCH each value is the fsum of the Taylor series, one at a
    time; the rest take np.expm1 and np.exp together.
    """
    t = np.abs(np.asarray(z, dtype=float))
    with np.errstate(all="ignore"):  # 0/0 at z = 0 is replaced below; inf * 0 gives nan
        d = -np.expm1(-t)
        out = np.asarray(t * t * np.exp(-t) / (d * d))
    small = t < _CHI_TAYLOR_SWITCH
    if small.any():
        out[small] = [_even_series(_CHI_C, v) for v in t[small].tolist()]
    return float(out) if out.ndim == 0 else out


def _xi_closed(z: float) -> float:
    # xi = P e^{-2z} / (1-e^{-z})^4 with the constant/linear/quadratic-in-z
    # cancellations already absorbed, ez = e^{-z}, d = 1 - e^{-z}:
    #   P e^{-2z} = 6 z^2 e^{-2z} + (e^{-z}-e^{-2z})(6z^2-8z) + (1-e^{-z})^2 (z^2-4z+2)
    ez, d = exp(-z), -expm1(-z)
    pe2 = 6.0 * z * z * ez * ez + (ez - ez * ez) * (6.0 * z * z - 8.0 * z) + d * d * (z * z - 4.0 * z + 2.0)
    return pe2 / (d * d * d * d)


def q_func(z: float) -> float:
    """Q(z) = (xi(z) - xi(0))/z for z >= 0, with Q(0) = xi'(0) = -1/6."""
    z = float(z)
    if z < 0 or isnan(z):
        raise ValueError(f"Q is defined for z >= 0, got {z}")
    if z < _XI_SERIES_FLOOR:
        return _poly(_Q_C, z)
    return (_xi_closed(z) + 1.0 / 6.0) / z


def li(s: int, z: float) -> float:
    """Polylogarithm Li_s(z) = sum_{n>=1} z^n / n^s for integer s >= 1, z in [0, 1).

    Li_1(z) is -log1p(-z).  Li_2 and Li_3 near z = 1 (x = -ln z below
    _LI3_SERIES_SWITCH) are their expansions in x (see
    _li_series_coefficients), where the series in z would need ~1/x terms.
    Otherwise the terms of the series in z are kept and their fsum returned.
    After term n the tail is below term * z / (1 - z), and for s >= 2 below
    term * z * n / (s - 1); the terms stop at the first whose bound is below
    _LI_TERM_TOL * (plain running sum), with 1 - z formed as -expm1(ln z).
    Past _LI_N_MAX terms it raises ConvergenceError with the fsum so far.
    z = 1 is rejected: the closed forms take Li_3(1) as zeta3().
    """
    if not isinstance(s, int) or s < 1:
        raise ValueError(f"order s must be an integer >= 1, got {s!r}")
    if not (0.0 <= z < 1.0):
        raise ValueError(f"argument z must lie in [0, 1), got {z}")
    if z == 0.0:
        return 0.0
    if s == 1:
        return -log1p(-z)
    logz = log(z)
    if s == 2 and logz > -_LI3_SERIES_SWITCH:
        x = -logz
        return fsum([_ZETA2, (log(x) - 1.0) * x] + [c * x**k for k, c in _LI2_C])
    if s == 3 and logz > -_LI3_SERIES_SWITCH:
        x = -logz
        return fsum([_ZETA3, -_ZETA2 * x, (1.5 - log(x)) * x * x / 2.0]
                    + [c * x**k for k, c in _LI3_C])
    terms, running = [], 0.0
    tol = _LI_TERM_TOL * -expm1(logz) / z
    n = 1
    while True:
        term = exp(n * logz) / n**s
        terms.append(term)
        running += term
        if term < tol * running or term * z * n < (s - 1) * _LI_TERM_TOL * running:
            return fsum(terms)
        n += 1
        if n > _LI_N_MAX:
            raise ConvergenceError(f"Li_{s}({z}) did not converge within {_LI_N_MAX} terms",
                                   partial=fsum(terms), achieved=term)


def zeta3() -> float:
    """Apery's constant zeta(3) = Li_3(1): the double nearest it."""
    return _ZETA3


def universal_constant() -> float:
    """I_Q = int_0^inf e^{-z} Q(z) dz = 1/4 + 2 zeta'(-1), the universal
    finite-size constant: the double nearest it."""
    return _UNIVERSAL_CONSTANT


def universal_constant_detail():
    """As universal_constant, but returns (value, error_bound).

    The value is the closed form rounded once, so the bound is half an ulp.
    Proof, by Mellin transforms (Flajolet, Gourdon and Dumas, Theor. Comput.
    Sci. 144, 1995): chi(z) = sum_{n>=1} n z^2 e^{-nz}, so M[chi](s) =
    Gamma(s+2) zeta(s+1) and M[chi''](s) = (s-1)(s-2) Gamma(s) zeta(s-1).
    e^{-z} Q(z) = (chi''(z) + e^{-z}/6)/z, so I_Q = lim_{s->0} [(s-1)(s-2) Gamma(s)
    zeta(s-1) + Gamma(s)/6] = 1/4 + 2 zeta'(-1); the 1/s and Euler-gamma terms cancel.
    zeta'(-1) = 1/12 - ln A = -0.16542114370045092921... (A the Glaisher-Kinkelin constant).
    """
    return _UNIVERSAL_CONSTANT, ulp(_UNIVERSAL_CONSTANT) / 2.0
