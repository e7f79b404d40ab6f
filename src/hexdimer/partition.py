"""Exact log-partition functions and free energies for all three scenarios.

Sign conventions (fixed by fitting exact data; see README):
  finite box:      f = -ln Z / V,  V = 2(mn + nk + mk)
  infinite height: f = +ln Z / V,  V = m n
  sliced weights:  f = +ln Z / V,  V = m n
The log_z_* functions themselves always return ln Z > 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from math import fsum, log

import numpy as np

from .asymptotics import (CONVENTION_FINITE, CONVENTION_POSITIVE, ExpansionCoefficients,
                          _require_sides, coeffs_finite, coeffs_infinite, coeffs_sliced)
from .errors import ConvergenceError
from .shapes import INFINITE, BoxShape, ScaledShape
from .specialfn import chi
from .summation import NeumaierSum, exact_sum
from .weights import PhiFunction


# stopping rule for the resummed free-energy series
_SERIES_TERM_TOL = 1e-16
_SERIES_N_MAX = 10**7


@dataclass(frozen=True)
class FreeEnergySample:
    """One exact free-energy value on the integer 1/eps grid."""

    inv_eps: int
    eps: float
    f: float

    def __post_init__(self):
        if self.inv_eps < 1 or abs(self.eps * self.inv_eps - 1.0) > 1e-9:
            raise ValueError(f"inconsistent sample: eps={self.eps}, inv_eps={self.inv_eps}")
        if not math.isfinite(self.f):
            raise ValueError("free energy must be finite")


def log_z_macmahon(shape: BoxShape, q: float) -> float:
    """ln Z for the finite box via the triple product formula, q in (0, 1].

    Factors are grouped by t = i+j+k (multiplicity from two convolutions), so
    the cost is O(m+n+k) log evaluations instead of O(mnk).  Each grouped
    factor is a single log1p of a positive quantity, which is stable at both
    q^t -> 0 and q^t -> 1.  At q = 1 the factor is its limit (t-1)/(t-2), so
    ln Z is the log of the configuration count.
    """
    if not shape.is_finite:
        raise ValueError("log_z_macmahon requires finite k; use log_z_infinite")
    if not (0.0 < q <= 1.0):
        raise ValueError(f"q must be in (0, 1]; got {q}")
    m, n, k = shape.m, shape.n, shape.k
    mult = np.convolve(np.convolve(np.ones(m), np.ones(n)), np.ones(k))  # index t-3
    t = np.arange(3, m + n + k + 1, dtype=float)
    if q == 1.0:
        terms = np.log1p(1.0 / (t - 2.0))
    else:
        q_t2 = np.exp((t - 2.0) * log(q))
        # ln[(1-q^{t-1})/(1-q^{t-2})] = log1p(q^{t-2}(1-q)/(1-q^{t-2}))
        terms = np.log1p(q_t2 * (1.0 - q) / (1.0 - q_t2))
    return fsum(mult * terms)


def log_z_infinite(shape: BoxShape, q: float) -> float:
    """ln Z for the infinite-height box: -sum_{i,j} ln(1 - q^{i+j-1})."""
    if shape.is_finite:
        raise ValueError("log_z_infinite requires k = inf")
    if not (0.0 < q < 1.0):
        raise ValueError(f"q must be in (0, 1) for the infinite-height box; got {q}")
    m, n = shape.m, shape.n
    s = np.arange(1, m + n, dtype=float)
    mult = np.minimum.reduce([s, np.full_like(s, m), np.full_like(s, n), m + n - s])
    return -fsum(mult * np.log1p(-np.exp(s * log(q))))


def sliced_log_weight_exponents(m: int, n: int, phi: PhiFunction, eps: float) -> np.ndarray:
    """Exponent matrix E with Z = prod 1/(1 - e^{-E_ij}).

    E_ij = eps * (phi(b-a) + sum_{k=1..i} phi(b-a-k*eps) + sum_{l=1..j} phi(b-a+l*eps)),
    i over the n side, j over the m side; the slice sums are cached prefix sums.
    One vectorised phi call covers every slice t = (n-m+j)*eps, j = 1-n..m-1,
    and np.cumsum accumulates each prefix sum left to right in plain floats,
    so an index-by-index recomputation (the naive oracle) reproduces every
    entry bit for bit.
    """
    d = n - m
    values = np.asarray(phi((d + np.arange(1 - n, m)) * eps), dtype=float)
    eta = values[n - 1]
    c_minus = np.zeros(n)
    np.cumsum(values[:n - 1][::-1], out=c_minus[1:])
    c_plus = np.zeros(m)
    np.cumsum(values[n:], out=c_plus[1:])
    exponents = np.add.outer(c_minus, c_plus)
    exponents += eta
    exponents *= eps
    return exponents


def log_z_sliced(m: int, n: int, phi: PhiFunction, eps: float) -> float:
    """ln Z for the infinite-height box with slice weights q_t = e^{-eps phi(t eps)}.

    The terms ln(1 - e^{-E_ij}) are formed in place in the exponent matrix and
    summed exactly (exact_sum equals math.fsum bit for bit).  phi is evaluated
    on the slices [(1-m) eps, (n-1) eps]; a tabulated profile must cover them.
    """
    if m < 1 or n < 1 or eps <= 0:
        raise ValueError("need m, n >= 1 and eps > 0")
    phi.check_range((1 - m) * eps, (n - 1) * eps)
    terms = sliced_log_weight_exponents(m, n, phi, eps)
    if not np.all(terms > 0.0):
        raise ValueError("non-positive weight exponent: phi must be strictly positive on [-a, b]")
    np.negative(terms, out=terms)
    np.exp(terms, out=terms)
    np.negative(terms, out=terms)
    np.log1p(terms, out=terms)
    return -exact_sum(terms)


def free_energy_value(shape: BoxShape, q: float) -> float:
    """Free energy per site from the exact product formulas (uniform weight)."""
    if shape.is_finite:
        return -log_z_macmahon(shape, q) / shape.volume
    return log_z_infinite(shape, q) / shape.volume


def series_free_energy(scaled: ScaledShape) -> float:
    """Resummed series sum_n chi(n eps) H_n / n^3 with the scenario prefactor.

    H_n has three exponential factors for the finite box (finite c), two for
    the infinite-height box.  Terms are accumulated in ascending n with
    compensated summation; the loop stops once the remaining tail bound
    chi(n eps) * max(H) * sum_{m>n} m^-3 <= chi(n eps)/(2 n^2) drops below
    _SERIES_TERM_TOL, and raises ConvergenceError past _SERIES_N_MAX terms.
    """
    a, b, c, eps = scaled.a, scaled.b, scaled.c, scaled.eps
    finite = scaled.is_finite
    if finite:
        prefactor = -1.0 / (2.0 * (a * b + b * c + a * c))
    else:
        prefactor = 1.0 / (a * b)

    acc = NeumaierSum()
    n = 1
    while True:
        z = n * eps
        chi_n = chi(z)
        h = (-math.expm1(-n * a)) * (-math.expm1(-n * b))
        if finite:
            h *= -math.expm1(-n * c)
        acc.add(chi_n * h / n**3)
        if chi_n / (2.0 * n * n) < _SERIES_TERM_TOL:
            break
        n += 1
        if n > _SERIES_N_MAX:
            raise ConvergenceError(
                f"series free energy did not converge within {_SERIES_N_MAX} terms",
                partial=prefactor * acc.value, achieved=chi_n / (2.0 * n * n))
    return prefactor * acc.value


SCENARIO_KINDS = ("finite", "infinite", "sliced")


@dataclass(frozen=True)
class Scenario:
    """One of the three boxes, in scaled sides: the finite hexagon (a, b, c),
    the infinite-height box (a, b), or the infinite-height box with slice
    weights q_t = e^{-eps phi(t eps)}.

    Construction validates the combination once; every consumer (sampling,
    coefficients, the sign convention) then reads it from here.
    """

    kind: str
    a: float
    b: float
    c: float = INFINITE
    phi: PhiFunction | None = None

    def __post_init__(self):
        if self.kind not in SCENARIO_KINDS:
            raise ValueError(f"unknown scenario {self.kind!r}; expected one of "
                             f"{', '.join(SCENARIO_KINDS)}")
        _require_sides(a=self.a, b=self.b)
        if self.kind == "finite":
            _require_sides(c=self.c)
        elif self.c != INFINITE:
            raise ValueError(f"the {self.kind} scenario has infinite height; got c = {self.c}")
        if self.kind == "sliced":
            if self.phi is None:
                raise ValueError("the sliced scenario needs a phi function")
            self.phi.check_positive(-self.a, self.b)
        elif self.phi is not None:
            raise ValueError(f"the {self.kind} scenario takes no phi function")

    @property
    def convention(self) -> str:
        return CONVENTION_FINITE if self.kind == "finite" else CONVENTION_POSITIVE

    def free_energy(self, eps: float) -> float:
        """Exact free energy per site at mesh eps (a/eps, b/eps, c/eps integers)."""
        box = ScaledShape(self.a, self.b, self.c, eps).box()
        if self.kind == "sliced":
            return log_z_sliced(box.m, box.n, self.phi, eps) / (box.m * box.n)
        return free_energy_value(box, math.exp(-eps))

    def coefficients(self) -> ExpansionCoefficients:
        """Closed-form f0..f3."""
        if self.kind == "finite":
            return coeffs_finite(self.a, self.b, self.c)
        if self.kind == "infinite":
            return coeffs_infinite(self.a, self.b)
        return coeffs_sliced(self.a, self.b, self.phi)


def grid_samples(scenario: Scenario, inv_eps_min: int = 2,
                 inv_eps_max: int = 200) -> list[FreeEnergySample]:
    """Exact free-energy samples over the integer grid 1/eps = min..max."""
    if inv_eps_min < 1 or inv_eps_min >= inv_eps_max:
        raise ValueError("need 1 <= inv_eps_min < inv_eps_max")
    return [FreeEnergySample(inv_eps=t, eps=1.0 / t, f=scenario.free_energy(1.0 / t))
            for t in range(inv_eps_min, inv_eps_max + 1)]
