"""Exact log-partition functions and free energies for all three scenarios.

Sign conventions (fixed by fitting exact data; see README):
  finite box:      f = -ln Z / V,  V = 2(mn + nk + mk)
  infinite height: f = +ln Z / V,  V = m n
  sliced weights:  f = +ln Z / V,  V = m n
The log_z_* functions themselves always return ln Z > 0.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from math import fsum, log

import numpy as np

from .errors import ConvergenceError
from .shapes import INFINITE, BoxShape, ScaledShape
from .specialfn import chi
from .summation import NeumaierSum, exact_sum
from .weights import PhiFunction, Sliced, Uniform, WeightSpec

CONVENTION_FINITE = "f = -ln(Z)/V"
CONVENTION_POSITIVE = "f = +ln(Z)/V"


@dataclass(frozen=True)
class SeriesSettings:
    """Stopping rule for the resummed free-energy series."""

    term_tol: float = 1e-16
    n_max_cap: int = 10**7

    def __post_init__(self):
        if not self.term_tol > 0:
            raise ValueError("term_tol must be positive")


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


def _require_q_open_interval(q: float) -> None:
    if not (0.0 < q < 1.0):
        raise ValueError(f"q must be in (0, 1); got {q} "
                         "(use oracle_partition for the q = 1 counting limit)")


def log_z_macmahon(shape: BoxShape, q: float) -> float:
    """ln Z for the finite box via the triple product formula.

    Factors are grouped by t = i+j+k (multiplicity from two convolutions), so
    the cost is O(m+n+k) log evaluations instead of O(mnk).  Each grouped
    factor is a single log1p of a positive quantity, which is stable at both
    q^t -> 0 and q^t -> 1.
    """
    if not shape.is_finite:
        raise ValueError("log_z_macmahon requires finite k; use log_z_infinite")
    _require_q_open_interval(q)
    m, n, k = shape.m, shape.n, shape.k
    mult = np.convolve(np.convolve(np.ones(m), np.ones(n)), np.ones(k))  # index t-3
    t = np.arange(3, m + n + k + 1, dtype=float)
    q_t2 = np.exp((t - 2.0) * log(q))
    # ln[(1-q^{t-1})/(1-q^{t-2})] = log1p(q^{t-2}(1-q)/(1-q^{t-2}))
    terms = np.log1p(q_t2 * (1.0 - q) / (1.0 - q_t2))
    return fsum(mult * terms)


def log_z_infinite(shape: BoxShape, q: float) -> float:
    """ln Z for the infinite-height box: -sum_{i,j} ln(1 - q^{i+j-1})."""
    if shape.is_finite:
        raise ValueError("log_z_infinite requires k = inf")
    _require_q_open_interval(q)
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
    summed exactly (exact_sum equals math.fsum bit for bit).
    """
    if m < 1 or n < 1 or eps <= 0:
        raise ValueError("need m, n >= 1 and eps > 0")
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


def sliced_free_energy_value(m: int, n: int, phi: PhiFunction, eps: float) -> float:
    return log_z_sliced(m, n, phi, eps) / (m * n)


def free_energy(shape, weights: WeightSpec) -> FreeEnergySample:
    """Exact free-energy sample for a BoxShape (uniform only) or ScaledShape."""
    if isinstance(shape, BoxShape):
        if not isinstance(weights, Uniform):
            raise ValueError("a bare BoxShape needs a Uniform weight; use ScaledShape for sliced")
        eps = -log(weights.q)
        if eps <= 0:
            raise ValueError("q = 1 has eps = 0; no finite-size sample exists there")
        f = free_energy_value(shape, weights.q)
    elif isinstance(shape, ScaledShape):
        eps = shape.eps
        box = shape.box()
        if isinstance(weights, Uniform):
            if abs(weights.q - math.exp(-eps)) > 1e-12:
                raise ValueError("uniform q must equal e^{-eps} for a scaled sample")
            f = free_energy_value(box, weights.q)
        elif isinstance(weights, Sliced):
            if shape.is_finite:
                raise ValueError("sliced weights apply to the infinite-height box (c = inf)")
            f = sliced_free_energy_value(box.m, box.n, weights.phi, eps)
        else:
            raise TypeError(f"unsupported weight spec {weights!r}")
    else:
        raise TypeError(f"expected BoxShape or ScaledShape, got {type(shape).__name__}")
    inv = 1.0 / eps
    if abs(inv - round(inv)) > 1e-9 * max(1.0, inv):
        raise ValueError(f"1/eps = {inv} is not an integer grid point; "
                         "use free_energy_value for off-grid evaluations")
    return FreeEnergySample(inv_eps=round(inv), eps=eps, f=f)


def series_free_energy(scaled: ScaledShape, variant: str = None,
                       settings: SeriesSettings = SeriesSettings()) -> float:
    """Resummed series sum_n chi(n eps) H_n / n^3 with the scenario prefactor.

    H_n has three exponential factors for the finite box, two for the
    infinite-height box.  Terms are accumulated in ascending n with
    compensated summation; the loop stops once the remaining tail bound
    chi(n eps) * max(H) * sum_{m>n} m^-3 <= chi(n eps)/(2 n^2) drops below
    term_tol.
    """
    if variant is None:
        variant = "finite" if scaled.is_finite else "infinite"
    if variant not in ("finite", "infinite"):
        raise ValueError(f"variant must be 'finite' or 'infinite', got {variant!r}")
    a, b, eps = scaled.a, scaled.b, scaled.eps
    if variant == "finite":
        if not scaled.is_finite:
            raise ValueError("finite variant needs finite c")
        c = scaled.c
        prefactor = -1.0 / (2.0 * (a * b + b * c + a * c))
    else:
        prefactor = 1.0 / (a * b)

    acc = NeumaierSum()
    n = 1
    while True:
        z = n * eps
        chi_n = chi(z)
        if variant == "finite":
            h = (-math.expm1(-n * a)) * (-math.expm1(-n * b)) * (-math.expm1(-n * c))
        else:
            h = (-math.expm1(-n * a)) * (-math.expm1(-n * b))
        acc.add(chi_n * h / n**3)
        if chi_n / (2.0 * n * n) < settings.term_tol:
            break
        n += 1
        if n > settings.n_max_cap:
            raise ConvergenceError(
                f"series free energy did not converge within {settings.n_max_cap} terms",
                partial=prefactor * acc.value, achieved=chi_n / (2.0 * n * n))
    return prefactor * acc.value


def grid_samples(scenario: str, a: float, b: float, c: float = INFINITE,
                 phi: PhiFunction = None, inv_eps_min: int = 2, inv_eps_max: int = 200,
                 threads: int = 1) -> list[FreeEnergySample]:
    """Exact free-energy samples over the integer grid 1/eps = min..max."""
    if inv_eps_min < 1 or inv_eps_min >= inv_eps_max:
        raise ValueError("need 1 <= inv_eps_min < inv_eps_max")
    if scenario not in ("finite", "infinite", "sliced"):
        raise ValueError(f"unknown scenario {scenario!r}")
    if scenario == "finite" and (c is None or c == INFINITE):
        raise ValueError("finite scenario needs a finite c")
    if scenario == "sliced" and phi is None:
        raise ValueError("sliced scenario needs a phi function")
    if scenario == "sliced":
        phi.check_positive(-a, b)

    def one(t: int) -> FreeEnergySample:
        eps = 1.0 / t
        if scenario == "finite":
            scaled = ScaledShape(a, b, c, eps)
            f = free_energy_value(scaled.box(), math.exp(-eps))
        elif scenario == "infinite":
            scaled = ScaledShape(a, b, INFINITE, eps)
            box = scaled.box()
            f = free_energy_value(box, math.exp(-eps))
        else:
            scaled = ScaledShape(a, b, INFINITE, eps)
            box = scaled.box()
            f = sliced_free_energy_value(box.m, box.n, phi, eps)
        return FreeEnergySample(inv_eps=t, eps=eps, f=f)

    grid = list(range(inv_eps_min, inv_eps_max + 1))
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(one, grid))
    return [one(t) for t in grid]
