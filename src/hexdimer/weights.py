"""Boltzmann weight specifications: uniform q or slice-dependent phi(t).

Slice weight functions expose closed-form first/second derivatives and an
antiderivative; both are needed by the sliced asymptotics (Euler-Maclaurin
corrections use phi' and phi'' at b-a, the leading integrals use the
antiderivative).  The named catalog covers the shapes used in the reference
experiments; arbitrary data enters through a cubic-spline table.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class PhiFunction:
    """Continuous positive weight profile t -> phi(t)."""

    id: str = "phi"

    def __call__(self, t):
        raise NotImplementedError

    def d1(self, t):
        raise NotImplementedError

    def d2(self, t):
        raise NotImplementedError

    def antiderivative(self, t):
        """An antiderivative Phi with Phi' = phi (additive constant arbitrary)."""
        raise NotImplementedError

    def integral(self, t0, t1):
        return self.antiderivative(t1) - self.antiderivative(t0)

    def check_positive(self, lo: float, hi: float, samples: int = 2001) -> None:
        grid = np.linspace(lo, hi, samples)
        vals = np.asarray(self(grid), dtype=float)
        if not np.all(vals > 0.0):
            bad = float(grid[int(np.argmin(vals))])
            raise ValueError(f"phi must be strictly positive on [{lo}, {hi}]; phi({bad}) = {float(np.min(vals))}")

    def min_on(self, lo: float, hi: float, samples: int = 4001) -> float:
        grid = np.linspace(lo, hi, samples)
        return float(np.min(np.asarray(self(grid), dtype=float)))


class ConstantPhi(PhiFunction):
    def __init__(self, c: float):
        if not c > 0:
            raise ValueError("constant phi must be positive")
        self.c = float(c)
        self.id = f"const:{self.c:g}"

    def __call__(self, t):
        return self.c + 0.0 * np.asarray(t, dtype=float)

    def d1(self, t):
        return 0.0 * np.asarray(t, dtype=float)

    d2 = d1

    def antiderivative(self, t):
        return self.c * np.asarray(t, dtype=float)


class LinearPhi(PhiFunction):
    """phi(t) = alpha + beta * t."""

    def __init__(self, alpha: float, beta: float):
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.id = f"linear:{self.alpha:g},{self.beta:g}"

    def __call__(self, t):
        return self.alpha + self.beta * np.asarray(t, dtype=float)

    def d1(self, t):
        return self.beta + 0.0 * np.asarray(t, dtype=float)

    def d2(self, t):
        return 0.0 * np.asarray(t, dtype=float)

    def antiderivative(self, t):
        t = np.asarray(t, dtype=float)
        return self.alpha * t + self.beta * t * t / 2.0


class CosinePhi(PhiFunction):
    """phi(t) = (2 + cos t) / 3."""

    id = "cosine"

    def __call__(self, t):
        return (2.0 + np.cos(t)) / 3.0

    def d1(self, t):
        return -np.sin(t) / 3.0

    def d2(self, t):
        return -np.cos(t) / 3.0

    def antiderivative(self, t):
        t = np.asarray(t, dtype=float)
        return (2.0 * t + np.sin(t)) / 3.0


class TabulatedPhi(PhiFunction):
    """Cubic-spline interpolation of sampled (t, phi(t)) pairs."""

    def __init__(self, t, values, id: str = "tabulated"):
        from scipy.interpolate import CubicSpline

        t = np.asarray(t, dtype=float)
        values = np.asarray(values, dtype=float)
        if t.ndim != 1 or t.size < 4 or t.shape != values.shape:
            raise ValueError("tabulated phi needs >= 4 matching (t, phi) samples")
        if np.any(np.diff(t) <= 0):
            raise ValueError("tabulated phi abscissae must be strictly increasing")
        self._spline = CubicSpline(t, values)
        self._d1 = self._spline.derivative(1)
        self._d2 = self._spline.derivative(2)
        self._anti = self._spline.antiderivative()
        self.t_min = float(t[0])
        self.t_max = float(t[-1])
        self.id = id

    def __call__(self, t):
        return self._spline(t)

    def check_positive(self, lo: float, hi: float, samples: int = 2001) -> None:
        # the spline would extrapolate silently; callers check their range
        # once here instead of on every evaluation
        if not (self.t_min <= lo and hi <= self.t_max):
            raise ValueError(f"[{lo}, {hi}] lies outside the tabulated range "
                             f"[{self.t_min}, {self.t_max}] of {self.id}")
        super().check_positive(lo, hi, samples)

    def d1(self, t):
        return self._d1(t)

    def d2(self, t):
        return self._d2(t)

    def antiderivative(self, t):
        return self._anti(t)


def phi_from_id(spec: str) -> PhiFunction:
    """Parse a catalog id: const:c | linear:alpha,beta | cosine | tabulated:<csv path>."""
    name, _, args = spec.partition(":")
    if name == "const":
        return ConstantPhi(float(args))
    if name == "linear":
        alpha, beta = (float(x) for x in args.split(","))
        return LinearPhi(alpha, beta)
    if name == "cosine":
        return CosinePhi()
    if name == "tabulated":
        data = np.loadtxt(args, delimiter=",", comments="#")
        return TabulatedPhi(data[:, 0], data[:, 1], id=f"tabulated:{args}")
    raise ValueError(f"unknown phi spec {spec!r}; expected const:c, linear:a,b, cosine or tabulated:<file>")


@dataclass(frozen=True)
class Uniform:
    """Uniform Boltzmann weight q in (0, 1]."""

    q: float

    def __post_init__(self):
        if not (0.0 < self.q <= 1.0) or math.isnan(self.q):
            raise ValueError(f"uniform weight q must be in (0, 1], got {self.q}")


@dataclass(frozen=True)
class Sliced:
    """Slice weights q_t = exp(-eps * phi(t * eps)) on diagonal slices."""

    phi: PhiFunction


WeightSpec = Uniform | Sliced
