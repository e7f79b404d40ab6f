"""Least-squares extraction of expansion coefficients from exact samples.

The default basis {1, eps, eps^2 ln eps, eps^2, eps^3, eps^4} is nearly
collinear on a [1/200, 1/2] grid, so columns are normalized before the QR
solve and the coefficients are rescaled afterwards.  Samples are sorted by
eps before the decomposition, which makes the result independent of input
order bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import fsum, log
from typing import Callable, Sequence

import numpy as np

from .asymptotics import ExpansionCoefficients, predict_free_energy
from .errors import IllConditionedBasisError
from .partition import FreeEnergySample

CONDITION_LIMIT = 1e12


@dataclass(frozen=True)
class FitBasis:
    """Ordered basis functions of eps with printable names."""

    names: tuple[str, ...]
    terms: tuple[Callable[[np.ndarray], np.ndarray], ...]

    @classmethod
    def default(cls) -> "FitBasis":
        return cls(
            names=("1", "eps", "eps2*log(eps)", "eps2", "eps3", "eps4"),
            terms=(
                lambda e: np.ones_like(e),
                lambda e: e,
                lambda e: e**2 * np.log(e),
                lambda e: e**2,
                lambda e: e**3,
                lambda e: e**4,
            ),
        )

    def __len__(self) -> int:
        return len(self.terms)

    def design_matrix(self, eps: np.ndarray) -> np.ndarray:
        return np.column_stack([t(eps) for t in self.terms])


@dataclass(frozen=True)
class FitResult:
    """Fitted coefficients (basis order) plus conditioning diagnostics."""

    basis: FitBasis
    coefficients: tuple[float, ...]
    residual_rms: float
    condition_estimate: float
    residual_slope: float | None

    def expansion(self, scenario: str, convention: str) -> ExpansionCoefficients:
        f0, f1, f2, f3 = self.coefficients[:4]
        return ExpansionCoefficients(f0, f1, f2, f3, scenario=scenario,
                                     provenance="fitted", convention=convention)


def fit(samples: Sequence[FreeEnergySample], basis: FitBasis | None = None) -> FitResult:
    """Linear least squares by column-scaled Householder QR (no normal equations)."""
    if basis is None:
        basis = FitBasis.default()
    if len(samples) < len(basis) + 4:
        raise ValueError(f"need at least {len(basis) + 4} samples for {len(basis)} basis terms, "
                         f"got {len(samples)}")
    ordered = sorted(samples, key=lambda s: s.eps)
    eps = np.array([s.eps for s in ordered])
    if np.any(np.diff(eps) == 0.0):
        raise ValueError("duplicate eps values in samples")
    y = np.array([s.f for s in ordered])

    design = basis.design_matrix(eps)
    norms = np.linalg.norm(design, axis=0)
    scaled = design / norms
    condition = float(np.linalg.cond(scaled))
    if condition > CONDITION_LIMIT:
        raise IllConditionedBasisError(
            f"design matrix condition estimate {condition:.3e} exceeds {CONDITION_LIMIT:.0e}")
    q_mat, r_mat = np.linalg.qr(scaled)
    coef = np.linalg.solve(r_mat, q_mat.T @ y) / norms
    residuals = y - design @ coef
    rms = float(np.sqrt(np.mean(residuals**2)))

    slope = None
    four_term = ExpansionCoefficients(*coef[:4], scenario="fit", provenance="fitted")
    try:
        slope = residual_slope(ordered, four_term)
    except ValueError:
        pass
    return FitResult(basis=basis, coefficients=tuple(float(c) for c in coef),
                     residual_rms=rms, condition_estimate=condition, residual_slope=slope)


def residual_slope(samples: Sequence[FreeEnergySample],
                   coeffs: ExpansionCoefficients) -> float:
    """Log-log slope of |exact - predicted| vs eps over the 1/eps >= 20 samples.

    Exactly vanishing residuals are excluded from the regression; fewer than
    5 usable points is an error.
    """
    usable = [s for s in samples if s.inv_eps >= 20]
    if len(usable) < 10:
        raise ValueError(f"need >= 10 samples with 1/eps >= 20, got {len(usable)}")
    points = []
    for s in usable:
        r = abs(s.f - predict_free_energy(coeffs, s.eps))
        if r > 0.0:
            points.append((log(s.eps), log(r)))
    if len(points) < 5:
        raise ValueError(f"only {len(points)} nonzero residuals; need >= 5")
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_mean = fsum(xs) / len(xs)
    y_mean = fsum(ys) / len(ys)
    sxx = fsum((x - x_mean) ** 2 for x in xs)
    sxy = fsum((x - x_mean) * (y - y_mean) for x, y in points)
    return sxy / sxx
