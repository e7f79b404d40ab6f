"""Panel-based Gauss-Legendre quadrature with adaptive bisection.

The integrands here are smooth apart from known endpoint behavior (an
exponential tail, or an integrable log at one edge), so plain Gauss panels
with an embedded half-panel error estimate are accurate and predictable.
Dyadic grading handles the log edge.
"""
from __future__ import annotations

from functools import lru_cache
from math import fsum

import numpy as np

from .errors import ConvergenceError

_PANEL_NODES = 15      # Gauss-Legendre nodes per panel
_MAX_PANELS = 4000     # adaptive's panel budget
_GRADING_LEVELS = 46   # dyadic levels of log_graded_edges


@lru_cache(maxsize=None)
def gauss_legendre(n: int):
    """Nodes and weights on [-1, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def fixed_panel(f, a: float, b: float) -> float:
    """Gauss-Legendre estimate of int_a^b f; f must accept numpy arrays."""
    x, w = gauss_legendre(_PANEL_NODES)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return half * float(np.dot(w, f(mid + half * x)))


def adaptive(f, a: float, b: float, rel_tol: float = 1e-12):
    """Adaptive bisection; per-panel error from an order-vs-split comparison.

    Returns (value, error_bound).  Raises ConvergenceError if the panel
    budget is exhausted before the tolerance is met.
    """
    stack = [(a, b, fixed_panel(f, a, b))]
    done_vals: list[float] = []
    done_errs: list[float] = []
    scale = abs(stack[0][2])
    used = 1
    while stack:
        lo, hi, coarse = stack.pop()
        mid = 0.5 * (lo + hi)
        left = fixed_panel(f, lo, mid)
        right = fixed_panel(f, mid, hi)
        err = abs(left + right - coarse)
        tol_here = rel_tol * max(scale, abs(left + right)) * (hi - lo) / (b - a)
        if err <= tol_here or (hi - lo) < 1e-14 * (b - a):
            done_vals.extend((left, right))
            done_errs.append(err)
            continue
        used += 2
        if used > _MAX_PANELS:
            raise ConvergenceError(
                f"adaptive quadrature did not converge within {_MAX_PANELS} panels",
                partial=fsum(done_vals) + left + right, achieved=fsum(done_errs) + err)
        stack.append((lo, mid, left))
        stack.append((mid, hi, right))
    return fsum(done_vals), fsum(done_errs)


def log_graded_edges(lo: float, hi: float) -> np.ndarray:
    """Panel edges on [lo, hi] graded dyadically toward lo.

    The first edge sits at (hi-lo)*2^-_GRADING_LEVELS above lo; the sliver
    below it is for the caller to bound analytically (for s*log s behavior it
    is ~1e-26).
    """
    width = hi - lo
    rel = [2.0 ** (-_GRADING_LEVELS + i) for i in range(_GRADING_LEVELS + 1)]
    return lo + width * np.asarray([0.0] + rel)
