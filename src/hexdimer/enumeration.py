"""Brute-force configuration enumeration: the ground-truth partition oracle.

Configurations are monotone height tables h[i][j] <= min(h[i-1][j], h[i][j-1], k)
(boxed plane partitions).  energy_histogram walks them lexicographically over
row-major cells with an O(1) per-cell bound, counting each configuration at
its number of cubes; oracle_partition sums q^(cubes) over that count.
"""
from __future__ import annotations

from collections.abc import Callable
from itertools import chain, repeat
from math import fsum

from .errors import OracleSizeError
from .shapes import BoxShape

MAX_CELLS = 16
MAX_HEIGHT = 8
MAX_CONFIGS = 10**6


def config_count(shape: BoxShape) -> int:
    """Exact number of configurations: MacMahon's product at q = 1.

    prod_{i,j,l} (i+j+l-1)/(i+j+l-2) telescopes over l to
    prod_{i,j} (i+j+k-1)/(i+j-1), evaluated in integers.
    """
    num = den = 1
    for i in range(1, shape.m + 1):
        for j in range(1, shape.n + 1):
            num *= i + j + shape.k - 1
            den *= i + j - 1
    return num // den


def _check_guard(shape: BoxShape) -> None:
    if not shape.is_finite:
        raise OracleSizeError("oracle too large: enumeration requires finite k")
    if shape.m * shape.n > MAX_CELLS or shape.k > MAX_HEIGHT:
        raise OracleSizeError(
            f"oracle too large: need m*n <= {MAX_CELLS} and k <= {MAX_HEIGHT}, "
            f"got m*n = {shape.m * shape.n}, k = {shape.k}")
    count = config_count(shape)
    if count > MAX_CONFIGS:
        raise OracleSizeError(
            f"oracle too large: {shape.m}x{shape.n}x{shape.k} has {count} configurations, "
            f"more than {MAX_CONFIGS}")


def energy_histogram(shape: BoxShape) -> dict[int, int]:
    """Number of configurations at each energy (the number of cubes, the sum of
    the heights), in ascending energy; Z is its generating polynomial.

    The walk visits every configuration once, lexicographically over row-major
    cells, and carries only the running cube count: no table is built per
    configuration.
    """
    _check_guard(shape)
    n, k = shape.n, shape.k
    last = shape.m * n - 1
    grid = [0] * (last + 1)  # the current table, row-major
    counts = [0] * (shape.m * n * k + 1)  # configurations per energy 0..mnk

    def fill(cell: int, energy: int) -> None:
        bound = k
        if cell >= n:
            bound = min(bound, grid[cell - n])
        if cell % n:
            bound = min(bound, grid[cell - 1])
        if cell == last:
            for h in range(energy, energy + bound + 1):
                counts[h] += 1
            return
        for h in range(bound + 1):
            grid[cell] = h
            fill(cell + 1, energy + h)

    fill(0, 0)
    return {e: c for e, c in enumerate(counts) if c}


def _z_of_q(shape: BoxShape) -> Callable[[float], float]:
    """Z as a function of q in (0, 1], over one walk of the shape.

    Z(q) is math.fsum over the multiset of terms, q^e repeated once per
    configuration at energy e; fsum is correctly rounded, so the order of the
    terms cannot change the result.
    """
    histogram = energy_histogram(shape)

    def z(q: float) -> float:
        return fsum(chain.from_iterable(repeat(q ** e, count) for e, count in histogram.items()))

    return z


def oracle_partition(shape: BoxShape, q: float) -> float:
    """Z(q) = sum over configurations of q^(number of cubes), by direct enumeration."""
    if not (0.0 < q <= 1.0):
        raise ValueError(f"q must be in (0, 1], got {q}")
    return _z_of_q(shape)(q)
