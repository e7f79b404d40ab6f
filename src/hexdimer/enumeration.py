"""Brute-force configuration enumeration: the ground-truth partition oracle.

Configurations are monotone height tables h[i][j] <= min(h[i-1][j], h[i][j-1], k)
(boxed plane partitions).  The enumeration is lexicographic over row-major
cells with an O(1) per-cell bound, so the output order is deterministic.
"""
from __future__ import annotations

from math import fsum
from typing import Iterator

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


def enumerate_configs(shape: BoxShape) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Yield every monotone height table, as a tuple of m rows, exactly once,
    lexicographically."""
    _check_guard(shape)
    m, n, k = shape.m, shape.n, shape.k
    grid = [[0] * n for _ in range(m)]

    def fill(cell: int):
        if cell == m * n:
            yield tuple(tuple(row) for row in grid)
            return
        i, j = divmod(cell, n)
        bound = k
        if i > 0:
            bound = min(bound, grid[i - 1][j])
        if j > 0:
            bound = min(bound, grid[i][j - 1])
        for h in range(bound + 1):
            grid[i][j] = h
            yield from fill(cell + 1)
        grid[i][j] = 0

    yield from fill(0)


def oracle_partition(shape: BoxShape, q: float) -> float:
    """Z(q) = sum over configurations of q^(number of cubes), by direct enumeration."""
    if not (0.0 < q <= 1.0):
        raise ValueError(f"q must be in (0, 1], got {q}")
    return fsum(q ** sum(map(sum, h)) for h in enumerate_configs(shape))


def energy_histogram(shape: BoxShape) -> dict[int, int]:
    """Number of configurations at each energy (the number of cubes, the sum of
    the heights); Z is its generating polynomial."""
    hist: dict[int, int] = {}
    for h in enumerate_configs(shape):
        e = sum(map(sum, h))
        hist[e] = hist.get(e, 0) + 1
    return hist
