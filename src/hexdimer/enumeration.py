"""Brute-force configuration enumeration: the ground-truth partition oracle.

Configurations are monotone height tables h[i][j] <= min(h[i-1][j], h[i][j-1], k)
(boxed plane partitions).  The enumeration is lexicographic over row-major
cells with an O(1) per-cell bound, so the output order is deterministic.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import fsum
from typing import Iterator

from .errors import OracleSizeError
from .shapes import BoxShape

MAX_CELLS = 16
MAX_HEIGHT = 8
MAX_CONFIGS = 10**6


@dataclass(frozen=True)
class HeightConfig:
    """Immutable m x n table of column heights."""

    heights: tuple[tuple[int, ...], ...]

    @property
    def m(self) -> int:
        return len(self.heights)

    @property
    def n(self) -> int:
        return len(self.heights[0])


def config_energy(config: HeightConfig) -> int:
    """Total number of cubes: sum of all heights."""
    return sum(sum(row) for row in config.heights)


def is_valid_config(shape: BoxShape, heights) -> bool:
    """Check the order constraints h_ij <= h_{i-1,j}, h_ij <= h_{i,j-1} and 0 <= h <= k."""
    m, n, k = shape.m, shape.n, shape.k
    if len(heights) != m or any(len(row) != n for row in heights):
        return False
    for i in range(m):
        for j in range(n):
            h = heights[i][j]
            if h < 0 or h > k:
                return False
            if i > 0 and h > heights[i - 1][j]:
                return False
            if j > 0 and h > heights[i][j - 1]:
                return False
    return True


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


def _check_guard(shape: BoxShape, max_cells: int, max_height: int) -> None:
    if not shape.is_finite:
        raise OracleSizeError("oracle too large: enumeration requires finite k")
    if shape.m * shape.n > max_cells or shape.k > max_height:
        raise OracleSizeError(
            f"oracle too large: need m*n <= {max_cells} and k <= {max_height}, "
            f"got m*n = {shape.m * shape.n}, k = {shape.k}")
    count = config_count(shape)
    if count > MAX_CONFIGS:
        raise OracleSizeError(
            f"oracle too large: {shape.m}x{shape.n}x{shape.k} has {count} configurations, "
            f"more than {MAX_CONFIGS}")


def enumerate_configs(shape: BoxShape, max_cells: int = MAX_CELLS,
                      max_height: int = MAX_HEIGHT) -> Iterator[HeightConfig]:
    """Yield every monotone height table exactly once, lexicographically."""
    _check_guard(shape, max_cells, max_height)
    m, n, k = shape.m, shape.n, shape.k
    grid = [[0] * n for _ in range(m)]

    def fill(cell: int) -> Iterator[HeightConfig]:
        if cell == m * n:
            yield HeightConfig(tuple(tuple(row) for row in grid))
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


def oracle_partition(shape: BoxShape, q: float, max_cells: int = MAX_CELLS,
                     max_height: int = MAX_HEIGHT) -> float:
    """Z(q) = sum over configurations of q^energy, by direct enumeration."""
    if not (0.0 < q <= 1.0):
        raise ValueError(f"q must be in (0, 1], got {q}")
    return fsum(q ** config_energy(c)
                for c in enumerate_configs(shape, max_cells, max_height))


def energy_histogram(shape: BoxShape, **kwargs) -> dict[int, int]:
    """Number of configurations at each energy; Z is its generating polynomial."""
    hist: dict[int, int] = {}
    for c in enumerate_configs(shape, **kwargs):
        e = config_energy(c)
        hist[e] = hist.get(e, 0) + 1
    return hist
