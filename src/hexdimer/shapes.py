"""Lattice box shapes (the scaled boxes are partition.Scenario).

An infinite height is represented by ``math.inf`` rather than a sentinel
integer, so volume formulas cannot silently overflow.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

INFINITE = math.inf


def _is_positive_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool) and x >= 1


@dataclass(frozen=True)
class BoxShape:
    """Integer side lengths (m, n, k) of the hexagonal domain; k may be inf."""

    m: int
    n: int
    k: int | float

    def __post_init__(self):
        if not _is_positive_int(self.m) or not _is_positive_int(self.n):
            raise ValueError(f"box sides m, n must be positive integers, got {self.m!r}, {self.n!r}")
        if self.k != INFINITE and not _is_positive_int(self.k):
            raise ValueError(f"box side k must be a positive integer or math.inf, got {self.k!r}")

    @property
    def is_finite(self) -> bool:
        return self.k != INFINITE

    @property
    def volume(self) -> int | float:
        """Number of lattice vertices: 2(mn+nk+mk), or m*n for infinite height."""
        if self.is_finite:
            return 2 * (self.m * self.n + self.n * self.k + self.m * self.k)
        return self.m * self.n
