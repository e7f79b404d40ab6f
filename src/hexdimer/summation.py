"""Exact accumulation: a vectorised correctly rounded sum and a streaming one.

exact_sum serves arrays that are all in hand; NeumaierSum serves streaming
loops with a data-dependent stopping rule.
"""
import math

import numpy as np

_BLOCK = 1 << 15          # elements per extraction block (cache resident)
_HUGE = math.ldexp(1.0, 900)
_TINY = math.ldexp(1.0, -900)
_MAX_LEVELS = 64          # a block in [_TINY, _HUGE] needs at most 51 levels


def _split_levels(p: np.ndarray, q: np.ndarray, parts: list) -> bool:
    """Append to parts floats whose exact sum is the exact sum of p.

    Error-free splitting of Rump, Ogita and Oishi ("ExtractVector", Accurate
    floating-point summation, Part I, SIAM J. Sci. Comput. 31(1), 2008): with
    n + 2 <= 2^M, max|p| < 2^e and sigma = 2^(M+e), q = (sigma + p) - sigma
    and p - q are exact, and sum(q) is exact in any order.  p and q are
    overwritten.  Returns False, with parts incomplete, on inf, nan or a value
    near overflow: those are left to math.fsum so that its errors carry over.
    """
    m_bits = (p.size + 1).bit_length()
    for _ in range(_MAX_LEVELS):
        top = max(p.max(), -p.min())
        if top == 0.0:
            return True
        if not top <= _HUGE:
            return False
        if top < _TINY:
            break
        sigma = math.ldexp(1.0, m_bits + math.frexp(top)[1])
        np.add(p, sigma, out=q)
        q -= sigma
        p -= q
        parts.append(float(q.sum()))
    parts.extend(p[p != 0.0].tolist())
    return True


def exact_sum(values) -> float:
    """The correctly rounded sum of an array: bit for bit what math.fsum returns.

    The array is split block by block into a few exact level sums (see
    _split_levels), and math.fsum rounds their exact total once.  Both results
    are the exact sum rounded to nearest, so they agree.  Arrays holding inf,
    nan or magnitudes above 2^900 go to math.fsum whole.
    """
    x = np.asarray(values, dtype=float).ravel()
    size = min(x.size, _BLOCK)
    p, q = np.empty(size), np.empty(size)
    parts = []
    for start in range(0, x.size, _BLOCK):
        block = x[start:start + _BLOCK]
        p_block, q_block = p[:block.size], q[:block.size]
        np.copyto(p_block, block)
        if not _split_levels(p_block, q_block, parts):
            return math.fsum(x)
    return math.fsum(parts)


class NeumaierSum:
    """Running compensated sum (Neumaier's variant of Kahan summation)."""

    __slots__ = ("_s", "_c", "count")

    def __init__(self, value: float = 0.0):
        self._s = float(value)
        self._c = 0.0
        self.count = 0

    def add(self, term: float) -> None:
        t = self._s + term
        if abs(self._s) >= abs(term):
            self._c += (self._s - t) + term
        else:
            self._c += (term - t) + self._s
        self._s = t
        self.count += 1

    @property
    def value(self) -> float:
        return self._s + self._c
