"""Exact accumulation: a vectorised correctly rounded sum and a streaming one.

exact_sum serves arrays that are all in hand: small ones go to math.fsum,
larger ones are split at one error-free extraction level with one splitting
constant per array, and a bound on the rest decides the rounding.
NeumaierSum serves streaming loops with a data-dependent stopping rule, a
term or an array of terms at a time.
"""
import math

import numpy as np

_BLOCK = 1 << 15          # elements per extraction block (cache resident)
_HUGE = math.ldexp(1.0, 900)
_TINY = math.ldexp(1.0, -900)
_U = math.ldexp(1.0, -53)  # unit roundoff
# up to this many values, math.fsum over a list is faster than the extraction,
# whose fixed cost is about 10 us
_FSUM_MAX = 256


def _fsum(x: np.ndarray) -> float:
    """math.fsum over the values of x (a list reads faster than numpy scalars)."""
    return math.fsum(x.tolist())


def _split(x: np.ndarray, sigma: float, p: np.ndarray, q: np.ndarray) -> tuple[float, float]:
    """Split x at sigma; return its level sum and its remainders' float sum.

    Error-free splitting of Rump, Ogita and Oishi ("ExtractVector", Accurate
    floating-point summation, Part I, SIAM J. Sci. Comput. 31(1), 2008): with
    k + 2 <= 2^M for the k values of x, max|x| < 2^e and sigma = 2^(M+e),
    q = (sigma + x) - sigma and the remainders x - q (written to p) are exact,
    each at most u sigma (u = 2^-53), and sum(q) is exact in any order.  The
    remainders' float sum is off by at most gamma_{k-1} k u sigma <= (k u)^2 sigma.
    """
    np.add(x, sigma, out=q)
    q -= sigma
    np.subtract(x, q, out=p)
    return float(q.sum()), float(p.sum())


def exact_sum(values, top: float | None = None) -> float:
    """The correctly rounded sum of an array: bit for bit what math.fsum returns.

    At most _FSUM_MAX values go to math.fsum.  Above that, top bounds every
    |value|: given (log_z_sliced passes one, which saves two reductions), or
    measured once.  A top of 0 gives 0.0; one outside [2^-900, 2^900] (or inf,
    or nan) sends the array to math.fsum, so that its errors carry over.
    Otherwise every block of at most size = min(len, _BLOCK) values is split
    at the sigma that size and top give (see _split), and B, nblocks times
    (size u)^2 sigma rounded up, bounds the remainder sums' error.  Rounding
    to nearest is monotone, so when math.fsum rounds the level and remainder
    sums with -B and with +B appended to the same float, that float is the
    exact sum rounded to nearest.  Otherwise (a sum within B of a rounding
    boundary, or zero) math.fsum sums the values.  The input is never written.
    """
    x = np.asarray(values, dtype=float).ravel()
    if x.size <= _FSUM_MAX:
        return _fsum(x)
    if top is None:
        top = max(x.max(initial=0.0), -x.min(initial=0.0))
    if top == 0.0:
        return 0.0
    if not _TINY <= top <= _HUGE:
        return _fsum(x)
    size = min(x.size, _BLOCK)
    sigma = math.ldexp(1.0, (size + 1).bit_length() + math.frexp(top)[1])
    p, q = np.empty(size), np.empty(size)
    sums = []
    for start in range(0, x.size, _BLOCK):
        block = x[start:start + _BLOCK]
        sums += _split(block, sigma, p[:block.size], q[:block.size])
    # (size u)^2 sigma per block; nextafter covers the int product's rounding to float
    bound = math.nextafter(len(sums) // 2 * size * size * _U * _U * sigma, math.inf)
    low = math.fsum(sums + [-bound])
    if low == math.fsum(sums + [bound]):
        return low
    return _fsum(x)


class NeumaierSum:
    """Running compensated sum (Neumaier's variant of Kahan summation)."""

    __slots__ = ("_s", "_c", "count")

    def __init__(self):
        self._s = 0.0
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

    def add_array(self, terms: np.ndarray) -> None:
        """add each value of a 1-D array in order, bit for bit as the add loop.

        np.cumsum accumulates sequentially, so seeded with _s it reproduces
        every running sum t; each step's compensation is add's branch, picked
        by np.where, and a cumsum seeded with _c adds them in the same order.
        """
        with np.errstate(all="ignore"):  # inf and nan propagate as Python floats do
            sums = np.cumsum(np.concatenate(([self._s], terms)))
            s, t = sums[:-1], sums[1:]
            comp = np.where(np.abs(s) >= np.abs(terms), (s - t) + terms, (terms - t) + s)
            self._c = float(np.cumsum(np.concatenate(([self._c], comp)))[-1])
        self._s = float(sums[-1])
        self.count += terms.size

    @property
    def value(self) -> float:
        return self._s + self._c
