"""Exact accumulation: a vectorised correctly rounded sum and a streaming one.

exact_sum serves arrays that are all in hand.  Up to _FSUM_MAX values it is
math.fsum over the values as a list; above that, one error-free extraction
level per block and a rigorous bound on the rest decide the rounding, and
sums that lie too near a rounding boundary go to math.fsum.  NeumaierSum
serves streaming loops with a data-dependent stopping rule, a term or an
array of terms at a time.
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


def _split_level(x: np.ndarray, p: np.ndarray, q: np.ndarray, parts: list,
                 top: float | None = None) -> float | None:
    """Split x at one extraction level, appending the level's exact sum to parts.

    Error-free splitting of Rump, Ogita and Oishi ("ExtractVector", Accurate
    floating-point summation, Part I, SIAM J. Sci. Comput. 31(1), 2008): with
    n + 2 <= 2^M, max|x| < 2^e and sigma = 2^(M+e), q = (sigma + x) - sigma
    and x - q are exact, |x - q| <= u sigma (u = 2^-53), and sum(q) is exact
    in any order.  x is only read; q is scratch and the remainders x - q go
    to p.

    Any upper bound 2^e on max|x| keeps both exact; a larger one only makes
    sigma, and with it the remainders' bound, looser.  top, when given, is
    such a bound on every |x| (finite values only), and e is taken from it in
    place of a max and a min reduction over x; without it max|x| is measured.
    A top below 2^-900 takes the value-by-value path below, exact whatever
    the values, as a measured one would.

    Returns sigma, with the remainders in p; 0.0 when nothing remains (top is
    zero, or below 2^-900 and x appended to parts value by value); None on inf,
    nan or a value near overflow, which are left to math.fsum so that its
    errors carry over.
    """
    if top is None:
        top = max(x.max(), -x.min())
    if top == 0.0:
        return 0.0
    if not top <= _HUGE:
        return None
    if top < _TINY:
        parts.extend(x[x != 0.0].tolist())
        return 0.0
    sigma = math.ldexp(1.0, (x.size + 1).bit_length() + math.frexp(top)[1])
    np.add(x, sigma, out=q)
    q -= sigma
    np.subtract(x, q, out=p)
    parts.append(float(q.sum()))
    return sigma


def exact_sum(values, top: float | None = None) -> float:
    """The correctly rounded sum of an array: bit for bit what math.fsum returns.

    Each block of k values is split at one level (see _split_level): the
    level sums are exact, and the k remainders, each at most u sigma, are
    added in plain floats, off by at most gamma_{k-1} k u sigma <= (k u)^2
    sigma.  With B the sum of those bounds rounded up, the exact total lies
    within B of T = sum(parts) + sum(rests).  Rounding to nearest is monotone,
    so when math.fsum rounds T - B and T + B to the same float, that float is
    the exact total rounded to nearest, as math.fsum over the values would
    give.  Otherwise (the total lies within B of a rounding boundary, or is
    zero) math.fsum sums the values themselves.  The input is never written.
    Arrays of at most _FSUM_MAX values, and arrays holding inf, nan or
    magnitudes above 2^900, go to math.fsum whole.

    top, when given, must bound every |value| from above; each block's sigma
    is then taken from it (see _split_level), which saves a max and a min
    reduction per block.  sigma grows with top: a top at most 4 times the
    largest |value| gives a sigma at most 4 times a measured one, and B
    grows with it.  Without top each block's max|x| is measured
    (log_z_sliced passes one; the product formulas do not), and with one
    below 2^-900 every nonzero value goes to math.fsum as it is.
    """
    x = np.asarray(values, dtype=float).ravel()
    if x.size <= _FSUM_MAX:
        return _fsum(x)
    size = min(x.size, _BLOCK)
    p, q = np.empty(size), np.empty(size)
    parts, rests, slack = [], [], []
    for start in range(0, x.size, _BLOCK):
        block = x[start:start + _BLOCK]
        k = block.size
        sigma = _split_level(block, p[:k], q[:k], parts, top)
        if sigma is None:
            return _fsum(x)
        if sigma:
            rests.append(float(p[:k].sum()))
            slack.append(k * k * _U * _U * sigma)  # exact: k < 2^16
    if not slack:
        return math.fsum(parts)
    bound = math.nextafter(math.fsum(slack), math.inf)
    low = math.fsum(parts + rests + [-bound])
    if low == math.fsum(parts + rests + [bound]):
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
