"""The package's one summation: exact_sum, the correctly rounded sum of an
array, and exact_sums, the same for each of its consecutive segments.

Small arrays go to math.fsum; larger ones are split at one error-free
extraction level with one splitting constant per array (per segment for
exact_sums), and a bound on the rest decides the rounding.  Streaming loops
keep their terms and call it once.
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


def _split(x: np.ndarray, sigma, p: np.ndarray, q: np.ndarray, starts=None):
    """Split x at sigma; return its level sum and its remainders' float sum,
    or, given the segments' starts (and sigma per value), both per segment.

    Error-free splitting of Rump, Ogita and Oishi ("ExtractVector", Accurate
    floating-point summation, Part I, SIAM J. Sci. Comput. 31(1), 2008): with
    k + 2 <= 2^M for the k values of x, max|x| < 2^e and sigma = 2^(M+e),
    q = (sigma + x) - sigma and the remainders x - q (written to p) are exact,
    each at most u sigma (u = 2^-53), and sum(q) is exact in any order.  The
    remainders' float sum is off by at most gamma_{k-1} k u sigma <= (k u)^2 sigma,
    in any order of addition, so also per segment of k values.
    """
    np.add(x, sigma, out=q)
    q -= sigma
    np.subtract(x, q, out=p)
    if starts is None:
        return float(q.sum()), float(p.sum())
    return np.add.reduceat(q, starts).tolist(), np.add.reduceat(p, starts).tolist()


def _certified(sums: list[float], bound: float) -> float | None:
    """The exact sum of sums rounded to nearest, if it is decided within
    +-bound: rounding is monotone, so when math.fsum rounds sums with -bound
    and with +bound appended to the same float, that float is it.  None
    otherwise (a sum within bound of a rounding boundary, or zero)."""
    low = math.fsum(sums + [-bound])
    return low if low == math.fsum(sums + [bound]) else None


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
    exact sum rounded to nearest (_certified).  Otherwise (a sum within B of
    a rounding boundary, or zero) math.fsum sums the values.  The input is
    never written.
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
    total = _certified(sums, bound)
    return _fsum(x) if total is None else total


def exact_sums(values, sizes) -> list[float]:
    """math.fsum of each consecutive segment of values, bit for bit: the
    first sizes[0] values, the next sizes[1], and so on (sizes sum to len).

    One segment is exact_sum's.  Otherwise every segment's top, its largest
    |value|, is measured with two reduceat passes.  When every top lies in
    [2^-900, 2^900] and no segment is empty, the whole array is split in one
    _split pass, each segment at the sigma that its own size k and top give,
    so its level sum is exact and its remainder sum off by at most
    (k u)^2 sigma; B, that rounded up, decides each segment through
    _certified, and a segment it leaves undecided is summed by math.fsum.
    Any other case (an empty or all-zero segment, a tiny or huge top, an inf
    or a nan) sums each segment with exact_sum in turn, so each value, or the
    first error, is math.fsum's.  The input is never written.
    """
    if len(sizes) == 1:
        return [exact_sum(values)]
    x = np.asarray(values, dtype=float).ravel()
    sizes = np.asarray(sizes, dtype=np.int64)
    starts = np.cumsum(sizes) - sizes
    spans = list(zip(starts.tolist(), sizes.tolist()))
    if sizes.all():
        top = np.maximum(np.maximum.reduceat(x, starts), -np.minimum.reduceat(x, starts))
        if ((top >= _TINY) & (top <= _HUGE)).all():  # nan fails both
            sigma = np.ldexp(1.0, np.frexp(sizes + 1)[1] + np.frexp(top)[1])
            levels, rests = _split(x, np.repeat(sigma, sizes), np.empty(x.size),
                                   np.empty(x.size), starts)
            # (k u)^2 sigma per segment; nextafter covers the int product's rounding to float
            bounds = np.nextafter(sizes * sizes * _U * _U * sigma, math.inf).tolist()
            totals = map(_certified, map(list, zip(levels, rests)), bounds)
            return [_fsum(x[s:s + k]) if total is None else total
                    for total, (s, k) in zip(totals, spans)]
    return [exact_sum(x[s:s + k]) for s, k in spans]
