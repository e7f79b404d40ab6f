"""Reference values shared across tests.

Independently sourced constants, the published reference table for the
slice-weight experiment (analytic and fitted columns), the slice-weighted
f3 fitted to exact lattice data, a bit-for-bit float comparison and ulp
distance, and the resummed free-energy series summed term by term.
"""
import math
import struct
from fractions import Fraction

from hexdimer import partition, specialfn
from hexdimer.errors import ConvergenceError

ZETA3 = 1.2020569031595942854  # Apery's constant, standard tables

UNIVERSAL_CONSTANT = -0.080842  # published value of int e^{-z} Q(z) dz

# int_0^inf e^{-z} Q(z) dz to 30 digits, from mpmath at 130 significant digits:
# mpmath.quad of e^{-z} (xi(z) + 1/6) / z with the closed form of xi on
# [1e-22, inf) (split at 0.25, 1, 4, 16, 64), plus the sliver [0, 1e-22] from
# the Taylor series Q(z) = -1/6 + O(z).  At 130 digits the closed form keeps
# over 40 digits down to 1e-22.  A 60-digit run on [1e-12, inf) agrees to 7e-26.
UNIVERSAL_CONSTANT_HP = -0.0808422874009018584278393204856

# (phi id, a, b) -> columns: f0 analytic, f0 fitted, f1 fitted,
#                            12ab*f2 fitted, f3 analytic, f3 fitted
TABLE1 = {
    ("cosine", 1, 3): (0.472206688, 0.472206693, 0.000000730, 1.000730689,
                       -0.043883000, -0.043827958),
    ("cosine", 2, 3): (0.235922467, 0.235922467, 0.000000044, 1.000088528,
                       -0.030398000, -0.030394694),
    ("linear:1,0.5", 1, 3): (0.097288596, 0.097288593, 0.000000848, 1.000848267,
                             -0.033688300, -0.033624441),
    ("linear:2,0.5", 2, 3): (0.032804447, 0.032804447, -0.000000002, 0.999996808,
                             -0.015094000, -0.015094162),
}

# f3 of the slice-weighted box from exact lattice data, by exact_data_f3
# below (regenerate with the command in its docstring): exact ln Z from
# log_z_sliced at the 24 meshes 1/eps = unique(round(geomspace(60, 1200, 24))),
# f1 = 0 and f2 = 1/(12ab) held at their exact values, and a least-squares fit
# of {1, eps^2, eps^3, eps^4} whose eps^2 column is f3.  The same fit lands
# within 6e-10 of the closed-form f3 of finite and infinite boxes and within
# 2e-11 for phi = const:1.  Keys as in TABLE1.
SLICED_F3_EXACT_FIT = {
    ("cosine", 1, 3): -0.04388302622444438,
    ("cosine", 2, 3): -0.030398023775962756,
    ("linear:1,0.5", 1, 3): -0.0336883130954131,
    ("linear:2,0.5", 2, 3): -0.015094049762703008,
    ("linear:1,0.3", 1, 3): -0.03699377270743034,
}


# sliced_f0 of cosine (1, 30) to 20 digits, printed by mpmath_sliced_f0 below
# (about a minute; regenerate with the command in exact_data_f3's docstring).
# The same quadrature at constant phi = 1 agrees with the closed form of
# coeffs_infinite(1, 30).f0 to 19 digits.
SLICED_F0_MPMATH = {("cosine", 1, 30): 0.076505409570924037759}


def mpmath_sliced_f0(a: int, b: int) -> str:
    """(1/ab) int_0^b dy int_0^a dz -ln(1 - e^{-(V(y) + U(z))}) for the cosine
    profile, Phi(t) = (2t + sin t)/3, at 20 digits: U(z) = Phi(d + z) - Phi(d)
    and V(y) = Phi(d) - Phi(d - y), d = b - a, by sum-to-product so that
    neither cancels near 0, and nested mpmath.quad split at 1e-8, 1e-5, 1e-2
    and 0.3 in both variables and at every half unit in y."""
    import mpmath as mp

    with mp.workdps(20):
        a, b = mp.mpf(a), mp.mpf(b)
        d = b - a

        def U(z):
            return (2 * z + 2 * mp.cos(d + z / 2) * mp.sin(z / 2)) / 3

        def V(y):
            return (2 * y + 2 * mp.cos(d - y / 2) * mp.sin(y / 2)) / 3

        cuts = [mp.mpf(x) for x in ("1e-8", "1e-5", "1e-2", "0.3")]
        zs = [0, *cuts, *(mp.mpf(k) / 2 for k in range(2, int(2 * a))), a]
        ys = [0, *cuts, *(mp.mpf(k) / 2 for k in range(1, int(2 * b) + 1))]

        def row(y):
            v = V(y)
            return mp.quad(lambda z: -mp.log(-mp.expm1(-(v + U(z)))), zs)

        return mp.nstr(mp.quad(row, ys) / (a * b), 20)


def exact_data_f3(scenario) -> float:
    """f3 of a slice-weighted Scenario fitted to its exact free energy, as
    described above SLICED_F3_EXACT_FIT.  Print the pins with

        PYTHONPATH=src python tests/_reference.py
    """
    import numpy as np

    eps = 1.0 / np.unique(np.round(np.geomspace(60, 1200, 24)))
    f = np.array([scenario.free_energy(e) for e in eps])
    y = f - eps**2 * np.log(eps) / (12.0 * scenario.a * scenario.b)
    basis = np.column_stack([np.ones_like(eps), eps**2, eps**3, eps**4])
    return float(np.linalg.lstsq(basis, y, rcond=None)[0][1])


def boxed_plane_partition_count(m: int, n: int, k: int) -> int:
    """Exact count of m x n x k boxed plane partitions (product formula, exact
    rational arithmetic).  Independent oracle for enumeration sizes."""
    total = Fraction(1)
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            for kk in range(1, k + 1):
                total *= Fraction(i + j + kk - 1, i + j + kk - 2)
    assert total.denominator == 1
    return int(total)


def same_bits(x: float, y: float) -> bool:
    """x and y are the same double, bit for bit (so -0.0 differs from 0.0)."""
    return struct.pack("<d", x) == struct.pack("<d", y)


def ulps_apart(x: float, y: float) -> int:
    """How many steps of one ulp lead from x to y (0 when equal, 0.0 == -0.0)."""
    def ordered(v: float) -> int:
        u = struct.unpack("<Q", struct.pack("<d", v))[0]
        return -(u & (2**63 - 1)) if u >> 63 else u
    return abs(ordered(x) - ordered(y))


def reference_chi(z: float) -> float:
    """chi(z) for one float with math.exp and math.expm1; the Taylor branch
    below |z| = 1e-3 is the library's."""
    t = abs(float(z))
    if t < specialfn._CHI_TAYLOR_SWITCH:
        return specialfn._even_series(specialfn._CHI_C, t)
    d = -math.expm1(-t)
    return t * t * math.exp(-t) / (d * d)


def reference_series_free_energy(scenario, eps: float) -> float:
    """The resummed series sum_n chi(n eps) H_n / n^3 summed one term at a
    time with math.exp and math.expm1, stopping as partition.series_free_energy
    does.  It reads partition._SERIES_TERM_TOL and _SERIES_N_MAX at call time;
    its ConvergenceError pairs term N's chi with (N+1)^2 in `achieved`."""
    a, b, c = scenario.a, scenario.b, scenario.c
    finite = scenario.kind == "finite"
    if finite:
        prefactor = -1.0 / (2.0 * (a * b + b * c + a * c))
    else:
        prefactor = 1.0 / (a * b)

    terms = []
    n = 1
    while True:
        z = n * eps
        chi_n = reference_chi(z)
        h = (-math.expm1(-n * a)) * (-math.expm1(-n * b))
        if finite:
            h *= -math.expm1(-n * c)
        terms.append(chi_n * h / n**3)
        if chi_n / (2.0 * n * n) < partition._SERIES_TERM_TOL:
            break
        n += 1
        if n > partition._SERIES_N_MAX:
            raise ConvergenceError(
                f"series free energy did not converge within {partition._SERIES_N_MAX} terms",
                partial=prefactor * math.fsum(terms), achieved=chi_n / (2.0 * n * n))
    return prefactor * math.fsum(terms)


if __name__ == "__main__":
    from hexdimer import Scenario, phi_from_id

    for (phi_id, a, b) in SLICED_F3_EXACT_FIT:
        scenario = Scenario("sliced", float(a), float(b), phi=phi_from_id(phi_id))
        print(f"    ({phi_id!r}, {a}, {b}): {exact_data_f3(scenario)!r},")
    for (phi_id, a, b) in SLICED_F0_MPMATH:
        print(f"    ({phi_id!r}, {a}, {b}): {mpmath_sliced_f0(a, b)},")
