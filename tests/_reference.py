"""Reference values shared across tests.

Independently sourced constants plus the published reference table for the
slice-weight experiment (analytic and fitted columns).
"""
from fractions import Fraction

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
