"""The oracle cross-check behind ``hexdimer verify``: MacMahon's product, the
Kasteleyn determinant and brute-force enumeration checked against each other,
then the free energy against its series and constant phi against the
infinite-height box."""
from __future__ import annotations

import functools
import itertools
import math

from .enumeration import _z_of_q
from .kasteleyn import _log_z_of_q
from .partition import Scenario, _uniform_log_z, log_z_infinite, log_z_sliced, series_free_energy
from .shapes import INFINITE, BoxShape
from .weights import ConstantPhi

_BOXES = tuple(itertools.product((1, 2, 3), repeat=3))
_QS = (0.3, 0.5, 0.9)


def suites():
    """Yield (suite, case, passed, detail) rows.

    Each ordered box of _BOXES is checked at every q of _QS: enumeration
    against MacMahon's product, then the Kasteleyn determinant against
    enumeration.  Each ordered box gets its own enumeration walk, the
    independent check; the MacMahon values of all boxes come in one batch.
    The Kasteleyn ln Z depends only on the sorted sides, bit for bit, so each
    distinct sorted box is embedded once and factored once per q, at its
    first use, through a mapping that lives only for this call; its other
    orderings read the same values.  Then come the dual-evaluator and
    constant-phi suites."""
    # every box's MacMahon ln Z at every q in one batch, the bits of log_z_macmahon
    boxes, qs = zip(*itertools.product(_BOXES, _QS))
    mac_log_z = iter(_uniform_log_z(boxes, qs))
    kasteleyn_by_sides = {}  # sorted sides -> ln Z of q, each q factored once
    for m, n, k in _BOXES:
        shape = BoxShape(m, n, k)
        oracle_z = _z_of_q(shape)  # one walk serves the three q
        sides = tuple(sorted((m, n, k)))
        if sides not in kasteleyn_by_sides:
            kasteleyn_by_sides[sides] = functools.cache(_log_z_of_q(shape))
        kasteleyn_log_z = kasteleyn_by_sides[sides]
        for q in _QS:
            z_oracle = oracle_z(q)
            z_mac = math.exp(next(mac_log_z))
            ok = abs(z_mac - z_oracle) <= 1e-9 * z_oracle
            yield ("enumeration-vs-macmahon", f"{m};{n};{k};q={q}", ok,
                   f"rel={abs(z_mac - z_oracle) / z_oracle:.2e}")
            z_kast = math.exp(kasteleyn_log_z(q))
            ok = abs(z_kast - z_oracle) <= 1e-9 * z_oracle
            yield ("kasteleyn-vs-enumeration", f"{m};{n};{k};q={q}", ok,
                   f"rel={abs(z_kast - z_oracle) / z_oracle:.2e}")
    for scenario in (Scenario("finite", 1.0, 1.0, 1.0), Scenario("finite", 3.0, 2.0, 1.0),
                     Scenario("infinite", 1.0, 1.0), Scenario("infinite", 2.0, 1.0)):
        for t in (10, 50):
            exact = scenario.free_energy(1.0 / t)
            series = series_free_energy(scenario, 1.0 / t)
            ok = abs(exact - series) < 1e-11
            yield (f"dual-evaluator-{scenario.kind}", f"{scenario.params};1/eps={t}", ok,
                   f"diff={exact - series:.2e}")
    for (m, n) in ((2, 3), (4, 4)):
        eps = 0.25
        lz_sliced = log_z_sliced(m, n, ConstantPhi(1.0), eps)
        lz_inf = log_z_infinite(BoxShape(m, n, INFINITE), math.exp(-eps))
        ok = abs(lz_sliced - lz_inf) < 1e-12 * max(1.0, abs(lz_inf))
        yield ("constant-phi-reduction", f"m={m};n={n};eps={eps}", ok,
               f"diff={lz_sliced - lz_inf:.2e}")
