"""Command-line front end.

Subcommands: partition, free-energy, coeffs, fit, table1, constant, verify.
Output is RFC-4180-style CSV with '#'-prefixed metadata lines (version,
command, adopted sign convention), or JSON with --json.  Exit codes:
0 success, 1 usage error, 2 numerical failure, 3 verification failure.
"""
from __future__ import annotations

import argparse
import json
import math
import sys

from . import __version__
from .asymptotics import CONVENTION_POSITIVE
from .enumeration import oracle_partition
from .errors import HexdimerError
from .fitting import fit
from .kasteleyn import kasteleyn_partition
from .partition import (SCENARIO_KINDS, Scenario, free_energy_value, grid_samples,
                        log_z_infinite, log_z_macmahon, log_z_sliced, series_free_energy)
from .shapes import INFINITE, BoxShape, ScaledShape
from .specialfn import universal_constant_detail
from .weights import phi_from_id

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
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_k(value: str):
    if value.lower() in ("inf", "infinite"):
        return INFINITE
    return int(value)


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
        box = ScaledShape(scenario.a, scenario.b, INFINITE, eps).box()
        logz = log_z_sliced(box.m, box.n, scenario.phi, eps)
        rows = [[args.a, args.b, args.inv_eps, scenario.phi.id, logz, _z_of(logz)]]
        header = ("a", "b", "inv_eps", "phi", "log_Z", "Z")
        meta = {"command": "partition", "formula": "sliced-product"}
    _emit(args, header, rows, meta)
    return 0


def cmd_free_energy(args) -> int:
    if _given(args, _LATTICE):
        shape = _lattice_box(args, ("a", "b", "c", "phi", "inv_eps", *_GRID))
        # a lattice box is the scenario at eps = 1, here at an arbitrary q;
        # 0.0 - log keeps eps = 0 unsigned at q = 1
        scenario = Scenario("finite" if shape.is_finite else "infinite", shape.m, shape.n, shape.k)
        rows = [["", 0.0 - math.log(args.q), free_energy_value(shape, args.q), scenario.kind,
                 f"M={shape.m};N={shape.n};K={shape.k};q={args.q}"]]
    elif args.inv_eps is not None:
        _exclude(args, _GRID, "--inv-eps")
        scenario = _scenario(args)
        eps = 1.0 / args.inv_eps
        rows = [[args.inv_eps, eps, scenario.free_energy(eps), scenario.kind, _params(scenario)]]
    else:
        if not _given(args, _GRID):
            raise ValueError("missing --inv-eps, or --inv-eps-min and --inv-eps-max")
        _require(args, *_GRID)
        scenario = _scenario(args)
        samples = grid_samples(scenario, args.inv_eps_min, args.inv_eps_max)
        rows = [[s.inv_eps, s.eps, s.f, scenario.kind, _params(scenario)] for s in samples]
    header = ("inv_eps", "eps", "f", "variant", "params")
    meta = {"command": "free-energy", "convention": scenario.convention, "scenario": scenario.kind}
    _emit(args, header, rows, meta)
    return 0


def cmd_coeffs(args) -> int:
    c = _scenario(args, args.scenario).coefficients()
    header = ("coefficient", "value")
    rows = [["f0", c.f0], ["f1", c.f1], ["f2", c.f2], ["f3", c.f3]]
    meta = {"command": "coeffs", "scenario": c.scenario, "provenance": c.provenance,
            "convention": c.convention}
    if c.fd_noise is not None:
        meta["fd_noise"] = _fmt(c.fd_noise)
    _emit(args, header, rows, meta)
    return 0


def cmd_fit(args) -> int:
    scenario = _scenario(args, args.scenario)
    result = fit(grid_samples(scenario, args.inv_eps_min, args.inv_eps_max))
    analytic = None
    try:
        analytic = scenario.coefficients()
    except HexdimerError:
        pass
    header = ("basis_term", "fitted", "analytic", "abs_diff")
    rows = []
    analytic_vals = list(analytic.as_tuple()) if analytic else []
    for i, name in enumerate(result.basis.names):
        fitted = result.coefficients[i]
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
        analytic = scenario.coefficients()
        fitted = fit(grid_samples(scenario, 2, 200))
        f0, f1, f2, f3 = fitted.coefficients[:4]
        out_rows.append([scenario.phi.id, a, b, analytic.f0, f0, f1, 12.0 * a * b * f2,
                         analytic.f3, f3, abs(f3 - analytic.f3)])
    meta = {"command": "table1", "convention": CONVENTION_POSITIVE,
            "grid": "2..200", "basis": "1,eps,eps2*log(eps),eps2,eps3,eps4"}
    _emit(args, header, out_rows, meta)
    return 0


def cmd_constant(args) -> int:
    value, err = universal_constant_detail()
    _emit(args, ("value", "error_bound"), [[value, err]],
          {"command": "constant", "integral": "int_0^inf e^{-z} (xi(z)-xi(0))/z dz"})
    return 0


def _verify_suites(args):
    """Yield (suite, case, passed, detail) rows."""
    suites = {"enumeration", "kasteleyn", "dual", "reduction"}
    if args.kasteleyn:
        suites = {"kasteleyn"}
    if "enumeration" in suites or "kasteleyn" in suites:
        for m in (1, 2, 3):
            for n in (1, 2, 3):
                for k in (1, 2, 3):
                    shape = BoxShape(m, n, k)
                    for q in (0.3, 0.5, 0.9):
                        z_oracle = oracle_partition(shape, q)
                        if "enumeration" in suites:
                            z_mac = math.exp(log_z_macmahon(shape, q))
                            ok = abs(z_mac - z_oracle) <= 1e-9 * z_oracle
                            yield ("enumeration-vs-macmahon", f"{m};{n};{k};q={q}", ok,
                                   f"rel={abs(z_mac - z_oracle) / z_oracle:.2e}")
                        z_kast = kasteleyn_partition(shape, q)
                        ok = abs(z_kast - z_oracle) <= 1e-9 * z_oracle
                        yield ("kasteleyn-vs-enumeration", f"{m};{n};{k};q={q}", ok,
                               f"rel={abs(z_kast - z_oracle) / z_oracle:.2e}")
    if "dual" in suites:
        for (a, b, c) in ((1.0, 1.0, 1.0), (3.0, 2.0, 1.0)):
            for t in (10, 50):
                scaled = ScaledShape(a, b, c, 1.0 / t)
                exact = free_energy_value(scaled.box(), math.exp(-scaled.eps))
                series = series_free_energy(scaled)
                ok = abs(exact - series) < 1e-11
                yield ("dual-evaluator-finite", f"a={a};b={b};c={c};1/eps={t}", ok,
                       f"diff={exact - series:.2e}")
        for (a, b) in ((1.0, 1.0), (2.0, 1.0)):
            for t in (10, 50):
                scaled = ScaledShape(a, b, INFINITE, 1.0 / t)
                exact = free_energy_value(scaled.box(), math.exp(-scaled.eps))
                series = series_free_energy(scaled)
                ok = abs(exact - series) < 1e-11
                yield ("dual-evaluator-infinite", f"a={a};b={b};1/eps={t}", ok,
                       f"diff={exact - series:.2e}")
    if "reduction" in suites:
        from .weights import ConstantPhi
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
    for suite, case, ok, detail in _verify_suites(args):
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
    "M": dict(type=int, help="lattice box side"),
    "N": dict(type=int, help="lattice box side"),
    "K": dict(type=_parse_k, help="lattice box height: integer or 'inf' (default inf)"),
    "q": dict(type=float, help="weight per cube, in (0, 1]"),
    "scenario": dict(choices=SCENARIO_KINDS),
    "a": dict(type=float, help="scaled side"),
    "b": dict(type=float, help="scaled side"),
    "c": dict(type=float, help="scaled height (finite box)"),
    "phi": dict(help="const:c | linear:alpha,beta | cosine | tabulated:<csv>"),
    "inv_eps": dict(type=int, help="1/eps"),
    "inv_eps_min": dict(type=int, help="first 1/eps of the grid"),
    "inv_eps_max": dict(type=int, help="last 1/eps of the grid"),
    "row": dict(help="e.g. cosine:1,3 or linear:2,0.5:2,3"),
    "kasteleyn": dict(action="store_true", help="run only the Kasteleyn suite"),
}


def build_parser() -> argparse.ArgumentParser:
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
    command("verify", cmd_verify, "oracle equivalence suites", "kasteleyn")
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
