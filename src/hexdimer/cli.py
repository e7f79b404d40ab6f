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
from .asymptotics import (CONVENTION_FINITE, CONVENTION_POSITIVE, ExpansionCoefficients,
                          coeffs_finite, coeffs_infinite, coeffs_sliced)
from .enumeration import oracle_partition
from .errors import HexdimerError
from .fitting import fit
from .kasteleyn import kasteleyn_partition
from .partition import (SeriesSettings, free_energy_value, grid_samples,
                        log_z_infinite, log_z_macmahon, log_z_sliced, series_free_energy,
                        sliced_free_energy_value)
from .shapes import INFINITE, BoxShape, ScaledShape
from .specialfn import QuadratureSettings, universal_constant_detail
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


def _emit(args, header, rows, meta):
    """Write CSV (default) or JSON to --out or stdout, deterministically."""
    meta = dict(meta)
    meta.setdefault("version", __version__)
    if args.json:
        payload = {"meta": meta, "columns": list(header),
                   "rows": [[(r if not isinstance(r, float) else float(_fmt(r))) for r in row]
                            for row in rows]}
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


def _tol_overrides(pairs):
    out = {}
    for item in pairs or ():
        name, _, val = item.partition("=")
        if not val:
            raise ValueError(f"--tol-override expects name=value, got {item!r}")
        out[name] = float(val)
    return out


def _quad_settings(args) -> QuadratureSettings:
    over = _tol_overrides(getattr(args, "tol_override", None))
    kwargs = {k: over[k] for k in ("rel_tol", "z_cut", "taylor_switch") if k in over}
    return QuadratureSettings(**kwargs)


def _series_settings(args) -> SeriesSettings:
    over = _tol_overrides(getattr(args, "tol_override", None))
    kwargs = {}
    if "term_tol" in over:
        kwargs["term_tol"] = over["term_tol"]
    if "n_max_cap" in over:
        kwargs["n_max_cap"] = int(over["n_max_cap"])
    return SeriesSettings(**kwargs)


def _scenario_of(args) -> str:
    if getattr(args, "phi", None):
        return "sliced"
    if getattr(args, "K", None) == INFINITE or getattr(args, "c", None) == INFINITE:
        return "infinite"
    if getattr(args, "c", None) is not None or getattr(args, "K", None) is not None:
        return "finite"
    return "infinite"


def cmd_partition(args) -> int:
    rows = []
    if args.M is not None:
        shape = BoxShape(args.M, args.N, args.K if args.K is not None else INFINITE)
        q = args.q
        if shape.is_finite:
            logz = (log_z_macmahon(shape, q) if q < 1.0
                    else math.log(oracle_partition(shape, q, max_cells=args.oracle_max_cells,
                                                   max_height=args.oracle_max_k)))
        else:
            logz = log_z_infinite(shape, q)
        rows.append([shape.m, shape.n, "inf" if not shape.is_finite else shape.k, q,
                     logz, math.exp(logz)])
        header = ("M", "N", "K", "q", "log_Z", "Z")
        meta = {"command": "partition", "formula": "macmahon" if shape.is_finite else "infinite-product"}
    else:
        scaled = ScaledShape(args.a, args.b, INFINITE, 1.0 / args.inv_eps)
        box = scaled.box()
        phi = phi_from_id(args.phi)
        phi.check_positive(-args.a, args.b)
        logz = log_z_sliced(box.m, box.n, phi, scaled.eps)
        rows.append([args.a, args.b, args.inv_eps, phi.id, logz, math.exp(logz)])
        header = ("a", "b", "inv_eps", "phi", "log_Z", "Z")
        meta = {"command": "partition", "formula": "sliced-product"}
    _emit(args, header, rows, meta)
    return 0


def cmd_free_energy(args) -> int:
    scenario = _scenario_of(args)
    convention = CONVENTION_FINITE if scenario == "finite" else CONVENTION_POSITIVE
    phi = phi_from_id(args.phi) if args.phi else None
    header = ("inv_eps", "eps", "f", "variant", "params")
    meta = {"command": "free-energy", "convention": convention, "scenario": scenario}
    rows = []
    if args.inv_eps_min is not None:
        params = f"a={args.a};b={args.b}" + (f";c={args.c}" if scenario == "finite" else "") \
            + (f";phi={phi.id}" if phi else "")
        samples = grid_samples(scenario, args.a, args.b, c=args.c if args.c is not None else INFINITE,
                               phi=phi, inv_eps_min=args.inv_eps_min,
                               inv_eps_max=args.inv_eps_max, threads=args.threads)
        rows = [[s.inv_eps, s.eps, s.f, scenario, params] for s in samples]
    elif args.inv_eps is not None:
        eps = 1.0 / args.inv_eps
        if scenario == "sliced":
            scaled = ScaledShape(args.a, args.b, INFINITE, eps)
            box = scaled.box()
            phi.check_positive(-args.a, args.b)
            f = sliced_free_energy_value(box.m, box.n, phi, eps)
            params = f"a={args.a};b={args.b};phi={phi.id}"
        else:
            c = args.c if scenario == "finite" else INFINITE
            scaled = ScaledShape(args.a, args.b, c, eps)
            f = free_energy_value(scaled.box(), math.exp(-eps))
            params = f"a={args.a};b={args.b}" + (f";c={args.c}" if scenario == "finite" else "")
        rows = [[args.inv_eps, eps, f, scenario, params]]
    else:
        shape = BoxShape(args.M, args.N, args.K if args.K is not None else INFINITE)
        f = free_energy_value(shape, args.q)
        rows = [["", -math.log(args.q), f, scenario,
                 f"M={shape.m};N={shape.n};K={shape.k};q={args.q}"]]
    _emit(args, header, rows, meta)
    return 0


def _coeffs_for(scenario, args, phi) -> ExpansionCoefficients:
    if scenario == "finite":
        return coeffs_finite(args.a, args.b, args.c, _quad_settings(args))
    if scenario == "infinite":
        return coeffs_infinite(args.a, args.b, _quad_settings(args))
    return coeffs_sliced(args.a, args.b, phi)


def cmd_coeffs(args) -> int:
    phi = phi_from_id(args.phi) if args.phi else None
    if args.scenario == "sliced" and phi is None:
        raise ValueError("--scenario sliced requires --phi")
    if args.scenario == "finite" and args.c is None:
        raise ValueError("--scenario finite requires --c")
    c = _coeffs_for(args.scenario, args, phi)
    header = ("coefficient", "value")
    rows = [["f0", c.f0], ["f1", c.f1], ["f2", c.f2], ["f3", c.f3]]
    meta = {"command": "coeffs", "scenario": c.scenario, "provenance": c.provenance,
            "convention": c.convention}
    if c.fd_noise is not None:
        meta["fd_noise"] = _fmt(c.fd_noise)
    _emit(args, header, rows, meta)
    return 0


def cmd_fit(args) -> int:
    scenario = args.scenario
    phi = phi_from_id(args.phi) if args.phi else None
    samples = grid_samples(scenario, args.a, args.b, c=args.c if args.c is not None else INFINITE,
                           phi=phi, inv_eps_min=args.inv_eps_min, inv_eps_max=args.inv_eps_max,
                           threads=args.threads)
    result = fit(samples)
    analytic = None
    try:
        analytic = _coeffs_for(scenario, args, phi)
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
    convention = CONVENTION_FINITE if scenario == "finite" else CONVENTION_POSITIVE
    meta = {"command": "fit", "scenario": scenario, "convention": convention,
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
        phi = phi_from_id(phi_id)
        analytic = coeffs_sliced(a, b, phi)
        samples = grid_samples("sliced", a, b, phi=phi, inv_eps_min=2, inv_eps_max=200,
                               threads=args.threads)
        fitted = fit(samples)
        f0, f1, f2, f3 = fitted.coefficients[:4]
        out_rows.append([phi.id, a, b, analytic.f0, f0, f1, 12.0 * a * b * f2,
                         analytic.f3, f3, abs(f3 - analytic.f3)])
    meta = {"command": "table1", "convention": CONVENTION_POSITIVE,
            "grid": "2..200", "basis": "1,eps,eps2*log(eps),eps2,eps3,eps4"}
    _emit(args, header, out_rows, meta)
    return 0


def cmd_constant(args) -> int:
    value, err = universal_constant_detail(_quad_settings(args))
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
        settings = _series_settings(args)
        for (a, b, c) in ((1.0, 1.0, 1.0), (3.0, 2.0, 1.0)):
            for t in (10, 50):
                scaled = ScaledShape(a, b, c, 1.0 / t)
                exact = free_energy_value(scaled.box(), math.exp(-scaled.eps))
                series = series_free_energy(scaled, "finite", settings)
                ok = abs(exact - series) < 1e-11
                yield ("dual-evaluator-finite", f"a={a};b={b};c={c};1/eps={t}", ok,
                       f"diff={exact - series:.2e}")
        for (a, b) in ((1.0, 1.0), (2.0, 1.0)):
            for t in (10, 50):
                scaled = ScaledShape(a, b, INFINITE, 1.0 / t)
                exact = free_energy_value(scaled.box(), math.exp(-scaled.eps))
                series = series_free_energy(scaled, "infinite", settings)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hexdimer",
        description="Hexagonal-lattice dimer model: exact partition functions and "
                    "finite-size free-energy expansions.")
    parser.add_argument("--version", action="version", version=f"hexdimer {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, lattice=False, scaled=False, grid=False):
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--json", action="store_true", help="emit JSON instead of CSV")
        p.add_argument("--threads", type=int, default=1, help="parallel sample workers")
        p.add_argument("--tol-override", action="append", metavar="NAME=VALUE",
                       help="override a tolerance (rel_tol, z_cut, taylor_switch, term_tol, n_max_cap)")
        if lattice:
            p.add_argument("--M", type=int)
            p.add_argument("--N", type=int)
            p.add_argument("--K", type=_parse_k, help="integer or 'inf'")
            p.add_argument("--q", type=float)
        if scaled:
            p.add_argument("--a", type=float)
            p.add_argument("--b", type=float)
            p.add_argument("--c", type=float)
            p.add_argument("--inv-eps", type=int, dest="inv_eps")
            p.add_argument("--phi", help="const:c | linear:alpha,beta | cosine | tabulated:<csv>")
        if grid:
            p.add_argument("--inv-eps-min", type=int, dest="inv_eps_min")
            p.add_argument("--inv-eps-max", type=int, dest="inv_eps_max")

    p = sub.add_parser("partition", help="exact Z and ln Z")
    add_common(p, lattice=True, scaled=True)
    p.add_argument("--oracle-max-cells", type=int, default=16,
                   help="enumeration guard on m*n (used for q = 1)")
    p.add_argument("--oracle-max-k", type=int, default=8,
                   help="enumeration guard on k (used for q = 1)")
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("free-energy", help="free energy per site (single value or grid CSV)")
    add_common(p, lattice=True, scaled=True, grid=True)
    p.set_defaults(func=cmd_free_energy)

    p = sub.add_parser("coeffs", help="analytic expansion coefficients")
    p.add_argument("--scenario", choices=("finite", "infinite", "sliced"), required=True)
    add_common(p, scaled=True)
    p.set_defaults(func=cmd_coeffs)

    p = sub.add_parser("fit", help="fit exact samples and compare with analytic coefficients")
    p.add_argument("--scenario", choices=("finite", "infinite", "sliced"), required=True)
    add_common(p, scaled=True, grid=True)
    p.set_defaults(func=cmd_fit, inv_eps=None)

    p = sub.add_parser("table1", help="reproduce the four slice-weight reference rows")
    p.add_argument("--row", default=None, help="e.g. cosine:1,3 or linear:2,0.5:2,3")
    add_common(p)
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("constant", help="the universal expansion constant")
    add_common(p)
    p.set_defaults(func=cmd_constant)

    p = sub.add_parser("verify", help="oracle equivalence suites")
    p.add_argument("--kasteleyn", action="store_true", help="run only the Kasteleyn suite")
    add_common(p)
    p.set_defaults(func=cmd_verify)

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
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except HexdimerError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
