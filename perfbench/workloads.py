"""The benchmark's three workloads: seeded inputs, operations and output checks.

Every operation drives the program only through the command line
(``hexdimer.cli.main``) and the README quick-start functions (``fit``,
``kasteleyn_partition``, ``BoxShape``, ``FreeEnergySample``), so internal
refactors keep the benchmark working.  The seed changes input values, never
input sizes, so a pass does the same amount of work on every seed.

Each operation is a pair: ``run`` is the timed call into the program and
``check`` (untimed) verifies its output with the benchmark's own code and
returns the numeric outputs worth recording.  ``check`` raises CheckFailed on
a wrong answer.
"""
from __future__ import annotations

import contextlib
import csv
import functools
import hashlib
import io
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

WORKLOADS = ("table1", "sliced_grid", "crosscheck")

# Published reference table (f0 fitted, f3 analytic, f3 fitted) per table1 row.
TABLE1_REF = {
    "cosine:1,3": (0.472206693, -0.043883000, -0.043827958),
    "cosine:2,3": (0.235922467, -0.030398000, -0.030394694),
    "linear:1,0.5:1,3": (0.097288593, -0.033688300, -0.033624441),
    "linear:2,0.5:2,3": (0.032804447, -0.015094000, -0.015094162),
}
UNIVERSAL_CONSTANT = -0.0808422874
# |ln Z_kasteleyn - ln Z_macmahon| allowed.  The determinant route loses
# digits with the box size: at 24^3 and q = 0.95 the gap is 2.7e-9, already
# above a 1e-9 relative bound on Z.  1e-7 admits it with a margin.
KASTELEYN_LNZ_TOL = 1e-7

GRID = ("--inv-eps-min", "2", "--inv-eps-max", "200")
GRID_ROWS = 199
KASTELEYN_SIDES = (8, 16, 24)
TABULATED_POINTS = 321


class CheckFailed(Exception):
    """An operation's output failed the benchmark's check."""


@dataclass
class Operation:
    name: str
    run: Callable[[], object]
    check: Callable[[object], dict]


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------

def make_inputs(workload: str, seed: int, directory: Path) -> dict:
    """Generate the workload's inputs from the seed; write any files to directory."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "table1":
        return {}
    if workload == "sliced_grid":
        profiles = []
        for a, b in ((1, 2), (2, 3)):
            # phi(t) = 1 + sum_{k=1,2} c_k cos(k t + k), |c_k| <= 0.1: smooth,
            # positive, tabulated on [-a-0.5, b+0.5] so no evaluation extrapolates.
            # A third harmonic can push the fit's own truncation error in f2
            # past the 2e-3 band even for the exact profile.
            coeffs = [round(rng.uniform(-0.1, 0.1), 6) for _ in range(2)]
            t = np.linspace(-a - 0.5, b + 0.5, TABULATED_POINTS)
            phi = 1.0 + sum(c * np.cos(k * t + k) for k, c in enumerate(coeffs, start=1))
            path = directory / f"profile_{a}_{b}.csv"
            with open(path, "w") as fh:
                fh.write("# t,phi\n")
                fh.writelines(f"{x!r},{y!r}\n" for x, y in zip(t.tolist(), phi.tolist()))
            profiles.append({"a": a, "b": b, "coeffs": coeffs, "path": str(path)})
        checkpoints = [sorted(rng.sample(range(2, 201), 2)) for _ in range(4)]
        return {"profiles": profiles, "checkpoints": checkpoints}
    if workload == "crosscheck":
        return {"kasteleyn_q": [round(rng.uniform(0.5, 0.95), 6) for _ in KASTELEYN_SIDES]}
    raise ValueError(f"unknown workload {workload!r}")


def digest_data_lines(text: str) -> str:
    """sha256 of a CSV's data lines ('#' metadata lines excluded)."""
    data = "".join(line + "\n" for line in text.splitlines() if not line.startswith("#"))
    return hashlib.sha256(data.encode()).hexdigest()


# ---------------------------------------------------------------------------
# program entry points
# ---------------------------------------------------------------------------

def cli_run(argv: list[str]) -> str:
    """hexdimer <argv> in process; returns stdout, raises on a non-zero exit."""
    from hexdimer import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise CheckFailed(f"hexdimer {' '.join(argv)} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


def parse_csv(text: str) -> tuple[dict, list[dict]]:
    """Split CLI CSV output into its '# key: value' metadata and its rows."""
    meta, body = {}, []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            meta[key] = value
        elif line:
            body.append(line)
    return meta, list(csv.DictReader(body))


# ---------------------------------------------------------------------------
# table1
# ---------------------------------------------------------------------------

def _table1_check(spec: str):
    f0_ref, _, f3_ref = TABLE1_REF[spec]

    def check(text):
        _, rows = parse_csv(text)
        _expect(len(rows) == 1, f"table1 {spec}: expected 1 row, got {len(rows)}")
        row = {k: float(v) for k, v in rows[0].items() if k != "phi"}
        f0, f1, f2n, f3 = (row["f0_fitted"], row["f1_fitted"],
                           row["twelve_ab_f2_fitted"], row["f3_fitted"])
        f3_gap = abs(f3 - row["f3_analytic"])
        _expect(abs(f0 - f0_ref) < 1e-7, f"table1 {spec}: |f0 - ref| = {abs(f0 - f0_ref):.2e}")
        _expect(abs(f1) <= 1e-5, f"table1 {spec}: |f1| = {abs(f1):.2e}")
        _expect(0.998 <= f2n <= 1.002, f"table1 {spec}: 12ab f2 = {f2n}")
        _expect(abs(f3 - f3_ref) < 1e-6, f"table1 {spec}: |f3 - ref| = {abs(f3 - f3_ref):.2e}")
        _expect(f3_gap < 2e-4, f"table1 {spec}: |f3 fitted - analytic| = {f3_gap:.2e}")
        return {"row": row, "f3_gap": f3_gap, "f2_gap": abs(f2n - 1.0)}

    return check


def table1_operations(inputs: dict, workdir: Path) -> list[Operation]:
    return [Operation(f"table1 {spec}", lambda spec=spec: cli_run(["table1", "--row", spec]),
                      _table1_check(spec))
            for spec in TABLE1_REF]


# ---------------------------------------------------------------------------
# sliced_grid
# ---------------------------------------------------------------------------

def _profile(phi_id: str):
    """The benchmark's own evaluator of a weight profile, vectorised."""
    name, _, args = phi_id.partition(":")
    if name == "cosine":
        return lambda t: (2.0 + np.cos(t)) / 3.0
    if name == "linear":
        alpha, beta = (float(x) for x in args.split(","))
        return lambda t: alpha + beta * np.asarray(t, dtype=float)
    if name == "tabulated":
        from scipy.interpolate import CubicSpline

        data = np.loadtxt(args, delimiter=",", comments="#")
        return CubicSpline(data[:, 0], data[:, 1])
    raise ValueError(phi_id)


def sliced_log_z(a: float, b: float, inv_eps: int, phi) -> tuple[float, int]:
    """ln Z cell by cell: Z = prod_ij 1/(1 - exp(-E_ij)) with
    E_ij = eps (phi(d eps) + sum_{k<=i} phi((d-k) eps) + sum_{l<=j} phi((d+l) eps)),
    d = n - m.  Returns (ln Z, m n)."""
    eps = 1.0 / inv_eps
    m, n = round(a * inv_eps), round(b * inv_eps)
    d = n - m
    minus = np.concatenate(([0.0], np.cumsum(phi((d - np.arange(1, n)) * eps))))
    plus = np.concatenate(([0.0], np.cumsum(phi((d + np.arange(1, m)) * eps))))
    exponents = eps * (float(phi(d * eps)) + minus[:, None] + plus[None, :])
    return -math.fsum(np.log1p(-np.exp(-exponents)).ravel()), m * n


def _grid_run(a: float, b: float, phi_id: str, out: Path):
    def run():
        import hexdimer

        cli_run(["free-energy", "--a", str(a), "--b", str(b), "--phi", phi_id, *GRID,
                 "--out", str(out)])
        text = out.read_text()
        _, rows = parse_csv(text)
        samples = [hexdimer.FreeEnergySample(inv_eps=int(r["inv_eps"]), eps=float(r["eps"]),
                                             f=float(r["f"])) for r in rows]
        return text, rows, hexdimer.fit(samples)

    return run


def _grid_check(a: float, b: float, phi_id: str, checkpoints: list[int], f3_ref):
    phi = _profile(phi_id)

    def check(result):
        text, rows, fitted = result
        _expect(len(rows) == GRID_ROWS, f"{phi_id} ({a},{b}): {len(rows)} rows, expected {GRID_ROWS}")
        by_inv = {int(r["inv_eps"]): float(r["f"]) for r in rows}
        _expect(all(math.isfinite(f) for f in by_inv.values()), f"{phi_id} ({a},{b}): non-finite f")
        for t in checkpoints:
            log_z, cells = sliced_log_z(a, b, t, phi)
            ln_z = by_inv[t] * cells
            _expect(abs(ln_z - log_z) <= 1e-12 * abs(log_z),
                    f"{phi_id} ({a},{b}) 1/eps={t}: ln Z {ln_z!r} vs per-cell {log_z!r}")
        f0, f1, f2, f3 = fitted.coefficients[:4]
        f2n = 12.0 * a * b * f2
        _expect(abs(f1) <= 1e-5, f"{phi_id} ({a},{b}): |f1| = {abs(f1):.2e}")
        _expect(0.998 <= f2n <= 1.002, f"{phi_id} ({a},{b}): 12ab f2 = {f2n}")
        record = {"coefficients": list(fitted.coefficients), "csv_sha256": digest_data_lines(text),
                  "checkpoints": checkpoints}
        if f3_ref is not None:
            # seed-independent jobs only, so the gaps repeat from seed to seed
            record["f2_gap"] = abs(f2n - 1.0)
            record["f3_gap"] = abs(f3 - f3_ref)
        return record

    return check


def sliced_grid_operations(inputs: dict, workdir: Path) -> list[Operation]:
    jobs = [("cosine", 1.0, 3.0, TABLE1_REF["cosine:1,3"][1]),
            ("linear:2,0.5", 2.0, 3.0, TABLE1_REF["linear:2,0.5:2,3"][1])]
    jobs += [(f"tabulated:{p['path']}", float(p["a"]), float(p["b"]), None)
             for p in inputs["profiles"]]
    ops = []
    for idx, ((phi_id, a, b, f3_ref), points) in enumerate(zip(jobs, inputs["checkpoints"])):
        out = workdir / f"grid_{idx}.csv"
        label = phi_id.split(":")[0] if phi_id.startswith("tabulated") else phi_id
        ops.append(Operation(f"free-energy+fit {label} ({a:g},{b:g})", _grid_run(a, b, phi_id, out),
                             _grid_check(a, b, phi_id, points, f3_ref)))
    return ops


# ---------------------------------------------------------------------------
# crosscheck
# ---------------------------------------------------------------------------

@functools.cache
def boxed_plane_partitions(m: int, n: int, k: int) -> int:
    """Exact count of configurations in an m x n x k box (MacMahon's product)."""
    total = Fraction(1)
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            for h in range(1, k + 1):
                total *= Fraction(i + j + h - 1, i + j + h - 2)
    return int(total)


def _analytic(scenario: str, sides: tuple[float, ...]) -> tuple[float, float, float]:
    """(f0, f2, f3) from the closed forms, with polylogarithms from mpmath."""
    import mpmath

    mpmath.mp.dps = 30
    e = mpmath.e
    li3 = lambda x: mpmath.polylog(3, e ** (-x))  # noqa: E731
    lg = lambda x: mpmath.log(e ** x - 1)  # noqa: E731
    if scenario == "finite":
        a, b, c = sides
        s = a * b + b * c + a * c
        f0 = (li3(a) + li3(b) + li3(c) - li3(a + b) - li3(b + c) - li3(a + c)
              + li3(a + b + c) - mpmath.zeta(3)) / (2 * s)
        ratio = lg(a) + lg(b) + lg(c) + lg(a + b + c) - lg(a + b) - lg(b + c) - lg(a + c)
        return float(f0), -1.0 / (24.0 * s), float(-(UNIVERSAL_CONSTANT - ratio / 6 - 0.25) / (4 * s))
    a, b = sides
    f0 = (mpmath.zeta(3) + li3(a + b) - li3(a) - li3(b)) / (a * b)
    ratio = lg(a) + lg(b) - lg(a + b)
    return float(f0), 1.0 / (12.0 * a * b), float((UNIVERSAL_CONSTANT - ratio / 6 - 0.25) / (2 * a * b))


def _shape_args(scenario: str, sides) -> list[str]:
    names = ("--a", "--b", "--c") if scenario == "finite" else ("--a", "--b")
    return [x for name, v in zip(names, sides) for x in (name, str(v))]


def _fit_check(scenario: str, sides):
    f0_ref, f2_ref, _ = _analytic(scenario, sides)

    def check(text):
        meta, rows = parse_csv(text)
        by_term = {r["basis_term"]: r for r in rows}
        fitted = {k: float(r["fitted"]) for k, r in by_term.items()}
        f0, f1, f2, f3 = (fitted[k] for k in ("1", "eps", "eps2*log(eps)", "eps2"))
        f3_gap = abs(f3 - float(by_term["eps2"]["analytic"]))
        f2_gap = abs(f2 / f2_ref - 1.0)
        label = f"fit {scenario} {sides}"
        _expect(abs(f0 - f0_ref) <= 1e-7, f"{label}: |f0 - ref| = {abs(f0 - f0_ref):.2e}")
        _expect(abs(f1) <= 1e-5, f"{label}: |f1| = {abs(f1):.2e}")
        _expect(f2_gap <= 5e-3, f"{label}: |f2/ref - 1| = {f2_gap:.2e}")
        _expect(f3_gap <= 1e-3, f"{label}: |f3 fitted - analytic| = {f3_gap:.2e}")
        return {"fitted": fitted, "residual_rms": float(meta["residual_rms"]),
                "f3_gap": f3_gap, "f2_gap": f2_gap}

    return check


def _coeffs_check(scenario: str, sides):
    f0_ref, f2_ref, f3_ref = _analytic(scenario, sides)

    def check(text):
        _, rows = parse_csv(text)
        c = {r["coefficient"]: float(r["value"]) for r in rows}
        label = f"coeffs {scenario} {sides}"
        _expect(abs(c["f0"] - f0_ref) <= 1e-12 * abs(f0_ref), f"{label}: f0 {c['f0']!r} vs {f0_ref!r}")
        _expect(c["f1"] == 0.0, f"{label}: f1 = {c['f1']!r}")
        _expect(abs(c["f2"] - f2_ref) <= 1e-15, f"{label}: f2 {c['f2']!r} vs {f2_ref!r}")
        _expect(abs(c["f3"] - f3_ref) <= 1e-9, f"{label}: f3 {c['f3']!r} vs {f3_ref!r}")
        return c

    return check


def _verify_check(text):
    meta, rows = parse_csv(text)
    failed = [r["case"] for r in rows if r["status"] != "pass"]
    _expect(meta.get("result") == "pass" and not failed, f"verify: failed cases {failed}")
    return {"cases": len(rows)}


def _constant_check(text):
    _, rows = parse_csv(text)
    value, bound = float(rows[0]["value"]), float(rows[0]["error_bound"])
    _expect(abs(value - UNIVERSAL_CONSTANT) <= 1e-9, f"constant: {value!r}")
    return {"value": value, "error_bound": bound}


def _count_check(m: int, n: int, k: int):
    count = boxed_plane_partitions(m, n, k)

    def check(text):
        _, rows = parse_csv(text)
        z, log_z = float(rows[0]["Z"]), float(rows[0]["log_Z"])
        _expect(round(z) == count and abs(z - count) <= 1e-9 * count,
                f"partition {m}x{n}x{k} q=1: Z = {z!r}, exact count {count}")
        _expect(abs(log_z - math.log(count)) <= 1e-12 * math.log(count),
                f"partition {m}x{n}x{k} q=1: ln Z = {log_z!r}")
        return {"count": count, "log_Z": log_z}

    return check


def _kasteleyn_run(side: int, q: float):
    def run():
        import hexdimer

        z = hexdimer.kasteleyn_partition(hexdimer.BoxShape(side, side, side), q)
        text = cli_run(["partition", "--M", str(side), "--N", str(side), "--K", str(side),
                        "--q", repr(q)])
        return z, text

    return run


def _kasteleyn_check(side: int, q: float):
    def check(result):
        z, text = result
        _, rows = parse_csv(text)
        log_z = float(rows[0]["log_Z"])
        gap = abs(math.log(z) - log_z)
        _expect(gap <= KASTELEYN_LNZ_TOL,
                f"kasteleyn {side}^3 q={q}: |ln Z_K - ln Z_MacMahon| = {gap:.2e}")
        return {"q": q, "log_Z_macmahon": log_z, "log_Z_kasteleyn": math.log(z), "gap": gap}

    return check


CROSSCHECK_SHAPES = (("finite", (1, 1, 1)), ("finite", (3, 2, 1)),
                     ("infinite", (1, 1)), ("infinite", (2, 1)))


def crosscheck_operations(inputs: dict, workdir: Path) -> list[Operation]:
    ops = [Operation("verify", lambda: cli_run(["verify"]), _verify_check),
           Operation("constant", lambda: cli_run(["constant"]), _constant_check)]
    for scenario, sides in CROSSCHECK_SHAPES:
        args = ["--scenario", scenario, *_shape_args(scenario, sides)]
        ops.append(Operation(f"fit {scenario} {sides}", lambda args=args: cli_run(["fit", *args, *GRID]),
                             _fit_check(scenario, sides)))
        ops.append(Operation(f"coeffs {scenario} {sides}", lambda args=args: cli_run(["coeffs", *args]),
                             _coeffs_check(scenario, sides)))
    for m, n, k in ((3, 4, 4), (4, 4, 4)):
        argv = ["partition", "--M", str(m), "--N", str(n), "--K", str(k), "--q", "1"]
        ops.append(Operation(f"partition {m}x{n}x{k} q=1", lambda argv=argv: cli_run(argv),
                             _count_check(m, n, k)))
    for side, q in zip(KASTELEYN_SIDES, inputs["kasteleyn_q"]):
        ops.append(Operation(f"kasteleyn {side}^3", _kasteleyn_run(side, q), _kasteleyn_check(side, q)))
    return ops


def operations(workload: str, inputs: dict, workdir: Path) -> list[Operation]:
    builders = {"table1": table1_operations, "sliced_grid": sliced_grid_operations,
                "crosscheck": crosscheck_operations}
    return builders[workload](inputs, workdir)
