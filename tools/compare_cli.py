"""Compare the hexdimer command line of two source trees, byte for byte.

    python tools/compare_cli.py PARENT_SRC CHANGE_SRC

Each argument is a directory that holds the ``hexdimer`` package (the ``src``
directory of a checkout).  Every invocation in INVOCATIONS runs as
``python -m hexdimer.cli ...`` in a fresh subprocess, with PYTHONPATH set to
one tree and a fresh scratch directory as its working directory.  Its stdout,
stderr, exit code and the file that ``--out`` writes are compared.  One SAME
or DIFF line is printed per invocation, a DIFF naming what differs.  The exit
code is 0 when every invocation is the same, 1 when any differs and 2 on a
usage error.
"""
from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

OUT = "out.txt"  # the --out file, relative to the scratch directory

_FINITE = ("--scenario", "finite", "--a", "1", "--b", "2", "--c", "3")
_CUBE = ("--scenario", "finite", "--a", "1", "--b", "1", "--c", "1")
_INFINITE = ("--scenario", "infinite", "--a", "2", "--b", "1")
_SLICED = ("--scenario", "sliced", "--a", "1", "--b", "3", "--phi", "cosine")
_GRID = ("--inv-eps-min", "2", "--inv-eps-max", "100")
_SLICED_GRID = ("--inv-eps-min", "2", "--inv-eps-max", "200")
_HUGE = str(10**300)
# a cubic spline whose dip to -0.05 at t = 0.301 falls between 2001 samples of
# [-1, 3] but on one of 4001.  The table holds, one "t,phi" line each,
#   t = np.union1d(np.linspace(-1, 3, 201), 0.301 + np.linspace(-3e-4, 3e-4, 41))
#   phi = 1 - 1.05 * np.exp(-((t - 0.301) / 1e-4) ** 2)
_DIP = f"tabulated:{Path(__file__).resolve().parent / 'dip_phi.csv'}"

INVOCATIONS = (
    ("coeffs", *_FINITE),
    ("coeffs", *_CUBE, "--json"),
    ("coeffs", *_INFINITE),
    ("coeffs", *_INFINITE, "--json"),
    ("coeffs", *_SLICED),
    ("coeffs", *_SLICED, "--json"),
    ("coeffs", "--scenario", "sliced", "--a", "3", "--b", "1", "--phi", "cosine"),
    # sides below 1, where li(3, .) runs longest and zeta(3) weighs most in f0
    ("coeffs", "--scenario", "finite", "--a", "0.5", "--b", "1", "--c", "2"),
    ("coeffs", "--scenario", "infinite", "--a", "0.25", "--b", "3", "--json"),
    # side sums just above li's 0.25 switch, where its series in z is longest
    ("coeffs", "--scenario", "infinite", "--a", "0.125", "--b", "0.13"),
    # a + b below li's switch: trees that sum the four Li_3 lose zeta(3) and
    # zeta(2) x to cancellation and print f0,16.209256159527289; trees that
    # difference li's expansion in closed form print 16.23180133983843, the
    # 60-digit value.  A DIFF (stdout) by design
    ("coeffs", "--scenario", "infinite", "--a", "1e-7", "--b", "1e-7"),
    ("coeffs", "--scenario", "finite", "--a", "0.1", "--b", "0.15", "--c", "0.2"),
    # f3 takes the uniform box's f3 at the rescaled sides 1e-7, where the
    # uniform f0 would cancel catastrophically
    ("coeffs", "--scenario", "sliced", "--a", "1", "--b", "1", "--phi", "const:1e-7"),
    # e^(-a*phi(b-a)) rounds to 1: exit 1 before sliced_f0 runs, naming phi(b-a)
    ("coeffs", "--scenario", "sliced", "--a", "1", "--b", "3", "--phi", "const:1e-300"),
    # elongated: sliced_f0's b side is 30 long.  Trees whose Newton inversion
    # started from u/phi(b-a) cycled there and print f0 4.3e-7 high; trees
    # with 12 equal s panels on [u(a), v(b)], 1.6 wide here, print it 1.9e-12
    # high.  Both are DIFFs (stdout) by design (ROADMAP item 10)
    ("coeffs", "--scenario", "sliced", "--a", "1", "--b", "30", "--phi", "cosine"),
    # more elongated and thin: trees with 12 equal s panels print f0 1.1e-4 low
    # on (1, 300), 16.6-wide panels, and 2.2e-8 low on (0.001, 1), where the
    # first panel is 83 times wider than its distance from s = 0.  Both are
    # DIFFs (stdout) by design (ROADMAP item 10)
    ("coeffs", "--scenario", "sliced", "--a", "1", "--b", "300", "--phi", "cosine"),
    ("coeffs", "--scenario", "sliced", "--a", "0.001", "--b", "1", "--phi", "const:1"),
    # sides 1e20: trees whose graded s panels reach all the way to u(a) put
    # the first one beyond the integrand's mass and print f0,0; trees that
    # stop them at s = 64 print 1.2020569031595877e-40.  A DIFF (stdout) by
    # design
    ("coeffs", "--scenario", "sliced", "--a", "1e20", "--b", "1e20", "--phi", "const:1"),
    # u(a) = 100 and v(b) = 105, 5 apart: trees that place 12 equal s panels
    # on [100, 105] integrate 13 panels past s = 64, where K(s) < e^-64;
    # trees that stop every stretch at 64 place none there.  Those panels sum
    # below half an ulp of f0, so both print the same bits: SAME
    ("coeffs", "--scenario", "sliced", "--a", "100", "--b", "105", "--phi", "const:1"),
    # phi reaches 0 at t = 2: exit 1 naming that sample
    ("coeffs", "--scenario", "sliced", "--a", "1", "--b", "3", "--phi", "linear:1,-0.5"),
    # the dip profile: trees that sample the sign at 2001 points print an f
    # with exit 0, and exit 1 from coeffs with "math domain error"; trees
    # that sample it at 4001 exit 1 from both naming the dip.  DIFFs (stdout,
    # stderr, exit code; then stderr) by design
    ("free-energy", "--a", "1", "--b", "3", "--phi", _DIP, "--inv-eps", "100"),
    ("coeffs", "--scenario", "sliced", "--a", "1", "--b", "3", "--phi", _DIP),
    # rescaled sides 80 and 40, with a > b
    ("coeffs", "--scenario", "sliced", "--a", "2", "--b", "1", "--phi", "const:40", "--json"),
    ("fit", *_FINITE, *_GRID),
    ("fit", *_CUBE, *_GRID, "--json"),
    ("fit", *_INFINITE, *_GRID),
    ("fit", *_INFINITE, *_GRID, "--json"),
    ("fit", *_SLICED, *_SLICED_GRID),
    ("fit", *_SLICED, *_SLICED_GRID, "--json"),
    ("table1",),
    ("table1", "--row", "linear:2,0.5:2,3", "--json"),
    ("verify",),
    ("verify", "--json"),
    ("constant",),
    ("partition", "--M", "3", "--N", "4", "--K", "5", "--q", "0.7"),
    ("partition", "--M", "3", "--N", "4", "--K", "inf", "--q", "0.7", "--json"),
    ("partition", "--M", "4", "--N", "4", "--K", "4", "--q", "1"),
    ("partition", "--M", "1", "--N", "1", "--K", "1", "--q", "0.5"),
    ("partition", "--M", "600", "--N", "1", "--K", "2", "--q", "0.999"),
    ("partition", "--a", "1", "--b", "3", "--phi", "cosine", "--inv-eps", "40"),
    ("partition", "--a", "2", "--b", "3", "--phi", "cosine", "--inv-eps", "200"),  # 240,000 cells
    # E_min = 5e-10 and 1e-9, either side of 2^-30, where the sliced sum starts
    # taking its splitting constant from a bound
    ("partition", "--a", "1", "--b", "1", "--phi", "const:1e-7", "--inv-eps", "200"),
    ("partition", "--a", "1", "--b", "1", "--phi", "const:2e-7", "--inv-eps", "200"),
    ("free-energy", "--M", "3", "--N", "4", "--K", "5", "--q", "0.7"),
    ("free-energy", "--a", "1", "--b", "2", "--c", "3", "--inv-eps", "10"),
    ("free-energy", "--a", "1", "--b", "3", "--phi", "cosine", "--inv-eps", "25"),
    # trees that write the phi id with :g print phi=const:1 here, as for
    # const:1 itself, beside a different f: a DIFF (stdout) by design
    ("free-energy", "--a", "1", "--b", "3", "--phi", "const:1.0000001", "--inv-eps", "4"),
    ("free-energy", "--a", "1", "--b", "1", "--c", "1", *_GRID, "--out", OUT),
    ("free-energy", "--a", "2", "--b", "1", *_SLICED_GRID, "--out", OUT),
    ("free-energy", "--a", "1", "--b", "3", "--phi", "cosine", *_SLICED_GRID, "--out", OUT),
    ("free-energy", "--a", "2", "--b", "3", "--phi", "cosine", *_SLICED_GRID, "--out", OUT),
    ("free-energy", "--a", "2", "--b", "3", "--phi", "linear:2,0.5", *_SLICED_GRID, "--out", OUT),
    # 12.06 M product terms in all: a uniform grid split over up to five processes
    ("free-energy", "--a", "300", "--b", "200", "--c", "100", *_SLICED_GRID, "--out", OUT),
    # 8,340-8,400 terms a mesh, 92 k in all: one process, and each mesh is
    # above the batch of a grid that evaluates its meshes in batches
    ("free-energy", "--a", "3", "--b", "2", "--c", "1", "--inv-eps-min", "1390",
     "--inv-eps-max", "1400"),
    ("fit", "--scenario", "infinite", "--a", "4", "--b", "1", *_SLICED_GRID, "--json"),
    # e^(-eps) rounds to 1 at every mesh: the infinite-height box exits 1.
    # Trees that named "q must be in (0, 1)", a q the user never gave, print
    # a DIFF (stderr) here, by design; both trees name the same first mesh
    ("free-energy", "--a", "2e-16", "--b", "2e-16", "--inv-eps", "20000000000000000"),
    ("fit", "--scenario", "infinite", "--a", "2e-16", "--b", "2e-16",
     "--inv-eps-min", "20000000000000000", "--inv-eps-max", "20000000000000020"),
    # a lattice box past the product-term cap: exit 1 naming its 3e+300 terms.
    # Trees that still named it "sides too large" print a DIFF (stderr) here,
    # by design
    ("free-energy", "--M", _HUGE, "--N", _HUGE, "--K", _HUGE, "--q", "0.5"),
    # off the lattice at 1/eps = 3: the grid stays in one process and fails there
    ("free-energy", "--a", "1000.5", "--b", "1000", *_SLICED_GRID),
    # off the lattice at 1/eps = 100 (c/eps, then b/eps, is 100.000000001),
    # in the second batch of a grid whose first batch has been evaluated:
    # exit 1 naming that mesh
    ("fit", "--scenario", "finite", "--a", "1", "--b", "1", "--c", "1.00000000001",
     *_SLICED_GRID),
    ("free-energy", "--a", "2", "--b", "1.00000000001", *_SLICED_GRID),
    # 1e+07 product terms at 1/eps = 10 are named before any mesh runs, though
    # 1/eps = 3 is off the lattice
    ("free-energy", "--a", "0.5", "--b", "1", "--c", "1e6", "--inv-eps-min", "2",
     "--inv-eps-max", "10"),
    # e^(-E) rounds to 1 from 1/eps = 67 on: exit 1 naming eps = 1/67, also
    # where the grid is split over processes and a later mesh fails first
    ("free-energy", "--a", "1", "--b", "3", "--phi", "const:3e-15", *_SLICED_GRID),
    # the same failing grid with its coefficients computed beside it
    ("table1", "--row", "const:3e-15:1,3"),
    # e^(-a*phi(b-a)) rounds to 1: the coefficients name phi(b-a) before any grid runs
    ("table1", "--row", "const:1e-300:1,3"),
    ("fit", "--scenario", "sliced", "--a", "1", "--b", "3", "--phi", "const:3e-15", *_SLICED_GRID),
    # every error of a single uniform mesh: off the lattice, zero lattice steps,
    # an infinite ratio, and the product-term cap, finite and at infinite height
    ("free-energy", "--a", "1.5", "--b", "1", "--inv-eps", "3"),
    ("free-energy", "--a", "1", "--b", "1", "--c", "1e-10", "--inv-eps", "2"),
    ("free-energy", "--a", "1e308", "--b", "1e-10", "--inv-eps", "10"),
    ("free-energy", "--a", "1", "--b", "1", "--c", "1", "--inv-eps", "2000000"),
    ("free-energy", "--a", "1", "--b", "1", "--inv-eps", "3000000"),
    # trees that read any "cosine:..." as cosine print its coefficients and
    # exit 0; trees that take only "cosine" exit 1 naming the spec.  A DIFF
    # (stdout, stderr, exit code) by design
    ("coeffs", "--scenario", "sliced", "--a", "1", "--b", "3", "--phi", "cosine:5"),
    # a tabulated spec with no file: trees that hand the empty path to the
    # loader print "error:  not found."; trees that check the spec name it
    # and the form.  A DIFF (stderr) by design; both exit 1
    ("coeffs", "--scenario", "sliced", "--a", "1", "--b", "3", "--phi", "tabulated:"),
)


def run(src: Path, argv: tuple[str, ...]) -> dict:
    """stdout, stderr, exit code and --out file of one invocation on one tree."""
    with tempfile.TemporaryDirectory() as workdir:
        proc = subprocess.run([sys.executable, "-m", "hexdimer.cli", *argv], cwd=workdir,
                              env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True)
        out = Path(workdir, OUT)
        return {"stdout": proc.stdout, "stderr": proc.stderr, "exit code": proc.returncode,
                "file": out.read_bytes() if out.is_file() else None}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Compare the hexdimer CLI of two source trees.")
    parser.add_argument("parent_src", type=Path, help="directory holding the parent's hexdimer")
    parser.add_argument("change_src", type=Path, help="directory holding the change's hexdimer")
    args = parser.parse_args(argv)
    trees = [src.resolve() for src in (args.parent_src, args.change_src)]
    for src in trees:
        if not (src / "hexdimer" / "cli.py").is_file():
            parser.error(f"{src} holds no hexdimer package")
    differ = 0
    for invocation in INVOCATIONS:
        parent, change = (run(src, invocation) for src in trees)
        diffs = [key for key in parent if parent[key] != change[key]]
        status = f"DIFF ({', '.join(diffs)})" if diffs else "SAME"
        print(f"{status}: hexdimer {' '.join(invocation)}", flush=True)
        differ += bool(diffs)
    print(f"{len(INVOCATIONS) - differ} same, {differ} different")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
