"""Benchmark runner for hexdimer.

    python3 perfbench/run.py --workload table1|sliced_grid|crosscheck \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its ``src``.
With ``--trace 0`` the runner repeats the workload's operations round robin
for S seconds (each at least twice) under the speed clock of
``speedclock.py``, times the set-up between operations, and reports
end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
passes and reports per-layer metrics.  Every operation's output is checked.
BLAS runs one thread, set before numpy loads.  The last stdout line is the
result JSON; the full record (environment, seed, numeric outputs, input and
output digests) goes to ``.perfbench_work/results/`` and traced spans beside
it.  Exits 2 without a result when the program cannot be found or imported.
"""
from __future__ import annotations

import os

# One BLAS thread, as the program's default --threads 1 implies: idle OpenBLAS
# workers spin on another core and compete with the measured thread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import speedclock
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 9
MIN_ROUNDS = 2

END_TO_END_UNITS = {"setup_s": "s", "wall_ref": "yardsticks", "peak_rss_mb": "MB",
                    "f3_gap_max": "abs", "f2_gap_max": "abs"}
# fail_frac is printed but is no BENCHMARK.json metric: it is 0 on working code,
# and failures already reach the result as `failed` and `attempted`.  wall_s
# (raw seconds) is printed and recorded but too noisy on a shared host to gate.
REPORT_UNITS = {"setup_s": "s", "wall_ref": "yardsticks", "wall_s": "s", "peak_rss_mb": "MB",
                "fail_frac": "ratio", "f3_gap_max": "abs", "f2_gap_max": "abs"}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


class Setup:
    """Wall times of fresh processes that import hexdimer and make the inputs."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        self.argv = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
        self.workdir = workdir
        self.times = []

    def run_once(self) -> None:
        target = self.workdir / f"setup_{len(self.times)}"
        target.mkdir()
        t0 = perf_counter()
        proc = subprocess.run(self.argv + [str(target)], capture_output=True, text=True,
                              timeout=120)
        self.times.append(perf_counter() - t0)
        if proc.returncode != 0:
            fail(f"set-up process failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")


class Tally:
    """Times, first recorded outputs and failures of every operation run."""

    def __init__(self, ops):
        self.times = {op.name: [] for op in ops}
        self.intervals = {op.name: [] for op in ops}
        self.records = {}
        self.failures = []
        self.attempted = 0

    def run(self, op, timed: bool = True) -> float:
        """Run and check op; timed=False leaves its time out of the operation times."""
        self.attempted += 1
        t0 = perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # any exception is a failed operation, reported below
            t1 = perf_counter()
            self.failures.append(f"{op.name}: {type(exc).__name__}: {exc}")
        else:
            t1 = perf_counter()
            try:
                record = op.check(result)
            except Exception as exc:  # includes CheckFailed
                self.failures.append(f"{op.name}: {type(exc).__name__}: {exc}")
            else:
                self.records.setdefault(op.name, record)
        if timed:
            self.times[op.name].append(t1 - t0)
            self.intervals[op.name].append((t0, t1))
        return t1 - t0


def run_untraced(ops, seconds: float, tally: Tally, setup: Setup) -> dict:
    """Round robin over the operations under the speed clock, each at least
    MIN_ROUNDS times, then for as long as the next operation (at its fastest
    time so far) still ends within `seconds`.  The SETUP_REPEATS set-up
    processes are spread over the run, between operations and with the clock
    stopped, so that a slow stretch of the host does not catch all of them.

    Returns each operation's (seconds, yardsticks) per run."""
    clock = speedclock.SpeedClock()
    start = perf_counter()
    i = 0
    clock.start()
    try:
        while True:
            if len(setup.times) < SETUP_REPEATS * (perf_counter() - start) / seconds:
                clock.stop()
                setup.run_once()
                clock.start()
            op = ops[i % len(ops)]
            if i >= MIN_ROUNDS * len(ops) and \
                    perf_counter() - start + min(tally.times[op.name]) > seconds:
                break
            tally.run(op)
            i += 1
    finally:
        clock.stop()
    while len(setup.times) < SETUP_REPEATS:
        setup.run_once()
    return {name: [clock.measure(t0, t1) for t0, t1 in spans]
            for name, spans in tally.intervals.items()}


def run_traced(ops, seconds: float, tally: Tally, tracer) -> tuple[list[float], list[float]]:
    """Alternate untraced and traced passes while the next pair still ends
    within `seconds` (at least one pair); returns the pass times of each kind."""
    plain, traced = [], []
    start = perf_counter()
    while not traced or perf_counter() - start + plain[-1] + traced[-1] <= seconds:
        plain.append(sum(tally.run(op) for op in ops))
        tracer.install()
        try:
            elapsed = 0.0
            for idx, op in enumerate(ops):
                tracer.operation = idx
                elapsed += tally.run(op, timed=False)
            traced.append(elapsed)
        finally:
            tracer.uninstall()
    return plain, traced


def blas_threads():
    """OpenBLAS thread count, read from the library numpy loaded."""
    try:
        libs = {line.split()[-1] for line in open("/proc/self/maps") if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def cpu_model():
    try:
        for line in open("/proc/cpuinfo"):
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def git_commit():
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).is_file():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(hexdimer) -> dict:
    import numpy
    import scipy

    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas_threads": blas_threads(),
            "git_commit": git_commit(), "hexdimer": hexdimer.__version__}


def main() -> int:
    parser = argparse.ArgumentParser(description="hexdimer benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    src = ROOT / "src"
    if not (src / "hexdimer" / "__init__.py").is_file():
        fail(f"no program source at {src / 'hexdimer'}; run from the root of a checkout")
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK))
    try:
        return measure(args, src, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, src: Path, workdir: Path) -> int:
    sys.path.insert(0, str(src))
    try:
        import hexdimer
        import hexdimer.cli  # noqa: F401  (loaded before the tracer patches namespaces)
    except ImportError as exc:
        fail(f"cannot import hexdimer: {exc}")
    if Path(hexdimer.__file__).resolve().parent != (src / "hexdimer").resolve():
        fail(f"imported hexdimer from {hexdimer.__file__}, not from {src}")

    inputs = workloads.make_inputs(args.workload, args.seed, workdir)
    ops = workloads.operations(args.workload, inputs, workdir)
    tally = Tally(ops)
    setup = Setup(args.workload, args.seed, workdir)
    tracer = tracing.Tracer() if args.trace else None
    if tracer is None:
        clocked = run_untraced(ops, args.seconds, tally, setup)
    else:
        plain, traced = run_traced(ops, args.seconds, tally, tracer)

    # One pass is the sum over operations of each one's median time; under the
    # speed clock the times leave out the yardstick runs.
    if tracer is None:
        medians = {name: statistics.median(s for s, _ in runs) for name, runs in clocked.items()}
    else:
        medians = {name: statistics.median(times) for name, times in tally.times.items()}
    records = list(tally.records.values())
    values = {
        "wall_s": sum(medians.values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "fail_frac": len(tally.failures) / tally.attempted,
    }
    if tracer is None:
        values["setup_s"] = statistics.median(setup.times)
        values["wall_ref"] = sum(statistics.median(y for _, y in runs)
                                 for runs in clocked.values())
    for gap in ("f3_gap", "f2_gap"):
        found = [r[gap] for r in records if gap in r]
        if found:
            values[f"{gap}_max"] = max(found)

    print(f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} attempted={tally.attempted} failed={len(tally.failures)}")
    for name, unit in REPORT_UNITS.items():
        if name in values:
            print(f"{name:<12} {values[name]:.6g} {unit}")
    for message in tally.failures[:20]:
        print(f"FAILED {message}")

    env = environment(hexdimer)
    result_dir = WORK / "results"
    result_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "inputs": inputs,
              "setup_times_s": setup.times, "operation_times_s": tally.times,
              "operation_medians_s": medians, "outputs": tally.records,
              "failures": tally.failures, "end_to_end": values}

    if tracer is None:
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items() if name in values}
        complete = len(metrics) == len(END_TO_END_UNITS)
        record["operation_clocked"] = clocked
    else:
        complete = True  # a traced function that is gone is reported as absent
        overhead = statistics.median(traced) / statistics.median(plain)
        layer = tracer.metrics(len(traced), overhead)
        units = tracing.metric_units()
        metrics = {name: {"value": value, "unit": units[name][0]} for name, value in layer.items()}
        wall = statistics.median(traced)
        print(f"traced passes={len(traced)} untraced passes={len(plain)} "
              f"overhead_ratio={overhead:.4g}")
        inclusive = sorted(((v, n[:-2]) for n, v in layer.items() if n.endswith(".s") and v > 0),
                           reverse=True)
        for value, name in inclusive[:12]:
            print(f"  {name:<40} {value:10.4f} s  {value / wall:7.1%} of traced wall")
        if tracer.absent:
            print(f"absent: {' '.join(sorted(tracer.absent))}")
        for name, count in tracer.errors().items():
            print(f"  {name} {count}")
        record.update(per_layer=layer, errors=tracer.errors(), absent=sorted(tracer.absent),
                      traced_pass_s=traced, untraced_pass_s=plain,
                      dropped_spans=tracer.dropped_spans)
        tracer.write_spans(result_dir / f"{stem}-spans.jsonl")
    (result_dir / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    print("environment " + json.dumps(env))

    correct = not tally.failures and complete
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": len(tally.failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
