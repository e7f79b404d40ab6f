"""One fresh-process set-up: import hexdimer from the checkout and generate a
workload's seeded inputs.  run.py times this script's whole process.

    python3 perfbench/setup_probe.py <workload> <seed> <output directory>
"""
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import hexdimer  # noqa: E402,F401
import workloads  # noqa: E402

workload, seed, directory = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
workloads.make_inputs(workload, seed, directory)
