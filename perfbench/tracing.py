"""Per-layer tracing from outside the program.

The tracer replaces the public functions of each hexdimer module with timing
wrappers, in every hexdimer namespace that holds them (``chi`` lives in both
``specialfn`` and ``partition``, ``fixed_panel`` in both ``quadrature`` and
``asymptotics``), and restores the originals on ``uninstall``.  A span stack
in a context variable gives each call its self time: the call's duration
minus the time of traced calls made inside it.

Hot scalar functions (phi, chi, q_func, li, fixed_panel) only aggregate calls
and time.  Every other traced call also stores a span (id, parent, operation,
name, start, end) in memory; ``write_spans`` saves them at the end of a run.

A function that a later refactor renamed or removed is reported as absent
instead of failing the run.
"""
from __future__ import annotations

import contextvars
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

from workloads import boxed_plane_partitions

CLI_COMMANDS = ("partition", "free-energy", "coeffs", "fit", "table1", "constant", "verify")
MAX_SPANS = 200_000


def _count_cells(tracer, args, kwargs, result):
    tracer.add("partition.log_z_sliced.cells", args[0] * args[1])


def _count_dim(tracer, args, kwargs, result):
    tracer.add("kasteleyn.dim", result.shape[0])


def _count_configs(tracer, args, kwargs, result):
    shape = args[0]
    tracer.add("enumeration.configs", boxed_plane_partitions(shape.m, shape.n, shape.k))


def _count_evals(tracer, args, kwargs, result):
    tracer.add("weights.phi.evals", int(np.size(args[1])))


@dataclass(frozen=True)
class Target:
    module: str
    name: str
    hot: bool = False
    count: Callable | None = None

    @property
    def key(self) -> str:
        return f"{self.module}.{self.name}"


TARGETS = (
    Target("partition", "log_z_sliced", count=_count_cells),
    Target("partition", "sliced_log_weight_exponents"),
    Target("partition", "grid_samples"),
    Target("partition", "log_z_macmahon"),
    Target("partition", "log_z_infinite"),
    Target("partition", "series_free_energy"),
    Target("asymptotics", "coeffs_sliced"),
    Target("asymptotics", "sliced_f0"),
    Target("asymptotics", "sliced_f3"),
    Target("asymptotics", "_sliced_pieces"),
    Target("asymptotics", "coeffs_finite"),
    Target("asymptotics", "coeffs_infinite"),
    Target("specialfn", "li", hot=True),
    Target("specialfn", "chi", hot=True),
    Target("specialfn", "q_func", hot=True),
    Target("specialfn", "universal_constant_detail"),
    Target("quadrature", "fixed_panel", hot=True),
    Target("quadrature", "adaptive"),
    Target("fitting", "fit"),
    Target("fitting", "residual_slope"),
    Target("kasteleyn", "build_embedding"),
    Target("kasteleyn", "kasteleyn_matrix", count=_count_dim),
    Target("kasteleyn", "log_z_kasteleyn"),
    Target("enumeration", "oracle_partition", count=_count_configs),
)
PHI_METHODS = ("__call__", "d1", "d2", "antiderivative")
# counter -> the traced function that feeds it
COUNTERS = {"partition.log_z_sliced.cells": "partition.log_z_sliced",
            "kasteleyn.dim": "kasteleyn.kasteleyn_matrix",
            "enumeration.configs": "enumeration.oracle_partition"}


def metric_units() -> dict[str, tuple[str, str]]:
    """Every per-layer metric the traced run reports: name -> (unit, traced function)."""
    units = {f"cli.{cmd}.s": ("s", "cli.main") for cmd in CLI_COMMANDS}
    units["cli.self_s"] = ("s", "cli.main")
    for t in TARGETS:
        units[f"{t.key}.calls"] = ("count", t.key)
        units[f"{t.key}.self_s"] = ("s", t.key)
        units[f"{t.key}.s"] = ("s", t.key)
    units["weights.phi.calls"] = ("count", "weights.phi")
    units["weights.phi.evals"] = ("count", "weights.phi")
    units["weights.phi.s"] = ("s", "weights.phi")
    for name, owner in COUNTERS.items():
        units[name] = ("count", owner)
    units["trace.overhead_ratio"] = ("ratio", "")
    return units


@dataclass
class Stat:
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0
    errors: int = 0


@dataclass
class Tracer:
    stats: dict[str, Stat] = field(default_factory=dict)
    counters: dict[str, float] = field(default_factory=dict)
    spans: list[tuple] = field(default_factory=list)
    absent: set[str] = field(default_factory=set)
    operation: int = -1
    dropped_spans: int = 0
    _patches: list[tuple] = field(default_factory=list)
    _next_span: int = 0
    _stack: contextvars.ContextVar = field(
        default_factory=lambda: contextvars.ContextVar("perfbench_span_stack", default=None))

    def add(self, counter: str, amount) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def _frames(self) -> list:
        stack = self._stack.get()
        if stack is None:
            stack = []
            self._stack.set(stack)
        return stack

    def wrap(self, fn: Callable, key, hot: bool = False, count: Callable | None = None) -> Callable:
        """A timing wrapper around fn; key is a stat name or a function of the call's args."""
        tracer = self

        def wrapper(*args, **kwargs):
            name = key(args, kwargs) if callable(key) else key
            stack = tracer._frames()
            frame = [0.0, None]  # [seconds spent in traced children, span id]
            parent = None
            if not hot:
                frame[1] = tracer._next_span
                tracer._next_span += 1
                parent = next((f[1] for f in reversed(stack) if f[1] is not None), None)
            stack.append(frame)
            ok = False
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                t1 = perf_counter()
                stack.pop()
                dt = t1 - t0
                if stack:
                    stack[-1][0] += dt
                st = tracer.stats.get(name)
                if st is None:
                    st = tracer.stats[name] = Stat()
                st.calls += 1
                st.total += dt
                st.self_time += dt - frame[0]
                if not ok:
                    st.errors += 1
                if not hot:
                    tracer._record(frame[1], parent, name, t0, t1)
            if count is not None:
                try:
                    count(tracer, args, kwargs, result)
                except (AttributeError, IndexError, TypeError):
                    tracer.add(f"{name}.uncounted", 1)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _record(self, span_id, parent, name, t0, t1) -> None:
        if len(self.spans) < MAX_SPANS:
            self.spans.append((span_id, parent, self.operation, name, t0, t1))
        else:
            self.dropped_spans += 1

    def _counting_phi_class(self, cls):
        methods = {m: self.wrap(getattr(cls, m), "weights.phi", hot=True, count=_count_evals)
                   for m in PHI_METHODS if callable(getattr(cls, m, None))}
        return type(f"Counting{cls.__name__}", (cls,), methods)

    def install(self) -> None:
        """Patch every traced function in every loaded hexdimer namespace."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "hexdimer" or name.startswith("hexdimer."))]
        replacements = {}
        for t in TARGETS:
            home = sys.modules.get(f"hexdimer.{t.module}")
            fn = getattr(home, t.name, None)
            if not callable(fn):
                self.absent.add(t.key)
                continue
            replacements[id(fn)] = (fn, self.wrap(fn, t.key, t.hot, t.count))

        cli = sys.modules.get("hexdimer.cli")
        main = getattr(cli, "main", None)
        if callable(main):
            def command(args, kwargs):
                argv = args[0] if args else kwargs.get("argv")
                return f"cli.{argv[0]}" if argv else "cli.other"
            replacements[id(main)] = (main, self.wrap(main, command))
        else:
            self.absent.add("cli.main")

        weights = sys.modules.get("hexdimer.weights")
        phi_from_id = getattr(weights, "phi_from_id", None)
        if callable(phi_from_id):
            classes = {}

            def counting_phi_from_id(*args, **kwargs):
                phi = phi_from_id(*args, **kwargs)
                cls = type(phi)
                if cls not in classes:
                    classes[cls] = self._counting_phi_class(cls)
                proxy = object.__new__(classes[cls])
                proxy.__dict__.update(phi.__dict__)
                return proxy

            replacements[id(phi_from_id)] = (phi_from_id, counting_phi_from_id)
        else:
            self.absent.add("weights.phi")

        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patches.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    def metrics(self, passes: int, overhead_ratio: float) -> dict[str, float]:
        """Per-pass means of every per-layer metric whose traced function exists."""
        out = {}
        for name, (_, owner) in metric_units().items():
            if owner in self.absent:
                continue
            base, _, kind = name.rpartition(".")
            if name == "trace.overhead_ratio":
                out[name] = overhead_ratio
            elif name == "cli.self_s":
                out[name] = sum(s.self_time for k, s in self.stats.items() if k.startswith("cli.")) / passes
            elif name in COUNTERS or name == "weights.phi.evals":
                out[name] = self.counters.get(name, 0) / passes
            else:
                st = self.stats.get(base, Stat())
                # phi methods may call each other; their own time is the self time
                total = st.self_time if base == "weights.phi" else st.total
                out[name] = {"calls": st.calls, "self_s": st.self_time, "s": total}[kind] / passes
        return out

    def errors(self) -> dict[str, int]:
        """Calls that raised, and calls whose work count could not be read."""
        out = {f"{k}.errors": s.errors for k, s in sorted(self.stats.items()) if s.errors}
        out.update((k, v) for k, v in sorted(self.counters.items()) if k.endswith(".uncounted"))
        return out

    def write_spans(self, path: Path) -> None:
        with open(path, "w") as fh:
            for span_id, parent, op, name, t0, t1 in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "operation": op,
                                     "name": name, "start": t0, "end": t1}) + "\n")
