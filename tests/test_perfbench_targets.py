"""Every function the benchmark's tracer wraps is still callable in hexdimer.

The tracer reports a target that a refactor removed as ``absent:`` instead of
failing, so a deletion would silently drop a layer from the traced runs.  This
test fails instead.  It only reads ``perfbench/tracing.py``.
"""
import importlib
import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_trace_target_is_callable(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # tracing imports its sibling workloads
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # its dataclasses look themselves up there
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    modules = {t.module: importlib.import_module(f"hexdimer.{t.module}") for t in tracing.TARGETS}
    missing = [t.key for t in tracing.TARGETS
               if not callable(getattr(modules[t.module], t.name, None))]
    assert missing == []

