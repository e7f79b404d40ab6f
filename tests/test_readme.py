"""The README's Python quick start runs as written."""
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start() -> str:
    text = README.read_text()
    section = text.split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_quick_start_runs():
    namespace = {}
    exec(compile(quick_start(), str(README), "exec"), namespace)
    analytic, fitted = namespace["analytic"], namespace["fitted"]
    assert abs(fitted.coefficients[0] - analytic.f0) < 1e-7
