"""tools/compare_cli.py reports SAME for one tree against itself and DIFF,
naming what differs, against a tree whose CLI prints something else; and
every invocation it runs is one the CLI parses."""
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from hexdimer import cli

ROOT = Path(__file__).resolve().parent.parent
SPEC = importlib.util.spec_from_file_location("compare_cli", ROOT / "tools" / "compare_cli.py")
compare_cli = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(compare_cli)

INVOCATION = ("partition", "--M", "1", "--N", "1", "--K", "2", "--q", "0.5",
              "--out", compare_cli.OUT)


def test_same_tree_is_same_and_other_output_is_a_diff(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(compare_cli, "INVOCATIONS", (INVOCATION,))
    src = str(ROOT / "src")
    assert compare_cli.main([src, src]) == 0
    assert capsys.readouterr().out.startswith("SAME: hexdimer partition")

    fake = tmp_path / "hexdimer"
    fake.mkdir()
    (fake / "__init__.py").write_text("")
    (fake / "cli.py").write_text("print('not the same')\n")
    assert compare_cli.main([src, str(tmp_path)]) == 1
    assert capsys.readouterr().out.startswith("DIFF (stdout, file): hexdimer partition")


@pytest.mark.parametrize("invocation", compare_cli.INVOCATIONS,
                         ids=lambda v: " ".join(v).replace(compare_cli._DIP, "tabulated:dip_phi.csv"))
def test_every_invocation_parses(invocation):
    # a renamed flag would make both trees print the same usage error: SAME
    cli.build_parser().parse_args(invocation)


def test_the_dip_table_is_its_recipe():
    t = np.union1d(np.linspace(-1, 3, 201), 0.301 + np.linspace(-3e-4, 3e-4, 41))
    table = np.loadtxt(compare_cli._DIP.removeprefix("tabulated:"), delimiter=",", ndmin=2)
    assert np.array_equal(table, np.column_stack([t, 1 - 1.05 * np.exp(-((t - 0.301) / 1e-4) ** 2)]))
