"""``tools/dim_sweep.py`` still runs and reports every column.

Nothing else runs the sweep, so this test loads it by path and sweeps one
small dimension.
"""

import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "dim_sweep.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("_dim_sweep", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sweep_reports_every_column_for_each_algebra(monkeypatch, capsys):
    tool = _load_tool()
    monkeypatch.setattr(tool, "TARGETS", (10,))
    # main puts the src directory first on sys.path
    monkeypatch.setattr(sys, "path", list(sys.path))
    assert tool.main(["--src", str(ROOT / "src")]) == 0
    rows = json.loads(capsys.readouterr().out)["sweep"]
    assert [row["algebra"] for row in rows] == ["s11", "su11"]
    for row in rows:
        assert abs(row["dim"] - 10) <= 1
        for column in ("validate_s", "decompose_s", "verify_s"):
            assert row[column] >= 0
