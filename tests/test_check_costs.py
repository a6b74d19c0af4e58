"""``tools/check_costs.py`` still finds the verify checks where they live.

The tool reads private names of the check suite; nothing else runs it, so
this test loads it by path and times one cheap check cold.
"""

import importlib.util
import math
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "check_costs.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("_check_costs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cold_seconds_times_one_check_in_a_fresh_interpreter():
    seconds = _load_tool().cold_seconds("peter-weyl-weight-zero-residual")
    assert math.isfinite(seconds) and seconds >= 0
