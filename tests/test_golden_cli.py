"""Byte-for-byte CLI outputs against committed expected files.

Each case runs ``cli.main`` in-process and compares its stdout and exit code
with ``tests/golden/<case>.out`` and ``tests/golden/exit_codes.json``.  The
representation, section and point inputs are committed under
``tests/golden/inputs`` so that the expected bytes do not depend on the
scrambling or chart code.

After an intended change of output, rewrite the expected files with

    PYTHONPATH=src python tests/test_golden_cli.py

and review the diff.
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from supercircle import _checks
from supercircle.cli import main

GOLDEN = Path(__file__).parent / "golden"
INPUTS = GOLDEN / "inputs"

SCRAMBLES = ["s11_mixed", "s11_weight_zero", "su11_mixed", "su11_weight_zero"]

CASES = {
    **{"verify_w10_seed%d" % s: ["verify", "--weights", "10", "--seed", str(s)]
       for s in range(4)},
    "verify_w40_seed0": ["verify", "--weights", "40", "--seed", "0"],
    **{"rep_%s_%s" % (action, name): ["rep", action, "%s.json" % name]
       for name in SCRAMBLES for action in ("validate", "decompose")},
    "pw_coeffs_m3_plus": ["pw", "coeffs", "--m", "3", "--sign", "+"],
    "pw_coeffs_m-5_minus": ["pw", "coeffs", "--m", "-5", "--sign", "-"],
    "pw_coeffs_m8_plus": ["pw", "coeffs", "--m", "8", "--sign", "+"],
    "pw_coeffs_adjoint": ["pw", "coeffs", "--adjoint"],
    "pw_expand_extension": ["pw", "expand", "section_m3_extension.json"],
    "pw_expand_su11_weights": ["pw", "expand", "section_su11_weights.json"],
    "pw_expand_s11_weights": ["pw", "expand", "section_s11_weights.json"],
    "pw_expand_su11_foreign_theta": ["pw", "expand",
                                     "section_su11_foreign_theta.json"],
    **{"point_%s_%s" % (action, group): [
        "point", action, "point_%s.json" % group.replace("-", "_"),
        "--group", group]
       for group in ("sl11", "su11", "su11-minus")
       for action in ("check", "factorize", "involute")
       if (action, group) != ("factorize", "sl11")},
    "point_involute_s11": ["point", "involute", "circle_s11.json",
                           "--group", "s11"],
    # files over no package chart ring: a point over its own generator
    # names, which has no star, and a pair over the circle's chart names
    "point_check_own_gens_sl11": ["point", "check", "point_own_gens.json",
                                  "--group", "sl11"],
    "point_involute_own_gens_su11": ["point", "involute",
                                     "point_own_gens.json", "--group", "su11"],
    "point_involute_chart_s11": ["point", "involute", "chart_s11.json",
                                 "--group", "s11"],
}


def run_case(name):
    argv = [str(INPUTS / a) if a.endswith(".json") else a for a in CASES[name]]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_is_unchanged(name):
    codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    code, out = run_case(name)
    assert code == codes[name]
    assert out == (GOLDEN / ("%s.out" % name)).read_text(encoding="utf-8")


UNPLACED = "2-without-sched_setaffinity"


@pytest.mark.parametrize("cpus", [1, 2, 3, UNPLACED])
@pytest.mark.parametrize("name", sorted(n for n in CASES
                                        if n.startswith("verify_")))
def test_verify_output_does_not_depend_on_the_cpu_count(name, cpus,
                                                        monkeypatch):
    # one CPU runs the checks serially; two or three run them in this process
    # and one or two workers, each on its own CPU where there are enough;
    # without os.sched_setaffinity two processes run wherever the kernel
    # puts them
    if cpus == UNPLACED:
        monkeypatch.delattr(os, "sched_setaffinity", raising=False)
        cpus = 2
    monkeypatch.setattr(_checks, "_usable_cpus", lambda: cpus)
    test_cli_output_is_unchanged(name)


def test_files_read_the_same_without_an_integer_digit_limit(monkeypatch):
    # sys.get_int_max_str_digits is new in Python 3.10.7
    monkeypatch.delattr(sys, "get_int_max_str_digits")
    test_cli_output_is_unchanged("rep_validate_su11_mixed")


if __name__ == "__main__":
    codes = {}
    for name in sorted(CASES):
        codes[name], out = run_case(name)
        (GOLDEN / ("%s.out" % name)).write_text(out, encoding="utf-8")
    (GOLDEN / "exit_codes.json").write_text(
        json.dumps(codes, sort_keys=True, indent=2) + "\n")
