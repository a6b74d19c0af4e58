"""Quick self-test: every workload for a few ops, traced and untraced.

Checks that no op fails and that each run reports exactly the metrics that
BENCHMARK.json names, with the same units.  Run from the repository root:

    python3 perfbench/run.py --self-test
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def _run(workload: str, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", "0", "--seconds", "0.5",
           "--trace", str(trace), "--setup-samples", "1", "--trace-ops", "2"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=170,
                          text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def run() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            res = _run(w["name"], trace)
            where = "%s --trace %d" % (w["name"], trace)
            if res["failed"] or not res["correct"]:
                problems.append("%s: %d of %d ops failed"
                                % (where, res["failed"], res["attempted"]))
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != wanted[trace]:
                problems.append("%s: metrics differ from BENCHMARK.json: %s"
                                % (where, sorted(set(got.items())
                                                 ^ set(wanted[trace].items()))))
            print("%-28s fail_ratio %.3f over %d ops"
                  % (where, res["failed"] / res["attempted"],
                     res["attempted"]))
    for line in problems:
        print("FAIL", line)
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0
