"""Time each `supercircle verify` check and compare with its claim order.

Each check runs cold, as the first check in a fresh interpreter that has
only imported `supercircle.cli` (and with it every layer and the check suite,
`supercircle._checks`), at --weights 40 and --seed 0.  The runs go in 3
rounds, each of which runs every check once, and a check's cost is its min
over the rounds; so a slow stretch of a shared host lands on one run of
many checks, not on every run of one.  The script prints one JSON object:
the check that `_checks._CLAIM_ORDER` keeps first, then the others in
descending cost, beside `_CLAIM_ORDER`, position by position, with
`differs` set where the two name different checks.  A new check gets its
place in `_CLAIM_ORDER` from this list.  Run it from anywhere, with the
standard library alone:

    python3 tools/check_costs.py
"""

import itertools
import json
import math
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")
WEIGHTS, SEED, REPEATS = 40, 0, 3

# Runs in the fresh interpreter: prints the check's seconds, or exits with
# its detail when it fails.
CHILD = """
import sys, time
from supercircle import _checks, cli
check = dict(_checks._VERIFY_CHECKS)[sys.argv[1]]
config = cli.RunConfig(weights=int(sys.argv[2]), seed=int(sys.argv[3]))
start = time.perf_counter()
status, detail = check(config)
seconds = time.perf_counter() - start
if status == "fail":
    sys.exit("%s fails: %s" % (sys.argv[1], detail))
print(seconds)
"""


def cold_seconds(name: str) -> float:
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, name, str(WEIGHTS), str(SEED)],
        env=env, stdout=subprocess.PIPE, text=True, check=True, timeout=120)
    return float(proc.stdout)


def main() -> int:
    sys.path.insert(0, SRC)
    from supercircle import _checks

    names = [name for name, check in _checks._VERIFY_CHECKS]
    ms = dict.fromkeys(names, math.inf)
    for _ in range(REPEATS):
        for name in names:
            ms[name] = min(ms[name], 1000 * cold_seconds(name))
    lead = _checks._CLAIM_ORDER[0]
    by_cost = [lead] + sorted((name for name in names if name != lead),
                              key=ms.get, reverse=True)
    rows = [{"by_cost": cost, "ms": round(ms[cost], 2) if cost else None,
             "claim_order": claim, "differs": cost != claim}
            for cost, claim in itertools.zip_longest(by_cost,
                                                     _checks._CLAIM_ORDER)]
    print(json.dumps({"weights": WEIGHTS, "seed": SEED, "repeats": REPEATS,
                      "checks": rows}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
