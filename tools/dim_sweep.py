"""Time validation and decomposition of large representations, per dimension.

For each algebra (s11, su11) and each target dimension (32, 64, 128) the
input is `scramble(random_direct_sum(algebra, rng, max_blocks=target), rng)`
with `rng = random.Random(seed)`, for the first seed from 0 up whose input
lies within 10% of the target; so the inputs are fixed and the same for
every checkout.  The script times `liealg.validate_representation` and
`reps.decompose_s11` or `reps.decompose_su11` (which validates too) on each
input, and `DecompositionReport.verify` on its decomposition, in process,
each as the min of 3 runs, and prints one JSON object.

It imports the package from the `src` directory it is given, so the same
script can time two checkouts, run alternately:

    python3 tools/dim_sweep.py --src ../parent/src
    python3 tools/dim_sweep.py --src src

Standard library only.
"""

import argparse
import itertools
import json
import os
import random
import sys
import time

TARGETS = (32, 64, 128)
REPEATS = 3


def best_seconds(fn, *args) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - start)
    return best


def fixed_input(reps, algebra: str, target: int):
    """The first seed's scrambled sum within 10% of the target dimension."""
    for seed in itertools.count():
        rng = random.Random(seed)
        model = reps.random_direct_sum(algebra, rng, max_blocks=target)
        if abs(model.dim - target) <= target // 10:
            return seed, reps.scramble(model, rng)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=os.path.join(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))), "src"),
        help="the src directory to import supercircle from")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    from supercircle import liealg, reps

    rows = []
    for algebra in ("s11", "su11"):
        decompose = getattr(reps, "decompose_" + algebra)
        for target in TARGETS:
            seed, rep = fixed_input(reps, algebra, target)
            report = decompose(rep)
            rows.append({
                "algebra": algebra, "target": target, "seed": seed,
                "dim": rep.dim, "weight_zero_dim": rep.weights.count(0),
                "validate_s": round(best_seconds(
                    liealg.validate_representation, rep), 5),
                "decompose_s": round(best_seconds(decompose, rep), 5),
                "verify_s": round(best_seconds(report.verify, rep), 5),
            })
    print(json.dumps({"src": os.path.abspath(args.src), "repeats": REPEATS,
                      "inputs": "scramble(random_direct_sum(algebra, rng, "
                                "max_blocks=target), rng), "
                                "rng = random.Random(seed)",
                      "sweep": rows}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
