"""Supermatrices, the defining 2x2 matrices, and the Berezinian.

The su11 algebra is realized by three concrete 2x2 supermatrices, which the
group layer supplies as defining_matrices(); the supercommutator reproduces
its bracket table exactly, and the Berezinian is multiplicative on even
invertible matrices.
"""

import random

from supercircle import (
    GaussianRational,
    GeneratorSet,
    SuperMatrix,
    berezinian,
    builtin_algebra,
    defining_matrices,
    supercommutator,
)

GR = GaussianRational


def main():
    su = builtin_algebra("su11")
    defining = defining_matrices()
    C, U, S = (defining[name] for name in su.names)
    print("== defining matrices ==")
    for name in su.names:
        print(name, "=", defining[name])

    print()
    print("== bracket table, recomputed ==")
    print("[U, U] =", supercommutator(U, U), "  (equals -2C)")
    print("[S, S] =", supercommutator(S, S))
    print("[U, S] =", supercommutator(U, S))
    print("[C, U] =", supercommutator(C, U))

    print()
    print("== Berezinian ==")
    gens = GeneratorSet(["e1", "e2"])
    e1, e2 = gens.odd_gen("e1"), gens.odd_gen("e2")
    one = gens.one()
    g = SuperMatrix(1, 1, [[one + e1 * e2, e1], [e2, one]])
    print("g        =", g)
    print("Ber(g)   =", berezinian(g))

    rng = random.Random(7)
    h = SuperMatrix(1, 1, [
        [gens.scalar(GR(rng.randint(1, 3), 1)), e2],
        [e1 - e2, gens.scalar(GR(2, -1))],
    ])
    print("Ber(h)   =", berezinian(h))
    print("Ber(gh)  =", berezinian(g * h))
    print("product  =", berezinian(g) * berezinian(h), " (multiplicative)")


if __name__ == "__main__":
    main()
