"""A naive reference for Grassmann and 1|1 supermatrix arithmetic on term dicts.

Products run a double loop over the terms of both factors, walk the bits of
both masks for the sign of every term pair, and drop a monomial as soon as
its running sum reaches zero.  Nothing is shared with the library's product
kernel, so tests can compare the library's term dicts with these.
"""

from supercircle.grassmann import GeneratorSet
from supercircle.scalars import ExtendedScalar, GaussianRational
from supercircle.supergroup import su11_chart_ring

GR = GaussianRational


def merge_sign(left_mask, right_mask):
    """1 when sorting left's generators followed by right's takes an odd
    number of transpositions."""
    sign = 0
    for j in range(right_mask.bit_length()):
        if right_mask >> j & 1:
            sign ^= bin(left_mask >> (j + 1)).count("1") & 1
    return sign


def _put(out, key, c):
    acc = out.get(key)
    s = c if acc is None else acc + c
    if s.is_zero():
        out.pop(key, None)
    else:
        out[key] = s


def add(x, y):
    out = dict(x)
    for key, c in y.items():
        _put(out, key, c)
    return out


def neg(x):
    return {key: -c for key, c in x.items()}


def sub(x, y):
    return add(x, neg(y))


def mul(x, y):
    out = {}
    for (e1, m1), c1 in x.items():
        for (e2, m2), c2 in y.items():
            if m1 & m2:
                continue
            c = c1 * c2
            if merge_sign(m1, m2):
                c = -c
            _put(out, (tuple(a + b for a, b in zip(e1, e2)), m1 | m2), c)
    return out


def one(gens):
    return {((0,) * len(gens.even), 0): GR(1, 0)}


def invert(gens, x):
    """u^-1 (1 - v + v^2 - ...) for x = u (1 + v), u the single unit term."""
    ((exps, _), coef), = [(k, c) for k, c in x.items() if k[1] == 0]
    u_inv = {(tuple(-e for e in exps), 0): coef.inverse()}
    v = mul(u_inv, {k: c for k, c in x.items() if k[1] != 0})
    result, power = one(gens), one(gens)
    for k in range(1, len(gens.odd) + 1):
        power = mul(power, v)
        result = add(result, neg(power) if k % 2 else power)
    return mul(result, u_inv)


def power(gens, x, n):
    if n < 0:
        return power(gens, invert(gens, x), -n)
    out = one(gens)
    for _ in range(n):
        out = mul(out, x)
    return out


def star(gens, x):
    """Conjugate each coefficient and multiply the generators' star images
    in the order of the monomial, even generators first."""
    out = {}
    for (exps, mask), c in x.items():
        term = {((0,) * len(gens.even), 0): c.conjugate()}
        for idx, e in enumerate(exps):
            if e:
                term = mul(term, power(gens, gens._even_star_image(idx).terms, e))
        for idx in range(len(gens.odd)):
            if mask >> idx & 1:
                term = mul(term, gens._odd_star_image(idx).terms)
        out = add(out, term)
    return out


def matmul(a_rows, b_rows):
    """Products of square grids of term dicts, entry sums in k order."""
    n = len(a_rows)
    return [[_sum(mul(a_rows[i][k], b_rows[k][j]) for k in range(n))
             for j in range(n)] for i in range(n)]


def _sum(terms):
    out = {}
    for t in terms:
        out = add(out, t)
    return out


def berezinian(gens, rows):
    """d^-1 (a - beta d^-1 gamma) for rows [[a, beta], [gamma, d]]."""
    (a, beta), (gamma, d) = rows
    d_inv = invert(gens, d)
    return mul(d_inv, sub(a, mul(mul(beta, d_inv), gamma)))


# --- seeded random inputs -----------------------------------------------------


def lambda4():
    return GeneratorSet(["a", "b", "c", "d"], pairing=[[0, 1], [2, 3]])


def su11_chart():
    """Laurent even generators a0, a1 whose star images are not monomials."""
    return su11_chart_ring(copies=2)[0]


RINGS = {"lambda4": lambda4, "su11_chart": su11_chart}

# -3i is not a square in Q(i), so m = 3 gives a genuine extension
EXT_M = 3


def random_coefficient(rng, extended):
    c0 = GR(rng.randint(-2, 2), rng.randint(-2, 2))
    if not extended:
        return c0
    return ExtendedScalar(c0, GR(rng.randint(-2, 2), rng.randint(-2, 2)), EXT_M)


def random_terms(rng, gens, extended, parity=None, size=(1, 5)):
    """Up to size[1] random terms; Laurent exponents in [-2, 2] when the ring
    has even generators; masks of the given parity (0, 1) or of any."""
    masks = [m for m in range(1 << len(gens.odd))
             if parity is None or bin(m).count("1") % 2 == parity]
    terms = {}
    for _ in range(rng.randint(*size)):
        exps = tuple(rng.randint(-2, 2) for _ in gens.even)
        c = random_coefficient(rng, extended)
        if not c.is_zero():
            terms[(exps, rng.choice(masks))] = c
    return terms


def random_unit_terms(rng, gens, extended):
    """An even element with exactly one term of mask 0, which is nonzero."""
    terms = {k: c for k, c in random_terms(rng, gens, extended, parity=0).items()
             if k[1] != 0}
    c = GR(0, 0)
    while c.is_zero():
        c = random_coefficient(rng, extended)
    terms[(tuple(rng.randint(-2, 2) for _ in gens.even), 0)] = c
    return terms
