"""References for the s11 and su11 decompositions.

The su11 reference forms the products as matrices: U*S on every row, its
even rows and columns of each nonzero weight, and each partner U*f as a
product with the column f.  The library reads the same entries off the
generators' nonzero patterns, with no product matrix.

At weight zero the s11 reference follows the older construction: restrict
the representation to weight zero, split Z into the block A from even into odd
coordinates and the block B from odd into even ones, eliminate each block
separately for its pivot columns, its kernel and its trivial complement, and
embed every vector back into the full coordinates.  The library does one
elimination of the whole weight-zero block of Z instead; tests compare the
two reports byte for byte, on the models ``weight_zero_heavy_s11`` draws.
"""

from supercircle.linalg import Matrix, from_columns
from supercircle.reps import (
    DecompositionReport,
    direct_sum,
    make_pi_m,
    make_trivial,
    make_V_m,
    make_weight_zero_s11,
)
from supercircle.scalars import GaussianRational, sqrt_neg_im

ZERO = GaussianRational(0)
ONE = GaussianRational(1)


def embed(vec, indices, n):
    full = [ZERO] * n
    for k, idx in enumerate(indices):
        full[idx] = vec[k]
    return full


def extend_independent(existing, candidates):
    k = len(existing)
    _, pivots = from_columns(list(existing) + list(candidates)).rref()
    return [candidates[p - k] for p in pivots if p >= k]


def weight_zero_pairs(rep):
    """(ad_pairs, pi_ad_pairs, triv_even, triv_odd) in the coordinates of a
    weight-zero rep; each pair is (image, source)."""
    n = rep.dim
    z = rep.odd["Z"]
    even_idx = [i for i in range(n) if rep.parities[i] == 0]
    odd_idx = [i for i in range(n) if rep.parities[i] == 1]
    a_blk = z._submatrix(odd_idx, even_idx)
    b_blk = z._submatrix(even_idx, odd_idx)

    def pairs(block, src_idx, dst_idx):
        out = []
        _, pivots = block.rref()
        for c in pivots:
            src = [ZERO] * n
            src[src_idx[c]] = ONE
            img = embed([block[r, c] for r in range(block.nrows)], dst_idx, n)
            out.append((img, src))
        return out

    ad_pairs = pairs(b_blk, odd_idx, even_idx)
    pi_ad_pairs = pairs(a_blk, even_idx, odd_idx)

    def trivial_complement(block_out, images, idx):
        kernel = block_out.kernel_basis()
        existing = [tuple(img[i] for i in idx) for img, _ in images]
        return [embed(v, idx, n) for v in extend_independent(existing, kernel)]

    return (ad_pairs, pi_ad_pairs,
            trivial_complement(a_blk, ad_pairs, even_idx),
            trivial_complement(b_blk, pi_ad_pairs, odd_idx))


def decompose_s11(rep):
    z = rep.odd["Z"]
    n = rep.dim
    columns = []
    blocks = []
    for m in sorted({m for m in rep.weights if m != 0}):
        s_inv = sqrt_neg_im(m).inverse()
        block = make_V_m(m)
        for f_idx in range(n):
            if rep.weights[f_idx] == m and rep.parities[f_idx] == 0:
                partner = [z[i, f_idx] * s_inv for i in range(n)]
                columns.extend([embed([ONE], [f_idx], n), partner])
                blocks.append((("V", m), block))

    zero_idx = [i for i in range(n) if rep.weights[i] == 0]
    ad_pairs, pi_ad_pairs, triv_even, triv_odd = weight_zero_pairs(
        rep.restrict(zero_idx))
    for variant, label, pairs in (("W", ("Ad",), ad_pairs),
                                  ("PiW", ("PiAd",), pi_ad_pairs)):
        block = make_weight_zero_s11(variant)
        for img, src in pairs:
            columns.extend([embed(img, zero_idx, n), embed(src, zero_idx, n)])
            blocks.append((label, block))
    columns.extend(embed(v, zero_idx, n) for v in triv_even + triv_odd)
    te, to_ = len(triv_even), len(triv_odd)
    blocks.append((("trivial", te, to_), make_trivial("s11", te, to_)))
    return DecompositionReport("s11", blocks, from_columns(columns))


def decompose_su11(rep):
    u, s = rep.odd["U"], rep.odd["S"]
    n = rep.dim
    us = u * s
    columns = []
    blocks = []
    for m in sorted({m for m in rep.weights if m != 0}):
        s_inv = sqrt_neg_im(m).inverse()
        evens = [i for i in range(n)
                 if rep.weights[i] == m and rep.parities[i] == 0]
        t_blk = us._submatrix(evens, evens)
        for lam, sign in ((m, "+"), (-m, "-")):
            shifted = t_blk - Matrix.diagonal([GaussianRational(lam)] * len(evens))
            for vec in shifted.kernel_basis():
                f = embed(vec, evens, n)
                uf = (u * Matrix.column(f)).col(0)
                columns.extend([f, [x * s_inv for x in uf]])
                blocks.append((("pi", m, sign), make_pi_m(m, sign)))
    zero_idx = [i for i in range(n) if rep.weights[i] == 0]
    if zero_idx:
        columns.extend(embed([ONE], [idx], n) for idx in zero_idx)
        blocks.append((("weight_zero", len(zero_idx)), rep.restrict(zero_idx)))
    return DecompositionReport("su11", blocks, from_columns(columns))


def weight_zero_heavy_s11(rng):
    """A random s11 direct sum, mostly W, PiW and trivial blocks, with some
    V_m over Q(i) (m = 2) and over Q(i)[s] (the other m)."""
    blocks = []
    for _ in range(rng.randint(1, 7)):
        kind = rng.randint(0, 5)
        if kind == 0:
            blocks.append(make_V_m(rng.choice([1, -1, 2, 3, -3, 5])))
        elif kind <= 3:
            blocks.append(make_weight_zero_s11(rng.choice(["W", "PiW"])))
        else:
            trivial = make_trivial("s11", rng.randint(0, 2), rng.randint(0, 2))
            if trivial.dim:
                blocks.append(trivial)
    return direct_sum(*blocks or [make_weight_zero_s11("W")])
