"""Constructors for the irreducible building blocks and the exact
decomposition algorithms that recover them from a scrambled direct sum.

Decomposition is exact throughout: weight blocks are read off the weight
vector, eigenspaces come from exact kernel computations, and the returned
change of basis is certified by multiplying it against the input (no
inversion of the full matrix is ever needed).
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Dict, List, Sequence, Tuple

from ._values import Frozen, _brief, _fits
from .liealg import Representation, _odd_generators, require_valid
from .linalg import Matrix, _product_rows, block_diagonal, matrix_to_json
from .scalars import I, ONE, ZERO, GaussianRational, Scalar, sqrt_neg_im


def make_trivial(algebra: str, even: int = 1, odd: int = 0) -> Representation:
    """even + odd copies of the one-dimensional trivial representation."""
    if not all(_fits(k, int) and k >= 0 for k in (even, odd)):
        raise ValueError("trivial counts must be nonnegative integers, not "
                         "%s and %s" % (_brief(even), _brief(odd)))
    n = even + odd
    zeros = Matrix.zeros(n, n)
    return Representation(
        algebra,
        [0] * even + [1] * odd,
        [0] * n,
        {name: zeros for name in _odd_generators(algebra)},
    )


def make_V_m(m: int) -> Representation:
    """The 1|1-dimensional weight-m block: Z swaps the two basis vectors,
    scaled by sqrt_neg_im(m)."""
    if m == 0:
        raise ValueError("weight must be nonzero")
    return Representation._of("s11", (0, 1), (m, m), _v_odd(sqrt_neg_im(m)))


def _v_odd(s) -> Dict[str, Matrix]:
    """V_m's Z from a root s (s*s = -i*m in any ring): s times the swap."""
    return {"Z": Matrix._of([[ZERO, s], [s, ZERO]], 2)}


def make_weight_zero_s11(variant: str) -> Representation:
    """The two indecomposable weight-zero pieces of dimension 1|1.

    "W" pairs an even vector with an odd one (Z kills the even vector and
    maps the odd one onto it), and "PiW" is its parity reverse.  The trivial
    weight-zero pieces come from :func:`make_trivial`.
    """
    if variant not in ("W", "PiW"):
        raise ValueError("variant must be one of W, PiW")
    z = Matrix._of([[ZERO, ONE], [ZERO, ZERO]], 2)
    parities = (0, 1) if variant == "W" else (1, 0)
    return Representation._of("s11", parities, (0, 0), {"Z": z})


def make_pi_m(m: int, sign: str) -> Representation:
    """The 1|1-dimensional weight-m representation of the su11 table.

    Both signs share U, the swap scaled by sqrt_neg_im(m); they differ in S
    by an overall sign, which flips the eigenvalue of U*S on the even vector
    between +m and -m.
    """
    if m == 0:
        raise ValueError("weight must be nonzero")
    if sign not in ("+", "-"):
        raise ValueError("sign must be + or -")
    return Representation._of("su11", (0, 1), (m, m),
                              _pi_odd(sqrt_neg_im(m), sign))


def _pi_odd(s, sign: str) -> Dict[str, Matrix]:
    """pi_m^sign's U and S from a root s (s*s = -i*m in any ring)."""
    i_s = (I if sign == "+" else -I) * s
    return {"U": Matrix._of([[ZERO, s], [s, ZERO]], 2),
            "S": Matrix._of([[ZERO, -i_s], [i_s, ZERO]], 2)}


def make_adjoint_su11() -> Representation:
    """The 1|2-dimensional weight-zero representation where each odd
    generator maps itself onto the even direction and kills everything else."""
    u = Matrix._of([[ZERO, ONE, ZERO], [ZERO] * 3, [ZERO] * 3], 3)
    s = Matrix._of([[ZERO, ZERO, ONE], [ZERO] * 3, [ZERO] * 3], 3)
    return Representation._of("su11", (0, 1, 1), (0, 0, 0), {"U": u, "S": s})


def direct_sum(*reps: Representation) -> Representation:
    if not reps:
        raise ValueError("need at least one summand")
    algebra = reps[0].algebra
    if any(r.algebra != algebra for r in reps):
        raise ValueError("summands live over different algebras")
    parities: List[int] = []
    weights: List[int] = []
    for r in reps:
        parities.extend(r.parities)
        weights.extend(r.weights)
    odd = {
        name: block_diagonal([r.odd[name] for r in reps])
        for name in reps[0].generator_names
    }
    return Representation._of(algebra, tuple(parities), tuple(weights), odd)


def conjugate(rep: Representation, g: Matrix) -> Representation:
    """Rewrite rep in the basis whose vectors are the columns of g.

    g must be even and weight-preserving (block structure over the parity
    and weight classes), so the parity and weight vectors are unchanged; any
    other g raises ValueError.  g is inverted one class block at a time.
    """
    n, key = rep.dim, list(zip(rep.parities, rep.weights))
    if g.shape != (n, n):
        raise ValueError("g must be %d x %d" % (n, n))
    for i, row in enumerate(g._nonzeros()):
        for j, _ in row:
            if key[i] != key[j]:
                raise ValueError("g entry (%d,%d) joins two (parity, weight) "
                                 "classes" % (i, j))
    gi = _by_class(rep, lambda c: g._submatrix(c, c).inverse())
    odd = {name: gi * mat * g for name, mat in rep.odd.items()}
    return Representation._of(rep.algebra, rep.parities, rep.weights, odd)


def permute(rep: Representation, perm: Sequence[int]) -> Representation:
    """Relabel basis indices: new index k is old index perm[k]."""
    if sorted(perm) != list(range(rep.dim)):
        raise ValueError("not a permutation of the basis indices")
    return rep.restrict(perm)


def _by_class(rep: Representation, block_of) -> Matrix:
    """The matrix that is block_of(indices) on each (parity, weight) class
    of rep, taken in order of first index, and zero elsewhere."""
    classes: Dict[Tuple[int, int], List[int]] = {}
    for idx, key in enumerate(zip(rep.parities, rep.weights)):
        classes.setdefault(key, []).append(idx)
    order = [i for indices in classes.values() for i in indices]
    where = sorted(range(rep.dim), key=order.__getitem__)
    return block_diagonal([block_of(indices) for indices in classes.values()
                           ])._submatrix(where, where)


def random_class_preserving(rep: Representation, rng: random.Random) -> Matrix:
    """A random invertible even matrix supported on the (parity, weight)
    classes of rep, with small Gaussian-rational entries."""
    def block(indices):
        k = len(indices)
        while True:
            b = Matrix([
                [GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3))
                 for _ in range(k)]
                for _ in range(k)
            ])
            if b.rank() == k:
                return b
    return _by_class(rep, block)


def scramble(rep: Representation, rng: random.Random) -> Representation:
    """Conjugate by a random class-preserving matrix, then shuffle the
    basis order; the result decomposes to the same label multiset."""
    g = random_class_preserving(rep, rng)
    perm = list(range(rep.dim))
    rng.shuffle(perm)
    return permute(conjugate(rep, g), perm)


def random_direct_sum(algebra: str, rng: random.Random, max_blocks: int = 8,
                      weight_bound: int = 4) -> Representation:
    """A random direct sum of constructor blocks; raw material for
    decomposition oracles.  Always has positive dimension."""
    _odd_generators(algebra)  # rejects an unknown tag
    weights = [m for m in range(-weight_bound, weight_bound + 1) if m]
    blocks: List[Representation] = []
    for _ in range(rng.randint(1, max_blocks)):
        if algebra == "s11":
            kind = rng.randint(0, 3)
            if kind == 0:
                blocks.append(make_V_m(rng.choice(weights)))
            elif kind == 1:
                blocks.append(make_weight_zero_s11("W"))
            elif kind == 2:
                blocks.append(make_weight_zero_s11("PiW"))
            else:
                blocks.append(make_trivial("s11", rng.randint(0, 2),
                                           rng.randint(0, 1)))
        else:
            kind = rng.randint(0, 2)
            if kind == 0:
                blocks.append(make_pi_m(rng.choice(weights),
                                        rng.choice(["+", "-"])))
            elif kind == 1:
                blocks.append(make_adjoint_su11())
            else:
                blocks.append(make_trivial("su11", rng.randint(1, 2),
                                           rng.randint(0, 1)))
    blocks = [b for b in blocks if b.dim > 0]
    if not blocks:
        blocks = [make_V_m(1) if algebra == "s11" else make_pi_m(1, "+")]
    return direct_sum(*blocks)


# s11: ("V", m), ("Ad",), ("PiAd",), ("trivial", even, odd);
# su11: ("pi", m, sign), ("weight_zero", dim)
Label = Tuple[object, ...]


class DecompositionReport(Frozen):
    """The blocks found in a representation plus the certifying basis.

    ``blocks`` is a tuple of (label, Representation) pairs in the column
    order of ``basis_change``; multiplying the input generator matrices
    against it reproduces the direct sum of the blocks (see :meth:`model`):
    X_input * B = B * X_model.
    """

    __slots__ = ("algebra", "blocks", "basis_change")

    def __init__(self, algebra: str,
                 blocks: Sequence[Tuple[Label, Representation]],
                 basis_change: Matrix):
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "blocks", tuple(blocks))
        object.__setattr__(self, "basis_change", basis_change)

    def labels(self) -> Tuple[Label, ...]:
        """The block labels in column order (for oracle comparison)."""
        return tuple(label for label, _ in self.blocks)

    def model(self) -> Representation:
        """The block-diagonal model the basis change points at: the direct
        sum of the blocks, or the 0-dimensional representation if none."""
        if not self.blocks:
            return make_trivial(self.algebra, 0, 0)
        return direct_sum(*(rep for _, rep in self.blocks))

    def verify(self, rep: Representation) -> bool:
        """Exact check that X_input * B = B * X_model for every generator."""
        _require_algebra(rep, self.algebra)
        model = self.model()
        b = self.basis_change
        return all(
            rep.odd[name] * b == b * model.odd[name]
            for name in rep.generator_names
        )

    def to_json(self) -> dict:
        """The count of each label, in column order, and the basis change."""
        counts = Counter(self.labels())
        if self.algebra == "s11":
            _, even, odd = next(k for k in counts if k[0] == "trivial")
            body = {
                "V": [{"m": k[1], "count": c}
                      for k, c in counts.items() if k[0] == "V"],
                "Ad": counts[("Ad",)],
                "PiAd": counts[("PiAd",)],
                "trivial": {"even": even, "odd": odd},
            }
        else:
            zero = [r.to_json() for k, r in self.blocks if k[0] == "weight_zero"]
            body = {
                "pi": [{"m": k[1], "sign": k[2], "count": c}
                       for k, c in counts.items() if k[0] == "pi"],
                "weight_zero": zero[0] if zero else None,
            }
        return {self.algebra: body,
                "basis_change": matrix_to_json(self.basis_change)}


def _require_algebra(rep: Representation, algebra: str) -> None:
    if rep.algebra != algebra:
        raise ValueError("expected a representation of %s, got one of %s"
                         % (algebra, rep.algebra))


def _embed(vec: Sequence[Scalar], indices: Sequence[int], n: int) -> List[Scalar]:
    full = [ZERO] * n
    for k, idx in enumerate(indices):
        full[idx] = vec[k]
    return full


def _completing_free_columns(images: Sequence[Sequence[Scalar]],
                            free: Sequence[int]) -> List[int]:
    """The positions t in free whose unit vectors e_t complete the span of
    the images, read at the free columns, to all len(free) coordinates.

    Taken greedily in ascending t, e_t joins when it is outside the span of
    the images and of e_0, ..., e_{t-1}.  With f = len(free) that happens
    exactly when f-1-t is not a pivot of the images as rows with their
    coordinates reversed, so one elimination of that k x f matrix decides
    every t.
    """
    f = len(free)
    rows = [[img[c] for c in reversed(free)] for img in images]
    _, pivots = Matrix._of(rows, f).rref()
    return [t for t in range(f) if f - 1 - t not in pivots]


def _nonzero_weight_blocks(rep: Representation):
    weights = sorted({m for m in rep.weights if m != 0})
    return [(m, [i for i in range(rep.dim) if rep.weights[i] == m])
            for m in weights]


def decompose_s11(rep: Representation) -> DecompositionReport:
    """Recover the multiset of weight blocks and weight-zero pieces.

    For each nonzero weight the even basis vectors of the block pair with
    their Z-images (rescaled by the root of -i*m); at weight zero one
    elimination of Z pairs sources with images.
    """
    _require_algebra(rep, "s11")
    require_valid(rep)
    z = rep.odd["Z"]
    n = rep.dim
    columns: List[Sequence[Scalar]] = []
    blocks: List[Tuple[Label, Representation]] = []
    for m, indices in _nonzero_weight_blocks(rep):
        s_inv = sqrt_neg_im(m).inverse()
        block = make_V_m(m)
        odds = [i for i in indices if rep.parities[i] == 1]
        for f_idx in indices:
            if rep.parities[f_idx] == 0:
                # Z is odd and keeps weights (require_valid), so its column
                # is zero outside the odd rows of this block
                partner = _embed([z[i, f_idx] * s_inv for i in odds], odds, n)
                columns.extend([_embed([ONE], [f_idx], n), partner])
                blocks.append((("V", m), block))

    # Weight zero, where Z^2 = 0.  Z is odd, so every row of Z0 lives on the
    # columns of one parity, and the pivot columns of Z0 are the sources:
    # an odd source pairs with its even image (Ad), an even source with its
    # odd image (PiAd).  The same elimination gives the kernel basis, one
    # vector per free column and of that column's parity.  The trivial
    # vectors are the kernel vectors outside the span of the images, picked
    # in kernel coordinates: Z0^2 = 0 puts every image in the kernel, where
    # a vector's coordinates are its entries at the free columns.
    zero_idx = [i for i in range(n) if rep.weights[i] == 0]
    parity = [rep.parities[i] for i in zero_idx]
    z0 = z._submatrix(zero_idx, zero_idx)
    red, pivots = z0.rref()
    kernel = red._reduced_kernel(pivots)
    free = [c for c in range(len(zero_idx)) if c not in pivots]
    images = [z0.col(c) for c in pivots]
    for src, label, variant in ((1, ("Ad",), "W"), (0, ("PiAd",), "PiW")):
        block = make_weight_zero_s11(variant)
        for c, img in zip(pivots, images):
            if parity[c] == src:
                columns.extend([_embed(img, zero_idx, n),
                                _embed([ONE], [zero_idx[c]], n)])
                blocks.append((label, block))
    trivial: Tuple[List, List] = ([], [])
    for t in _completing_free_columns(images, free):
        trivial[parity[free[t]]].append(kernel[t])
    columns.extend(_embed(v, zero_idx, n) for v in trivial[0] + trivial[1])
    te, to_ = len(trivial[0]), len(trivial[1])
    blocks.append((("trivial", te, to_), make_trivial("s11", te, to_)))
    return DecompositionReport("s11", blocks, Matrix._of(
        [list(r) for r in zip(*columns)], len(columns)))


def decompose_su11(rep: Representation) -> DecompositionReport:
    """Split by weight and, within each nonzero weight, by the sign of the
    eigenvalue of U*S on the even part; weight zero is returned unclassified.
    """
    _require_algebra(rep, "su11")
    require_valid(rep)
    u, s = rep.odd["U"], rep.odd["S"]
    n = rep.dim
    columns: List[Sequence[Scalar]] = []
    blocks: List[Tuple[Label, Representation]] = []
    for m, indices in _nonzero_weight_blocks(rep):
        s_inv = sqrt_neg_im(m).inverse()
        evens = [i for i in indices if rep.parities[i] == 0]
        odds = [i for i in indices if rep.parities[i] == 1]
        # U*S on the even rows of this block, which U and S (valid: odd and
        # weight-preserving) keep on its even columns
        t_blk = Matrix._of([[row.get(j, ZERO) for j in evens] for row
                            in _product_rows([(u, s)], evens)], len(evens))
        for lam, sign in ((m, "+"), (-m, "-")):
            shifted = t_blk - Matrix.diagonal([GaussianRational(lam)] * len(evens))
            eig = shifted.kernel_basis()
            block = make_pi_m(m, sign) if eig else None
            for vec in eig:
                f = _embed(vec, evens, n)
                # U*f is zero outside the odd rows of this block
                uf = _product_rows([(u, Matrix._of([[x] for x in f], 1))], odds)
                partner = [ZERO] * n
                for i, row in zip(odds, uf):
                    x = row.get(0, ZERO)
                    if x is not ZERO and not x.is_zero():
                        partner[i] = x * s_inv
                columns.extend([f, partner])
                blocks.append((("pi", m, sign), block))

    zero_idx = [i for i in range(n) if rep.weights[i] == 0]
    if zero_idx:
        columns.extend(_embed([ONE], [idx], n) for idx in zero_idx)
        blocks.append((("weight_zero", len(zero_idx)), rep.restrict(zero_idx)))
    return DecompositionReport("su11", blocks, Matrix._of(
        [list(r) for r in zip(*columns)], len(columns)))
