"""Constructors for the irreducible building blocks and the exact
decomposition algorithms that recover them from a scrambled direct sum.

Decomposition is exact throughout: weight blocks are read off the weight
vector, eigenspaces come from exact kernel computations, and the returned
change of basis is certified by multiplying it against the input (no
inversion of the full matrix is ever needed).
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

from .liealg import Representation, require_valid
from .linalg import Matrix, block_diagonal, from_columns, matrix_to_json
from .scalars import GaussianRational, Scalar, sqrt_neg_im

ZERO = GaussianRational(0, 0)
ONE = GaussianRational(1, 0)


def make_trivial(algebra: str, even: int = 1, odd: int = 0) -> Representation:
    """even + odd copies of the one-dimensional trivial representation."""
    n = even + odd
    zeros = Matrix.zeros(n, n)
    names = {"s11": ("Z",), "su11": ("U", "S")}[algebra]
    return Representation(
        algebra,
        [0] * even + [1] * odd,
        [0] * n,
        {name: zeros for name in names},
    )


def make_V_m(m: int) -> Representation:
    """The 1|1-dimensional weight-m block: Z swaps the two basis vectors,
    scaled by sqrt_neg_im(m)."""
    if m == 0:
        raise ValueError("weight must be nonzero")
    s = sqrt_neg_im(m)
    z = Matrix([[ZERO, s], [s, ZERO]])
    return Representation("s11", (0, 1), (m, m), {"Z": z})


def make_weight_zero_s11(variant: str, even: int = 1, odd: int = 0) -> Representation:
    """The three indecomposable weight-zero pieces.

    "W" pairs an even vector with an odd one (Z kills the even vector and
    maps the odd one onto it), "PiW" is its parity reverse, and "trivial"
    is even + odd copies of the zero action.
    """
    if variant == "W":
        z = Matrix([[ZERO, ONE], [ZERO, ZERO]])
        return Representation("s11", (0, 1), (0, 0), {"Z": z})
    if variant == "PiW":
        z = Matrix([[ZERO, ONE], [ZERO, ZERO]])
        return Representation("s11", (1, 0), (0, 0), {"Z": z})
    if variant == "trivial":
        return make_trivial("s11", even, odd)
    raise ValueError("variant must be one of W, PiW, trivial")


def _normalize_sign(sign) -> str:
    if sign in ("+", 1):
        return "+"
    if sign in ("-", -1):
        return "-"
    raise ValueError("sign must be + or -")


def make_pi_m(m: int, sign) -> Representation:
    """The 1|1-dimensional weight-m representation of the su11 table.

    Both signs share U, the swap scaled by sqrt_neg_im(m); they differ in S
    by an overall sign, which flips the eigenvalue of U*S on the even vector
    between +m and -m.
    """
    if m == 0:
        raise ValueError("weight must be nonzero")
    sign = _normalize_sign(sign)
    s = sqrt_neg_im(m)
    i_s = GaussianRational(0, 1) * s
    u = Matrix([[ZERO, s], [s, ZERO]])
    if sign == "+":
        smat = Matrix([[ZERO, -i_s], [i_s, ZERO]])
    else:
        smat = Matrix([[ZERO, i_s], [-i_s, ZERO]])
    return Representation("su11", (0, 1), (m, m), {"U": u, "S": smat})


def make_adjoint_su11() -> Representation:
    """The 1|2-dimensional weight-zero representation where each odd
    generator maps itself onto the even direction and kills everything else."""
    u = Matrix([[ZERO, ONE, ZERO], [ZERO, ZERO, ZERO], [ZERO, ZERO, ZERO]])
    s = Matrix([[ZERO, ZERO, ONE], [ZERO, ZERO, ZERO], [ZERO, ZERO, ZERO]])
    return Representation("su11", (0, 1, 1), (0, 0, 0), {"U": u, "S": s})


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
    return Representation(algebra, parities, weights, odd)


def conjugate(rep: Representation, g: Matrix) -> Representation:
    """Rewrite rep in the basis whose vectors are the columns of g.

    g must be even and weight-preserving (block structure over the parity
    and weight classes), so the parity and weight vectors are unchanged.
    """
    gi = g.inverse()
    odd = {name: gi * mat * g for name, mat in rep.odd.items()}
    return Representation(rep.algebra, rep.parities, rep.weights, odd)


def permute(rep: Representation, perm: Sequence[int]) -> Representation:
    """Relabel basis indices: new index k is old index perm[k]."""
    if sorted(perm) != list(range(rep.dim)):
        raise ValueError("not a permutation of the basis indices")
    odd = {
        name: Matrix([[mat[perm[i], perm[j]] for j in range(rep.dim)]
                      for i in range(rep.dim)])
        for name, mat in rep.odd.items()
    }
    return Representation(
        rep.algebra,
        [rep.parities[k] for k in perm],
        [rep.weights[k] for k in perm],
        odd,
    )


def random_class_preserving(rep: Representation, rng: random.Random) -> Matrix:
    """A random invertible even matrix supported on the (parity, weight)
    classes of rep, with small Gaussian-rational entries."""
    n = rep.dim
    grid = [[ZERO] * n for _ in range(n)]
    classes: Dict[Tuple[int, int], List[int]] = {}
    for idx in range(n):
        classes.setdefault((rep.parities[idx], rep.weights[idx]), []).append(idx)
    for indices in classes.values():
        k = len(indices)
        while True:
            block = Matrix([
                [GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3))
                 for _ in range(k)]
                for _ in range(k)
            ])
            if block.is_invertible():
                break
        for bi, i in enumerate(indices):
            for bj, j in enumerate(indices):
                grid[i][j] = block[bi, bj]
    return Matrix(grid)


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
        elif algebra == "su11":
            kind = rng.randint(0, 2)
            if kind == 0:
                blocks.append(make_pi_m(rng.choice(weights),
                                        rng.choice(["+", "-"])))
            elif kind == 1:
                blocks.append(make_adjoint_su11())
            else:
                blocks.append(make_trivial("su11", rng.randint(1, 2),
                                           rng.randint(0, 1)))
        else:
            raise ValueError("unknown algebra tag %r" % (algebra,))
    blocks = [b for b in blocks if b.dim > 0]
    if not blocks:
        blocks = [make_V_m(1) if algebra == "s11" else make_pi_m(1, "+")]
    return direct_sum(*blocks)


class DecompositionReport:
    """The labels found in a representation plus the certifying basis.

    ``basis_change`` has one column per basis vector of the canonical block
    model (see :meth:`model`); multiplying the input generator matrices
    against it reproduces the model matrices:  X_input * B = B * X_model.
    """

    __slots__ = (
        "algebra", "v_counts", "pi_counts", "ad_count", "pi_ad_count",
        "trivial_even", "trivial_odd", "weight_zero", "basis_change",
    )

    def __init__(self, algebra: str, basis_change: Matrix, *,
                 v_counts: Optional[Dict[int, int]] = None,
                 pi_counts: Optional[Dict[Tuple[int, str], int]] = None,
                 ad_count: int = 0, pi_ad_count: int = 0,
                 trivial_even: int = 0, trivial_odd: int = 0,
                 weight_zero: Optional[Representation] = None):
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "basis_change", basis_change)
        object.__setattr__(self, "v_counts", dict(v_counts or {}))
        object.__setattr__(self, "pi_counts", dict(pi_counts or {}))
        object.__setattr__(self, "ad_count", ad_count)
        object.__setattr__(self, "pi_ad_count", pi_ad_count)
        object.__setattr__(self, "trivial_even", trivial_even)
        object.__setattr__(self, "trivial_odd", trivial_odd)
        object.__setattr__(self, "weight_zero", weight_zero)

    def __setattr__(self, name, value):
        raise AttributeError("DecompositionReport is immutable")

    def labels(self):
        """The multiset of labels as a sorted tuple (for oracle comparison)."""
        out = []
        if self.algebra == "s11":
            for m, c in sorted(self.v_counts.items()):
                out.extend([("V", m)] * c)
            out.extend([("Ad",)] * self.ad_count)
            out.extend([("PiAd",)] * self.pi_ad_count)
            out.append(("trivial", self.trivial_even, self.trivial_odd))
        else:
            for (m, sign), c in sorted(self.pi_counts.items()):
                out.extend([("pi", m, sign)] * c)
            if self.weight_zero is not None:
                out.append(("weight_zero", self.weight_zero.dim))
        return tuple(out)

    def model(self) -> Representation:
        """The canonical block-diagonal model the basis change points at."""
        blocks: List[Representation] = []
        if self.algebra == "s11":
            for m in sorted(self.v_counts):
                blocks.extend(make_V_m(m) for _ in range(self.v_counts[m]))
            blocks.extend(make_weight_zero_s11("W") for _ in range(self.ad_count))
            blocks.extend(make_weight_zero_s11("PiW") for _ in range(self.pi_ad_count))
            if self.trivial_even or self.trivial_odd:
                blocks.append(make_trivial("s11", self.trivial_even, self.trivial_odd))
        else:
            for m in sorted({mm for mm, _ in self.pi_counts}):
                for sign in ("+", "-"):
                    blocks.extend(
                        make_pi_m(m, sign)
                        for _ in range(self.pi_counts.get((m, sign), 0))
                    )
            if self.weight_zero is not None:
                blocks.append(self.weight_zero)
        if not blocks:
            raise ValueError("empty report has no model")
        return direct_sum(*blocks)

    def verify(self, rep: Representation) -> bool:
        """Exact check that X_input * B = B * X_model for every generator."""
        model = self.model()
        b = self.basis_change
        return all(
            rep.odd[name] * b == b * model.odd[name]
            for name in rep.generator_names
        )

    def to_json(self) -> dict:
        if self.algebra == "s11":
            body = {
                "V": [
                    {"m": m, "count": c}
                    for m, c in sorted(self.v_counts.items())
                ],
                "Ad": self.ad_count,
                "PiAd": self.pi_ad_count,
                "trivial": {"even": self.trivial_even, "odd": self.trivial_odd},
            }
            return {"s11": body, "basis_change": matrix_to_json(self.basis_change)}
        body = {
            "pi": [
                {"m": m, "sign": sign, "count": c}
                for (m, sign), c in sorted(self.pi_counts.items())
            ],
            "weight_zero": (
                None if self.weight_zero is None else self.weight_zero.to_json()
            ),
        }
        return {"su11": body, "basis_change": matrix_to_json(self.basis_change)}


def _embed(vec: Sequence[Scalar], indices: Sequence[int], n: int) -> List[Scalar]:
    full = [ZERO] * n
    for k, idx in enumerate(indices):
        full[idx] = vec[k]
    return full


def _extend_independent(existing: List[Tuple[Scalar, ...]],
                        candidates: Sequence[Tuple[Scalar, ...]]) -> List[Tuple[Scalar, ...]]:
    """The candidates that are independent of the existing span and of the
    candidates before them: the pivot columns past the existing ones, so the
    choice is deterministic.
    """
    k = len(existing)
    _, pivots = from_columns(list(existing) + list(candidates)).rref()
    return [candidates[p - k] for p in pivots if p >= k]


def _weight_zero_pairs(rep: Representation):
    """The Prop-style pairing of a weight-zero s11 action (Z with Z^2 = 0).

    Returns (ad_pairs, pi_ad_pairs, trivial_even, trivial_odd) where each
    pair is (image_vector, source_vector) and every vector lives in the
    coordinates of rep.  Sources are pivot columns of the relevant block of
    Z, so the output is deterministic.
    """
    n = rep.dim
    z = rep.odd["Z"]
    even_idx = [i for i in range(n) if rep.parities[i] == 0]
    odd_idx = [i for i in range(n) if rep.parities[i] == 1]
    # block mapping even coordinates into odd ones, and vice versa
    a_blk = Matrix([[z[i, j] for j in even_idx] for i in odd_idx])
    b_blk = Matrix([[z[i, j] for j in odd_idx] for i in even_idx])

    def pairs(block: Matrix, src_idx, dst_idx):
        out = []
        if block.ncols == 0 or block.nrows == 0:
            return out
        _, pivots = block.rref()
        for c in pivots:
            src = [ZERO] * n
            src[src_idx[c]] = ONE
            img = _embed([block[r, c] for r in range(block.nrows)], dst_idx, n)
            out.append((img, src))
        return out

    ad_pairs = pairs(b_blk, odd_idx, even_idx)      # odd source, even image
    pi_ad_pairs = pairs(a_blk, even_idx, odd_idx)   # even source, odd image

    def trivial_complement(block_out: Matrix, images, idx):
        # vectors of this parity killed by Z, modulo the image of Z
        if not idx:
            return []
        if block_out.nrows == 0:
            kernel = [tuple(ONE if k == t else ZERO for k in range(len(idx)))
                      for t in range(len(idx))]
        else:
            kernel = list(block_out.kernel_basis())
        existing = [tuple(img[i] for i in idx) for img, _ in images]
        picked = _extend_independent(existing, kernel)
        return [_embed(v, idx, n) for v in picked]

    trivial_even = trivial_complement(a_blk, ad_pairs, even_idx)
    trivial_odd = trivial_complement(b_blk, pi_ad_pairs, odd_idx)
    return ad_pairs, pi_ad_pairs, trivial_even, trivial_odd


def decompose_weight_zero_s11(rep: Representation) -> DecompositionReport:
    """Split a weight-zero action into paired and trivial pieces."""
    if any(m != 0 for m in rep.weights):
        raise ValueError("nonzero weight present")
    return decompose_s11(rep)


def _nonzero_weight_blocks(rep: Representation):
    weights = sorted({m for m in rep.weights if m != 0})
    return [(m, [i for i in range(rep.dim) if rep.weights[i] == m])
            for m in weights]


def decompose_s11(rep: Representation) -> DecompositionReport:
    """Recover the multiset of weight blocks and weight-zero pieces.

    For each nonzero weight the even basis vectors of the block pair with
    their Z-images (rescaled by the root of -i*m); weight zero is delegated
    to the nilpotent pairing.
    """
    require_valid(rep)
    z = rep.odd["Z"]
    n = rep.dim
    columns: List[Sequence[Scalar]] = []
    v_counts: Dict[int, int] = {}
    for m, indices in _nonzero_weight_blocks(rep):
        s_inv = sqrt_neg_im(m).inverse()
        evens = [i for i in indices if rep.parities[i] == 0]
        odds = [i for i in indices if rep.parities[i] == 1]
        if len(evens) != len(odds):
            raise ValueError(
                "weight block m=%d has mismatched parity dimensions" % m
            )
        for f_idx in evens:
            f = [ONE if i == f_idx else ZERO for i in range(n)]
            partner = [z[i, f_idx] * s_inv for i in range(n)]
            columns.extend([f, partner])
        v_counts[m] = len(evens)

    zero_idx = [i for i in range(n) if rep.weights[i] == 0]
    ad = pi_ad = te = to_ = 0
    if zero_idx:
        sub = rep.restrict(zero_idx)
        z0 = sub.odd["Z"]
        if not (z0 * z0).is_zero():
            raise ValueError("Z^2 != 0 on the weight-zero part")
        ad_pairs, pi_ad_pairs, triv_even, triv_odd = _weight_zero_pairs(sub)
        for img, src in ad_pairs:
            columns.extend([_embed(img, zero_idx, n), _embed(src, zero_idx, n)])
        for img, src in pi_ad_pairs:
            columns.extend([_embed(img, zero_idx, n), _embed(src, zero_idx, n)])
        columns.extend(_embed(v, zero_idx, n) for v in triv_even)
        columns.extend(_embed(v, zero_idx, n) for v in triv_odd)
        ad, pi_ad = len(ad_pairs), len(pi_ad_pairs)
        te, to_ = len(triv_even), len(triv_odd)
    if len(columns) != n:
        raise ValueError("decomposition does not exhaust the space")
    return DecompositionReport(
        "s11",
        from_columns(columns),
        v_counts=v_counts,
        ad_count=ad,
        pi_ad_count=pi_ad,
        trivial_even=te,
        trivial_odd=to_,
    )


def decompose_su11(rep: Representation) -> DecompositionReport:
    """Split by weight and, within each nonzero weight, by the sign of the
    eigenvalue of U*S on the even part; weight zero is returned unclassified.
    """
    require_valid(rep)
    u = rep.odd["U"]
    s = rep.odd["S"]
    us = u * s
    n = rep.dim
    columns: List[Sequence[Scalar]] = []
    pi_counts: Dict[Tuple[int, str], int] = {}
    for m, indices in _nonzero_weight_blocks(rep):
        s_inv = sqrt_neg_im(m).inverse()
        evens = [i for i in indices if rep.parities[i] == 0]
        t_blk = Matrix([[us[i, j] for j in evens] for i in evens])
        found = 0
        for lam, sign in ((m, "+"), (-m, "-")):
            shifted = t_blk - Matrix.diagonal([GaussianRational(lam)] * len(evens))
            eig = shifted.kernel_basis()
            # i*lam/m is +i or -i; the S-image of an eigenvector must be
            # that multiple of its U-image
            ratio = GaussianRational(0, 1 if sign == "+" else -1)
            for vec in eig:
                f = _embed(vec, evens, n)
                col = Matrix.column(f)
                uf = u * col
                if s * col != ratio * uf:
                    raise ValueError(
                        "S-image certificate failed at weight m=%d" % m
                    )
                columns.extend([f, [x * s_inv for x in uf.col(0)]])
            if eig:
                pi_counts[(m, sign)] = len(eig)
            found += len(eig)
        if found != len(evens):
            raise ValueError(
                "eigenvalue of U*S outside {+m,-m} at weight m=%d "
                "(corrupt input)" % m
            )

    zero_idx = [i for i in range(n) if rep.weights[i] == 0]
    weight_zero = None
    if zero_idx:
        weight_zero = rep.restrict(zero_idx)
        for idx in zero_idx:
            columns.append([ONE if i == idx else ZERO for i in range(n)])
    if len(columns) != n:
        raise ValueError("decomposition does not exhaust the space")
    return DecompositionReport(
        "su11",
        from_columns(columns),
        pi_counts=pi_counts,
        weight_zero=weight_zero,
    )
