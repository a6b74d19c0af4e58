"""Graded (p|q) matrices over a Grassmann algebra.

Row and column indices below pdim belong to the even sector, the rest to the
odd sector.  An even matrix has even entries on the diagonal blocks and odd
entries off them; an odd matrix the reverse.  Zero entries are compatible
with either requirement.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ._values import Record, _fits
from .grassmann import (
    EVEN,
    ODD,
    GeneratorSet,
    GrassmannElement,
    _inverse_terms,
    _mul_into,
    _nonzero,
    _product,
)
from .scalars import as_scalar


class SuperMatrix(Record):
    """A (pdim|qdim) matrix of GrassmannElements over one generator set;
    equal to another by its block dimensions and entries."""

    __slots__ = ("pdim", "qdim", "rows")

    def __init__(self, pdim: int, qdim: int, entries: Sequence[Sequence[GrassmannElement]]):
        if not (_fits(pdim, int) and _fits(qdim, int)):
            raise TypeError("block dimensions must be integers")
        if pdim < 0 or qdim < 0 or pdim + qdim == 0:
            raise ValueError("need nonnegative block dimensions, not both zero")
        n = pdim + qdim
        rows = tuple(tuple(r) for r in entries)
        if len(rows) != n or any(len(r) != n for r in rows):
            raise ValueError(f"expected a {n}x{n} entry grid")
        if any(not isinstance(x, GrassmannElement) for r in rows for x in r):
            raise TypeError("entries must be GrassmannElements")
        gens = rows[0][0].gens
        if any(x.gens != gens for r in rows for x in r):
            raise ValueError("entries must share one generator set")
        object.__setattr__(self, "pdim", pdim)
        object.__setattr__(self, "qdim", qdim)
        object.__setattr__(self, "rows", rows)

    @classmethod
    def _of(cls, pdim: int, qdim: int, rows) -> "SuperMatrix":
        """Wrap a square grid of row tuples over one generator set, unchecked."""
        m = object.__new__(cls)
        object.__setattr__(m, "pdim", pdim)
        object.__setattr__(m, "qdim", qdim)
        object.__setattr__(m, "rows", rows)
        return m

    @property
    def gens(self) -> GeneratorSet:
        return self.rows[0][0].gens

    @property
    def dim(self) -> int:
        return self.pdim + self.qdim

    @classmethod
    def from_scalar_grid(cls, gens: GeneratorSet, pdim: int, qdim: int,
                         grid: Sequence[Sequence[object]]) -> "SuperMatrix":
        return cls(
            pdim, qdim,
            [[gens.scalar(as_scalar(x)) for x in row] for row in grid],
        )

    @classmethod
    def identity(cls, gens: GeneratorSet, pdim: int, qdim: int) -> "SuperMatrix":
        n = pdim + qdim
        return cls(
            pdim, qdim,
            [[gens.one() if i == j else gens.zero() for j in range(n)] for i in range(n)],
        )

    def _sector(self, i: int) -> int:
        return 0 if i < self.pdim else 1

    def __getitem__(self, key):
        i, j = key
        return self.rows[i][j]

    def _check_same_shape(self, other: "SuperMatrix") -> None:
        if (self.pdim, self.qdim) != (other.pdim, other.qdim):
            raise ValueError("block dimension mismatch")
        if self.gens != other.gens:
            raise ValueError("mismatched generator sets")

    def __add__(self, other):
        if not isinstance(other, SuperMatrix):
            return NotImplemented
        self._check_same_shape(other)
        return SuperMatrix(
            self.pdim, self.qdim,
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)],
        )

    def __sub__(self, other):
        if not isinstance(other, SuperMatrix):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return SuperMatrix(self.pdim, self.qdim, [[-x for x in r] for r in self.rows])

    def __mul__(self, other):
        if isinstance(other, SuperMatrix):
            self._check_same_shape(other)
            gens = self.gens
            cols = list(zip(*other.rows))
            out = []
            for row in self.rows:
                out_row = []
                for col in cols:
                    acc = {}
                    for a, b in zip(row, col):
                        # Entry order is preserved; Grassmann products care.
                        _mul_into(acc, a.terms, b.terms)
                    out_row.append(GrassmannElement._of(gens, _nonzero(acc)))
                out.append(tuple(out_row))
            return SuperMatrix._of(self.pdim, self.qdim, tuple(out))
        if not isinstance(other, GrassmannElement):
            try:
                other = as_scalar(other)
            except TypeError:
                return NotImplemented
        return SuperMatrix(self.pdim, self.qdim, [[x * other for x in r] for r in self.rows])

    def __rmul__(self, other):
        if not isinstance(other, GrassmannElement):
            try:
                other = as_scalar(other)
            except TypeError:
                return NotImplemented
        return SuperMatrix(self.pdim, self.qdim, [[other * x for x in r] for r in self.rows])

    def _matches_parity(self, diagonal_parity: str) -> bool:
        other = ODD if diagonal_parity == EVEN else EVEN
        for i, row in enumerate(self.rows):
            for j, x in enumerate(row):
                if x.is_zero():
                    continue
                want = diagonal_parity if self._sector(i) == self._sector(j) else other
                if x.parity() != want:
                    return False
        return True

    def is_even(self) -> bool:
        return self._matches_parity(EVEN)

    def is_odd(self) -> bool:
        return self._matches_parity(ODD)

    def parity(self) -> Optional[str]:
        if self.is_even():  # the zero matrix included
            return EVEN
        if self.is_odd():
            return ODD
        return None

    def star(self) -> "SuperMatrix":
        return SuperMatrix(self.pdim, self.qdim, [[x.star() for x in r] for r in self.rows])

    def to_json(self) -> dict:
        return {
            "pdim": self.pdim,
            "qdim": self.qdim,
            "entries": [[x.to_json() for x in r] for r in self.rows],
        }


def supercommutator(x: SuperMatrix, y: SuperMatrix) -> SuperMatrix:
    """[x, y] = xy - (-1)^{|x||y|} yx for homogeneous x and y."""
    px, py = x.parity(), y.parity()
    if px is None or py is None:
        raise ValueError("supercommutator needs homogeneous matrices")
    if px == ODD and py == ODD:
        return x * y + y * x
    return x * y - y * x


def berezinian(a: SuperMatrix) -> GrassmannElement:
    """Ber of an even (1|1) matrix [[a, beta], [gamma, d]]: d^-1*(a - beta*d^-1*gamma)."""
    if (a.pdim, a.qdim) != (1, 1):
        raise ValueError("berezinian implemented for (1|1) blocks only")
    # one parity pass; the inverse and the products trust it and run on terms
    (x, beta), (gamma, d) = a.rows
    for entry, parity in ((x, 0), (beta, 1), (gamma, 1), (d, 0)):
        if any(mask.bit_count() & 1 != parity for _, mask in entry.terms):
            raise ValueError("berezinian needs an even matrix")
    d_inv = _inverse_terms(d.terms, len(d.gens.odd))
    schur = dict(x.terms)
    _mul_into(schur, _product(beta.terms, d_inv), gamma.terms, negate=True)
    return GrassmannElement._of(d.gens, _product(d_inv, _nonzero(schur)))


def inverse_1_1(g: SuperMatrix) -> SuperMatrix:
    """Inverse of an even invertible (1|1) supermatrix, blockwise."""
    if (g.pdim, g.qdim) != (1, 1):
        raise ValueError("inverse implemented for (1|1) blocks only")
    a, beta = g.rows[0]
    gamma, d = g.rows[1]
    d_inv = d.invert()
    a_inv = a.invert()
    x = (a - beta * d_inv * gamma).invert()
    w = (d - gamma * a_inv * beta).invert()
    return SuperMatrix(
        1, 1,
        [
            [x, -(a_inv * beta * w)],
            [-(d_inv * gamma * x), w],
        ],
    )
