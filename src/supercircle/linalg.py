"""Small dense matrices over the exact scalar fields, with exact elimination.

Rank, kernel, and solve decisions must be exact to certify emptiness of
intertwiner spaces and to make decompositions reproducible, so pivoting always
selects the first usable row or column (lowest index), never by magnitude.
Representation matrices are weight-block-sparse, so products and elimination
walk only nonzero entries.  Every product is summed in one place,
:func:`_product_rows`, which gives single rows of a sum of products;
``Matrix.__mul__`` takes all of its rows from it.  A matrix lists
its nonzero entries row by row the first time a product or a zero test
needs them and keeps that list, so each entry is tested for zero at most
once in the matrix's life.  An entry that no product term reaches is the
shared ``ZERO``, so the hot zero tests compare with it by identity first
and call ``is_zero()`` for any other entry, which still finds a zero that
is another object.  In the same way the multiply-add
:func:`~supercircle.scalars._fma` takes a term with a factor that is the
shared ``ONE`` as the other factor, with no multiply; identity matrices and
unit basis vectors hold that object.

A wide row of :func:`_product_rows` whose factors are all GaussianRationals
is summed as Gaussian integers over one common denominator, so an entry of
t terms costs one gcd instead of t, and none when every factor is a Gaussian
integer; the relation rows of a scrambled s11
weight-zero class and the rows of a large decomposition certificate's
products are such rows.
"""

from __future__ import annotations

import math
import operator
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ._values import Frozen, expect
from .scalars import (
    ONE,
    ZERO,
    GaussianRational,
    Scalar,
    _fma,
    _gr,
    as_scalar,
    scalar_from_json,
    scalar_to_json,
)


class Matrix(Frozen):
    """An immutable matrix.

    Entries live in private row lists that no method hands out; ``rows``
    returns a fresh tuple of row tuples.  Lists rather than tuples because
    short-lived tuples of every row length collect on CPython's tuple
    freelists and raise the resident size of long exact computations.  The
    column count is stored, so a matrix with no rows keeps it.

    The nonzero pattern, per row the ``(column, entry)`` pairs of its nonzero
    entries in column order, is computed on first use and kept: every
    product runs through :func:`_product_rows`, which walks the patterns of
    both factors; ``*`` takes every row from it, and validation and the su11
    decomposition take single rows of a sum of products.
    """

    __slots__ = ("_rows", "_ncols", "_nz")

    def __init__(self, rows: Sequence[Sequence[object]]):
        data = [[as_scalar(x) for x in row] for row in rows]
        ncols = len(data[0]) if data else 0
        if any(len(r) != ncols for r in data):
            raise ValueError("ragged rows")
        object.__setattr__(self, "_rows", data)
        object.__setattr__(self, "_ncols", ncols)
        object.__setattr__(self, "_nz", None)

    @classmethod
    def _of(cls, rows: List[List[Scalar]], ncols: int) -> "Matrix":
        """Wrap new row lists of scalars that the caller hands over, without
        copying or coercing; every row has ncols entries."""
        m = object.__new__(cls)
        object.__setattr__(m, "_rows", rows)
        object.__setattr__(m, "_ncols", ncols)
        object.__setattr__(m, "_nz", None)
        return m

    def _nonzeros(self) -> List[List[Tuple[int, Scalar]]]:
        """The nonzero pattern; the first call computes it."""
        nz = self._nz
        if nz is None:
            nz = [[(j, x) for j, x in enumerate(row)
                   if x is not ZERO and not x.is_zero()]
                  for row in self._rows]
            object.__setattr__(self, "_nz", nz)
        return nz

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls._of(
            [[ONE if i == j else ZERO for j in range(n)] for i in range(n)], n)

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "Matrix":
        return cls._of([[ZERO] * ncols for _ in range(nrows)], ncols)

    @classmethod
    def diagonal(cls, entries: Sequence[object]) -> "Matrix":
        entries = [as_scalar(e) for e in entries]
        n = len(entries)
        return cls._of(
            [[entries[i] if i == j else ZERO for j in range(n)] for i in range(n)], n)

    @classmethod
    def column(cls, entries: Sequence[object]) -> "Matrix":
        return cls._of([[as_scalar(e)] for e in entries], 1)

    @property
    def rows(self) -> Tuple[Tuple[Scalar, ...], ...]:
        return tuple(tuple(r) for r in self._rows)

    @property
    def nrows(self) -> int:
        return len(self._rows)

    @property
    def ncols(self) -> int:
        return self._ncols

    @property
    def shape(self) -> Tuple[int, int]:
        return self.nrows, self.ncols

    def __getitem__(self, key: Tuple[int, int]) -> Scalar:
        i, j = key
        return self._rows[i][j]

    def col(self, j: int) -> Tuple[Scalar, ...]:
        return tuple(r[j] for r in self._rows)

    def _submatrix(self, rows: Sequence[int], cols: Sequence[int]) -> "Matrix":
        """The entries at the listed rows and columns, in the listed order."""
        src = self._rows
        return Matrix._of([[src[i][j] for j in cols] for i in rows], len(cols))

    def transpose(self) -> "Matrix":
        rows = self._rows
        return Matrix._of([[r[j] for r in rows] for j in range(self._ncols)],
                          len(rows))

    def _entrywise(self, other, op):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        return Matrix._of(
            [list(map(op, r1, r2)) for r1, r2 in zip(self._rows, other._rows)],
            self._ncols,
        )

    def __add__(self, other):
        return self._entrywise(other, operator.add)

    def __sub__(self, other):
        return self._entrywise(other, operator.sub)

    def __neg__(self):
        return Matrix._of([[-x for x in r] for r in self._rows], self._ncols)

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self._ncols != len(other._rows):
                raise ValueError("shape mismatch")
            # an entry that no term reaches is ZERO
            ncols = other._ncols
            out = []
            for row in _product_rows([(self, other)], range(len(self._rows))):
                full = [ZERO] * ncols
                for j, x in row.items():
                    full[j] = x
                out.append(full)
            return Matrix._of(out, ncols)
        try:
            s = as_scalar(other)
        except TypeError:
            return NotImplemented
        return Matrix._of([[x * s for x in r] for r in self._rows], self._ncols)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self._ncols == other._ncols and self._rows == other._rows

    __hash__ = None

    def is_zero(self) -> bool:
        return not any(self._nonzeros())

    def __repr__(self):
        body = "; ".join(", ".join(str(x) for x in r) for r in self._rows)
        return f"Matrix([{body}])"

    # --- elimination ------------------------------------------------------

    def rref(self) -> Tuple["Matrix", Tuple[int, ...]]:
        """Reduced row-echelon form with unit pivots; lowest-index pivoting."""
        rows = [list(r) for r in self._rows]
        nrows, ncols = self.nrows, self.ncols
        pivots: List[int] = []
        piv_r = 0
        for col in range(ncols):
            pivot_row = None
            for r in range(piv_r, nrows):
                x = rows[r][col]
                if x is not ZERO and not x.is_zero():
                    pivot_row = r
                    break
            if pivot_row is None:
                continue
            rows[piv_r], rows[pivot_row] = rows[pivot_row], rows[piv_r]
            inv = rows[piv_r][col].inverse()
            prow = rows[piv_r] = [x * inv for x in rows[piv_r]]
            # left of col the pivot row is zero; elsewhere only its nonzero
            # columns change the other rows
            nz = [(j, prow[j]) for j in range(col, ncols) if not prow[j].is_zero()]
            for r in range(nrows):
                row = rows[r]
                f = row[col]
                if r == piv_r or f is ZERO or f.is_zero():
                    continue
                for j, y in nz:
                    row[j] = _fma(row[j], f, y, negate=True)
            pivots.append(col)
            piv_r += 1
            if piv_r == nrows:
                break
        return Matrix._of(rows, ncols), tuple(pivots)

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel_basis(self) -> List[Tuple[Scalar, ...]]:
        """Basis vectors of the null space, one per free column, in free-column
        order; the free coordinate is set to 1."""
        red, pivots = self.rref()
        return red._reduced_kernel(pivots)

    def _reduced_kernel(self, pivots: Sequence[int]) -> List[Tuple[Scalar, ...]]:
        """``kernel_basis`` read off this matrix, which is in reduced
        row-echelon form with the given pivot columns (as ``rref`` returns
        them), by back-substitution alone."""
        pivot_set = set(pivots)
        free = [j for j in range(self.ncols) if j not in pivot_set]
        basis = []
        for fj in free:
            vec = [ZERO] * self.ncols
            vec[fj] = ONE
            for r, pj in enumerate(pivots):
                vec[pj] = -self._rows[r][fj]
            basis.append(tuple(vec))
        return basis

    def solve(self, rhs: Sequence[object]) -> Optional[Tuple[Scalar, ...]]:
        """One exact solution of self * x = rhs, or None if inconsistent.

        Free variables are set to zero, so the answer is deterministic.
        """
        rhs = [as_scalar(x) for x in rhs]
        if len(rhs) != self.nrows:
            raise ValueError("shape mismatch")
        aug = Matrix._of([r + [b] for r, b in zip(self._rows, rhs)],
                         self._ncols + 1)
        red, pivots = aug.rref()
        if self.ncols in pivots:
            return None
        sol = [ZERO] * self.ncols
        for r, pj in enumerate(pivots):
            sol[pj] = red._rows[r][self.ncols]
        return tuple(sol)

    def inverse(self) -> "Matrix":
        if self.nrows != self.ncols:
            raise ValueError("only square matrices invert")
        n = self.nrows
        aug = Matrix._of(
            [
                self._rows[i] + [ONE if i == j else ZERO for j in range(n)]
                for i in range(n)
            ],
            2 * n,
        )
        red, pivots = aug.rref()
        if tuple(pivots) != tuple(range(n)):
            raise ValueError("matrix is singular")
        return Matrix._of([r[n:] for r in red._rows], n)


def _product_rows(pairs: Sequence[Tuple[Matrix, Matrix]],
                  rows: Sequence[int]) -> Iterator[Dict[int, Scalar]]:
    """Each listed row, in order, of the sum of left * right over one or
    more (left, right) pairs, read off the factors' nonzero patterns with no
    product matrix: a dict from each column that some term reaches to its
    entry, which may be zero.  Rows are made only as they are taken.

    A row has two paths, chosen from its own pattern.  A wide row, whose
    first pair has at least ``_WIDE`` entries in its left row and in the
    first right row that this reaches, goes to :func:`_integer_row`: one
    ``_gr`` per entry over a common denominator.  Every other row, and a
    wide row that the integer path hands back (a Q(i)[s] factor), sums each
    entry's terms pair by pair in ascending k, one ``_fma`` per term.  Both
    paths give the same canonical values."""
    patterns = [(left._nonzeros(), right._nonzeros()) for left, right in pairs]
    left0, right0 = patterns[0]
    wide = _WIDE
    scaled: Optional[List[Dict[int, object]]] = None
    for i in rows:
        lrow = left0[i]
        if len(lrow) >= wide and len(right0[lrow[0][0]]) >= wide:
            if scaled is None:
                scaled = [{} for _ in patterns]
            row = _integer_row(i, patterns, scaled)
            if row is not None:
                yield row
                continue
        row = {}
        for left, right in patterns:
            for k, a in left[i]:
                for j, b in right[k]:
                    row[j] = _fma(row.get(j), a, b)
        yield row


# The width from which a row pays for the integer path.  Over a dense weight
# class each left entry adds about one term to every entry, so the left
# row's length is about the terms per entry and the right row's the entries;
# narrower rows (su11's mostly have one or two terms per entry) gain less
# than the right rows' scaling costs.
_WIDE = 3


def _scaled_row(row: List[Tuple[int, Scalar]]):
    """A pattern row as Gaussian integers over the lcm l of its
    denominators, ``(l, [(j, re, im), ...])``, or False if an entry is not a
    GaussianRational."""
    l = 1
    for _, x in row:
        if type(x) is not GaussianRational:
            return False
        if l % x._d:
            l = math.lcm(l, x._d)
    return l, [(j, x._a * (l // x._d), x._b * (l // x._d)) for j, x in row]


def _integer_row(i: int, patterns, scaled) -> Optional[Dict[int, Scalar]]:
    """Row i of the sum of the products whose nonzero patterns are the
    (left, right) pairs, as :func:`_product_rows` gives it, accumulated in
    Gaussian integers over one common denominator d with one ``_gr`` per
    entry; or None, before any term is formed, if a factor is not a
    GaussianRational.  Each right row is scaled to the lcm of its
    denominators once per call: scaled holds one dict per pair, from k to
    ``_scaled_row(right[k])``, and the caller keeps it across rows."""
    terms = []
    d = 1
    for (left, right), cache in zip(patterns, scaled):
        for k, a in left[i]:
            if type(a) is not GaussianRational:
                return None
            s = cache.get(k)
            if s is None:
                s = cache[k] = _scaled_row(right[k])
            if s is False:
                return None
            if s[1]:
                x = a._d * s[0]
                if d % x:
                    d = math.lcm(d, x)
                terms.append((a._a, a._b, x, s[1]))
    re: Dict[int, int] = {}
    im: Dict[int, int] = {}
    for a, b, x, srow in terms:
        if x != d:
            f = d // x
            a, b = a * f, b * f
        for j, p, q in srow:
            if j in re:
                re[j] += a * p - b * q
                im[j] += a * q + b * p
            else:
                re[j] = a * p - b * q
                im[j] = a * q + b * p
    return {j: _gr(x, im[j], d) for j, x in re.items()}


def block_diagonal(blocks: Sequence[Matrix]) -> Matrix:
    m = sum(b.ncols for b in blocks)
    rows = []
    c0 = 0
    for b in blocks:
        for brow in b._rows:
            row = [ZERO] * m
            row[c0:c0 + b._ncols] = brow
            rows.append(row)
        c0 += b._ncols
    return Matrix._of(rows, m)


def from_columns(columns: Sequence[Sequence[object]]) -> Matrix:
    cols = [[as_scalar(x) for x in col] for col in columns]
    if any(len(c) != len(cols[0]) for c in cols):
        raise ValueError("ragged columns")
    return Matrix._of([list(r) for r in zip(*cols)], len(cols))


def matrix_to_json(m: Matrix) -> list:
    return [[scalar_to_json(x) for x in row] for row in m._rows]


def matrix_from_json(rows: object) -> Matrix:
    return Matrix([[scalar_from_json(x) for x in r]
                   for r in expect(rows, list, "matrix JSON", list)])
