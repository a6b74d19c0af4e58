"""Small dense matrices over the exact scalar fields, with exact elimination.

Rank, kernel, and solve decisions must be exact to certify emptiness of
intertwiner spaces and to make decompositions reproducible, so pivoting always
selects the first usable row or column (lowest index), never by magnitude.
Representation matrices are weight-block-sparse, so products and elimination
walk only nonzero entries.  A matrix lists its nonzero entries row by row the
first time a product or a zero test needs them and keeps that list, so each
entry is tested for zero at most once in the matrix's life.
"""

from __future__ import annotations

import operator
from typing import List, Optional, Sequence, Tuple

from ._values import Frozen, expect
from .scalars import (
    ONE,
    ZERO,
    Scalar,
    _fma,
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
    entries in column order, is computed on first use and kept: products walk
    the patterns of both factors, and representation validation walks the
    patterns of the generators and of their products.
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
            nz = [[(j, x) for j, x in enumerate(row) if not x.is_zero()]
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

    def _row_subset(self, rows: Sequence[int]) -> "Matrix":
        """The listed rows, in the listed order.  The row lists, and the
        nonzero pattern when it is known, are shared with this matrix."""
        m = Matrix._of([self._rows[i] for i in rows], self._ncols)
        if self._nz is not None:
            object.__setattr__(m, "_nz", [self._nz[i] for i in rows])
        return m

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
            # Gustavson's row-wise product over the two nonzero patterns.
            # Each entry is a sum in ascending k of its nonzero terms, one
            # _fma per term, or ZERO if none.
            right = other._nonzeros()
            ncols = other._ncols
            out = []
            for row in self._nonzeros():
                acc = [None] * ncols
                for k, a in row:
                    for j, b in right[k]:
                        acc[j] = _fma(acc[j], a, b)
                out.append([ZERO if x is None else x for x in acc])
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
                if not rows[r][col].is_zero():
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
                if r == piv_r or f.is_zero():
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
