from fractions import Fraction

import pytest

from supercircle.linalg import Matrix, block_diagonal, from_columns, hstack
from supercircle.scalars import ExtendedScalar, GaussianRational

GR = GaussianRational


def test_identity_and_product():
    ident = Matrix.identity(3)
    m = Matrix([[GR(1), GR(2), GR(0)], [GR(0), GR(1), GR(3)], [GR(0), GR(0), GR(1)]])
    assert ident * m == m
    assert m * ident == m


def test_rref_and_rank():
    m = Matrix([
        [GR(1), GR(2), GR(3)],
        [GR(2), GR(4), GR(6)],
        [GR(1), GR(0), GR(1)],
    ])
    r, pivots = m.rref()
    assert pivots == (0, 1)
    assert m.rank() == 2
    # lowest-index pivoting: first pivot in column 0
    assert r[0, 0] == GR(1)


def test_kernel_basis_deterministic():
    m = Matrix([[GR(1), GR(2), GR(3)], [GR(0), GR(0), GR(0)]])
    basis = m.kernel_basis()
    assert len(basis) == 2
    for v in basis:
        prod = m * from_columns([v])
        assert prod.is_zero()
    # free coordinates get an exact 1, in ascending column order
    assert basis[0][1] == GR(1)
    assert basis[1][2] == GR(1)


def test_solve_consistent_and_inconsistent():
    m = Matrix([[GR(2), GR(0)], [GR(0), GR(4)]])
    sol = m.solve((GR(6), GR(8)))
    assert sol == (GR(3), GR(2))
    singular = Matrix([[GR(1), GR(1)], [GR(1), GR(1)]])
    assert singular.solve((GR(0), GR(1))) is None
    assert singular.solve((GR(1), GR(1))) is not None


def test_inverse_exact():
    m = Matrix([[GR(1), GR(Fraction(1, 2))], [GR(0, 1), GR(2)]])
    mi = m.inverse()
    assert m * mi == Matrix.identity(2)
    assert mi * m == Matrix.identity(2)
    with pytest.raises(ValueError, match="singular"):
        Matrix([[GR(1), GR(1)], [GR(1), GR(1)]]).inverse()


def test_extended_scalar_entries():
    s = ExtendedScalar(GR(0), GR(1), 3)
    m = Matrix([[s, GR(1)], [GR(1), s]])
    # det = s^2 - 1 = -3i - 1, invertible
    mi = m.inverse()
    assert m * mi == Matrix.identity(2)


def test_helpers():
    a = Matrix([[GR(1)]])
    b = Matrix([[GR(2)]])
    assert hstack([a, b]) == Matrix([[GR(1), GR(2)]])
    d = block_diagonal([a, b])
    assert d == Matrix([[GR(1), GR(0)], [GR(0), GR(2)]])
    c = from_columns([(GR(1), GR(2)), (GR(3), GR(4))])
    assert c == Matrix([[GR(1), GR(3)], [GR(2), GR(4)]])


def test_empty_solve():
    m = Matrix.zeros(0, 0)
    assert m.solve(()) == ()


def test_rows_are_a_hashable_snapshot():
    m = Matrix([[GR(1), GR(0, 2)], [GR(Fraction(1, 3)), GR(4)]])
    rows = m.rows
    assert type(rows) is tuple and all(type(r) is tuple for r in rows)
    assert hash(rows) == hash(Matrix([[1, GR(0, 2)], [Fraction(1, 3), 4]]).rows)
    assert m.col(1) == (GR(0, 2), GR(4))
    # equal matrices give equal rows, however they were built
    assert (m * Matrix.identity(2)).rows == rows
    assert Matrix.identity(2).rows == Matrix([[1, 0], [0, 1]]).rows
    assert m.transpose().transpose().rows == rows


def test_matrix_cannot_be_changed_through_its_views():
    src = [[GR(1), GR(2)], [GR(3), GR(4)]]
    m = Matrix(src)
    before = m.rows
    src[0][0] = GR(9)  # the constructor copied its input
    src.append([GR(5), GR(6)])
    with pytest.raises(TypeError):
        m.rows[0][0] = GR(9)
    with pytest.raises(TypeError):
        m.col(0)[0] = GR(9)
    assert m.rows == before and m.shape == (2, 2)
    # results of operations own their rows too
    red, _ = m.rref()
    inv = m.inverse()
    assert m.rows == before
    assert red.rows == Matrix.identity(2).rows
    assert m * inv == Matrix.identity(2)
    for name in ("rows", "_rows", "other"):
        with pytest.raises(AttributeError):
            setattr(m, name, ((GR(0),),))
    assert m.rows == before
