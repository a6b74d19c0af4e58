"""Differential test of exact elimination against sympy's DomainMatrix over
QQ_I, an independent implementation of linear algebra over Q(i)."""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
from sympy import QQ, QQ_I  # noqa: E402
from sympy.polys.matrices import DomainMatrix  # noqa: E402

from supercircle.linalg import Matrix  # noqa: E402
from supercircle.scalars import GaussianRational  # noqa: E402

GR = GaussianRational


def _to_sympy(x: GR):
    return QQ_I(QQ(x.re.numerator, x.re.denominator),
                QQ(x.im.numerator, x.im.denominator))


def _from_sympy(z) -> GR:
    return GR(Fraction(int(z.x.numerator), int(z.x.denominator)),
              Fraction(int(z.y.numerator), int(z.y.denominator)))


def _domain(rows):
    ncols = len(rows[0])
    return DomainMatrix([[_to_sympy(x) for x in r] for r in rows],
                        (len(rows), ncols), QQ_I)


def _entry(rng):
    if rng.random() < 0.4:
        return GR(0)
    return GR(Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
              Fraction(rng.randint(-5, 5), rng.randint(1, 4)))


def _random_matrix(rng, nrows, ncols):
    """A random matrix; every third one is a product through a smaller inner
    dimension, so it is rank-deficient."""
    if rng.random() < 1 / 3 and min(nrows, ncols) > 1:
        inner = rng.randint(1, min(nrows, ncols) - 1)
        left = Matrix([[_entry(rng) for _ in range(inner)] for _ in range(nrows)])
        right = Matrix([[_entry(rng) for _ in range(ncols)] for _ in range(inner)])
        return left * right
    return Matrix([[_entry(rng) for _ in range(ncols)] for _ in range(nrows)])


def _cases(count=150, seed=8):
    rng = random.Random(seed)
    for _ in range(count):
        yield rng, _random_matrix(rng, rng.randint(1, 8), rng.randint(1, 8))


def test_product_matches_sympy():
    for rng, a in _cases():
        b = _random_matrix(rng, a.ncols, rng.randint(1, 8))
        ref = (_domain(a.rows) * _domain(b.rows)).to_list()
        product = a * b
        assert all(type(x) is GR for row in product.rows for x in row)
        assert product.rows == tuple(tuple(_from_sympy(z) for z in row)
                                     for row in ref)


def test_rref_and_rank_match_sympy():
    deficient = 0
    for _, a in _cases():
        ref, ref_pivots = _domain(a.rows).rref()
        red, pivots = a.rref()
        assert pivots == tuple(ref_pivots)
        assert red.rows == tuple(tuple(_from_sympy(z) for z in row)
                                 for row in ref.to_list())
        assert a.rank() == _domain(a.rows).rank() == len(pivots)
        deficient += a.rank() < min(a.shape)
    assert deficient >= 30


def test_kernel_basis_matches_sympy():
    for _, a in _cases():
        basis = a.kernel_basis()
        dm = _domain(a.rows)
        assert len(basis) == a.ncols - dm.rank()
        if not basis:
            continue
        # each vector lies in the kernel, and together they span it
        vectors = DomainMatrix([[_to_sympy(x) for x in v] for v in basis],
                               (len(basis), a.ncols), QQ_I)
        assert (dm * vectors.transpose()).is_zero_matrix
        assert vectors.rank() == len(basis)
        # sympy's basis, scaled to free coordinate 1, is the same in the
        # same free-column order
        _, pivots = dm.rref()
        free = [j for j in range(a.ncols) if j not in pivots]
        expected = []
        for fj, row in zip(free, dm.nullspace().to_list()):
            vec = [_from_sympy(z) for z in row]
            expected.append(tuple(x / vec[fj] for x in vec))
        assert basis == expected


def test_solve_matches_sympy():
    solved = inconsistent = 0
    for rng, a in _cases():
        if rng.random() < 0.5:
            # a right-hand side in the column space
            x = [_entry(rng) for _ in range(a.ncols)]
            rhs = (a * Matrix.column(x)).col(0)
        else:
            rhs = tuple(_entry(rng) for _ in range(a.nrows))
        dm = _domain(a.rows)
        aug = _domain([list(r) + [b] for r, b in zip(a.rows, rhs)])
        consistent = aug.rank() == dm.rank()
        sol = a.solve(rhs)
        assert (sol is not None) == consistent
        if sol is None:
            inconsistent += 1
            continue
        solved += 1
        got = dm * _domain([[x] for x in sol])
        assert [_from_sympy(row[0]) for row in got.to_list()] == list(rhs)
        # free variables are set to zero
        _, pivots = dm.rref()
        assert all(sol[j].is_zero() for j in range(a.ncols) if j not in pivots)
    assert solved >= 50 and inconsistent >= 10


def test_product_rows_of_a_scrambled_weight_zero_class_match_sympy():
    # 40-dimensional weight-zero s11 classes, scrambled: their Z has dense
    # rows over several denominators, so product rows take the integer path
    # of linalg._product_rows.  Z*Z vanishes at weight zero, so every entry
    # cancels; the products of two scrambles' Z do not.
    from supercircle import linalg, reps

    blocks = ([reps.make_weight_zero_s11("W")] * 9
              + [reps.make_weight_zero_s11("PiW")] * 9
              + [reps.make_trivial("s11", 2, 2)])
    z1, z2 = (reps.scramble(reps.direct_sum(*blocks), random.Random(seed))
              .odd["Z"] for seed in (40, 41))
    assert z1.shape == (40, 40)
    nz = z1._nonzeros()
    assert any(len(row) >= linalg._WIDE and len(nz[row[0][0]]) >= linalg._WIDE
               for row in nz if row)
    d1, d2 = _domain(z1.rows), _domain(z2.rows)
    for pairs, ref in (([(z1, z1)], d1 * d1), ([(z1, z2)], d1 * d2),
                       ([(z1, z2), (z2, z1)], d1 * d2 + d2 * d1)):
        ref = ref.to_list()
        for i, row in enumerate(linalg._product_rows(pairs, range(40))):
            assert all(type(x) is GR for x in row.values())
            assert [row.get(j, GR(0)) for j in range(40)] == [
                _from_sympy(x) for x in ref[i]]
    assert any(not x.is_zero()
               for row in linalg._product_rows([(z1, z2)], range(40))
               for x in row.values())
