import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supercircle import linalg, scalars
from supercircle.linalg import Matrix, block_diagonal, from_columns
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


def _ext_block(rng, size, m):
    return [[ExtendedScalar(GR(rng.randint(-3, 3)), GR(rng.randint(1, 3)), m)
             for _ in range(size)] for _ in range(size)]


def _zero(m):
    # a zero written over the extension for m; with no s-part it is the
    # Gaussian zero, which no product can find in the wrong extension
    return ExtendedScalar(GR(0), GR(0), m)


def _padded(blocks, pads):
    """Block-diagonal rows; the rows of block b are zero(pads[b]) outside it."""
    n = sum(len(b) for b in blocks)
    rows, c0 = [], 0
    for b, pad in zip(blocks, pads):
        for brow in b:
            row = [_zero(pad)] * n
            row[c0:c0 + len(brow)] = brow
            rows.append(row)
        c0 += len(b)
    return rows


def _naive_product(a, b):
    out = []
    for i in range(len(a)):
        row = []
        for j in range(len(b[0])):
            acc = GR(0)
            for k in range(len(b)):
                if not a[i][k].is_zero() and not b[k][j].is_zero():
                    acc = acc + a[i][k] * b[k][j]
            row.append(acc)
        out.append(row)
    return out


def test_block_diagonal_product_over_two_extensions():
    rng = random.Random(3)
    blocks = [(2, 3), (3, -3)]
    # a's zeros are written over their row's extension, b's over the other
    # one; both are the Gaussian zero
    a = _padded([_ext_block(rng, n, m) for n, m in blocks], (3, -3))
    b = _padded([_ext_block(rng, n, m) for n, m in blocks], (-3, 3))
    product = Matrix(a) * Matrix(b)
    assert product == Matrix(_naive_product(a, b))
    assert all(product[i, j] is linalg.ZERO
               for i in range(5) for j in range(5) if (i < 2) != (j < 2))


def test_sum_of_zero_terms_is_the_shared_zero():
    s3 = ExtendedScalar(GR(0), GR(1), 3)
    s_3 = ExtendedScalar(GR(0), GR(1), -3)
    # row 0 is all zero, column 0 is all zero, and every term of entry
    # (1, 1) has one zero factor
    a = Matrix([[_zero(3), _zero(3)], [s3, _zero(3)]])
    b = Matrix([[_zero(-3), _zero(-3)], [_zero(-3), s_3]])
    assert all(x is linalg.ZERO for row in (a * b).rows for x in row)


def test_product_tests_each_entry_at_most_once(monkeypatch):
    rng = random.Random(24)

    def block():
        return Matrix([[GR(rng.randint(1, 5), rng.randint(-5, 5))
                        for _ in range(8)] for _ in range(8)])

    a = block_diagonal([block() for _ in range(3)])
    b = block_diagonal([block() for _ in range(3)])
    expected = Matrix(_naive_product(a.rows, b.rows))
    tests, products, operator_products = [], [], []
    is_zero, fma = GaussianRational.is_zero, linalg._fma
    mul = GaussianRational.__mul__

    def counting_is_zero(self):
        tests.append(1)
        return is_zero(self)

    def counting_fma(acc, x, y, negate=False):
        products.append(1)
        return fma(acc, x, y, negate)

    def counting_mul(self, other):
        operator_products.append(1)
        return mul(self, other)

    monkeypatch.setattr(GaussianRational, "is_zero", counting_is_zero)
    monkeypatch.setattr(linalg, "_fma", counting_fma)
    monkeypatch.setattr(GaussianRational, "__mul__", counting_mul)
    product = a * b
    monkeypatch.undo()
    assert len(tests) <= 24 * 24 + 24 * 24
    # only products of two nonzero entries: one multiply-add per (i, k, j)
    # inside a block, and none through the operators
    assert len(products) == 3 * 8 ** 3 and operator_products == []
    assert product == expected


def _exact_entries():
    # zeros, rationals with small unequal denominators, and Q(i)[s] values
    part = st.fractions(min_value=-2, max_value=2, max_denominator=3)
    gaussian = st.builds(GR, part, part)
    return st.one_of(st.just(GR(0)), gaussian,
                     st.builds(ExtendedScalar, gaussian, gaussian, st.just(3)))


def _grid(nrows, ncols):
    row = st.lists(_exact_entries(), min_size=ncols, max_size=ncols)
    return st.lists(row, min_size=nrows, max_size=nrows)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_product_matches_naive_over_rationals_and_extensions(data):
    n, k, m = (data.draw(st.integers(1, 4)) for _ in range(3))
    a, b = data.draw(_grid(n, k)), data.draw(_grid(k, m))
    assert Matrix(a) * Matrix(b) == Matrix(_naive_product(a, b))
    # [a | a] times [b; -b] cancels every sum to the Gaussian zero
    cancelled = Matrix([r + r for r in a]) * Matrix(b + [[-x for x in r] for r in b])
    assert all(type(x) is GR and x == GR(0) for r in cancelled.rows for x in r)


def test_matrices_without_rows_keep_their_column_count():
    assert Matrix.zeros(0, 3).shape == (0, 3)
    assert Matrix.zeros(0, 3).transpose().shape == (3, 0)
    assert Matrix.zeros(0, 3).transpose().transpose() == Matrix.zeros(0, 3)
    assert Matrix.zeros(2, 0) * Matrix.zeros(0, 3) == Matrix.zeros(2, 3)
    assert Matrix.zeros(0, 3) != Matrix.zeros(0, 2)
    assert from_columns([(), ()]).shape == (0, 2)
    assert Matrix.column([]).shape == (0, 1)
    # every column of a matrix without rows is free
    assert Matrix.zeros(0, 2).kernel_basis() == [(GR(1), GR(0)), (GR(0), GR(1))]
    assert Matrix.zeros(0, 2).solve(()) == (GR(0), GR(0))
    with pytest.raises(ValueError, match="ragged"):
        from_columns([(GR(1),), ()])


def test_factors_keep_their_nonzero_pattern(monkeypatch):
    rng = random.Random(25)
    a = Matrix([[GR(rng.randint(-1, 1)) for _ in range(6)] for _ in range(6)])
    b = Matrix([[GR(rng.randint(-1, 1)) for _ in range(6)] for _ in range(6)])
    tests = []
    is_zero = GaussianRational.is_zero

    def counting_is_zero(self):
        tests.append(1)
        return is_zero(self)

    monkeypatch.setattr(GaussianRational, "is_zero", counting_is_zero)
    first = a * b
    assert len(tests) == 2 * 36
    del tests[:]
    # later products and zero tests reuse both patterns
    again, swapped, zero = a * b, b * a, a.is_zero()
    assert tests == []
    monkeypatch.undo()
    assert first == again == Matrix(_naive_product(a.rows, b.rows))
    assert swapped == Matrix(_naive_product(b.rows, a.rows))
    assert zero is False


def test_product_tests_only_entries_other_than_the_shared_zero(monkeypatch):
    # the inputs of test_product_tests_each_entry_at_most_once: outside its
    # blocks a block-diagonal matrix holds the shared ZERO, which the
    # nonzero patterns skip by identity, so only the 2 * 3 * 8^2 block
    # entries are tested
    rng = random.Random(24)

    def block():
        return Matrix([[GR(rng.randint(1, 5), rng.randint(-5, 5))
                        for _ in range(8)] for _ in range(8)])

    a = block_diagonal([block() for _ in range(3)])
    b = block_diagonal([block() for _ in range(3)])
    expected = Matrix(_naive_product(a.rows, b.rows))
    tests = []
    is_zero = GaussianRational.is_zero

    def counting_is_zero(self):
        tests.append(1)
        return is_zero(self)

    monkeypatch.setattr(GaussianRational, "is_zero", counting_is_zero)
    product = a * b
    monkeypatch.undo()
    assert len(tests) <= 2 * 3 * 8 ** 2
    assert product == expected


# zeros that are not the shared ZERO object, which every zero test must
# still drop
FOREIGN_ZEROS = [lambda: GR(0), lambda: GR(0, 0),
                 lambda: GR(2, -1) - GR(2, -1),
                 lambda: ExtendedScalar(GR(1), GR(1), 3)
                 - ExtendedScalar(GR(1), GR(1), 3)]


def _shared_and_foreign(draw, nrows, ncols):
    """One grid twice: with the shared ZERO, and with each of its zeros
    replaced by a foreign zero."""
    shared = [[linalg.ZERO if x.is_zero() else x for x in row]
              for row in draw(_grid(nrows, ncols))]
    foreign = [[draw(st.sampled_from(FOREIGN_ZEROS))() if x is linalg.ZERO
                else x for x in row] for row in shared]
    assert all(x is not linalg.ZERO for row in foreign for x in row)
    return Matrix(shared), Matrix(foreign)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_foreign_zeros_act_as_the_shared_zero(data):
    n, k, m = (data.draw(st.integers(1, 5)) for _ in range(3))
    a, a_foreign = _shared_and_foreign(data.draw, n, k)
    b, b_foreign = _shared_and_foreign(data.draw, k, m)
    assert a_foreign._nonzeros() == a._nonzeros()
    assert a_foreign.rref() == a.rref()
    assert a_foreign.kernel_basis() == a.kernel_basis()
    product = a * b
    assert a_foreign * b_foreign == a_foreign * b == a * b_foreign == product
    assert (a_foreign * b_foreign)._nonzeros() == product._nonzeros()


# ones that are not the shared ONE, which the product kernels skip by
# identity; these take the ordinary multiply
FOREIGN_ONES = [lambda: GR(1), lambda: GR(1, 0),
                lambda: GR(2, -1) / GR(2, -1),
                lambda: ExtendedScalar(GR(1), GR(1), 3)
                / ExtendedScalar(GR(1), GR(1), 3)]


def _with_shared_and_foreign_ones(draw, nrows, ncols):
    """One grid twice, rich in ones: with the shared ONE, and with each of
    its ONEs replaced by a foreign one."""
    entry = st.one_of(st.just(linalg.ONE), st.just(linalg.ONE), _exact_entries())
    shared = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                           min_size=nrows, max_size=nrows))
    foreign = [[draw(st.sampled_from(FOREIGN_ONES))() if x is linalg.ONE
                else x for x in row] for row in shared]
    assert all(x is not linalg.ONE for row in foreign for x in row)
    return Matrix(shared), Matrix(foreign)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_foreign_ones_act_as_the_shared_one(data):
    n, k, m = (data.draw(st.integers(1, 5)) for _ in range(3))
    a, a_foreign = _with_shared_and_foreign_ones(data.draw, n, k)
    b, b_foreign = _with_shared_and_foreign_ones(data.draw, k, m)
    assert a_foreign.rref() == a.rref()
    assert a_foreign.kernel_basis() == a.kernel_basis()
    product = a * b
    assert a_foreign * b_foreign == a_foreign * b == a * b_foreign == product
    assert product == Matrix(_naive_product(a.rows, b.rows))
    if n == k:
        assert a_foreign.rank() == a.rank()
        if a.rank() == n:
            assert a_foreign.inverse() == a.inverse()


def _fma_rows(pairs, rows):
    """The reference for ``linalg._product_rows``: each listed row of the
    sum of left * right over the pairs, one ``_fma`` per term of two nonzero
    entries, as a dict from each column some term reaches to its entry."""
    out = []
    for i in rows:
        row = {}
        for left, right in pairs:
            for k, a in enumerate(left.rows[i]):
                if a.is_zero():
                    continue
                for j, b in enumerate(right.rows[k]):
                    if not b.is_zero():
                        row[j] = scalars._fma(row.get(j), a, b)
        out.append(row)
    return out


def _typed(row):
    return {j: (type(x), x) for j, x in row.items()}


def _kernel_entries(extended):
    """Mostly nonzero entries, so rows are wide enough for the integer path:
    the shared ZERO and ONE, Gaussian rationals over several denominators,
    Gaussian integers, and, if extended, Q(i)[s] values."""
    part = st.fractions(min_value=-3, max_value=3, max_denominator=6)
    kinds = [st.just(linalg.ZERO), st.just(linalg.ONE),
             st.builds(GR, part, part), st.builds(GR, part, part),
             st.builds(GR, part, part),
             st.builds(GR, st.integers(-3, 3), st.integers(-3, 3))]
    if extended:
        kinds.append(st.builds(ExtendedScalar, st.builds(GR, part),
                               st.just(GR(1)), st.just(3)))
    return st.one_of(kinds)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_product_rows_match_an_fma_loop(data):
    n, k, m = (data.draw(st.integers(1, 6)) for _ in range(3))
    entries = _kernel_entries(data.draw(st.booleans()))

    def grid(nrows, ncols):
        row = st.lists(entries, min_size=ncols, max_size=ncols)
        return Matrix(data.draw(st.lists(row, min_size=nrows, max_size=nrows)))

    a, b = grid(n, k), grid(k, m)
    pairs = [(a, b)]
    shape = data.draw(st.sampled_from(["one", "two", "cancelling"]))
    if shape == "two":
        pairs.append((grid(n, k), grid(k, m)))
    elif shape == "cancelling":
        # a*b + a*(-b): every reached entry sums to zero
        pairs.append((a, -b))
    rows = data.draw(st.lists(st.integers(0, n - 1), max_size=n))
    got = list(linalg._product_rows(pairs, rows))
    want = _fma_rows(pairs, rows)
    assert [_typed(r) for r in got] == [_typed(r) for r in want]
    if shape == "cancelling":
        assert all(x == GR(0) for r in got for x in r.values())


def _wide(rng, n, den):
    return Matrix([[GR(Fraction(rng.randint(1, 9), rng.choice(den)),
                       Fraction(rng.randint(-9, 9), rng.choice(den)))
                    for _ in range(n)] for _ in range(n)])


def _counting(monkeypatch):
    """Count the _fma and _gr calls that linalg makes."""
    counts = {"_fma": 0, "_gr": 0}
    for name in counts:
        def counted(*args, _name=name, _f=getattr(linalg, name), **kw):
            counts[_name] += 1
            return _f(*args, **kw)
        monkeypatch.setattr(linalg, name, counted)
    return counts


def _product(via, pairs, nrows):
    """Rows 0 to nrows - 1 of the sum over the pairs as dicts, from
    ``_product_rows``, or from ``left * right`` for one pair with the shared
    ZEROs (entries no term reaches) left out."""
    if via == "_product_rows":
        return list(linalg._product_rows(pairs, range(nrows)))
    (left, right), = pairs
    return [{j: x for j, x in enumerate(row) if x is not linalg.ZERO}
            for row in (left * right).rows]


def test_an_integer_path_row_makes_one_gr_per_entry(monkeypatch):
    rng = random.Random(36)
    n = linalg._WIDE + 2
    a, b, c = (_wide(rng, n, (1, 2, 3, 7)) for _ in range(3))
    # a product takes one pair
    for via, pairs in (("_product_rows", [(a, b), (c, a)]),
                       ("__mul__", [(a, b)])):
        want = _fma_rows(pairs, range(n))
        counts = _counting(monkeypatch)
        got = _product(via, pairs, n)
        monkeypatch.undo()
        assert got == want, via
        # n rows of n entries, each from n terms per pair, none of which
        # goes to _fma
        assert counts == {"_fma": 0, "_gr": n * n}, via


def test_narrow_integral_and_extended_rows_take_the_fma_path(monkeypatch):
    rng = random.Random(37)
    n = linalg._WIDE + 2
    narrow = block_diagonal([_wide(rng, linalg._WIDE - 1, (2, 3))] * 3)
    integral = _wide(rng, n, (1,))
    extended = [list(r) for r in _wide(rng, n, (2, 3)).rows]
    extended[n - 1][n - 1] = ExtendedScalar(GR(1), GR(1), 3)
    extended = Matrix(extended)
    for (left, right, terms), via in itertools.product(
            ((narrow, narrow, 3 * (linalg._WIDE - 1) ** 3),
             (integral, integral, n ** 3),
             # every row reaches right row n-1, which holds the Q(i)[s]
             # entry
             (extended, extended, n ** 3)),
            ("_product_rows", "__mul__")):
        want = _fma_rows([(left, right)], range(left.nrows))
        counts = _counting(monkeypatch)
        got = _product(via, [(left, right)], left.nrows)
        monkeypatch.undo()
        assert got == want, via
        assert counts["_fma"] == terms, via
