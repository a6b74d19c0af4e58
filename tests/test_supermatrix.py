import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import grassmann_reference as ref
from supercircle.grassmann import GeneratorSet, GrassmannElement, element_from_json
from supercircle.linalg import Matrix
from supercircle.scalars import GaussianRational
from supercircle.supermatrix import (
    SuperMatrix,
    berezinian,
    inverse_1_1,
    supercommutator,
)

GR = GaussianRational
I = GR(0, 1)


@pytest.fixture
def trivial():
    return GeneratorSet([])


@pytest.fixture
def four():
    return GeneratorSet(["t1", "t2", "t3", "t4"])


def defining(gens):
    c = SuperMatrix.from_scalar_grid(gens, 1, 1, [[I, 0], [0, I]])
    u = SuperMatrix.from_scalar_grid(gens, 1, 1, [[0, 1], [-I, 0]])
    s = SuperMatrix.from_scalar_grid(gens, 1, 1, [[0, I], [-1, 0]])
    return c, u, s


def test_identity_and_products(trivial):
    c, u, s = defining(trivial)
    ident = SuperMatrix.identity(trivial, 1, 1)
    assert ident * u == u
    assert u * u == SuperMatrix.from_scalar_grid(trivial, 1, 1, [[-I, 0], [0, -I]])


def test_nilpotent_entry_square(four):
    th = four.odd_gen("t1")
    z = four.zero()
    m = SuperMatrix(1, 1, [[z, th], [th, z]])
    assert (m * m).rows[0][0].is_zero()
    assert m * m == SuperMatrix(1, 1, [[z, z], [z, z]])


def test_supercommutator_defining_relations(trivial):
    c, u, s = defining(trivial)
    minus_two_c = SuperMatrix.from_scalar_grid(trivial, 1, 1, [[GR(0, -2), 0], [0, GR(0, -2)]])
    assert supercommutator(u, u) == minus_two_c
    assert supercommutator(s, s) == minus_two_c
    assert supercommutator(u, s).rows[0][0].is_zero()
    assert supercommutator(u, s) == SuperMatrix.from_scalar_grid(trivial, 1, 1, [[0, 0], [0, 0]])
    assert supercommutator(c, u) == SuperMatrix.from_scalar_grid(trivial, 1, 1, [[0, 0], [0, 0]])
    assert supercommutator(c, s) == SuperMatrix.from_scalar_grid(trivial, 1, 1, [[0, 0], [0, 0]])


def test_parity_predicates(four):
    th = four.odd_gen("t1")
    tb = four.odd_gen("t2")
    z = four.zero()
    one = four.one()
    even = SuperMatrix(1, 1, [[one + th * tb, th], [tb, one]])
    assert even.is_even() and not even.is_odd()
    odd = SuperMatrix(1, 1, [[th, one], [one - th * tb, tb]])
    assert odd.is_odd() and not odd.is_even()
    mixed = SuperMatrix(1, 1, [[one + th, z], [z, one]])
    assert mixed.parity() is None
    assert SuperMatrix(1, 1, [[z, z], [z, z]]).parity() == "even"


def test_entrywise_factors_keep_their_side(four):
    th, tb = four.odd_gen("t1"), four.odd_gen("t2")
    one = four.one()
    m = SuperMatrix(1, 1, [[one + th * tb, th], [tb, one]])
    assert m.parity() == "even" and (th * m).parity() == "odd"
    for factor in (th, one + th * tb, 3, I):
        assert m * factor == SuperMatrix(
            1, 1, [[x * factor for x in row] for row in m.rows])
        assert factor * m == SuperMatrix(
            1, 1, [[factor * x for x in row] for row in m.rows])
    assert m * th != th * m  # odd factors anticommute with odd entries
    with pytest.raises(TypeError):
        m * "2"
    with pytest.raises(TypeError):
        "2" * m


def test_supercommutator_rejects_inhomogeneous(four):
    one = four.one()
    th = four.odd_gen("t1")
    z = four.zero()
    mixed = SuperMatrix(1, 1, [[one + th, z], [z, one]])
    with pytest.raises(ValueError, match="homogeneous"):
        supercommutator(mixed, mixed)


def _random_homogeneous(gens, rng, want_odd):
    """A random homogeneous 1|1 supermatrix over up to 4 generators."""
    masks_even = [m for m in range(16) if bin(m).count("1") % 2 == 0]
    masks_odd = [m for m in range(16) if bin(m).count("1") % 2 == 1]

    def entry(odd_entry):
        masks = masks_odd if odd_entry else masks_even
        terms = {}
        for mask in rng.sample(masks, rng.randint(1, 4)):
            c = GR(rng.randint(-3, 3), rng.randint(-3, 3))
            if not c.is_zero():
                terms[((), mask)] = c
        return gens.element(terms)

    # diagonal blocks carry the matrix parity, off-diagonal the opposite
    return SuperMatrix(
        1, 1,
        [
            [entry(want_odd), entry(not want_odd)],
            [entry(not want_odd), entry(want_odd)],
        ],
    )


def test_graded_jacobi_on_random_triples(four):
    rng = random.Random(23)

    def sign(px, py):
        return -1 if (px == "odd" and py == "odd") else 1

    for _ in range(25):
        xs = [
            _random_homogeneous(four, rng, rng.random() < 0.5)
            for _ in range(3)
        ]
        x, y, z = xs
        px, py, pz = (m.parity() for m in xs)
        lhs = supercommutator(x, supercommutator(y, z)) * sign(px, pz)
        mid = supercommutator(y, supercommutator(z, x)) * sign(py, px)
        rhs = supercommutator(z, supercommutator(x, y)) * sign(pz, py)
        total = lhs + mid + rhs
        assert all(e.is_zero() for row in total.rows for e in row)


def test_parity_of_products(four):
    rng = random.Random(29)
    for _ in range(30):
        a = _random_homogeneous(four, rng, False)
        b = _random_homogeneous(four, rng, False)
        c = _random_homogeneous(four, rng, True)
        assert (a * b).is_even()
        prod = a * c
        assert prod.is_odd()


def test_berezinian_examples(four):
    one = four.one()
    z = four.zero()
    assert berezinian(SuperMatrix.identity(four, 1, 1)) == one
    t = four.scalar(GR(3, 1))
    d = four.scalar(GR(0, 2))
    assert berezinian(SuperMatrix(1, 1, [[t, z], [z, d]])) == t * d.invert()
    th, tb = four.odd_gen("t1"), four.odd_gen("t2")
    m = SuperMatrix(1, 1, [[one + th * tb, th], [tb, one]])
    expected = (one + th * tb - th * tb)  # d = 1, beta*gamma = th*tb
    assert berezinian(m) == expected


def test_berezinian_precondition_errors(four):
    one = four.one()
    z = four.zero()
    th = four.odd_gen("t1")
    not_even = "^berezinian needs an even matrix$"
    odd = SuperMatrix(1, 1, [[th, one], [one, th]])
    with pytest.raises(ValueError, match=not_even):
        berezinian(odd)
    body_zero = SuperMatrix(1, 1, [[one, z], [z, th * four.odd_gen("t2")]])
    with pytest.raises(ValueError, match="^not invertible$"):
        berezinian(body_zero)
    # the shape is checked first, then the parity, then invertibility
    inhomogeneous = SuperMatrix(1, 1, [[one + th, z], [z, one]])
    with pytest.raises(ValueError, match=not_even):
        berezinian(inhomogeneous)
    two_one = SuperMatrix(2, 1, [[th, z, z], [z, z, z], [z, z, z]])
    with pytest.raises(ValueError, match=r"^berezinian implemented for \(1\|1\) "
                                         "blocks only$"):
        berezinian(two_one)
    odd_zero_d = SuperMatrix(1, 1, [[th, one], [one, z]])
    with pytest.raises(ValueError, match=not_even):
        berezinian(odd_zero_d)


def _random_even_invertible(gens, rng):
    m = _random_homogeneous(gens, rng, False)
    rows = [list(r) for r in m.rows]
    for i in (0, 1):
        body = rows[i][i].body()
        if body.is_zero():
            rows[i][i] = rows[i][i] + gens.scalar(GR(rng.randint(1, 3), 0))
    return SuperMatrix(1, 1, rows)


def test_berezinian_multiplicative_on_200_random_pairs(four):
    rng = random.Random(31)
    for _ in range(200):
        a = _random_even_invertible(four, rng)
        b = _random_even_invertible(four, rng)
        assert berezinian(a * b) == berezinian(a) * berezinian(b)


def test_inverse_1_1(four):
    rng = random.Random(37)
    ident = SuperMatrix.identity(four, 1, 1)
    for _ in range(25):
        g = _random_even_invertible(four, rng)
        gi = inverse_1_1(g)
        assert g * gi == ident
        assert gi * g == ident


def test_multiply_shape_mismatch(trivial, four):
    a = SuperMatrix.identity(trivial, 1, 1)
    b = SuperMatrix.identity(four, 1, 1)
    with pytest.raises(ValueError, match="mismatched"):
        a * b
    c = SuperMatrix.identity(trivial, 1, 2)
    with pytest.raises(ValueError, match="dimension"):
        a * c


def test_json_round_trip(four):
    th, tb = four.odd_gen("t1"), four.odd_gen("t2")
    one = four.one()
    m = SuperMatrix(1, 1, [[one + th * tb, th], [tb, one * 2]])
    j = m.to_json()
    assert j["pdim"] == 1 and j["qdim"] == 1
    entries = [[element_from_json(cell, four) for cell in row] for row in j["entries"]]
    assert SuperMatrix(1, 1, entries) == m


def test_entry_grid_validation(four):
    one = four.one()
    with pytest.raises(ValueError, match="grid"):
        SuperMatrix(1, 1, [[one, one]])
    with pytest.raises(TypeError):
        SuperMatrix(1, 1, [[one, 1], [1, one]])


def test_constructor_checks_entry_types_and_integer_dimensions(four):
    with pytest.raises(TypeError, match="GrassmannElements"):
        SuperMatrix(1, 0, [[1]])
    one = four.one()
    with pytest.raises(TypeError, match="integers"):
        SuperMatrix(True, False, [[one]])
    with pytest.raises(TypeError, match="integers"):
        SuperMatrix(1, 1.0, [[one, one], [one, one]])


# --- differential tests against the naive reference ---------------------------


def _random_grid(rng, gens, extended, pdim, qdim, unit_diagonal=False):
    """Even supermatrix entries as term dicts; with unit_diagonal the
    diagonal entries have one invertible unit term each."""
    n = pdim + qdim
    grid = []
    for i in range(n):
        row = []
        for j in range(n):
            odd = (i < pdim) != (j < pdim)
            if unit_diagonal and i == j:
                row.append(ref.random_unit_terms(rng, gens, extended))
            else:
                row.append(ref.random_terms(rng, gens, extended, parity=int(odd),
                                            size=(0, 4)))
        grid.append(row)
    return grid


def _matrix(gens, pdim, qdim, grid):
    return SuperMatrix(pdim, qdim, [[gens.element(t) for t in row] for row in grid])


@pytest.mark.parametrize("extended", [False, True], ids=["gaussian", "ext"])
@pytest.mark.parametrize("ring", sorted(ref.RINGS))
def test_products_and_berezinian_match_reference(ring, extended):
    gens = ref.RINGS[ring]()
    rng = random.Random(f"{ring}/{extended}")
    for _ in range(60):
        for pdim, qdim in ((1, 1), (2, 1)):
            at = _random_grid(rng, gens, extended, pdim, qdim)
            bt = _random_grid(rng, gens, extended, pdim, qdim)
            product = _matrix(gens, pdim, qdim, at) * _matrix(gens, pdim, qdim, bt)
            assert [[x.terms for x in row] for row in product.rows] == ref.matmul(at, bt)
        gt = _random_grid(rng, gens, extended, 1, 1, unit_diagonal=True)
        assert berezinian(_matrix(gens, 1, 1, gt)).terms == ref.berezinian(gens, gt)


def test_product_builds_one_element_per_entry(four, monkeypatch):
    rng = random.Random(41)
    a, b = _random_even_invertible(four, rng), _random_even_invertible(four, rng)
    built = []
    init, of = GrassmannElement.__init__, GrassmannElement._of.__func__

    def counting_init(self, gens, terms):
        built.append("init")
        init(self, gens, terms)

    def counting_of(cls, gens, terms):
        built.append("of")
        return of(cls, gens, terms)

    monkeypatch.setattr(GrassmannElement, "__init__", counting_init)
    monkeypatch.setattr(GrassmannElement, "_of", classmethod(counting_of))
    product = a * b
    monkeypatch.undo()
    # one element for each of the four entries, each summing its two
    # products into one term dict
    assert built == ["of"] * 4
    assert product == SuperMatrix(1, 1, [
        [a[0, 0] * b[0, 0] + a[0, 1] * b[1, 0], a[0, 0] * b[0, 1] + a[0, 1] * b[1, 1]],
        [a[1, 0] * b[0, 0] + a[1, 1] * b[1, 0], a[1, 0] * b[0, 1] + a[1, 1] * b[1, 1]],
    ])


# --- properties ----------------------------------------------------------------


def _entries(gens, parity, unit):
    """Entries over four odd generators with Gaussian coefficients; a unit
    entry has a nonzero body and an even nilpotent part."""
    small = st.integers(-3, 3)
    coef = st.builds(GR, small, small).filter(lambda c: not c.is_zero())
    masks = [m for m in range(1, 16) if bin(m).count("1") % 2 == parity]
    terms = st.dictionaries(st.tuples(st.just(()), st.sampled_from(masks)), coef,
                            max_size=4)
    if unit:
        terms = st.tuples(coef, terms).map(lambda p: {((), 0): p[0], **p[1]})
    return terms.map(gens.element)


FOUR = GeneratorSet(["t1", "t2", "t3", "t4"])
EVEN_INVERTIBLE = st.builds(
    lambda a, beta, gamma, d: SuperMatrix(1, 1, [[a, beta], [gamma, d]]),
    _entries(FOUR, 0, True), _entries(FOUR, 1, False),
    _entries(FOUR, 1, False), _entries(FOUR, 0, True),
)


@settings(max_examples=100, deadline=None)
@given(EVEN_INVERTIBLE, EVEN_INVERTIBLE)
def test_berezinian_is_multiplicative(a, b):
    assert berezinian(a * b) == berezinian(a) * berezinian(b)


def test_equal_grids_of_other_block_shapes_differ(trivial):
    grid = [[1, 0], [0, 1]]
    even = SuperMatrix.from_scalar_grid(trivial, 2, 0, grid)
    assert even == SuperMatrix.from_scalar_grid(trivial, 2, 0, grid)
    assert even.rows == SuperMatrix.from_scalar_grid(trivial, 1, 1, grid).rows
    assert even != SuperMatrix.from_scalar_grid(trivial, 1, 1, grid)
