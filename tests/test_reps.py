import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import liealg_reference
import reps_reference
from supercircle import reps
from supercircle.liealg import Representation, validate_representation
from supercircle.linalg import Matrix
from supercircle.reps import (
    _completing_free_columns,
    decompose_s11,
    conjugate,
    decompose_su11,
    direct_sum,
    make_adjoint_su11,
    make_pi_m,
    make_trivial,
    make_V_m,
    make_weight_zero_s11,
    permute,
    random_class_preserving,
    random_direct_sum,
    scramble,
)
from supercircle.scalars import (
    ONE,
    ZERO,
    ExtendedScalar,
    GaussianRational,
    sqrt_neg_im,
)

GR = GaussianRational


def test_make_V_m_matrices():
    v = make_V_m(1)
    z = v.odd["Z"]
    assert (z * z)[0, 0] == GR(0, -1)
    assert v.weights == (1, 1)
    v = make_V_m(-3)
    assert v.weights == (-3, -3)
    with pytest.raises(ValueError):
        make_V_m(0)


def test_make_pi_m_identities():
    pi = make_pi_m(2, "+")
    u, s = pi.odd["U"], pi.odd["S"]
    minus_2i = GR(0, -2)
    assert (u * u)[0, 0] == minus_2i
    assert (s * s)[1, 1] == minus_2i
    us = u * s
    assert us[0, 0] == GR(2) and us[1, 1] == GR(-2)
    pi = make_pi_m(3, "-")
    us = pi.odd["U"] * pi.odd["S"]
    assert us[0, 0] == GR(-3) and us[1, 1] == GR(3)
    assert (us * us)[0, 0] == GR(9)


def test_make_pi_m_takes_only_the_sign_strings():
    for sign in (1, -1, True):
        with pytest.raises(ValueError, match="^sign must be \\+ or -$"):
            make_pi_m(1, sign)


def test_weight_zero_kernels():
    w = make_weight_zero_s11("W")
    z = w.odd["Z"]
    # kernel is the single even vector
    assert list(z.kernel_basis()) == [(GR(1), GR(0))]
    assert w.parities == (0, 1)
    pw = make_weight_zero_s11("PiW")
    assert pw.parities == (1, 0)
    assert (z * z).is_zero()


def test_decompose_single_blocks():
    rep = make_V_m(4)
    report = decompose_s11(rep)
    assert report.labels() == (("V", 4), ("trivial", 0, 0))
    assert report.verify(rep)

    rep = make_pi_m(5, "-")
    report = decompose_su11(rep)
    assert report.labels() == (("pi", 5, "-"),)
    assert report.verify(rep)


def test_make_trivial_rejects_an_unknown_algebra_tag():
    with pytest.raises(ValueError, match="^unknown algebra tag 'x'$"):
        make_trivial("x")
    with pytest.raises(ValueError, match="^unknown algebra tag 'x'$"):
        random_direct_sum("x", random.Random(0))


@pytest.mark.parametrize("counts", [(-3, 0), (2, -1), (1.5, 0), (True, 0),
                                    (0, True)])
def test_make_trivial_takes_only_nonnegative_int_counts(counts):
    with pytest.raises(ValueError, match="^trivial counts must be "
                       "nonnegative integers, not "):
        make_trivial("s11", *counts)


@pytest.mark.parametrize("algebra,decompose", [("s11", decompose_s11),
                                               ("su11", decompose_su11)])
def test_an_empty_decomposition_certifies(algebra, decompose):
    rep = make_trivial(algebra, 0, 0)
    report = decompose(rep)
    assert report.model().dim == 0
    assert report.verify(rep) is True


def test_permute_is_restrict_to_a_permutation():
    rep = direct_sum(make_pi_m(2, "+"), make_adjoint_su11(), make_pi_m(-1, "-"))
    perm = [4, 0, 6, 2, 1, 5, 3]
    assert permute(rep, perm) == rep.restrict(perm)
    assert permute(rep, perm).weights == (0, 2, -1, 0, 2, -1, 0)
    for bad in ([0, 0, 1, 2, 3, 4, 5], [0, 1, 2], list(range(8))):
        with pytest.raises(ValueError, match="^not a permutation of the basis"):
            permute(rep, bad)


def test_equal_representations_validate_and_decompose_alike():
    # a weight-5 2|2 block over Q(i)[s]; t has no s-part, so the extension
    # parameter it was written with must not matter
    s = sqrt_neg_im(5)

    def block(t):
        z = [[ZERO, ZERO, s, t], [ZERO, ZERO, ZERO, s],
             [s, -t, ZERO, ZERO], [ZERO, s, ZERO, ZERO]]
        return Representation("s11", (0, 0, 1, 1), (5,) * 4, {"Z": Matrix(z)})

    plain, written = block(GR(1)), block(ExtendedScalar(1, 0, 3))
    assert plain == written
    expected = decompose_s11(plain)
    assert expected.labels() == (("V", 5), ("V", 5), ("trivial", 0, 0))
    assert validate_representation(written) == []
    report = decompose_s11(written)
    assert report.labels() == expected.labels()
    assert report.basis_change == expected.basis_change
    assert report.verify(written)


def test_decompose_weight_zero_examples():
    report = decompose_s11(make_weight_zero_s11("W"))
    assert report.labels() == (("Ad",), ("trivial", 0, 0))

    report = decompose_s11(make_trivial("s11", 2, 1))
    assert report.labels() == (("trivial", 2, 1),)


def test_decompose_weight_zero_scrambled():
    rng = random.Random(3)
    model = direct_sum(
        make_weight_zero_s11("W"),
        make_weight_zero_s11("PiW"),
        make_trivial("s11", 1, 0),
    )
    rep = scramble(model, rng)
    report = decompose_s11(rep)
    assert report.labels() == (("Ad",), ("PiAd",), ("trivial", 1, 0))
    assert report.verify(rep)
    # dimension bookkeeping
    assert sum(block.dim for _, block in report.blocks) == rep.dim


def test_decompose_s11_mixed():
    rng = random.Random(5)
    model = direct_sum(make_V_m(2), make_V_m(2), make_V_m(-1))
    rep = scramble(model, rng)
    report = decompose_s11(rep)
    assert report.labels() == (("V", -1), ("V", 2), ("V", 2), ("trivial", 0, 0))
    assert report.verify(rep)

    model = direct_sum(make_V_m(1), make_weight_zero_s11("W"))
    rep = scramble(model, random.Random(7))
    report = decompose_s11(rep)
    assert report.labels() == (("V", 1), ("Ad",), ("trivial", 0, 0))
    assert report.verify(rep)


def test_decompose_su11_mixed():
    rng = random.Random(9)
    model = direct_sum(make_pi_m(2, "+"), make_pi_m(2, "-"), make_pi_m(-1, "+"))
    rep = scramble(model, rng)
    report = decompose_su11(rep)
    assert report.labels() == (("pi", -1, "+"), ("pi", 2, "+"), ("pi", 2, "-"))
    assert report.verify(rep)


def test_decompose_su11_weight_zero_unclassified():
    rep = make_adjoint_su11()
    report = decompose_su11(rep)
    assert report.labels() == (("weight_zero", 3),)
    (_, weight_zero), = report.blocks
    assert weight_zero.parities == (0, 1, 1)
    assert report.verify(rep)


def _random_model_s11(rng):
    blocks = []
    for _ in range(rng.randint(1, 8)):
        kind = rng.randint(0, 3)
        if kind == 0:
            blocks.append(make_V_m(rng.choice([m for m in range(-4, 5) if m])))
        elif kind == 1:
            blocks.append(make_weight_zero_s11("W"))
        elif kind == 2:
            blocks.append(make_weight_zero_s11("PiW"))
        else:
            blocks.append(make_trivial("s11", rng.randint(0, 2), rng.randint(0, 1)))
    # make_trivial(0, 0) is legal inside a sum only if something else exists
    if all(b.dim == 0 for b in blocks):
        blocks.append(make_V_m(1))
    return direct_sum(*[b for b in blocks if b.dim > 0] or [make_V_m(1)])


def _random_model_su11(rng):
    blocks = []
    for _ in range(rng.randint(1, 8)):
        kind = rng.randint(0, 2)
        if kind == 0:
            blocks.append(
                make_pi_m(rng.choice([m for m in range(-4, 5) if m]),
                          rng.choice(["+", "-"]))
            )
        elif kind == 1:
            blocks.append(make_adjoint_su11())
        else:
            blocks.append(make_trivial("su11", rng.randint(1, 2), rng.randint(0, 1)))
    return direct_sum(*blocks)


def test_oracle_s11_randomized():
    rng = random.Random(101)
    for _ in range(20):
        model = _random_model_s11(rng)
        report_model = decompose_s11(model)
        rep = scramble(model, rng)
        report = decompose_s11(rep)
        assert report.labels() == report_model.labels()
        assert report.verify(rep)


def test_oracle_su11_randomized():
    rng = random.Random(103)
    for _ in range(20):
        model = _random_model_su11(rng)
        report_model = decompose_su11(model)
        rep = scramble(model, rng)
        report = decompose_su11(rep)
        assert report.labels() == report_model.labels()
        assert report.verify(rep)


def test_us_eigenvalue_check_rejects_corrupt_input():
    # hand-build something weight-preserving and parity-correct whose U*S
    # has an eigenvalue outside {+m, -m}: impossible for valid input, so
    # U^2 is corrupt too and require_valid rejects it before decomposing
    rep = make_pi_m(1, "+")
    bad = Representation(
        "su11",
        rep.parities,
        rep.weights,
        {"U": Matrix([[GR(0), GR(1)], [GR(1), GR(0)]]),
         "S": Matrix([[GR(0), GR(1)], [GR(1), GR(0)]])},
    )
    with pytest.raises(ValueError, match="representation is not valid"):
        decompose_su11(bad)


def test_report_json_shape():
    report = decompose_s11(direct_sum(make_V_m(2), make_V_m(2)))
    j = report.to_json()
    assert j["s11"]["V"] == [{"m": 2, "count": 2}]
    assert "basis_change" in j

    report = decompose_su11(make_pi_m(1, "-"))
    j = report.to_json()
    assert j["su11"]["pi"] == [{"m": 1, "sign": "-", "count": 1}]
    assert j["su11"]["weight_zero"] is None


def test_decompose_and_verify_reject_the_other_algebra():
    s11, su11 = make_V_m(1), make_pi_m(1, "+")
    expect = "expected a representation of %s, got one of %s"
    with pytest.raises(ValueError, match=expect % ("s11", "su11")):
        decompose_s11(su11)
    with pytest.raises(ValueError, match=expect % ("su11", "s11")):
        decompose_su11(s11)
    with pytest.raises(ValueError, match=expect % ("s11", "su11")):
        decompose_s11(s11).verify(su11)
    with pytest.raises(ValueError, match=expect % ("su11", "s11")):
        decompose_su11(su11).verify(s11)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["s11", "su11"]), st.integers(0, 2 ** 32 - 1),
       st.integers(0, 2 ** 32 - 1))
def test_certificate_holds_on_random_scrambles(algebra, structure, seed):
    decompose = decompose_s11 if algebra == "s11" else decompose_su11
    model = random_direct_sum(algebra, random.Random(structure))
    rep = scramble(model, random.Random(seed))
    report = decompose(rep)
    assert report.labels() == decompose(model).labels()
    assert report.verify(rep)


@settings(max_examples=40, deadline=None)
@given(st.integers(-40, 40).filter(bool), st.sampled_from("+-"),
       st.integers(0, 2 ** 32 - 1))
def test_unchecked_builds_pass_the_constructor_and_validate(m, sign, seed):
    # every representation built with Representation._of, as the checked
    # constructor would build it from the same fields
    rng = random.Random(seed)
    s11 = [make_V_m(m), make_weight_zero_s11("W"), make_weight_zero_s11("PiW")]
    su11 = [make_pi_m(m, sign), make_adjoint_su11()]
    built = s11 + su11
    for blocks in (s11, su11):
        total = direct_sum(*blocks)
        weight = rng.choice(sorted(set(total.weights)))
        block = [i for i, w in enumerate(total.weights) if w == weight]
        g = random_class_preserving(total, rng)
        built += [total, total.restrict(block), conjugate(total, g)]
    for rep in built:
        assert Representation(rep.algebra, rep.parities, rep.weights,
                              rep.odd) == rep
        assert validate_representation(rep) == []


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["s11", "su11"]), st.integers(0, 2 ** 32 - 1))
def test_conjugate_matches_the_dense_inverse(algebra, seed):
    # conjugate inverts g one class block at a time; the dense inverse of
    # the whole of g is the reference
    rng = random.Random(seed)
    rep = random_direct_sum(algebra, rng, 6)
    g = random_class_preserving(rep, rng)
    gi = g.inverse()
    assert conjugate(rep, g) == Representation(
        algebra, rep.parities, rep.weights,
        {name: gi * mat * g for name, mat in rep.odd.items()})


def test_conjugate_rejects_a_g_that_joins_two_classes():
    rep = direct_sum(make_V_m(2), make_V_m(3))  # four classes of one vector
    g = Matrix.identity(4)
    with pytest.raises(ValueError, match=r"g entry \(2,0\) joins two"):
        conjugate(rep, g + Matrix([[0] * 4, [0] * 4, [1, 0, 0, 0], [0] * 4]))
    with pytest.raises(ValueError, match="g must be 4 x 4"):
        conjugate(rep, Matrix.identity(3))
    # an invertible g across two weights used to give a representation with
    # the old parities and weights, which are wrong for it
    swap = Matrix([[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]])
    with pytest.raises(ValueError, match="joins two"):
        conjugate(rep, swap)


def test_decompose_s11_matches_the_two_block_reference():
    rng = random.Random(17)
    for _ in range(150):
        rep = scramble(reps_reference.weight_zero_heavy_s11(rng), rng)
        got = json.dumps(decompose_s11(rep).to_json(), sort_keys=True)
        want = json.dumps(reps_reference.decompose_s11(rep).to_json(),
                          sort_keys=True)
        assert got == want


def test_weight_zero_s11_takes_two_eliminations(monkeypatch):
    # one of Z0 for its pivots and kernel, one for the trivial complement in
    # kernel coordinates, with one row per image and one column per free
    # column of Z0
    rep = scramble(direct_sum(make_weight_zero_s11("W"),
                              make_weight_zero_s11("PiW"),
                              make_weight_zero_s11("W"),
                              make_trivial("s11", 2, 1)), random.Random(23))
    calls = []
    rref = Matrix.rref

    def counting_rref(self):
        calls.append(self.shape)
        return rref(self)

    monkeypatch.setattr(Matrix, "rref", counting_rref)
    report = decompose_s11(rep)
    assert calls == [(9, 9), (3, 6)]
    assert report.labels() == (("Ad",), ("Ad",), ("PiAd",), ("trivial", 2, 1))


def _greedy_completion(vectors, n):
    """The unit vectors e_j that a greedy pass keeps after the vectors: the
    pivot columns past them of rref([vectors | identity])."""
    k = len(vectors)
    columns = [list(v) for v in vectors] + [
        [ONE if i == j else ZERO for i in range(n)] for j in range(n)]
    _, pivots = Matrix([list(r) for r in zip(*columns)]).rref()
    return [p - k for p in pivots if p >= k]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_trivial_choice_matches_the_greedy_extension(data):
    # images read at a subset of free columns, some rank-deficient: zero
    # vectors, repeats and combinations of earlier ones
    width = data.draw(st.integers(0, 7))
    free = sorted(data.draw(st.sets(st.integers(0, width - 1)))) if width else []
    entry = st.one_of(st.just(ZERO), st.just(ZERO), st.builds(
        GR, st.integers(-2, 2), st.integers(-2, 2)))
    images = []
    for _ in range(data.draw(st.integers(0, 6))):
        if images and data.draw(st.booleans()):
            a, b = (data.draw(st.sampled_from(images)) for _ in range(2))
            c = data.draw(st.builds(GR, st.integers(-2, 2), st.integers(-2, 2)))
            images.append([x + c * y for x, y in zip(a, b)])
        else:
            images.append(data.draw(st.lists(entry, min_size=width,
                                             max_size=width)))
    coords = [[img[c] for c in free] for img in images]
    assert _completing_free_columns(images, free) == _greedy_completion(
        coords, len(free))


def test_su11_forms_us_only_on_even_rows_of_nonzero_weight(monkeypatch):
    rep = scramble(direct_sum(make_pi_m(2, "+"), make_pi_m(2, "-"),
                              make_pi_m(-1, "+"), make_adjoint_su11(),
                              make_trivial("su11", 2, 1)), random.Random(31))
    u, s = rep.odd["U"], rep.odd["S"]
    # validation reads its own rows; only the reads after it are the
    # decomposition's
    validated, us_rows, uf_rows, products = [], [], [], []
    require_valid, product_rows, mul = (reps.require_valid, reps._product_rows,
                                        Matrix.__mul__)

    def recording_require_valid(rep):
        require_valid(rep)
        validated.append(True)

    def recording_product_rows(pairs, rows):
        ((left, right),) = pairs
        assert left is u and validated
        # U*S, or U times a column: an eigenvector and its partner U*f
        read = us_rows if right is s else uf_rows
        assert right is s or right.ncols == 1
        for i, row in zip(rows, product_rows(pairs, rows)):
            read.append(i)
            yield row

    def recording_mul(self, other):
        products.append((self, other))
        return mul(self, other)

    monkeypatch.setattr(reps, "require_valid", recording_require_valid)
    monkeypatch.setattr(reps, "_product_rows", recording_product_rows)
    monkeypatch.setattr(Matrix, "__mul__", recording_mul)
    report = decompose_su11(rep)
    monkeypatch.undo()
    assert products == []

    def rows(parity, m):
        return [i for i in range(rep.dim)
                if rep.weights[i] == m and rep.parities[i] == parity]

    assert sorted(us_rows) == rows(0, -1) + rows(0, 2) and len(us_rows) == 3
    # one partner per eigenvector, on the odd rows of its block
    assert sorted(uf_rows) == sorted(rows(1, -1) + 2 * rows(1, 2))
    assert report.verify(rep)
    assert report.labels() == (("pi", -1, "+"), ("pi", 2, "+"), ("pi", 2, "-"),
                               ("weight_zero", 6))


@settings(max_examples=60, deadline=None)
@given(st.integers(-4, 4).filter(bool), st.lists(st.sampled_from("+-"),
                                                 min_size=2, max_size=4),
       st.integers(0, 2 ** 32 - 1))
def test_decompose_su11_matches_the_product_reference(m, signs, seed):
    # two or more pi blocks of one weight, so an eigenspace of U*S can have
    # dimension above 1, beside a random su11 sum
    rng = random.Random(seed)
    rep = scramble(direct_sum(random_direct_sum("su11", rng),
                              *(make_pi_m(m, sign) for sign in signs)), rng)
    got = json.dumps(decompose_su11(rep).to_json(), sort_keys=True)
    want = json.dumps(reps_reference.decompose_su11(rep).to_json(),
                      sort_keys=True)
    assert got == want


def _with_foreign_ones(rep, draw):
    """rep with each shared ONE in its generators replaced by another one."""
    foreign = (lambda: GR(1), lambda: GR(1, 0), lambda: GR(2, 1) / GR(2, 1))
    odd = {name: Matrix([[draw(st.sampled_from(foreign))() if x is ONE else x
                          for x in row] for row in mat.rows])
           for name, mat in rep.odd.items()}
    return Representation(rep.algebra, rep.parities, rep.weights, odd)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["s11", "su11"]), st.integers(0, 2 ** 32 - 1),
       st.booleans(), st.data())
def test_foreign_ones_decompose_as_the_shared_one(algebra, seed, scrambled,
                                                  data):
    rng = random.Random(seed)
    rep = random_direct_sum(algebra, rng)
    if scrambled:
        rep = scramble(rep, rng)
    other = _with_foreign_ones(rep, data.draw)
    assert other == rep
    decompose = decompose_s11 if algebra == "s11" else decompose_su11
    report, other_report = decompose(rep), decompose(other)
    assert other_report.to_json() == report.to_json()
    assert other_report.verify(other) and report.verify(other)


def test_restrict_takes_only_distinct_indices_that_are_a_union_of_blocks():
    rep = direct_sum(make_V_m(2), make_weight_zero_s11("W"), make_V_m(3))
    assert rep.restrict([5, 4, 2, 3]).weights == (3, 3, 0, 0)
    assert rep.restrict([]).dim == 0
    for bad, message in (([-1], "out of range"), ([6], "out of range"),
                         ([True, 0], "out of range"), ([2.0, 3], "out of range"),
                         ([0, 0], "repeats"), ([2, 3, 2], "repeats"),
                         ([0], "weight block m=2"), ([2], "weight block m=0"),
                         ([0, 1, 5], "weight block m=3")):
        with pytest.raises(ValueError, match=message):
            rep.restrict(bad)


def test_a_dimension_65_s11_input_validates_and_decomposes():
    # the large-representation input of the dimension sweep: 65 dimensions,
    # a dense scrambled weight-zero class whose relation rows and certificate
    # products take linalg's integer row path
    rng = random.Random(3)
    model = reps.random_direct_sum("s11", rng, max_blocks=64)
    rep = reps.scramble(model, rng)
    assert rep.dim == 65
    assert validate_representation(rep) == liealg_reference.validate(rep) == []
    report = reps.decompose_s11(rep)
    assert report.verify(rep)
    assert report.labels() == reps.decompose_s11(model).labels()
    # one wrong weight-zero entry: every row is checked, on both paths
    z = [list(row) for row in rep.odd["Z"].rows]
    i, j = next((i, j) for i, row in enumerate(z) for j, x in enumerate(row)
                if rep.weights[i] == 0 and not x.is_zero())
    z[i][j] = z[i][j] + 1
    broken = Representation("s11", rep.parities, rep.weights, {"Z": Matrix(z)})
    problems = validate_representation(broken)
    assert problems and problems == liealg_reference.validate(broken)
