import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import liealg_reference
import reps_reference
from supercircle import liealg, linalg
from supercircle.liealg import (
    ODD_GENERATORS,
    LieSuperAlgebra,
    Representation,
    builtin_algebra,
    find_even_intertwiners,
    representation_from_json,
    validate_representation,
)
from supercircle.linalg import Matrix
from supercircle.reps import (
    conjugate,
    direct_sum,
    make_pi_m,
    make_V_m,
    make_adjoint_su11,
    make_trivial,
    make_weight_zero_s11,
    random_class_preserving,
    random_direct_sum,
    scramble,
)
from supercircle.scalars import (
    ZERO,
    ExtendedScalar,
    GaussianRational,
    sqrt_neg_im,
)
from supercircle.supergroup import defining_matrices
from supercircle.supermatrix import supercommutator

GR = GaussianRational


def test_builtin_tables_validate():
    s11 = builtin_algebra("s11")
    assert s11.names == ("C", "Z")
    assert s11.bracket(1, 1) == (-2, 0)
    assert s11.bracket(0, 1) == (0, 0)
    su11 = builtin_algebra("su11")
    assert su11.bracket(1, 1) == (-2, 0, 0)
    assert su11.bracket(2, 2) == (-2, 0, 0)
    with pytest.raises(ValueError, match="unknown"):
        builtin_algebra("gl11")


def test_defining_matrices_realize_the_table():
    su11 = builtin_algebra("su11")
    defining = defining_matrices()
    mats = [defining[name] for name in su11.names]
    for i in range(3):
        for j in range(3):
            expected = None
            for k, c in enumerate(su11.bracket(i, j)):
                term = c * mats[k]
                expected = term if expected is None else expected + term
            assert supercommutator(mats[i], mats[j]) == expected


def test_bad_structure_constants_rejected():
    # [Z, Z] = C with C even cannot be super-antisymmetric-consistent with
    # a nonzero [C, Z]
    with pytest.raises(ValueError, match="antisymmetric"):
        LieSuperAlgebra(("C", "Z"), (0, 1), {(0, 1): (0, 1), (1, 0): (0, 1)})

    # fails graded Jacobi: [Z,[Z,Z]] must vanish but [Z,C] = Z here
    with pytest.raises(ValueError, match="Jacobi"):
        LieSuperAlgebra(
            ("C", "Z"),
            (0, 1),
            {(1, 1): (-2, 0), (0, 1): (0, 1), (1, 0): (0, -1)},
        )


def test_gl11_table_is_accepted():
    # basis (E, N, psi+, psi-): [N, psi+-] = +-psi+- and [psi+, psi-] = E,
    # each bracket given in both orders; at (N, N, psi+) the Jacobi sum
    # vanishes only because [N, [N, psi+]] and [N, [psi+, N]] cancel, so a
    # wrong sign or factor on either term rejects the table
    gl11 = LieSuperAlgebra(("E", "N", "psi+", "psi-"), (0, 0, 1, 1), {
        (1, 2): (0, 0, 1, 0), (2, 1): (0, 0, -1, 0),
        (1, 3): (0, 0, 0, -1), (3, 1): (0, 0, 0, 1),
        (2, 3): (1, 0, 0, 0), (3, 2): (1, 0, 0, 0),
    })
    assert gl11.bracket(2, 3) == gl11.bracket(3, 2) == (1, 0, 0, 0)
    assert gl11.bracket(0, 2) == (0, 0, 0, 0)


def test_non_integer_structure_constants_and_indices_rejected():
    for constant in (-2.5, "-2", True):
        with pytest.raises(ValueError,
                           match="^structure constants must be integers$"):
            LieSuperAlgebra(("C", "Z"), (0, 1), {(1, 1): (constant, 0)})
    with pytest.raises(ValueError, match="^bracket index out of range$"):
        LieSuperAlgebra(("C", "Z"), (0, 1), {(0.5, 1): (0, 1)})


def test_validate_constructors():
    for m in range(-10, 11):
        if m == 0:
            continue
        assert validate_representation(make_V_m(m)) == []
        assert validate_representation(make_pi_m(m, "+")) == []
        assert validate_representation(make_pi_m(m, "-")) == []
    for variant in ("W", "PiW"):
        assert validate_representation(make_weight_zero_s11(variant)) == []
    assert validate_representation(make_trivial("s11", 2, 1)) == []
    assert validate_representation(make_adjoint_su11()) == []


def test_validate_flags_violations():
    rep = make_pi_m(1, "+")
    u = rep.odd["U"]
    broken = Representation(
        "su11",
        rep.parities,
        rep.weights,
        {"U": Matrix([[u[0, 0], Matrix.zeros(1, 1)[0, 0]], [u[1, 0], u[1, 1]]]),
         "S": rep.odd["S"]},
    )
    problems = validate_representation(broken)
    assert any("U^2 != -i*m" in p for p in problems)

    wrong_parity = Representation(
        "s11", (0, 0), (1, 1), {"Z": make_V_m(1).odd["Z"]}
    )
    problems = validate_representation(wrong_parity)
    assert any("equal parities" in p for p in problems)

    wrong_weight = Representation(
        "s11", (0, 1), (1, 2), {"Z": make_V_m(1).odd["Z"]}
    )
    problems = validate_representation(wrong_weight)
    assert any("connects weights" in p for p in problems)

    with pytest.raises(ValueError, match="^missing generator matrix S$"):
        Representation("su11", (0, 1), (1, 1), {"U": make_pi_m(1, "+").odd["U"]})


def test_trivial_rep_validates():
    assert validate_representation(make_trivial("su11", 3, 2)) == []


def test_intertwiners_pi_plus_minus_empty():
    for m in (1, 2, 3):
        assert find_even_intertwiners(make_pi_m(m, "+"), make_pi_m(m, "-")) == []


def test_intertwiners_self_one_dimensional():
    for m in (1, 2, 3, 5):
        basis = find_even_intertwiners(make_pi_m(m, "+"), make_pi_m(m, "+"))
        assert len(basis) == 1
        basis = find_even_intertwiners(make_V_m(m), make_V_m(m))
        assert len(basis) == 1


def test_intertwiners_multiplicity():
    v = make_V_m(2)
    double = direct_sum(v, v)
    basis = find_even_intertwiners(double, v)
    assert len(basis) == 2
    for f in basis:
        assert f.shape == (2, 4)
        # check the intertwining relation explicitly
        assert f * double.odd["Z"] == v.odd["Z"] * f


def test_intertwiner_dimension_is_basis_independent():
    rng = random.Random(11)
    rep = direct_sum(make_pi_m(2, "+"), make_pi_m(2, "-"), make_pi_m(-1, "+"))
    g = random_class_preserving(rep, rng)
    conj = conjugate(rep, g)
    assert len(find_even_intertwiners(rep, rep)) == len(
        find_even_intertwiners(conj, conj)
    )


def test_intertwiners_match_the_dense_reference():
    rng = random.Random(19)
    pairs = [
        (make_V_m(1), make_V_m(2)),                  # no unknowns
        (make_trivial("s11", 2, 1), make_trivial("s11", 1, 1)),  # no equations
        (make_trivial("su11", 1, 1), make_adjoint_su11()),
    ]
    for _ in range(25):
        a = scramble(reps_reference.weight_zero_heavy_s11(rng), rng)
        b = scramble(reps_reference.weight_zero_heavy_s11(rng), rng)
        pairs += [(a, b), (a, scramble(a, rng))]
        c = scramble(random_direct_sum("su11", rng, max_blocks=4), rng)
        d = scramble(random_direct_sum("su11", rng, max_blocks=4), rng)
        pairs += [(c, d), (c, scramble(c, rng))]
    for rep1, rep2 in pairs:
        assert (find_even_intertwiners(rep1, rep2)
                == liealg_reference.even_intertwiners(rep1, rep2))


def test_intertwiners_mismatched_algebras():
    with pytest.raises(ValueError, match="algebra"):
        find_even_intertwiners(make_V_m(1), make_pi_m(1, "+"))


def test_representation_json_round_trip():
    rep = make_pi_m(3, "-")
    j = rep.to_json()
    assert j["algebra"] == "su11"
    assert j["basis"] == [{"parity": 0, "weight": 3}, {"parity": 1, "weight": 3}]
    back = representation_from_json(j)
    assert back == rep


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["s11", "su11"]), st.integers(0, 2**32))
def test_representation_json_round_trips_scrambled_sums(algebra, seed):
    rng = random.Random(seed)
    rep = scramble(random_direct_sum(algebra, rng), rng)
    assert representation_from_json(rep.to_json()) == rep


def test_representation_json_rejects_bad_input():
    with pytest.raises(ValueError, match="weight"):
        representation_from_json(
            {
                "algebra": "s11",
                "basis": [{"parity": 0, "weight": 1.5}],
                "Z": [[{"re": "0", "im": "0"}]],
            }
        )
    with pytest.raises(ValueError, match="missing generator"):
        representation_from_json(
            {"algebra": "su11", "basis": [], "U": []}
        )


def test_restrict():
    rep = direct_sum(make_V_m(1), make_weight_zero_s11("W"))
    sub = rep.restrict([2, 3])
    assert sub.weights == (0, 0)
    assert sub.parities == (0, 1)
    assert sub.odd["Z"] == make_weight_zero_s11("W").odd["Z"]


def test_constructors_reject_non_integer_parities_and_bool_weights():
    v = make_V_m(1)
    for parities in ([2, 1.9], [0, 2], [0, 1.0], [False, True]):
        with pytest.raises(ValueError, match="parities"):
            Representation("s11", parities, v.weights, v.odd)
    with pytest.raises(ValueError, match="weights"):
        Representation("s11", v.parities, [True, True], v.odd)
    for parities in ((0, 3), (0, True), (0.0, 1)):
        with pytest.raises(ValueError, match="parities"):
            LieSuperAlgebra(("C", "Z"), parities, {(1, 1): (-2, 0)})


def test_constructor_rejects_generators_that_are_not_matrices():
    v = make_V_m(1)
    rows = [list(r) for r in v.odd["Z"].rows]
    for bad in (rows, v.odd["Z"].rows, None):
        with pytest.raises(TypeError, match="generator Z must be a Matrix"):
            Representation("s11", v.parities, v.weights, {"Z": bad})


def test_constructor_takes_exactly_the_algebra_generators():
    # so to_json, direct_sum and find_even_intertwiners find every generator
    pi = make_pi_m(1, "+")
    u, s = pi.odd["U"], pi.odd["S"]
    for odd, error in [
        ({"S": s}, "^missing generator matrix U$"),
        ({"U": u, "S": s, "Q": u}, "^unknown generator 'Q'$"),
        ({"U": u, "S": Matrix.zeros(3, 3)}, "^generator S has wrong shape$"),
        ({"U": u, "S": Matrix.zeros(2, 3)}, "^generator S has wrong shape$"),
    ]:
        with pytest.raises(ValueError, match=error):
            Representation("su11", pi.parities, pi.weights, odd)


# --- differential tests against the naive dense validator ---------------------


def _random_rep(algebra, rng):
    return scramble(random_direct_sum(algebra, rng, max_blocks=5), rng)


def _replace(rep, name=None, entry=None, value=None, parities=None,
             weights=None, drop=None):
    odd = dict(rep.odd)
    if name is not None:
        rows = [list(r) for r in odd[name].rows]
        rows[entry[0]][entry[1]] = value
        odd[name] = Matrix(rows)
    if drop is not None:
        del odd[drop]
    return Representation(rep.algebra, parities or rep.parities,
                          weights or rep.weights, odd)


def _weight_zero(algebra, parities, *entries):
    """A weight-zero block whose odd generators, in table order, have ones
    at the listed entries."""
    n = len(parities)
    odd = {}
    for name, ones in zip(ODD_GENERATORS[algebra], entries):
        rows = [[GR(0)] * n for _ in range(n)]
        for i, j in ones:
            rows[i][j] = GR(1)
        odd[name] = Matrix(rows)
    return Representation(algebra, parities, [0] * n, odd)


# each breaks exactly one su11 relation: U^2, S^2, and U*S + S*U (with
# (U*S)^2 = 0 holding, as it must at weight zero)
ONE_RELATION_BROKEN = [
    _weight_zero("su11", (0, 1), [(0, 1), (1, 0)], []),
    _weight_zero("su11", (0, 1), [], [(0, 1), (1, 0)]),
    _weight_zero("su11", (0, 1, 0), [(2, 1)], [(1, 0)]),
]

# 2|2 weight-zero blocks that break Z^2, U^2 or U*S + S*U only at the odd
# row 2: at weight zero the even rows imply nothing
ODD_ROW_BROKEN = [
    _weight_zero("s11", (0, 0, 1, 1), [(2, 0), (0, 3)]),
    _weight_zero("su11", (0, 0, 1, 1), [(2, 0), (0, 3)], []),
    _weight_zero("su11", (0, 0, 1, 1), [(2, 0)], [(0, 3)]),
]


def _corruptions(rep, rng):
    """Valid rep, then one corrupted copy per kind of defect."""
    yield rep
    n = rep.dim
    names = rep.generator_names
    name = rng.choice(names)
    entry = (rng.randrange(n), rng.randrange(n))
    yield _replace(rep, name, entry,
                   GR(rng.randint(-2, 2), rng.randint(-2, 2)))
    k = rng.randrange(n)
    flipped = list(rep.parities)
    flipped[k] ^= 1
    yield _replace(rep, parities=flipped)
    shifted = list(rep.weights)
    shifted[k] += 1
    yield _replace(rep, weights=shifted)
    extended = [(nm, i, j, x) for nm in names
                for i, row in enumerate(rep.odd[nm].rows)
                for j, x in enumerate(row) if isinstance(x, ExtendedScalar)]
    if extended:
        nm, i, j, x = rng.choice(extended)
        yield _replace(rep, nm, (i, j), ExtendedScalar(x.c0, x.c1, x.m + 100))
    with pytest.raises(ValueError, match="^missing generator matrix "):
        _replace(rep, drop=rng.choice(names))
    # a generator scaled by 2 breaks its square and, on su11, (U*S)^2
    yield Representation(rep.algebra, rep.parities, rep.weights,
                         {**rep.odd, name: rep.odd[name] * 2})
    if rep.algebra == "su11":
        for block in ONE_RELATION_BROKEN:
            yield scramble(direct_sum(rep, block), rng)


def test_validation_matches_the_dense_reference():
    rng = random.Random(13)
    seen = {"valid": 0, "parameter": 0, "alone": 0}
    for trial in range(40):
        algebra = ("s11", "su11")[trial % 2]
        for rep in _corruptions(_random_rep(algebra, rng), rng):
            problems = validate_representation(rep)
            assert problems == liealg_reference.validate(rep)
            seen["valid"] += not problems
            seen["parameter"] += any("Q(i)[s] parameter" in p
                                     for p in problems)
            seen["alone"] += len(problems) == 1 and "m=0" in problems[0]
    # the corpus has valid reps, parameter clashes and lone su11 relations
    assert seen["valid"] >= 40 and seen["parameter"] > 5
    assert seen["alone"] >= 3 * 20


def _balanced_odd_rows(rep):
    """The odd basis vectors of the nonzero-weight blocks with as many even
    as odd vectors: the rows validation reads only after a failure."""
    rows = []
    for i, (p, m) in enumerate(zip(rep.parities, rep.weights)):
        block = [q for q, w in zip(rep.parities, rep.weights) if w == m]
        if p == 1 and m != 0 and 2 * sum(block) == len(block):
            rows.append(i)
    return rows


def _odd_row_corruptions(rep, rng):
    """Copies of rep changed in one odd row of a balanced block: one entry
    set, the row doubled, the row cleared."""
    for i in _balanced_odd_rows(rep):
        name = rng.choice(rep.generator_names)
        cols = [j for j in range(rep.dim) if rep.weights[j] == rep.weights[i]
                and rep.parities[j] == 0]
        yield _replace(rep, name, (i, rng.choice(cols)),
                       GR(rng.randint(-2, 2), rng.randint(-2, 2)))
        for factor in (2, 0):
            rows = [list(r) for r in rep.odd[name].rows]
            rows[i] = [x * GR(factor) for x in rows[i]]
            yield Representation(rep.algebra, rep.parities, rep.weights,
                                 {**rep.odd, name: Matrix(rows)})


def _with_zeros(rep, zero):
    """rep with each zero entry of its generators replaced by zero()."""
    return Representation(rep.algebra, rep.parities, rep.weights, {
        name: Matrix([[zero() if x.is_zero() else x for x in row]
                      for row in mat.rows])
        for name, mat in rep.odd.items()})


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["s11", "su11"]), st.integers(0, 2 ** 32 - 1))
def test_foreign_zeros_validate_as_the_shared_zero(algebra, seed):
    # zeros that are not the shared ZERO object: Gaussian zeros built by the
    # constructor and cancelled differences
    rng = random.Random(seed)
    makers = [lambda: GR(0), lambda: GR(0, 0), lambda: GR(2, 1) - GR(2, 1)]
    for rep in _corruptions(_random_rep(algebra, rng), rng):
        problems = validate_representation(_with_zeros(rep, lambda: ZERO))
        foreign = _with_zeros(rep, lambda: rng.choice(makers)())
        assert validate_representation(foreign) == problems


def test_validation_matches_the_reference_on_odd_rows_of_balanced_blocks():
    rng = random.Random(29)
    seen = 0
    for trial in range(30):
        algebra = ("s11", "su11")[trial % 2]
        for rep in _odd_row_corruptions(_random_rep(algebra, rng), rng):
            problems = validate_representation(rep)
            assert problems == liealg_reference.validate(rep)
            seen += bool(problems)
    assert seen >= 80


def _random_block(algebra, parities, m, rng):
    """A weight-m block whose generators have a random entry over Q(i)[s],
    s^2 = -i*m, wherever the parities differ."""
    s = sqrt_neg_im(m)
    n = len(parities)
    odd = {}
    for name in ODD_GENERATORS[algebra]:
        odd[name] = Matrix([
            [GR(rng.randint(-2, 2), rng.randint(-2, 2))
             + GR(rng.randint(1, 2)) * s
             if parities[i] != parities[j] else GR(0) for j in range(n)]
            for i in range(n)])
    return Representation(algebra, parities, [m] * n, odd)


def test_validation_matches_the_reference_on_random_blocks():
    # unbalanced blocks such as 2|1 at m=3 are read on every row, balanced
    # ones on their even rows first; the entries lie in Q(i)[s]
    rng = random.Random(31)
    shapes = [(0, 0, 1), (1, 0, 1), (0, 1), (1, 0, 0, 1), (0, 1, 1, 0)]
    for trial in range(40):
        algebra = ("s11", "su11")[trial % 2]
        block = _random_block(algebra, rng.choice(shapes),
                              rng.choice([-3, -1, 1, 2, 3, 4]), rng)
        for rep in (block,
                    scramble(direct_sum(_random_rep(algebra, rng), block), rng)):
            problems = validate_representation(rep)
            assert problems and problems == liealg_reference.validate(rep)


def test_validation_reads_the_odd_rows_at_weight_zero():
    rng = random.Random(41)
    for block in ODD_ROW_BROKEN:
        assert validate_representation(block)[0].endswith("(entry (2,3))")
        rep = scramble(direct_sum(_random_rep(block.algebra, rng), block), rng)
        problems = validate_representation(rep)
        assert problems and problems == liealg_reference.validate(rep)


def _recording_reads(monkeypatch, names):
    """Record each row that validation accumulates, as the names of its
    (left, right) factor pairs and the row index, and each Matrix product
    it forms, as its factors' names; a factor not in names is '?'."""
    reads, products = [], []
    product_rows, mul = liealg._product_rows, Matrix.__mul__

    def name(m):
        return next((k for k, v in names.items() if v is m), "?")

    def recording_product_rows(pairs, rows):
        key = tuple((name(a), name(b)) for a, b in pairs)
        for i, row in zip(rows, product_rows(pairs, rows)):
            reads.append((key, i))
            yield row

    def recording_mul(self, other):
        out = mul(self, other)
        products.append((name(self), name(other)))
        names.setdefault("%s*%s" % products[-1], out)
        return out

    monkeypatch.setattr(liealg, "_product_rows", recording_product_rows)
    monkeypatch.setattr(Matrix, "__mul__", recording_mul)
    return reads, products


def test_validation_forms_product_rows_only_for_even_vectors(monkeypatch):
    # every nonzero-weight block of a sum of pi_m^+- is 1|1, so the odd rows
    # of U^2, S^2 and U*S + S*U follow from the even ones; each even row is
    # accumulated from the generators' patterns, with no product matrix
    blocks = [make_pi_m(m, sign) for m in (-3, -2, -1, 1, 2, 3)
              for sign in "+-"]
    rep = scramble(direct_sum(*blocks), random.Random(37))
    evens = [i for i, p in enumerate(rep.parities) if p == 0]
    reads, products = _recording_reads(monkeypatch, dict(rep.odd))
    assert validate_representation(rep) == []
    assert products == []
    assert reads == [(pairs, i)
                     for pairs in ((("U", "U"),), (("S", "S"),),
                                   (("U", "S"), ("S", "U")))
                     for i in evens]


def test_relation_check_tests_each_entry_at_most_once(monkeypatch):
    # pi blocks, whose odd rows are implied, and weight-zero pieces, whose
    # rows are all checked; patterns are made first, as validation's first
    # pass over the generators makes them
    rep = scramble(direct_sum(make_pi_m(2, "+"), make_pi_m(2, "-"),
                              make_pi_m(-3, "+"), make_adjoint_su11(),
                              make_trivial("su11", 1, 1)), random.Random(43))
    nz = {name: rep.odd[name]._nonzeros() for name in ("U", "S")}
    checked = liealg._unimplied_rows(rep)
    assert len(checked) < rep.dim
    terms = entries = 0
    for pairs in ((("U", "U"),), (("S", "S"),), (("U", "S"), ("S", "U"))):
        for i in checked:
            reached = [j for left, right in pairs for k, _ in nz[left][i]
                       for j, _ in nz[right][k]]
            terms += len(reached)
            entries += len(set(reached) - {i})
    tests, products = [], []
    fma = linalg._fma

    def counting_fma(acc, x, y, negate=False):
        products.append(1)
        return fma(acc, x, y, negate)

    for cls in (GaussianRational, ExtendedScalar):
        def counting_is_zero(self, is_zero=cls.is_zero):
            tests.append(1)
            return is_zero(self)
        monkeypatch.setattr(cls, "is_zero", counting_is_zero)
    monkeypatch.setattr(linalg, "_fma", counting_fma)
    assert validate_representation(rep) == []
    monkeypatch.undo()
    # one multiply-add per term of a checked row, and one zero test at most
    # per accumulated entry off the diagonal, which is compared instead
    assert len(products) == terms and terms > 0
    assert 0 < len(tests) <= entries


def _swap_columns(rep, name, a, b):
    rows = [list(r) for r in rep.odd[name].rows]
    for row in rows:
        row[a], row[b] = row[b], row[a]
    return Representation(rep.algebra, rep.parities, rep.weights,
                          {**rep.odd, name: Matrix(rows)})


def test_validation_reports_a_missing_diagonal_before_later_entries():
    # swapping the odd columns of V_1 + V_1 moves Z^2's entries off the
    # diagonal: row 0 has a zero at (0,0), where -i is due, and -i at (0,2)
    rep = _swap_columns(direct_sum(make_V_m(1), make_V_m(1)), "Z", 1, 3)
    pi = direct_sum(make_pi_m(2, "+"), make_pi_m(2, "-"))
    for bad in (rep, _swap_columns(pi, "U", 1, 3), _swap_columns(pi, "S", 1, 3)):
        problems = validate_representation(bad)
        assert problems == liealg_reference.validate(bad)
        assert "(entry (0,0))" in problems[0]


def test_each_su11_relation_can_fail_alone():
    for block, relation in zip(ONE_RELATION_BROKEN,
                               ("U^2", "S^2", "U*S + S*U")):
        problems = validate_representation(block)
        assert len(problems) == 1 and problems[0].startswith(relation)
        assert problems == liealg_reference.validate(block)


def test_valid_su11_validation_skips_the_implied_square(monkeypatch):
    valid = scramble(random_direct_sum("su11", random.Random(5)),
                     random.Random(6))
    broken = Representation("su11", valid.parities, valid.weights,
                            {**valid.odd, "U": valid.odd["U"] * 2})
    checked = liealg._unimplied_rows(valid)
    assert 0 < len(checked) < valid.dim
    relations = ((("U", "U"),), (("S", "S"),), (("U", "S"), ("S", "U")))
    reads, products = _recording_reads(monkeypatch, dict(valid.odd))
    assert validate_representation(valid) == []
    # U^2, S^2 and U*S + S*U on the checked rows; (U*S)^2 follows from them
    assert products == []
    assert reads == [(pairs, i) for pairs in relations for i in checked]

    monkeypatch.undo()
    names = dict(broken.odd)
    reads, products = _recording_reads(monkeypatch, names)
    assert validate_representation(broken)[-1].startswith("(U*S)^2")
    monkeypatch.undo()
    # the checked rows fail, so every row is checked, and (U*S)^2 is read
    # off the one product U*S, up to its first wrong row: the first of
    # nonzero weight, since (2U*S)^2 = 4m^2
    assert products == [("U", "S")]
    assert names["U*S"] == broken.odd["U"] * broken.odd["S"]
    first = next(i for i, m in enumerate(broken.weights) if m)
    assert [i for pairs, i in reads if pairs == (("U*S", "U*S"),)] == list(
        range(first + 1))
    assert {pairs for pairs, i in reads} == set(relations) | {
        (("U*S", "U*S"),)}