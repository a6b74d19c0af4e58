import random

import pytest

from supercircle.liealg import (
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
)
from supercircle.scalars import GaussianRational
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
    mats = [su11.defining[name] for name in su11.names]
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

    missing = Representation("su11", (0, 1), (1, 1), {"U": make_pi_m(1, "+").odd["U"]})
    assert "missing generator matrix S" in validate_representation(missing)


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
