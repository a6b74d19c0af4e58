import itertools
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supercircle import harmonic, liealg
from supercircle.grassmann import GeneratorSet
from supercircle.harmonic import (
    ODD_COORDS,
    Section,
    expand,
    matrix_coefficients,
    reconstruct,
    section_from_json,
)
from supercircle.linalg import Matrix
from supercircle.reps import (
    make_V_m,
    make_adjoint_su11,
    make_pi_m,
    make_trivial,
    make_weight_zero_s11,
)
from supercircle.scalars import (
    ExtendedScalar,
    ExtensionMismatchError,
    GaussianRational,
    scalar_from_json,
    sqrt_neg_im,
)

GR = GaussianRational


SMALL = st.integers(-3, 3)
GAUSSIAN = st.builds(GR, SMALL, SMALL)
# c0 + c1*s over Q(i)[s] for a random weight, Gaussian when the weight's
# root lies in Q(i) or c1 = 0
EXTENDED = st.builds(lambda c0, c1, m: c0 + c1 * sqrt_neg_im(m), GAUSSIAN,
                     GAUSSIAN, st.integers(-6, 6).filter(bool))


@st.composite
def sections(draw):
    group = draw(st.sampled_from(["s11", "su11"]))
    masks = st.integers(0, (1 << len(ODD_COORDS[group])) - 1)
    terms = draw(st.dictionaries(st.tuples(st.integers(-40, 40), masks),
                                 GAUSSIAN | EXTENDED, max_size=8))
    return Section(group, terms)


@settings(max_examples=80, deadline=None)
@given(sections())
def test_section_json_round_trips_random_sections(f):
    assert section_from_json(f.to_json()) == f


def test_section_json_sums_terms_with_equal_keys():
    half, minus_half = {"re": "1/2", "im": "0"}, {"re": "-1/2", "im": "0"}
    blob = {"group": "s11", "terms": [
        {"m": 2, "mono": ["theta"], "coef": half},
        {"m": 1, "coef": half},
        {"m": 2, "mono": ["theta"], "coef": half},
        {"m": 1, "coef": minus_half},
    ]}
    assert section_from_json(blob) == Section.monomial("s11", 2, ["theta"])


@pytest.mark.parametrize("m", [[], {}, 1.5, None, True])
def test_section_json_weights_are_checked_by_the_constructor(m):
    blob = {"group": "s11", "terms": [{"m": m, "coef": {"re": "1", "im": "0"}}]}
    with pytest.raises(ValueError, match="weights must be integers"):
        section_from_json(blob)


@pytest.mark.parametrize("mask", [1.0, True])
def test_section_masks_must_be_integers(mask):
    with pytest.raises(ValueError, match="odd monomial mask out of range"):
        Section("s11", {(0, mask): 1})


def test_section_construction_and_monomials():
    f = Section("su11", {(2, 0b01): GR(1), (0, 0): GR(0)})
    assert f.terms == {(2, 0b01): GR(1)}
    assert f.coefficient(2, 0b01) == GR(1)
    assert f.coefficient(5, 0) == GR(0)
    assert Section.monomial("su11", 2, ["theta"]) == f
    assert Section.monomial("s11", -1, ["theta"], coef=3).terms == {(-1, 1): GR(3)}
    # repeated coordinate squares to zero
    assert Section.monomial("su11", 0, ["theta", "theta"]).is_zero()
    with pytest.raises(ValueError):
        Section("so3", {})
    with pytest.raises(ValueError):
        Section("s11", {(1, 0b10): GR(1)})  # no second odd coordinate


def test_section_arithmetic():
    th = Section.monomial("su11", 2, ["theta"])
    et = Section.monomial("su11", 3, ["eta"])
    assert (th + et).terms == {(2, 0b01): GR(1), (3, 0b10): GR(1)}
    assert (th - th).is_zero()
    assert (th * GR(0, 1)).terms == {(2, 0b01): GR(0, 1)}
    assert (2 * th).terms == {(2, 0b01): GR(2)}
    # theta * eta lands on the combined monomial at the summed weight
    assert (th * et).terms == {(5, 0b11): GR(1)}
    # eta * theta picks up the reordering sign
    assert (et * th).terms == {(5, 0b11): GR(-1)}
    assert (th * th).is_zero()
    with pytest.raises(ValueError):
        th + Section.monomial("s11", 2, ["theta"])


@st.composite
def section_pairs(draw):
    """Two sections of one group over one Q(i)[s], with weights close
    enough that products collide and cancel."""
    group = draw(st.sampled_from(sorted(ODD_COORDS)))
    root = sqrt_neg_im(draw(st.integers(-6, 6).filter(bool)))
    terms = st.dictionaries(
        st.tuples(st.integers(-4, 4),
                  st.integers(0, (1 << len(ODD_COORDS[group])) - 1)),
        st.builds(lambda c0, c1: c0 + c1 * root, GAUSSIAN, GAUSSIAN),
        max_size=6)
    return group, Section(group, draw(terms)), Section(group, draw(terms))


@settings(max_examples=100, deadline=None)
@given(section_pairs())
def test_section_product_matches_the_grassmann_ring(pair):
    # the reference ring: the odd chart coordinates and t as an invertible
    # even generator
    group, f, g = pair
    ring = GeneratorSet(ODD_COORDS[group], even=("t",))

    def lift(h):
        return ring.element({((m,), mask): c
                             for (m, mask), c in h.terms.items()})

    assert lift(f * g) == lift(f) * lift(g)


@settings(max_examples=100, deadline=None)
@given(section_pairs(), GAUSSIAN | st.just(0))
def test_section_operators_agree_with_the_constructor(pair, c):
    # each operator builds its result unchecked; the checked constructor,
    # given the same terms, sums equal keys and drops zeros
    group, f, g = pair
    fs, gs = list(f.terms.items()), list(g.terms.items())
    assert f + g == Section(group, fs + gs)
    assert f - g == Section(group, fs + [(k, -x) for k, x in gs])
    assert f - f == f + -f == Section(group, {})
    assert -f == Section(group, [(k, -x) for k, x in fs])
    for scalar in (c, 0) + tuple(x for _, x in gs[:1]):
        expected = Section(group, [(k, x * scalar) for k, x in fs])
        assert f * scalar == scalar * f == expected
    ring = GeneratorSet(ODD_COORDS[group], even=("t",))

    def lift(h):
        return ring.element({((m,), mask): x
                             for (m, mask), x in h.terms.items()})

    product = (lift(f) * lift(g)).terms.items()
    assert f * g == Section(group, [((exps[0], mask), x)
                                    for (exps, mask), x in product])


def test_section_json_round_trip():
    f = Section("su11", {
        (2, 0b11): GR(1, 1),
        (-1, 0): GR(3),
        (0, 0b10): sqrt_neg_im(3),
    })
    blob = f.to_json()
    assert blob["group"] == "su11"
    assert [t["m"] for t in blob["terms"]] == [-1, 0, 2]
    assert blob["terms"][2]["mono"] == ["theta", "eta"]
    assert section_from_json(blob) == f

    with pytest.raises(ValueError):
        section_from_json({"group": "su11", "terms": [{"m": 1, "mono": ["zeta"],
                                                       "coef": blob["terms"][0]["coef"]}]})
    with pytest.raises(ValueError):
        section_from_json({"group": "s11", "terms": [{"m": 1.5, "mono": [],
                                                      "coef": blob["terms"][0]["coef"]}]})
    with pytest.raises(ValueError):
        section_from_json({"group": "su11",
                           "terms": [{"m": 1, "mono": ["theta", "theta"],
                                      "coef": blob["terms"][0]["coef"]}]})


def test_matrix_coefficients_pi_plus():
    s = sqrt_neg_im(2)
    mc = matrix_coefficients(make_pi_m(2, "+"))
    assert mc[(0, 0)] == Section("su11", {(2, 0): GR(1), (2, 0b11): GR(2)})
    assert mc[(0, 1)] == Section("su11", {(2, 0b01): s, (2, 0b10): s * GR(0, -1)})
    assert mc[(1, 0)] == Section("su11", {(2, 0b01): s, (2, 0b10): s * GR(0, 1)})
    assert mc[(1, 1)] == Section("su11", {(2, 0): GR(1), (2, 0b11): GR(-2)})


def test_matrix_coefficients_V_m():
    s = sqrt_neg_im(-3)
    mc = matrix_coefficients(make_V_m(-3))
    assert mc[(0, 0)] == Section.monomial("s11", -3)
    assert mc[(1, 1)] == Section.monomial("s11", -3)
    assert mc[(0, 1)] == Section("s11", {(-3, 1): s})
    assert mc[(1, 0)] == Section("s11", {(-3, 1): s})


def test_matrix_coefficients_adjoint_and_trivial():
    mc = matrix_coefficients(make_adjoint_su11())
    one = Section.monomial("su11", 0)
    assert mc[(0, 0)] == one and mc[(1, 1)] == one and mc[(2, 2)] == one
    assert mc[(0, 1)] == Section.monomial("su11", 0, ["theta"])
    assert mc[(0, 2)] == Section.monomial("su11", 0, ["eta"])
    assert all(mc[(i, j)].is_zero() for i in range(3) for j in range(3)
               if (i, j) not in [(0, 0), (1, 1), (2, 2), (0, 1), (0, 2)])
    mc = matrix_coefficients(make_trivial("s11", 1, 0))
    assert mc[(0, 0)] == Section.monomial("s11", 0)


def test_matrix_coefficients_rejects():
    from supercircle.liealg import Representation
    broken = Representation("s11", (0, 1), (1, 1),
                            {"Z": make_V_m(2).odd["Z"]})
    with pytest.raises(ValueError):
        matrix_coefficients(broken)


def test_expand_single_odd_monomial():
    s = sqrt_neg_im(2)
    res = expand(Section.monomial("su11", 2, ["theta"]))
    half = GR(1, 0) / GR(2)
    want = half * s.inverse()
    assert res.coefficients == {
        (("pi", 2), (0, 1)): want,
        (("pi", 2), (1, 0)): want,
    }
    assert res.residual.is_zero()


def test_expand_pure_power():
    res = expand(Section.monomial("su11", 2))
    half = GR(1, 0) / GR(2)
    assert res.coefficients == {
        (("pi", 2), (0, 0)): half,
        (("pi", 2), (1, 1)): half,
    }
    assert res.residual.is_zero()


def test_expand_weight_zero_su11():
    f = (Section.monomial("su11", 0, coef=3)
         + Section.monomial("su11", 0, ["theta"], coef=5)
         + Section.monomial("su11", 0, ["eta"], coef=7)
         + Section.monomial("su11", 0, ["theta", "eta"], coef=11))
    res = expand(f)
    assert res.coefficients == {
        (("trivial",), (0, 0)): GR(3),
        (("adjoint",), (0, 1)): GR(5),
        (("adjoint",), (0, 2)): GR(7),
    }
    assert res.residual == Section.monomial("su11", 0, ["theta", "eta"], coef=11)


def test_expand_s11():
    s = sqrt_neg_im(3)
    f = (Section.monomial("s11", 3)
         + Section.monomial("s11", 3, ["theta"], coef=2)
         + Section.monomial("s11", 0, ["theta"], coef=4))
    res = expand(f)
    assert res.coefficients == {
        (("V", 3), (0, 0)): GR(1),
        (("V", 3), (0, 1)): GR(2) * s.inverse(),
        (("W",), (0, 1)): GR(4),
    }
    assert res.residual.is_zero()


def test_reconstruct_inverts_expand():
    rng = random.Random(41)
    for group, nmask in (("s11", 2), ("su11", 4)):
        for _ in range(10):
            terms = {}
            for _ in range(rng.randrange(1, 7)):
                m = rng.randrange(-4, 5)
                mask = rng.randrange(nmask)
                terms[(m, mask)] = GR(rng.randrange(-5, 6), rng.randrange(-5, 6))
            f = Section(group, terms)
            res = expand(f)
            assert reconstruct(res.coefficients, group) + res.residual == f
            if group == "s11":
                assert res.residual.is_zero()


def test_expand_linearity():
    rng = random.Random(43)

    def randsec():
        terms = {}
        for _ in range(rng.randrange(1, 6)):
            terms[(rng.randrange(-3, 4), rng.randrange(4))] = GR(
                rng.randrange(-4, 5), rng.randrange(-4, 5))
        return Section("su11", terms)

    for _ in range(8):
        f, g = randsec(), randsec()
        a = GR(rng.randrange(-3, 4), rng.randrange(-3, 4))
        b = GR(rng.randrange(-3, 4), rng.randrange(-3, 4))
        lhs = expand(f * a + g * b)
        cf, cg = expand(f).coefficients, expand(g).coefficients
        want = {}
        for key in set(cf) | set(cg):
            val = cf.get(key, GR(0)) * a + cg.get(key, GR(0)) * b
            if not val.is_zero():
                want[key] = val
        assert lhs.coefficients == want


def test_expand_completeness_small():
    # every monomial with |m| <= 3 expands with zero residual, except the
    # weight-zero theta*eta monomial on the unitary group
    for group, nmask in (("s11", 2), ("su11", 4)):
        for m in range(-3, 4):
            for mask in range(nmask):
                f = Section(group, {(m, mask): GR(1)})
                res = expand(f)
                if group == "su11" and m == 0 and mask == 0b11:
                    assert res.residual == f
                    assert res.coefficients == {}
                else:
                    assert res.residual.is_zero()
                    assert reconstruct(res.coefficients, group) == f


def test_expand_names_terms_over_foreign_extensions():
    # weight 3: the matrix coefficients lie in Q(i)[s] with m=3
    f = Section("s11", {(3, 0b1): ExtendedScalar(1, 1, 5), (1, 0): 1})
    with pytest.raises(ExtensionMismatchError) as err:
        expand(f)
    assert str(err.value) == (
        "the coefficient of t^3*theta (weight 3) lies in Q(i)[s] with m=5, "
        "but the weight-3 matrix coefficients lie in Q(i)[s] with m=3")
    # weight 8: the matrix coefficients lie in Q(i), so one extension among
    # the terms is fine and a second one is named against the first
    one = Section("su11", {(8, 0b00): ExtendedScalar(1, 2, 3)})
    assert reconstruct(expand(one).coefficients, "su11") == one
    two = one + Section("su11", {(8, 0b11): ExtendedScalar(0, 1, 5)})
    with pytest.raises(ExtensionMismatchError) as err:
        expand(two)
    assert str(err.value) == (
        "the coefficient of t^8*theta*eta (weight 8) lies in Q(i)[s] with "
        "m=5, but the coefficient of t^8 lies in Q(i)[s] with m=3")


def test_reconstruct_names_coefficients_over_foreign_extensions():
    with pytest.raises(ExtensionMismatchError) as err:
        reconstruct({(("pi", 3), (0, 1)): ExtendedScalar(1, 1, 5)}, "su11")
    assert str(err.value) == (
        "the coefficient of entry (0, 1) of ('pi', 3): cannot mix extensions "
        "with parameters m=3 and m=5")
    # weight 8: the matrix coefficients lie in Q(i), so the clash is between
    # two coefficients that reach the same term
    with pytest.raises(ExtensionMismatchError) as err:
        reconstruct({(("pi", 8), (0, 0)): ExtendedScalar(1, 2, 3),
                     (("pi", 8), (1, 1)): ExtendedScalar(0, 1, 5)}, "su11")
    assert str(err.value) == (
        "the coefficient of entry (1, 1) of ('pi', 8): cannot mix extensions "
        "with parameters m=3 and m=5")


def test_expansion_result_json():
    f = (Section.monomial("su11", 2, ["theta"])
         + Section.monomial("su11", 0, ["theta", "eta"], coef=5))
    blob = expand(f).to_json()
    assert blob["group"] == "su11"
    reps = [c["rep"] for c in blob["coefficients"]]
    assert reps == [{"type": "pi", "m": 2, "sign": "+"},
                    {"type": "pi", "m": 2, "sign": "+"}]
    assert [c["entry"] for c in blob["coefficients"]] == [[0, 1], [1, 0]]
    assert blob["residual"]["terms"][0]["mono"] == ["theta", "eta"]
    for c in blob["coefficients"]:
        scalar_from_json(c["coef"])  # parses back


def test_reconstruct_rejects_unknown_labels():
    with pytest.raises(ValueError):
        reconstruct({(("spin", 2), (0, 0)): GR(1)}, "su11")
    with pytest.raises(ValueError):
        reconstruct({(("W",), (0, 1)): GR(1)}, "su11")
    with pytest.raises(ValueError):
        reconstruct({(("pi", 2), (0, 5)): GR(1)}, "su11")
    # an entry must be a pair of in-range ints and a key a (label, entry)
    # pair: (0, True) is not read as (0, 1)
    for key in ((("V", 3), (0, True)), (("V", 3), (0, 1.0)), 5):
        with pytest.raises(ValueError, match="^coefficient key %s " %
                           re.escape(repr(key))):
            reconstruct({key: GR(1)}, "s11")
    assert reconstruct({}, "s11").is_zero()


# reconstruct takes exactly the labels expand emits: (kind, m) for the
# group's kind and an int m != 0, ("trivial",) and the group's weight-zero
# label.  ("pi", 3, "-") must not be read as pi_3^+: entry (0, 1) of pi_3^+
# has the eta coefficient -i*s, that of pi_3^- has +i*s.
@pytest.mark.parametrize("group,label", [
    ("su11", ("pi", 3, "-")),
    ("su11", ("pi", 3, "+", "x")),
    ("su11", ("V", 3)),
    ("s11", ("pi", 3)),
    ("s11", ("V",)),
    ("s11", ("V", 2.0)),
    ("s11", ("V", True)),
    ("s11", ("V", 0)),
    ("su11", ("pi", 3, "+")),
    ("su11", 5),
], ids=repr)
def test_reconstruct_rejects_labels_expand_does_not_emit(group, label):
    with pytest.raises(ValueError, match="^unknown representation label "):
        reconstruct({(label, (0, 1)): GR(1)}, group)


def test_reconstruct_checks_the_group_tag_before_any_label():
    with pytest.raises(ValueError, match="^unknown group tag 'x'$"):
        reconstruct({(("trivial",), (0, 0)): 1}, "x")


def test_section_from_pairs_sums_equal_keys():
    half = GR(1) / GR(2)
    pairs = [((2, 1), half), ((1, 0), half), ((2, 1), half), ((1, 0), -half)]
    assert Section("s11", pairs) == Section.monomial("s11", 2, ["theta"])
    assert Section("s11", iter(pairs)) == Section("s11", {(2, 1): 1})


# --- differential test against the public coefficient sections --------------

def _reference_expand(f, m, sections, label, entries):
    """The weight-m coefficients of f, from the system that the public
    matrix_coefficients gives, solved by Matrix.solve."""
    masks = range(len(entries))  # one row per odd mask; the system is square
    system = Matrix([[sections[e].coefficient(m, mask) for e in entries]
                     for mask in masks])
    sol = system.solve([f.coefficient(m, mask) for mask in masks])
    return {(label, e): x for e, x in zip(entries, sol) if not x.is_zero()}


def test_expand_matches_public_coefficient_systems():
    # every mask's coefficient is 0, a Gaussian rational, a value over the
    # weight's own root, or a value over Q(i)[s] at m=7 or m=-5; the weights
    # 2, +-8, 18 and -32 have Gaussian roots, so their systems lie in Q(i)
    cases = mismatches = 0
    for group, rep_of, label_kind, entries in (
        ("s11", make_V_m, "V", [(0, 0), (0, 1)]),
        ("su11", lambda m: make_pi_m(m, "+"), "pi", [(0, 0), (0, 1), (1, 0), (1, 1)]),
    ):
        for m in (1, 2, -3, 8, -1, -8, 18, -32, 40):
            sections = matrix_coefficients(rep_of(m))
            label = (label_kind, m)
            values = [GR(0), GR(2, -1), GR(1, 3) + GR(-2) * sqrt_neg_im(m),
                      ExtendedScalar(GR(0, 1), 3, 7), ExtendedScalar(-1, GR(1, 1), -5)]
            for choice in itertools.product(values, repeat=len(entries)):
                f = Section(group, {(m, mask): c for mask, c in enumerate(choice)})
                try:
                    want = _reference_expand(f, m, sections, label, entries)
                except ExtensionMismatchError:
                    with pytest.raises(ExtensionMismatchError):
                        expand(f)
                    mismatches += 1
                else:
                    res = expand(f)
                    assert res.coefficients == want
                    assert reconstruct(res.coefficients, group) + res.residual == f
                cases += 1
    assert cases == 9 * (5 ** 2 + 5 ** 4)
    assert 0 < mismatches < cases


def test_expand_and_reconstruct_do_not_revalidate(monkeypatch):
    calls = []
    original = liealg.validate_representation

    def counting(rep):
        calls.append(rep)
        return original(rep)

    monkeypatch.setattr(liealg, "validate_representation", counting)
    for group in ("s11", "su11"):
        f = Section(group, {(m, mask): GR(m, 1) for m in (-7, 0, 2, 5)
                            for mask in range(2)})
        res = expand(f)
        assert reconstruct(res.coefficients, group) + res.residual == f
    assert calls == []
    # the public entry point still validates what it is given
    matrix_coefficients(make_pi_m(3, "-"))
    assert len(calls) == 1


def test_expand_solves_nonzero_weights_without_elimination(monkeypatch):
    # the weight blocks are inverted in closed form: no elimination runs and
    # no block is built
    calls = []

    def count(owner, name):
        original = getattr(owner, name)

        def counting(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, name, counting)

    for owner, name in ((Matrix, "solve"), (Matrix, "rref"),
                        (harmonic, "make_pi_m"), (harmonic, "make_V_m")):
        count(owner, name)
    weights = (-40, -3, 1, 2, 8, 18)
    for group, kind, block in (("s11", "V", "make_V_m"),
                               ("su11", "pi", "make_pi_m")):
        f = Section(group, {(m, mask): GR(m, 1) + mask * sqrt_neg_im(m)
                            for m in weights
                            for mask in range(1 << len(ODD_COORDS[group]))})
        res = expand(f)
        assert calls == []
        assert {label for label, _ in res.coefficients} == {
            (kind, m) for m in weights}
        # reconstruct still builds the blocks, through the counted names
        assert reconstruct(res.coefficients, group) == f
        assert calls.count(block) == len(weights)
        calls.clear()


def test_expand_computes_each_weights_constants_once(monkeypatch):
    # a second expand over weights it has seen calls neither sqrt_neg_im nor
    # any inverse, and gives what the cold call gave, error texts included
    weights = (-40, -3, 1, 2, 8, 18)
    sections = [Section(group, {(m, mask): GR(m, 1) + mask * sqrt_neg_im(m)
                                for m in weights
                                for mask in range(1 << len(ODD_COORDS[group]))})
                for group in ("s11", "su11")]
    sections.append(Section("su11", {(3, 0b01): ExtendedScalar(1, 1, 5)}))
    calls = []

    def count(owner, name):
        original = getattr(owner, name)

        def counting(*args):
            calls.append(name)
            return original(*args)
        monkeypatch.setattr(owner, name, counting)

    for owner, name in ((harmonic, "sqrt_neg_im"), (GR, "inverse"),
                        (ExtendedScalar, "inverse")):
        count(owner, name)

    def outcome(f):
        try:
            return expand(f).to_json()
        except ExtensionMismatchError as exc:
            return str(exc)

    harmonic._weight_constants.cache_clear()
    cold = [outcome(f) for f in sections]
    assert calls.count("sqrt_neg_im") == len(weights) + 1  # and weight 3
    calls.clear()
    assert [outcome(f) for f in sections] == cold
    assert calls == []
    assert cold[-1] == (
        "the coefficient of t^3*theta (weight 3) lies in Q(i)[s] with m=5, "
        "but the weight-3 matrix coefficients lie in Q(i)[s] with m=3")


# --- reconstruct against the public coefficient sections ---------------------

def _emitted_blocks(group):
    """Every label that expand emits on group with |m| <= 40, with its block
    and the Q(i)[s] root of its weight (that of weight 3 at weight zero)."""
    kind, rep_of = {"s11": ("V", make_V_m),
                    "su11": ("pi", lambda m: make_pi_m(m, "+"))}[group]
    for m in range(-40, 41):
        if m:
            yield (kind, m), rep_of(m), sqrt_neg_im(m)
    yield ("trivial",), make_trivial(group, 1, 0), sqrt_neg_im(3)
    if group == "s11":
        yield ("W",), make_weight_zero_s11("W"), sqrt_neg_im(3)
    else:
        yield ("adjoint",), make_adjoint_su11(), sqrt_neg_im(3)


@pytest.mark.parametrize("group", ["s11", "su11"])
def test_reconstruct_matches_matrix_coefficients_entry_by_entry(group):
    # one coefficient at a time, over Q(i) and over the weight's Q(i)[s]: the
    # entry's public section times the coefficient
    labels = 0
    for label, rep, root in _emitted_blocks(group):
        sections = matrix_coefficients(rep)
        for c in (GR(Fraction(2, 3), -5),
                  GR(1, -2) + GR(Fraction(3, 4), 1) * root):
            for entry, section in sections.items():
                assert reconstruct({(label, entry): c}, group) == section * c
        labels += 1
    assert labels == 82


def test_reconstruct_reads_weight_blocks_without_matrix_products(monkeypatch):
    # the weight-m entries are read off the block's generators; only the
    # weight-zero labels still form generator products
    products = []
    original = Matrix.__mul__

    def counting(self, other):
        products.append((self.shape, other.shape))
        return original(self, other)

    monkeypatch.setattr(Matrix, "__mul__", counting)
    for group in ("s11", "su11"):
        f = Section(group, {(m, mask): GR(m, 1) + mask * sqrt_neg_im(m)
                            for m in (-40, -3, 1, 2, 8, 18)
                            for mask in range(1 << len(ODD_COORDS[group]))})
        res = expand(f)
        assert reconstruct(res.coefficients, group) == f
    assert products == []
    # su11's weight-zero blocks keep U*S as a matrix product
    f = Section("su11", {(0, 0b01): GR(2), (0, 0b00): GR(1)})
    assert reconstruct(expand(f).coefficients, "su11") == f
    assert sorted(products) == [((1, 1), (1, 1)), ((3, 3), (3, 3))]


def test_section_product_tests_each_term_once(monkeypatch):
    # the product's sums are dropped to its nonzero terms once: at most one
    # is_zero() per key that a pair of terms reaches
    rng = random.Random(34)
    root = sqrt_neg_im(3)
    pairs = []
    for group in ("s11", "su11"):
        masks = range(1 << len(ODD_COORDS[group]))
        f, g = (Section(group, {
            (rng.randint(-2, 2), rng.choice(masks)):
                GR(rng.randint(-3, 3), rng.randint(1, 3)) + rng.randint(0, 1) * root
            for _ in range(8)}) for _ in range(2))
        pairs += [(f, g), (f, -f), (f, f)]
    for f, g in pairs:
        keys = {(m1 + m2, k1 | k2) for m1, k1 in f.terms for m2, k2 in g.terms
                if not k1 & k2}
        tests = []

        def counting(is_zero):
            def counted(self):
                tests.append(1)
                return is_zero(self)
            return counted

        for cls in (GR, ExtendedScalar):
            monkeypatch.setattr(cls, "is_zero", counting(cls.is_zero))
        product = f * g
        monkeypatch.undo()
        assert 0 < len(tests) <= len(keys)
        ring = GeneratorSet(ODD_COORDS[f.group], even=("t",))
        lf, lg = (ring.element({((m,), mask): c for (m, mask), c
                                in h.terms.items()}) for h in (f, g))
        assert product == Section(f.group, [((exps[0], mask), c) for (exps, mask), c
                                            in (lf * lg).terms.items()])
