import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import grassmann_reference as ref
from supercircle import grassmann
from supercircle.grassmann import (
    EVEN,
    INHOMOGENEOUS,
    ODD,
    GeneratorSet,
    GrassmannElement,
    element_from_json,
)
from supercircle.scalars import ExtendedScalar, GaussianRational, sqrt_neg_im
from supercircle.supergroup import (
    c11x_ring,
    factorization_triple_ring,
    s11_chart_ring,
    sl11_generic_ring,
    su11_chart_ring,
)

GR = GaussianRational


@pytest.fixture
def paired():
    return GeneratorSet(["theta", "thetabar"], pairing=[[0, 1]])


@pytest.fixture
def four():
    return GeneratorSet(["a", "b", "c", "d"])


def test_generator_set_validation():
    with pytest.raises(ValueError):
        GeneratorSet(["x", "x"])
    with pytest.raises(ValueError):
        GeneratorSet(["x", "y"], pairing=[[0, 2]])
    g = GeneratorSet(["x", "y", "z"], pairing=[[0, 1]])
    assert g.pairing == (1, 0, 2)
    # overlapping pairs would leave (1, 2, 1), which is no involution
    with pytest.raises(ValueError, match="involution"):
        GeneratorSet(["x", "y", "z"], pairing=[[0, 1], [1, 2]])


def test_basic_products(paired):
    th = paired.odd_gen("theta")
    tb = paired.odd_gen("thetabar")
    assert th * tb == -(tb * th)
    assert (th * th).is_zero()
    x = paired.one() + th * tb
    y = paired.one() - th * tb
    assert x * y == paired.one()


def test_mismatched_generator_sets_error(paired, four):
    with pytest.raises(ValueError, match="mismatched"):
        paired.odd_gen("theta") * four.odd_gen("a")


def test_supercommutativity_exhaustive_four_generators(four):
    monos = [four.element({((), mask): 1}) for mask in range(16)]
    for x, y in combinations(monos, 2):
        px, py = x.parity(), y.parity()
        sign = -1 if (px == ODD and py == ODD) else 1
        assert x * y == sign * (y * x)


def test_associativity_on_random_triples(four):
    rng = random.Random(3)

    def rand_elem():
        terms = {}
        for mask in rng.sample(range(16), 5):
            terms[((), mask)] = GR(rng.randint(-4, 4), rng.randint(-4, 4))
        return four.element(terms)

    for _ in range(60):
        x, y, z = rand_elem(), rand_elem(), rand_elem()
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z


def test_coefficient_of_a_missing_monomial_is_zero(paired):
    x = 3 * paired.odd_gen("theta") + paired.one()
    assert x.coefficient(((), 0b01)) == GR(3)
    assert x.coefficient(((), 0b00)) == GR(1)
    assert x.coefficient(((), 0b10)) == GR(0)
    assert x.coefficient(((), 0b11)) == GR(0)


def test_zeroth_power_is_one_without_an_inverse(paired):
    # x ** 0 multiplies nothing, so it needs no inverse of x
    th = paired.odd_gen("theta")
    assert th ** 0 == paired.one()
    assert (th * paired.odd_gen("thetabar")) ** 0 == paired.one()
    assert th ** 1 == th
    assert (th ** 2).is_zero()


def test_parity(paired, four):
    th = paired.odd_gen("theta")
    tb = paired.odd_gen("thetabar")
    assert (th * tb).parity() == EVEN
    assert th.parity() == ODD
    a, b, c = (four.odd_gen(n) for n in "abc")
    assert (a * b * c).parity() == ODD
    assert (paired.one() + th).parity() == INHOMOGENEOUS
    assert paired.zero().parity() == EVEN


def test_star_basics(paired):
    th = paired.odd_gen("theta")
    tb = paired.odd_gen("thetabar")
    assert th.star() == tb
    assert paired.one().star() == paired.one()
    i = GR(0, 1)
    # star(i*theta*thetabar) = -i*thetabar*theta = i*theta*thetabar
    assert (i * th * tb).star() == i * th * tb


def test_star_is_involutive_and_multiplicative(paired):
    rng = random.Random(5)
    th = paired.odd_gen("theta")
    tb = paired.odd_gen("thetabar")
    pool = [paired.one(), th, tb, th * tb]
    for _ in range(50):
        x = sum(
            (GR(rng.randint(-3, 3), rng.randint(-3, 3)) * p for p in pool),
            paired.zero(),
        )
        y = sum(
            (GR(rng.randint(-3, 3), rng.randint(-3, 3)) * p for p in pool),
            paired.zero(),
        )
        assert x.star().star() == x
        assert (x * y).star() == x.star() * y.star()


def test_star_requires_pairing(four):
    with pytest.raises(ValueError, match="no pairing"):
        four.odd_gen("a").star()


def test_star_with_fixed_points():
    g = GeneratorSet(["xi", "theta", "thetabar"], pairing=[[1, 2]])
    xi = g.odd_gen("xi")
    assert xi.star() == xi
    assert (GR(0, 1) * xi).star() == GR(0, -1) * xi


def test_invert_examples(paired):
    th = paired.odd_gen("theta")
    tb = paired.odd_gen("thetabar")
    x = paired.one() + th * tb
    assert x.invert() == paired.one() - th * tb
    assert paired.scalar(GR(2, 0)).invert() == paired.scalar(GR(Fraction(1, 2), 0))
    y = paired.scalar(2) + th * tb
    yi = y.invert()
    assert yi == paired.scalar(GR(Fraction(1, 2), 0)) - GR(Fraction(1, 4), 0) * th * tb
    assert y * yi == paired.one()


def test_invert_errors(paired):
    th = paired.odd_gen("theta")
    with pytest.raises(ValueError, match="not invertible"):
        (th * paired.odd_gen("thetabar") * 0 + th * th).invert()  # zero element
    with pytest.raises(ValueError, match="parity"):
        th.invert()
    with pytest.raises(ValueError, match="parity"):
        (paired.one() + th).invert()
    with pytest.raises(ValueError, match="not invertible"):
        (th * paired.odd_gen("thetabar")).invert()  # zero body


def test_invert_random_even_invertibles(four):
    rng = random.Random(17)
    even_masks = [m for m in range(16) if bin(m).count("1") % 2 == 0 and m != 0]
    for _ in range(500):
        terms = {((), 0): GR(rng.randint(1, 5), rng.randint(-5, 5))}
        for mask in rng.sample(even_masks, rng.randint(1, len(even_masks))):
            c = GR(rng.randint(-5, 5), rng.randint(-5, 5))
            if not c.is_zero():
                terms[((), mask)] = c
        x = four.element(terms)
        assert x.invert() * x == four.one()


def test_laurent_generators():
    g = GeneratorSet(["eta", "etabar"], even=["w"])
    w = g.even_gen("w")
    eta, etabar = g.odd_gen("eta"), g.odd_gen("etabar")
    assert w * g.even_gen("w", -1) == g.one()
    x = w * w * eta
    assert x * w == g.even_gen("w", 3) * eta
    y = w + w * eta * etabar  # w*(1 + eta*etabar) is a unit
    assert y.invert() * y == g.one()
    with pytest.raises(ValueError, match="not invertible"):
        (w + g.one()).invert()


def test_laurent_star_images():
    base = GeneratorSet(["eta"], even=["w"])
    minus_i = GR(0, -1)
    g = base.with_star_images(
        odd_images=[minus_i * base.even_gen("w", -2) * base.odd_gen("eta")],
        even_images=[base.even_gen("w", -1)],
    )
    w_inv = g.even_gen("w", -1)
    w = g.even_gen("w")
    eta = g.odd_gen("eta")
    assert w.star() == w_inv
    assert w.star().star() == w
    assert eta.star().star() == eta
    assert (w * eta).star() == w.star() * eta.star()
    # the base set is left without images, and differs from the copy
    assert g != base and g.signature() == base.signature()
    with pytest.raises(ValueError, match="no star image"):
        base.even_gen("w").star()
    with pytest.raises(ValueError, match="one star image per odd"):
        base.with_star_images([], [base.one()])
    with pytest.raises(ValueError, match="live in this algebra"):
        base.with_star_images([g.odd_gen("eta")], [g.one()])


def test_star_images_are_part_of_identity():
    # su11 and its isomer share generator names and differ only in star
    plus, (p,) = su11_chart_ring("su11")
    minus, (q,) = su11_chart_ring("su11_minus")
    assert plus != minus
    with pytest.raises(ValueError, match="mismatched generator sets"):
        p.a * q.a
    again, (p2,) = su11_chart_ring("su11")
    assert again is not plus and again == plus and p2 == p
    # JSON decoding matches rings by name, through the hash and signature
    assert hash(plus) == hash(minus) and plus.signature() == minus.signature()


def test_star_inverts_each_even_image_power_once(monkeypatch):
    gens = ref.su11_chart()
    exps = [(-1, 0), (-2, 0), (0, -1), (0, -2), (-1, -1),
            (-1, -2), (-2, -1), (-2, -2), (1, 0), (0, 0)]
    x = gens.element({(e, k % 4): GR(k + 1, 0) for k, e in enumerate(exps)})
    negative = [(i, e) for e_s in exps for i, e in enumerate(e_s) if e < 0]
    assert len(x.terms) == 10 and len(negative) == 12 and len(set(negative)) == 4
    calls = []
    original = GrassmannElement.invert

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(GrassmannElement, "invert", counting)
    star = x.star()
    monkeypatch.undo()
    assert len(calls) <= len(set(negative))
    assert star.terms == ref.star(gens, x.terms)


def test_element_json_round_trip(paired):
    th = paired.odd_gen("theta")
    tb = paired.odd_gen("thetabar")
    x = GR(Fraction(1, 2), 0) * th + GR(0, 1) * th * tb + paired.scalar(3)
    j = x.to_json()
    assert j["gens"] == ["theta", "thetabar"]
    assert j["pairing"] == [[0, 1]]
    monos = [t["mono"] for t in j["terms"]]
    assert monos == [[], [0], [0, 1]]
    y = element_from_json(j)
    assert y == x
    assert y.gens == paired


def test_element_json_rejects_malformed(paired):
    with pytest.raises(ValueError):
        element_from_json({"terms": []})
    with pytest.raises(ValueError):
        element_from_json(
            {"gens": ["theta"], "terms": [{"mono": [3], "coef": {"re": "1", "im": "0"}}]}
        )
    with pytest.raises(ValueError):
        element_from_json(
            {"gens": ["theta"], "terms": [{"mono": [0, 0], "coef": {"re": "1", "im": "0"}}]}
        )
    with pytest.raises(ValueError, match="involution"):
        element_from_json({"gens": ["x", "y"], "pairing": [[0, 1, 0]], "terms": []})
    j = paired.odd_gen("theta").to_json()
    other = GeneratorSet(["x", "y"]).odd_gen("x").to_json()
    with pytest.raises(ValueError, match="disagree"):
        element_from_json(other, gens=paired)
    assert element_from_json(j, gens=paired) == paired.odd_gen("theta")


def test_element_json_validates_terms_and_sums_repeats(paired):
    one = {"re": "1", "im": "0"}
    for terms in ({"mono": []}, ["x"], [{"coef": one}], [{"mono": [True], "coef": one}],
                  [{"mono": [0], "coef": one, "powers": [1]}]):
        with pytest.raises(ValueError):
            element_from_json({"gens": ["theta", "thetabar"], "terms": terms})
    th = paired.odd_gen("theta")
    half = {"re": "1/2", "im": "0"}
    j = {"gens": ["theta", "thetabar"], "pairing": [[0, 1]],
         "terms": [{"mono": [0], "coef": half}, {"mono": [0], "coef": half},
                   {"mono": [1], "coef": one}, {"mono": [1], "coef": {"re": "-1", "im": "0"}}]}
    assert element_from_json(j) == th


def test_float_coefficients(paired):
    # coefficients are exact: numeric JSON components are a parse error,
    # and Python floats are not scalars
    blob = {"gens": ["theta", "thetabar"], "pairing": [[0, 1]],
            "terms": [{"mono": [0], "coef": {"re": 0.5, "im": 0.0}}]}
    with pytest.raises(ValueError, match="exact strings"):
        element_from_json(blob)
    th = paired.odd_gen("theta")
    with pytest.raises(TypeError):
        paired.scalar(0.5)
    with pytest.raises(TypeError):
        th * 0.5


def test_body_and_soul(paired):
    th = paired.odd_gen("theta")
    tb = paired.odd_gen("thetabar")
    x = paired.scalar(GR(2, 1)) + th * tb * 5
    assert x.body() == GR(2, 1)
    soul = x - x.body()
    assert soul == 5 * th * tb
    assert soul.body().is_zero()


def test_constructor_drops_zero_coefficients():
    g = GeneratorSet(["x0", "x1"])
    zero = GR(0, 0)
    z = GrassmannElement(g, {((), 0): zero})
    assert z.is_zero()
    assert z == g.zero()
    w = GrassmannElement(g, {((), 0b11): GR(2, 0), ((), 0b01): zero})
    assert (w + g.one()).parity() == EVEN
    explicit_zero_body = GrassmannElement(g, {((), 0): zero, ((), 0b11): GR(1, 0)})
    with pytest.raises(ValueError, match="not invertible"):
        explicit_zero_body.invert()
    # coefficients are coerced to scalars
    assert GrassmannElement(g, {((), 0): 1}) == g.one()
    x = GrassmannElement(g, {((), 0b11): Fraction(1, 2), ((), 0b01): 0})
    assert x.terms == {((), 0b11): GR(Fraction(1, 2))}


@pytest.mark.parametrize("even, key", [
    ((), ((), 0b100)),      # a mask bit past the odd generators
    ((), ((), -1)),
    ((), ((), True)),
    ((), ((), 1.0)),
    (("t",), ((1, 2), 0)),  # one exponent per even generator
    (("t",), ((), 0)),
    (("t",), ((1.0,), 0)),
    (("t",), ((False,), 0)),
])
def test_constructor_rejects_keys_outside_the_ring(even, key):
    g = GeneratorSet(["x0", "x1"], even=even)
    with pytest.raises(ValueError):
        GrassmannElement(g, {key: 1})
    with pytest.raises(ValueError):
        g.element({key: 1})


# --- differential tests against the naive reference ---------------------------


@pytest.mark.parametrize("extended", [False, True], ids=["gaussian", "ext"])
@pytest.mark.parametrize("ring", sorted(ref.RINGS))
def test_arithmetic_matches_reference(ring, extended):
    gens = ref.RINGS[ring]()
    rng = random.Random(f"{ring}/{extended}")
    for _ in range(300):
        xt = ref.random_terms(rng, gens, extended)
        yt = ref.random_terms(rng, gens, extended)
        x, y = gens.element(xt), gens.element(yt)
        assert (x * y).terms == ref.mul(xt, yt)
        assert (x + y).terms == ref.add(xt, yt)
        assert (x - y).terms == ref.sub(xt, yt)
        assert (x - x).terms == {}
        assert (-x).terms == ref.neg(xt)
        assert x.star().terms == ref.star(gens, xt)
        ut = ref.random_unit_terms(rng, gens, extended)
        assert gens.element(ut).invert().terms == ref.invert(gens, ut)


def test_cancelled_sums_leave_no_terms(four):
    # (1 + ab)(1 - ab) = 1: both ab products cancel inside one product
    ab = four.odd_gen("a") * four.odd_gen("b")
    assert ((four.one() + ab) * (four.one() - ab)).terms == four.one().terms
    # with coefficients +-1 many monomials of a product or inverse sum to zero
    rng = random.Random(11)
    even_masks = [m for m in range(16) if bin(m).count("1") % 2 == 0]
    cancelled = 0
    for _ in range(200):
        xt, yt = ({((), m): GR(rng.choice((-1, 1)), 0)
                   for m in rng.sample(even_masks, 4)} for _ in range(2))
        reached = {m1 | m2 for (_, m1) in xt for (_, m2) in yt if not m1 & m2}
        product = ref.mul(xt, yt)
        cancelled += len(reached) - len(product)
        assert (four.element(xt) * four.element(yt)).terms == product
        ut = {((), 0): GR(2, 0), **{k: c for k, c in xt.items() if k[1]}}
        assert four.element(ut).invert().terms == ref.invert(four, ut)
    assert cancelled > 50
    # su11 chart: star(a) = a^-1 (1 - i b bbar) and star(a b bbar) = -a^-1 b bbar,
    # so the b bbar parts of star(a + i a b bbar) cancel
    gens, (point,) = su11_chart_ring()
    a, b = point.a, point.beta
    x = a + GR(0, 1) * a * b * b.star()
    assert x.star().terms == {((-1,), 0): GR(1, 0)}


def test_invert_makes_no_product_against_one(four, monkeypatch):
    # x = 2 + 3ab + 5cd: v = u^-1 soul costs 2 Q(i) products, u^-1 v 2 more,
    # u^-1 v^2 the 2 disjoint pairs (ab, cd) and (cd, ab), u^-1 v^3 none;
    # every product is one multiply-add of the kernel
    calls, operator_products = [], []
    fma, mul = grassmann._fma, GaussianRational.__mul__

    def counting_fma(acc, p, q, negate=False):
        calls.append((p, q))
        return fma(acc, p, q, negate)

    def counting_mul(self, other):
        operator_products.append(1)
        return mul(self, other)

    a, b, c, d = (four.odd_gen(n) for n in "abcd")
    x = four.scalar(2) + 3 * a * b + 5 * c * d
    monkeypatch.setattr(grassmann, "_fma", counting_fma)
    monkeypatch.setattr(GaussianRational, "__mul__", counting_mul)
    inverse = x.invert()
    monkeypatch.undo()
    assert len(calls) == 6 and operator_products == []
    assert all(p != 1 and q != 1 for p, q in calls)
    assert inverse * x == four.one()


# --- properties ----------------------------------------------------------------


def _coefficients():
    small = st.integers(-3, 3)
    return st.builds(GR, small, small).filter(lambda c: not c.is_zero())


def _exact_coefficients():
    """Gaussian integers, Gaussian rationals with small unequal denominators,
    and Q(i)[s] values for ref.EXT_M, so that one product mixes all three."""
    part = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    gaussian = st.one_of(_coefficients(), st.builds(GR, part, part))
    extended = st.builds(ExtendedScalar, gaussian, gaussian, st.just(ref.EXT_M))
    return st.one_of(gaussian, extended).filter(lambda c: not c.is_zero())


def _elements(gens, parity=None, coefficients=None):
    if coefficients is None:
        coefficients = _coefficients()
    masks = [m for m in range(1 << len(gens.odd))
             if parity is None or bin(m).count("1") % 2 == parity]
    exps = st.tuples(*[st.integers(-2, 2) for _ in gens.even])
    terms = st.dictionaries(st.tuples(exps, st.sampled_from(masks)),
                            coefficients, max_size=5)
    return terms.map(gens.element)


LAMBDA4 = ref.lambda4()
CHART = ref.su11_chart()


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_product_is_associative_and_distributive(data):
    gens = data.draw(st.sampled_from([LAMBDA4, CHART]))
    x, y, z = (data.draw(_elements(gens)) for _ in range(3))
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert (x - y) * z == x * z - y * z


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_product_is_graded_commutative(data):
    gens = data.draw(st.sampled_from([LAMBDA4, CHART]))
    px, py = data.draw(st.integers(0, 1)), data.draw(st.integers(0, 1))
    x, y = data.draw(_elements(gens, px)), data.draw(_elements(gens, py))
    assert x * y == (-1 if px and py else 1) * (y * x)


# every package ring whose generator set carries star images
STAR_RINGS = [c11x_ring()[0], s11_chart_ring()[0], sl11_generic_ring()[0],
              su11_chart_ring("su11")[0], su11_chart_ring("su11_minus")[0],
              factorization_triple_ring("su11")[0],
              factorization_triple_ring("su11_minus")[0]]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_star_is_an_antilinear_involutive_automorphism(data):
    gens = data.draw(st.sampled_from(STAR_RINGS))
    x, y = data.draw(_elements(gens)), data.draw(_elements(gens))
    c = data.draw(st.one_of(_coefficients(),
                            _coefficients().map(lambda c: c * sqrt_neg_im(3))))
    assert (x * y).star() == x.star() * y.star()
    assert (c * x).star() == c.conjugate() * x.star()
    assert x.star().star() == x


EVEN_RINGS = [GeneratorSet([], even=["t"]), GeneratorSet(["x"], even=["t", "u"]),
              GeneratorSet(["a", "b"], pairing=[[0, 1]], even=["t"])]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_element_json_round_trips_over_rings_with_even_generators(data):
    x = data.draw(_elements(data.draw(st.sampled_from(EVEN_RINGS))))
    assert element_from_json(x.to_json()) == x


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_invert_is_a_two_sided_inverse(data):
    gens = data.draw(st.sampled_from([LAMBDA4, CHART]))
    nilpotent = data.draw(_elements(gens, 0)).terms
    exps = data.draw(st.tuples(*[st.integers(-2, 2) for _ in gens.even]))
    x = gens.element({(exps, 0): data.draw(_coefficients()),
                      **{k: c for k, c in nilpotent.items() if k[1]}})
    assert x * x.invert() == gens.one()
    assert x.invert() * x == gens.one()


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_kernel_matches_reference_over_rationals_and_extensions(data):
    gens = data.draw(st.sampled_from([LAMBDA4, CHART]))
    coefs = _exact_coefficients()
    x, y = (data.draw(_elements(gens, coefficients=coefs)) for _ in range(2))
    assert (x * y).terms == ref.mul(x.terms, y.terms)
    # with negate the kernel subtracts, so x*y - x*y cancels in one dict
    out = {}
    grassmann._mul_into(out, x.terms, y.terms)
    grassmann._mul_into(out, x.terms, y.terms, negate=True)
    assert grassmann._nonzero(out) == {}
    # odd factors anticommute, so the signs of p*q + q*p cancel every sum
    p, q = (data.draw(_elements(gens, 1, coefs)) for _ in range(2))
    out = {}
    grassmann._mul_into(out, p.terms, q.terms)
    grassmann._mul_into(out, q.terms, p.terms)
    assert grassmann._nonzero(out) == {}
    nilpotent = data.draw(_elements(gens, 0, coefs)).terms
    exps = data.draw(st.tuples(*[st.integers(-2, 2) for _ in gens.even]))
    ut = {(exps, 0): data.draw(coefs),
          **{k: c for k, c in nilpotent.items() if k[1]}}
    assert gens.element(ut).invert().terms == ref.invert(gens, ut)
