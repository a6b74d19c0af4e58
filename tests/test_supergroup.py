import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supercircle.grassmann import GeneratorSet, element_from_json
from supercircle.scalars import GaussianRational
from supercircle.supergroup import (
    FactorizationTriple,
    GL11Point,
    c11x_ring,
    defactorize,
    factorization_triple_ring,
    factorize,
    membership,
    pair_from_json,
    point_from_json,
    rho_s11,
    s11_chart_ring,
    sigma_su,
    sl11_generic_ring,
    su11_chart_ring,
)
from supercircle.supermatrix import berezinian

GR = GaussianRational
I = GR(0, 1)


def test_rho_fixes_identity():
    gens, w, eta = c11x_ring()
    one = gens.one()
    w2, eta2 = rho_s11(one, gens.zero())
    assert w2 == one and eta2.is_zero()


def test_rho_involutive_on_generic_point():
    gens, w, eta = c11x_ring()
    w1, eta1 = rho_s11(w, eta)
    w2, eta2 = rho_s11(w1, eta1)
    assert w2 == w and eta2 == eta


def test_rho_fixed_points_on_chart():
    # the constrained chart has the fixed-point relations built in, so rho
    # must act as the identity there
    gens, w, eta = s11_chart_ring()
    w1, eta1 = rho_s11(w, eta)
    assert w1 == w and eta1 == eta
    # unit-circle relation
    assert w * w.star() == gens.one()


def test_sigma_fixes_identity():
    gens, p = sl11_generic_ring()
    ident = GL11Point.identity(gens)
    assert sigma_su(ident) == ident


def test_sigma_involutive_on_sl11():
    gens, p = sl11_generic_ring()
    assert berezinian(p.matrix()) == gens.one()
    assert sigma_su(sigma_su(p)) == p


def test_sigma_fixes_su11_members():
    gens, (p,) = su11_chart_ring("su11")
    assert sigma_su(p) == p


def test_sigma_moves_wrong_sign_points():
    gens, (p,) = su11_chart_ring("su11")
    wrong = GL11Point(p.a, p.beta, -p.gamma, p.d)
    assert sigma_su(wrong) != wrong


def test_membership_generic_points():
    for group in ("su11", "su11_minus"):
        gens, (p,) = su11_chart_ring(group)
        ok, diag = membership(p, group)
        assert ok and diag == "member"
        assert berezinian(p.matrix()) == gens.one()
        ok, _ = membership(p, "sl11")
        assert ok


def test_membership_reduced_point():
    # diag(a, a) with a*star(a) = 1 and beta = 0: a circle point
    gens, w, eta = s11_chart_ring()
    p = GL11Point(w, gens.zero(), gens.zero(), w)
    ok, diag = membership(p, "su11")
    assert ok, diag


def test_membership_names_every_group_it_accepts():
    gens, p = sl11_generic_ring()
    with pytest.raises(ValueError,
                       match="^group must be sl11, su11 or su11_minus$"):
        membership(p, "bogus")


def test_membership_wrong_sign_diagnostic():
    gens, (p,) = su11_chart_ring("su11")
    wrong = GL11Point(p.a, p.beta, -p.gamma, p.d)
    ok, diag = membership(wrong, "su11")
    assert not ok
    assert "star(beta)*a^2" in diag


def test_membership_wrong_d_diagnostic():
    gens, (p,) = su11_chart_ring("su11")
    b = p.beta
    bbar = b.star()
    wrong = GL11Point(p.a * (gens.one() + b * bbar), p.beta, p.gamma, p.d)
    ok, diag = membership(wrong, "su11")
    assert not ok


def test_su11_closed_under_product_and_inverse():
    gens, (p, q) = su11_chart_ring("su11", copies=2)
    ok, diag = membership(p.multiply(q), "su11")
    assert ok, diag
    ok, diag = membership(p.inverse(), "su11")
    assert ok, diag


def test_su11_minus_closed_under_product():
    gens, (p, q) = su11_chart_ring("su11_minus", copies=2)
    ok, diag = membership(p.multiply(q), "su11_minus")
    assert ok, diag


def test_defactorize_trivial_cases():
    gens, triple = factorization_triple_ring("su11")
    ident = defactorize(gens.one(), gens.zero(), gens.zero())
    assert ident == GL11Point.identity(gens)

    t = gens.even_gen("t")
    theta = gens.odd_gen("theta")
    p = defactorize(t, theta, gens.zero())
    assert p.a == t
    assert p.beta == t * theta
    assert p.gamma == t * (-I * theta)
    assert p.d == t  # star(t)^-1 = t in this constrained ring


def test_factorize_beta_zero():
    # a reduced (purely even) member: star(w) = w^-1 on the circle chart
    gens, w, _ = s11_chart_ring()
    reduced = GL11Point(w, gens.zero(), gens.zero(), w)
    triple = factorize(reduced, "su11")
    assert triple.t == w
    assert triple.theta.is_zero() and triple.eta.is_zero()


@pytest.mark.parametrize("group", ["su11", "su11_minus"])
def test_factorize_then_defactorize_is_identity(group):
    gens, (p,) = su11_chart_ring(group)
    triple = factorize(p, group)
    back = defactorize(triple.t, triple.theta, triple.eta)
    assert back == p


@pytest.mark.parametrize("group", ["su11", "su11_minus"])
def test_defactorize_then_factorize_is_identity(group):
    gens, triple = factorization_triple_ring(group)
    p = defactorize(triple.t, triple.theta, triple.eta)
    ok, diag = membership(p, group)
    assert ok, diag
    back = factorize(p, group)
    assert back == triple


SMALL_FRACTIONS = st.fractions(min_value=-4, max_value=4, max_denominator=4)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["su11", "su11_minus"]), st.integers(-3, 3),
       SMALL_FRACTIONS, st.lists(SMALL_FRACTIONS, min_size=4, max_size=4))
def test_factorize_inverts_defactorize_on_triples(group, k, r, mix):
    # t = t0^k (1 + i r theta eta) keeps t star(t) = 1, and rational
    # combinations of theta and eta keep their reality type
    gens, generic = factorization_triple_ring(group)
    theta, eta = generic.theta, generic.eta
    t = gens.even_gen("t", k) * (gens.one()
                                 + gens.scalar(GR(0, r)) * theta * eta)
    a, b, c, d = (gens.scalar(GR(q)) for q in mix)
    triple = (t, a * theta + b * eta, c * theta + d * eta)
    back = factorize(defactorize(*triple), group)
    assert (back.t, back.theta, back.eta) == triple


def test_factorization_reality_types():
    gens, (p,) = su11_chart_ring("su11")
    triple = factorize(p, "su11")
    assert triple.theta.star() == triple.theta
    assert triple.eta.star() == triple.eta
    assert triple.t * triple.t.star() == gens.one()

    gens, (p,) = su11_chart_ring("su11_minus")
    triple = factorize(p, "su11_minus")
    assert triple.theta.star() == -triple.theta
    assert triple.eta.star() == -triple.eta
    assert triple.t * triple.t.star() == gens.one()


def test_factorize_rejects_non_members():
    gens, (p,) = su11_chart_ring("su11")
    wrong = GL11Point(p.a, p.beta, -p.gamma, p.d)
    with pytest.raises(ValueError, match="not a member"):
        factorize(wrong, "su11")


def test_factorize_accepts_only_the_unitary_groups():
    # a member of sl11 is rejected before its membership is tested
    gens, p = sl11_generic_ring()
    for group in ("sl11", "bogus"):
        with pytest.raises(ValueError,
                           match="^group must be su11 or su11_minus$"):
            factorize(p, group)


def test_point_json_round_trip():
    gens, (p,) = su11_chart_ring("su11")
    j = p.to_json()
    back = point_from_json(j)
    # the parsed point lives over a structurally equal generator set
    assert back.a.to_json() == p.a.to_json()
    assert back.gamma.to_json() == p.gamma.to_json()


@pytest.mark.parametrize("group", ["sl11", "su11", "su11_minus"])
def test_point_json_over_chart_names_decodes_onto_the_chart_ring(group):
    if group == "sl11":
        gens, p = sl11_generic_ring()
    else:
        gens, (p,) = su11_chart_ring(group)
    back = point_from_json(p.to_json(), group)
    assert back == p and back.a.gens == gens  # with its star images


def test_point_json_over_other_names_keeps_its_own_generators():
    gens, (p,) = su11_chart_ring("su11")
    back = point_from_json(p.to_json(), "sl11")
    assert back.a.gens.signature() == gens.signature()
    assert back.a.gens != gens  # no star images


@pytest.mark.parametrize("group", ["gl11", "s11", "su11-minus"])
def test_point_from_json_rejects_an_unknown_group_tag_by_name(group):
    _, (p,) = su11_chart_ring("su11")
    with pytest.raises(ValueError, match="^unknown group tag '%s'$" % group):
        point_from_json(p.to_json(), group)


@pytest.mark.parametrize("ring", [c11x_ring, s11_chart_ring])
def test_pair_json_decodes_onto_either_circle_chart(ring):
    gens, w, eta = ring()
    back = pair_from_json({"w": w.to_json(), "eta": eta.to_json()})
    assert back == (w, eta) and back[0].gens == gens


def test_pair_from_json_rejects_a_point_by_its_entries():
    # the circle has one tag, so the pair carries none; a point file, which
    # names its group on the command line, lacks the pair's entries
    _, (p,) = su11_chart_ring("su11")
    with pytest.raises(ValueError,
                       match="^expected an object with entries 'w' and 'eta'$"):
        pair_from_json(p.to_json())


def test_triple_json_round_trip():
    gens, triple = factorization_triple_ring("su11")
    j = triple.to_json()
    back = element_from_json(j["t"])
    assert back.to_json() == triple.t.to_json()


def test_point_constructor_rejects_bad_parity():
    gens, (p,) = su11_chart_ring("su11")
    with pytest.raises(ValueError, match="must be even"):
        GL11Point(p.beta, p.beta, p.gamma, p.d)
    with pytest.raises(ValueError, match="must be odd"):
        GL11Point(p.a, p.a, p.gamma, p.d)


def test_parity_checks_name_the_entry_in_a_fixed_order():
    gens, (p,) = su11_chart_ring("su11")
    a, b, g, d, zero = p.a, p.beta, p.gamma, p.d, gens.zero()
    for args, message in (
        ((b, a, a, b), "entry a must be even"),
        ((zero, a, a, b), "not invertible"),  # a's unit before d's parity
        ((a, a, a, b), "entry d must be even"),
        ((a, a, a, zero), "not invertible"),  # d's unit before beta's parity
        ((a, a, a, d), "entry beta must be odd"),
        ((a, b, a, d), "entry gamma must be odd"),
    ):
        with pytest.raises(ValueError, match="^%s$" % message):
            GL11Point(*args)
    assert GL11Point(a, zero, zero, d).beta.is_zero()  # zero is odd enough
    tgens, triple = factorization_triple_ring("su11")
    t, theta, eta = triple.t, triple.theta, triple.eta
    for call, message in (
        (lambda: rho_s11(theta, theta), "w must be even"),
        (lambda: rho_s11(t, t), "eta must be odd"),
        (lambda: defactorize(theta, theta, eta), "t must be even"),
        (lambda: FactorizationTriple(theta, theta, eta), "t must be even"),
        (lambda: FactorizationTriple(t, t, eta), "theta must be odd"),
        (lambda: FactorizationTriple(t, theta, t), "eta must be odd"),
    ):
        with pytest.raises(ValueError, match="^%s$" % message):
            call()


def test_point_constructor_rejects_non_invertible():
    gens = GeneratorSet(["x", "y"], pairing=[[0, 1]])
    x, y = gens.odd_gen("x"), gens.odd_gen("y")
    with pytest.raises(ValueError, match="not invertible"):
        GL11Point(x * y, gens.zero(), gens.zero(), gens.one())
