import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supercircle import scalars
from supercircle.scalars import (
    ExtendedScalar,
    ExtensionMismatchError,
    GaussianRational,
    scalar_from_json,
    scalar_to_json,
    sqrt_neg_im,
)

GR = GaussianRational


def small_fractions():
    return st.fractions(min_value=-8, max_value=8, max_denominator=6)


def gaussians():
    return st.builds(GR, small_fractions(), small_fractions())


def test_lowest_terms_normalization():
    x = GR(Fraction(2, 4), Fraction(-6, 3))
    assert x.re == Fraction(1, 2)
    assert x.im == -2
    assert x.re.denominator > 0


def test_gaussian_basic_arithmetic():
    i = GR(0, 1)
    assert i * i == GR(-1, 0)
    assert (GR(1, 2) + GR(3, -1)) == GR(4, 1)
    assert GR(2, 3) - 2 == GR(0, 3)
    assert 1 - GR(0, 1) == GR(1, -1)
    assert GR(1, 1) * GR(1, -1) == GR(2, 0)
    assert -GR(1, -2) == GR(-1, 2)


def test_gaussian_division_and_inverse():
    x = GR(3, -4)
    assert x * x.inverse() == GR(1, 0)
    assert (GR(1, 0) / GR(0, 1)) == GR(0, -1)
    assert 6 / GR(2, 0) == GR(3, 0)
    with pytest.raises(ZeroDivisionError):
        GR(0, 0).inverse()


@settings(max_examples=200)
@given(gaussians(), gaussians(), gaussians())
def test_gaussian_field_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    if not a.is_zero():
        assert a * a.inverse() == GR(1, 0)


def test_sqrt_neg_im_exact_nondegenerate():
    s = sqrt_neg_im(3)
    assert isinstance(s, ExtendedScalar)
    assert s * s == GR(0, -3)
    t = sqrt_neg_im(-5)
    assert t * t == GR(0, 5)


def test_sqrt_neg_im_exact_degenerate_cases():
    # |m| = 2k^2 has the Gaussian-rational root k*(1 - i*sign(m)).
    for m, expected in [(2, GR(1, -1)), (-2, GR(1, 1)), (8, GR(2, -2)), (-8, GR(2, 2))]:
        r = sqrt_neg_im(m)
        assert isinstance(r, GaussianRational)
        assert r == expected
        assert r * r == GR(0, -m)


def test_sqrt_neg_im_float_principal_branch():
    # the numeric view of every root is the principal branch
    # sqrt(|m|/2) * (1 - i*sign(m)), whether the root is Gaussian or formal
    assert sqrt_neg_im(2).to_complex() == complex(1.0, -1.0)
    assert sqrt_neg_im(-2).to_complex() == complex(1.0, 1.0)
    for m in (1, -1, 3, -5, 7, 8, -8):
        z = sqrt_neg_im(m).to_complex()
        q = math.sqrt(abs(m) / 2.0)
        assert z == complex(q, -q if m > 0 else q)
        assert abs(z * z - complex(0, -m)) < 1e-12


def test_sqrt_neg_im_degenerate_weight():
    with pytest.raises(ValueError, match="degenerate weight"):
        sqrt_neg_im(0)


@pytest.mark.parametrize("m", [True, False, 3.0, 0.0, "3", None])
def test_sqrt_neg_im_rejects_a_non_integer_parameter(m):
    with pytest.raises(ValueError,
                       match="extension parameter m must be a nonzero integer"):
        sqrt_neg_im(m)


def test_sqrt_neg_im_generator_equals_the_checked_constructor():
    for m in (1, -1, 3, -5, 7, 9, -9):
        s = sqrt_neg_im(m)
        assert type(s) is ExtendedScalar
        assert (s.c0, s.c1, s.m) == (GR(0), GR(1), m)
        assert s == ExtendedScalar(0, 1, m) and s * s == GR(0, -m)


def test_extended_reduction_never_stores_s_squared():
    s = sqrt_neg_im(3)
    x = s * s * s
    # s^3 = -3i * s, still a degree-one expression in s
    assert isinstance(x, ExtendedScalar)
    assert x.c0 == GR(0, 0)
    assert x.c1 == GR(0, -3)


def test_extended_demotes_when_s_component_cancels():
    s = sqrt_neg_im(3)
    x = (s + 1) * (1 - s)  # 1 - s^2 = 1 + 3i
    assert isinstance(x, GaussianRational)
    assert x == GR(1, 3)


def test_invert_extended_examples():
    s3 = sqrt_neg_im(3)
    inv = s3.inverse()
    assert inv == ExtendedScalar(0, Fraction(1, 3), 3) * GR(0, 1)
    assert s3 * inv == GR(1, 0)
    assert GR(1, 0).inverse() == GR(1, 0)
    with pytest.raises(ZeroDivisionError):
        GR(0, 0).inverse()


def test_extended_rejects_parameters_with_a_gaussian_root():
    # For |m| = 2k^2, -i*m is a square in Q(i) and Q(i)[s] would have zero
    # divisors, e.g. ((1 - i) + s)((1 - i) - s) = 0 at m = 2.
    for m in (2, -2, 8, -8, 18, -18):
        with pytest.raises(ValueError):
            ExtendedScalar(GR(1, -1), 1, m)
    # A vanishing s-component still demotes to Q(i) without building one.
    x = ExtendedScalar(GR(1, -1), 0, 2)
    assert isinstance(x, GaussianRational)
    assert x == GR(1, -1)


@settings(max_examples=150)
@given(gaussians(), gaussians(), gaussians(), gaussians())
def test_extended_commutative_and_associative(a0, a1, b0, b1):
    x = ExtendedScalar(a0, a1, 7)
    y = ExtendedScalar(b0, b1, 7)
    assert x * y == y * x
    assert x + y == y + x
    z = ExtendedScalar(1, 2, 7)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z


def test_extended_inverse_round_trip_random():
    rng = random.Random(11)
    for _ in range(300):
        m = rng.choice([1, 3, -3, 5, 7, -7, 9, 10, -10])
        x = ExtendedScalar(
            GR(rng.randint(-6, 6), rng.randint(-6, 6)),
            GR(rng.randint(-6, 6), rng.randint(-6, 6)),
            m,
        )
        if x.is_zero():
            continue
        assert x * x.inverse() == GR(1, 0)


def test_extension_mixing_is_an_error():
    x = sqrt_neg_im(3)
    y = sqrt_neg_im(5)
    with pytest.raises(ExtensionMismatchError):
        x + y
    with pytest.raises(ExtensionMismatchError):
        x * y
    # Gaussian rationals lift into any extension.
    assert (x + GR(1, 0)) - x == GR(1, 0)


def test_extended_with_zero_s_part_hashes_like_its_gaussian_value():
    # equal values must hash equal, or sets and dicts keep both as keys
    x, g = ExtendedScalar(1, 0, 3), GR(1, 0)
    assert x == g and hash(x) == hash(g) == hash(1)
    assert len({x, g}) == 1
    assert {x: "ext"}[g] == "ext"
    assert len({sqrt_neg_im(3), GR(0, 0)}) == 2


def test_extended_equality_with_zero_s_part_ignores_the_parameter():
    # both equal GR(1), so equality must not separate them by m
    x, y = ExtendedScalar(1, 0, 3), ExtendedScalar(1, 0, 5)
    assert x == y and hash(x) == hash(y)
    assert len({x, y, GR(1)}) == 1
    assert ExtendedScalar(1, 1, 3) != ExtendedScalar(1, 1, 5)
    assert ExtendedScalar(1, 0, 3) != ExtendedScalar(1, 1, 3)


def test_extended_with_zero_s_part_is_its_gaussian_value():
    x = ExtendedScalar(1, 0, 3)
    assert type(x) is GaussianRational and x == GR(1)
    # a value without an s-part carries no parameter to mismatch
    assert x * sqrt_neg_im(5) == sqrt_neg_im(5)


def _field_parameters():
    return st.integers(-60, 60).filter(
        lambda m: m != 0 and type(sqrt_neg_im(m)) is ExtendedScalar)


@settings(max_examples=200)
@given(gaussians(), st.one_of(st.just(GR(0)), gaussians()), _field_parameters())
def test_extended_constructor_is_the_value_it_names(c0, c1, m):
    x = ExtendedScalar(c0, c1, m)
    y = c0 + c1 * sqrt_neg_im(m)
    assert x == y and hash(x) == hash(y)
    assert (type(x) is GaussianRational) == c1.is_zero()


def test_extended_conjugate_lands_in_opposite_extension():
    s3 = sqrt_neg_im(3)
    c = s3.conjugate()
    assert isinstance(c, ExtendedScalar)
    assert c.m == -3
    assert c * c == GR(0, 3)
    # Agreement with the float principal branch.
    z = s3.to_complex().conjugate()
    w = c.to_complex()
    assert math.isclose(z.real, w.real) and math.isclose(z.imag, w.imag)


def test_exact_float_agreement_on_random_inputs():
    # exact results, viewed through to_complex, agree with complex floats
    rng = random.Random(7)

    def close(z, w):
        return abs(z - w) <= 1e-9 * max(1.0, abs(w))

    checked = 0
    for _ in range(1000):
        a = GR(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
               Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        b = GR(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
               Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        fa, fb = a.to_complex(), b.to_complex()
        assert close((a + b).to_complex(), fa + fb)
        assert close((a * b).to_complex(), fa * fb)
        if not b.is_zero():
            assert close((a / b).to_complex(), fa / fb)
        checked += 1
    assert checked == 1000


def test_scalar_json_round_trip():
    x = GR(Fraction(3, 4), Fraction(-2, 7))
    j = scalar_to_json(x)
    assert j == {"re": "3/4", "im": "-2/7"}
    assert scalar_from_json(j) == x

    s = ExtendedScalar(GR(1, 0), GR(0, Fraction(1, 2)), -4)
    j = scalar_to_json(s)
    assert j["m"] == -4
    assert scalar_from_json(j) == s

    # a zero s-part decodes to the Gaussian c0 before m is checked, so an m
    # that no extension allows is not an error here
    j = {"c0": scalar_to_json(x), "c1": {"re": "0", "im": "0"}, "m": 2}
    assert type(scalar_from_json(j)) is GaussianRational
    assert scalar_from_json(j) == x


def test_scalar_json_rejects_zero_denominator():
    with pytest.raises(ValueError, match="zero denominator"):
        scalar_from_json({"re": "1/0", "im": "0"})
    with pytest.raises(ValueError, match="zero denominator"):
        scalar_from_json({"re": "0", "im": "3/0"})


def test_scalar_json_rejects_exponent_notation():
    with pytest.raises(ValueError, match="exponent notation .*'1e5'"):
        scalar_from_json({"re": "1e5", "im": "0"})
    with pytest.raises(ValueError, match="'2E-3'"):
        scalar_from_json({"re": "0", "im": "2E-3"})


def test_scalar_json_rejects_malformed():
    with pytest.raises(ValueError):
        scalar_from_json({"re": "1/2"})
    with pytest.raises(ValueError):
        scalar_from_json({"c0": {"re": "1", "im": "0"}, "c1": {"re": "1", "im": "0"}, "m": "three"})
    with pytest.raises(ValueError):
        scalar_from_json([1, 2])


def test_scalar_json_reads_extension_components_without_recursion():
    one = {"re": "1", "im": "0"}
    obj = one
    for _ in range(sys.getrecursionlimit()):
        obj = {"c0": obj, "c1": one, "m": 3}
    with pytest.raises(ValueError, match="must be Gaussian rationals"):
        scalar_from_json(obj)


@pytest.mark.parametrize("re, im", [(0.5, -1.25), (1, 0), ("1/2", 0),
                                    (1.5, "0"), (None, "0")])
def test_scalar_json_rejects_numeric_components(re, im):
    with pytest.raises(ValueError, match='exact strings such as "1/2"'):
        scalar_from_json({"re": re, "im": im})
    with pytest.raises(ValueError, match='exact strings such as "1/2"'):
        scalar_from_json({"c0": {"re": re, "im": im},
                          "c1": {"re": "1", "im": "0"}, "m": 3})


def test_extended_scalar_rejects_zero_parameter():
    with pytest.raises(ValueError):
        ExtendedScalar(1, 1, 0)


# --- differential test against a two-Fraction reference model -------------

def _ref_str(re, im):
    if im == 0:
        return str(re)
    if re == 0:
        return f"{im}*i"
    op = "+" if im > 0 else "-"
    return f"{re} {op} {abs(im)}*i"


def _ref_mul(x, y):
    (a, b), (c, d) = x, y
    return a * c - b * d, a * d + b * c


def _ref_inverse(x):
    a, b = x
    n = a * a + b * b
    if n == 0:
        raise ZeroDivisionError
    return a / n, -b / n


def _bits(z):
    return z.real.hex(), z.imag.hex()


def wide_fractions():
    # large numerators and denominators exercise the gcd normalisation
    return st.one_of(
        small_fractions(),
        st.builds(Fraction, st.integers(-10**30, 10**30),
                  st.integers(1, 10**20)),
    )


def _check_against_reference(x, ref):
    """x is a GaussianRational, ref its value as a (re, im) Fraction pair."""
    re, im = ref
    assert (x.re, x.im) == (re, im)
    assert type(x.re) is Fraction and type(x.im) is Fraction
    assert x == GR(re, im)
    assert hash(x) == (hash(re) if im == 0 else hash((re, im)))
    assert str(x) == _ref_str(re, im)
    assert repr(x) == f"GaussianRational({re}, {im})"
    assert scalar_to_json(x) == {"re": str(re), "im": str(im)}
    assert scalar_from_json(scalar_to_json(x)) == x
    assert _bits(x.to_complex()) == _bits(complex(re, im))


@settings(max_examples=300)
@given(wide_fractions(), wide_fractions(), wide_fractions(), wide_fractions())
def test_gaussian_matches_two_fraction_reference(a, b, c, d):
    x, y = GR(a, b), GR(c, d)
    rx, ry = (a, b), (c, d)
    _check_against_reference(x, rx)
    _check_against_reference(x + y, (a + c, b + d))
    _check_against_reference(x - y, (a - c, b - d))
    _check_against_reference(x * y, _ref_mul(rx, ry))
    _check_against_reference(-x, (-a, -b))
    _check_against_reference(x.conjugate(), (a, -b))
    # mixed with a Fraction and an int, on either side
    _check_against_reference(x + c, (a + c, b))
    _check_against_reference(c - x, (c - a, -b))
    _check_against_reference(3 * x, (3 * a, 3 * b))
    _check_against_reference(x - 2, (a - 2, b))
    if ry == (0, 0):
        with pytest.raises(ZeroDivisionError):
            y.inverse()
        with pytest.raises(ZeroDivisionError):
            x / y
    else:
        _check_against_reference(y.inverse(), _ref_inverse(ry))
        _check_against_reference(x / y, _ref_mul(rx, _ref_inverse(ry)))
        _check_against_reference(1 / y, _ref_inverse(ry))
        _check_against_reference(c / y, _ref_mul((c, 0), _ref_inverse(ry)))
    # equality and hashing against ints and Fractions
    real = GR(a)
    assert real == a and a == real and hash(real) == hash(a)
    assert real != a + 1
    assert (GR(a, 1) == a) is False
    n = a.numerator
    assert GR(n) == n and hash(GR(n)) == hash(n) == hash(Fraction(n))
    assert (x == y) == (rx == ry)


def test_gaussian_components_must_be_rational():
    for bad in (True, False, 1.5, 2.0, "1", None):
        with pytest.raises(TypeError):
            GR(bad)
        with pytest.raises(TypeError):
            GR(0, bad)
    with pytest.raises(ZeroDivisionError):
        GR(0, 0).inverse()


def test_gaussian_components_are_read_only():
    x = GR(Fraction(1, 2), 3)
    for name in ("re", "im", "other"):
        with pytest.raises(AttributeError):
            setattr(x, name, 1)
    assert x == GR(Fraction(1, 2), 3)


# --- Q(i)[s] arithmetic against a pair reference -----------------------------

def _pair_mul(x, y, m):
    (a0, a1), (b0, b1) = x, y
    # s*s = -i*m
    return a0 * b0 + a1 * b1 * GR(0, -m), a0 * b1 + a1 * b0


def _check_pair(x, ref, m):
    """x is an arithmetic result, ref its (c0, c1) pair over Q(i)[s] at m."""
    c0, c1 = ref
    if c1.is_zero():
        assert type(x) is GaussianRational and x == c0
    else:
        assert type(x) is ExtendedScalar
        assert (x.c0, x.c1, x.m) == (c0, c1, m)


def small_gaussians():
    # small integer parts, so that s-parts cancel often
    parts = st.integers(-2, 2)
    return st.one_of(st.builds(GR, parts, parts), gaussians())


def _pair_inverse(x, m):
    # (c0 + c1*s)(c0 - c1*s) = c0^2 + i*m*c1^2
    c0, c1 = x
    den = c0 * c0 + GR(0, m) * c1 * c1
    return (c0 / den, -c1 / den)


@settings(max_examples=300)
@given(st.sampled_from([1, 3, -3, 5, -6, 7]),
       small_gaussians(), small_gaussians(), small_gaussians(),
       small_gaussians(), small_gaussians())
def test_extended_matches_pair_reference(m, a0, a1, b0, b1, g):
    x, y = ExtendedScalar(a0, a1, m), ExtendedScalar(b0, b1, m)
    rx, ry, rg = (a0, a1), (b0, b1), (g, GR(0))
    for u, v, ru, rv in ((x, y, rx, ry), (x, g, rx, rg), (g, x, rg, rx)):
        _check_pair(u + v, (ru[0] + rv[0], ru[1] + rv[1]), m)
        _check_pair(u - v, (ru[0] - rv[0], ru[1] - rv[1]), m)
        _check_pair(u * v, _pair_mul(ru, rv, m), m)
        if rv == (0, 0):
            with pytest.raises(ZeroDivisionError):
                u / v
        else:
            _check_pair(u / v, _pair_mul(ru, _pair_inverse(rv, m), m), m)
    # the reflected difference, also from an int
    _check_pair(x.__rsub__(g), (g - a0, -a1), m)
    _check_pair(2 - x, (2 - a0, -a1), m)
    _check_pair(-x, (-a0, -a1), m)
    _check_pair(x.conjugate(), (a0.conjugate(), a1.conjugate()), -m)
    if rx == (0, 0):
        with pytest.raises(ZeroDivisionError):
            x.inverse()
    else:
        _check_pair(x.inverse(), _pair_inverse(rx, m), m)


@settings(max_examples=200)
@given(st.builds(GR, wide_fractions(), wide_fractions()),
       st.builds(GR, wide_fractions(), wide_fractions()).filter(
           lambda c1: not c1.is_zero()),
       _field_parameters(),
       st.builds(GR, small_fractions(), small_fractions()).filter(
           lambda k: not k.is_zero()))
def test_extended_routes_to_one_value_are_equal_and_hash_equal(c0, c1, m, k):
    x = ExtendedScalar(c0, c1, m)
    s = sqrt_neg_im(m)
    routes = [c0 + c1 * s, s * c1 + c0, (x * k) / k, (x + k) - k, k * x / k,
              -(-x), x.conjugate().conjugate(), x.inverse().inverse(),
              ExtendedScalar(c0 * k, c1 * k, m) / k,
              scalar_from_json(scalar_to_json(x)),
              ExtendedScalar(x.c0, x.c1, x.m)]
    for y in routes:
        assert type(y) is ExtendedScalar
        assert y == x and hash(y) == hash(x)
        assert (y.c0, y.c1, y.m) == (c0, c1, m)
    # the stored form is canonical: one denominator, in lowest terms
    a0, b0, a1, b1, d = x._v
    assert d > 0 and math.gcd(a0, b0, a1, b1, d) == 1


OPERATORS = ["__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
             "__rmul__", "__truediv__", "__rtruediv__"]


@pytest.mark.parametrize("name", OPERATORS)
def test_every_operator_rejects_another_extension(name):
    x, y = sqrt_neg_im(3) + 1, sqrt_neg_im(5) + GR(0, 2)
    for u, v in ((x, y), (y, x)):
        with pytest.raises(ExtensionMismatchError,
                           match="parameters m=%d and m=%d" % (u.m, v.m)):
            getattr(u, name)(v)


@settings(max_examples=100)
@given(st.builds(GR, wide_fractions(), wide_fractions()),
       st.builds(ExtendedScalar, gaussians(),
                 gaussians().filter(lambda c1: not c1.is_zero()),
                 _field_parameters()))
def test_gaussian_and_extended_operands_commute(g, x):
    # a Q(i) operator hands a Q(i)[s] operand straight to its reflected
    # method, and either order gives the same value
    for name in ("__add__", "__sub__", "__mul__", "__truediv__", "__eq__"):
        assert getattr(GR, name)(g, x) is NotImplemented
    assert g + x == x + g
    assert g - x == -(x - g)
    assert g * x == x * g
    if g.is_zero():
        assert g / x == GR(0)
        with pytest.raises(ZeroDivisionError):
            x / g
    else:
        assert g / x == (x / g).inverse()
    assert (g == x) is (x == g) is False


def test_extended_product_builds_one_result_through_ext(monkeypatch):
    x, y, g = sqrt_neg_im(3) + GR(1, 2), sqrt_neg_im(3) * 2 + 1, GR(2, -1)
    built = []

    def counting(key, fn):
        def wrapper(*args):
            built.append(key)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(scalars, "_ext", counting("_ext", scalars._ext))
    monkeypatch.setattr(scalars, "_gr", counting("_gr", scalars._gr))
    monkeypatch.setattr(GR, "__init__", counting("GR", GR.__init__))
    xy = ExtendedScalar(GR(1, -4), GR(3, 4), 3)
    xg = ExtendedScalar(GR(4, 3), GR(2, -1), 3)
    for multiply, expected in ((lambda: x * y, xy), (lambda: x * g, xg),
                               (lambda: g * x, xg)):
        built.clear()
        product = multiply()
        # one Q(i)[s] result, normalised once, and no Q(i) result on the way
        assert built == ["_ext"]
        assert product == expected


def _fma_operands():
    # Gaussian integers and rationals with small, wide and unequal
    # denominators, and Q(i)[s] values for m = 3, mixed in one draw
    gaussian = st.one_of(small_gaussians(),
                         st.builds(GR, wide_fractions(), wide_fractions()))
    return st.one_of(gaussian,
                     st.builds(ExtendedScalar, gaussian, gaussian, st.just(3)))


@settings(max_examples=200)
@given(st.one_of(st.none(), _fma_operands()), _fma_operands(), _fma_operands(),
       st.booleans())
def test_fma_matches_the_operators(acc, x, y, negate):
    p = x * y
    term = -p if negate else p
    assert scalars._fma(acc, x, y, negate) == (term if acc is None else acc + term)
    # a sum that cancels is the Gaussian zero, in canonical form
    for cancelled in (scalars._fma(-p, x, y), scalars._fma(p, x, y, True)):
        assert type(cancelled) is GR and (cancelled._a, cancelled._b,
                                          cancelled._d) == (0, 0, 1)
