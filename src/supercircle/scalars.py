"""Exact coefficient scalars.

Everything downstream computes over exact Gaussian rationals or an exact
quadratic extension of them by a formal square root of -i*m.  The extension
parameter m is an integer weight; values carrying different parameters never
take part in the same arithmetic (that is an error, not a coercion).
:meth:`to_complex` is the one numeric view of a scalar.

``GaussianRational(...)`` and ``ExtendedScalar(...)`` check their input;
``ExtendedScalar(c0, 0, m)`` is the GaussianRational c0, so no ExtendedScalar
has a zero s-part.  A GaussianRational is three ints (a + b*i)/d and an
ExtendedScalar five, ((a0 + b0*i) + (a1 + b1*i)*s)/d, each over one
denominator d > 0 in lowest terms.  Arithmetic results are built by the
private builders :func:`_gr` and :func:`_ext`, which normalise with one gcd
and skip the checks: ``_gr(a, b, d)`` takes ints with d > 0, and
``_ext(a0, b0, a1, b1, d, m)`` takes ints with d > 0 and a parameter m that
an operand already carries (or its negation), so m is a nonzero integer for
which -i*m has no root in Q(i).  ``_ext`` demotes a zero s-part to ``_gr``.
The product kernels of ``grassmann`` and ``linalg`` use the one fused
multiply-add :func:`_fma`, which builds one ``_gr`` per term.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Union

from ._values import Frozen, _brief, _fits, expect

RationalLike = Union[int, Fraction]


class ExtensionMismatchError(ValueError):
    """Arithmetic attempted between extensions with different parameters m."""


def _sign(m: int) -> int:
    return (m > 0) - (m < 0)


def _as_fraction(x: RationalLike) -> Fraction:
    if isinstance(x, bool):
        raise TypeError("bool is not a rational scalar")
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    raise TypeError(f"cannot interpret {type(x).__name__} as a rational")


class GaussianRational:
    """An element (a + b*i)/d of Q(i), stored as three ints.

    d > 0 and gcd(a, b, d) = 1, so the form is canonical and equality and
    hashing are structural.  Arithmetic works on the ints and builds every
    result through :func:`_gr`, which normalises with one gcd.  ``re`` and
    ``im`` are read-only Fraction views.

    Values are immutable by convention only, as with Fraction's own private
    slots: ``_a``, ``_b`` and ``_d`` must never be assigned outside
    ``__init__`` and ``_gr``.  Assigning one would silently change a value
    that may be shared (ZERO, ONE, I) or already used as a dict key.  Unlike
    the package's other value classes it does not derive from
    ``_values.Frozen``: a raising ``__setattr__`` would force every result
    through slot descriptors and double the cost of building one.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0):
        if type(re) is int and type(im) is int:
            self._a, self._b, self._d = re, im, 1
            return
        re, im = _as_fraction(re), _as_fraction(im)
        # over the lcm of two lowest-terms denominators gcd(a, b, d) is 1
        rd, id_ = re.denominator, im.denominator
        d = rd * id_ // math.gcd(rd, id_)
        self._a = re.numerator * (d // rd)
        self._b = im.numerator * (d // id_)
        self._d = d

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    def conjugate(self) -> "GaussianRational":
        return _gr(self._a, -self._b, self._d)

    def is_zero(self) -> bool:
        return self._a == 0 and self._b == 0

    def inverse(self) -> "GaussianRational":
        # d / (a + b*i) = d*(a - b*i) / (a^2 + b^2)
        a, b, d = self._a, self._b, self._d
        n = a * a + b * b
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        return _gr(d * a, -d * b, n)

    def __add__(self, other):
        o = _coerce_gaussian(other)
        if o is None:
            return NotImplemented
        d1, d2 = self._d, o._d
        if d1 == d2:
            return _gr(self._a + o._a, self._b + o._b, d1)
        return _gr(self._a * d2 + o._a * d1, self._b * d2 + o._b * d1, d1 * d2)

    __radd__ = __add__

    def __sub__(self, other):
        o = _coerce_gaussian(other)
        if o is None:
            return NotImplemented
        d1, d2 = self._d, o._d
        if d1 == d2:
            return _gr(self._a - o._a, self._b - o._b, d1)
        return _gr(self._a * d2 - o._a * d1, self._b * d2 - o._b * d1, d1 * d2)

    def __rsub__(self, other):
        o = _coerce_gaussian(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = _coerce_gaussian(other)
        if o is None:
            return NotImplemented
        a1, b1, a2, b2 = self._a, self._b, o._a, o._b
        return _gr(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, self._d * o._d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _coerce_gaussian(other)
        if o is None:
            return NotImplemented
        # (a1 + b1*i)/d1 * d2*(a2 - b2*i)/(a2^2 + b2^2)
        a1, b1, a2, b2 = self._a, self._b, o._a, o._b
        n = a2 * a2 + b2 * b2
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        d2 = o._d
        return _gr(d2 * (a1 * a2 + b1 * b2), d2 * (b1 * a2 - a1 * b2),
                   self._d * n)

    def __rtruediv__(self, other):
        o = _coerce_gaussian(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self):
        return _gr(-self._a, -self._b, self._d)

    def __pos__(self):
        return self

    def __eq__(self, other):
        o = _coerce_gaussian(other)
        if o is None:
            return NotImplemented
        return self._a == o._a and self._b == o._b and self._d == o._d

    def __hash__(self):
        # a real value hashes like the equal int or Fraction
        if self._b == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def to_complex(self) -> complex:
        # int / int is correctly rounded, so this equals float(self.re) etc.
        return complex(self._a / self._d, self._b / self._d)

    def __repr__(self):
        return f"GaussianRational({self.re}, {self.im})"

    def __str__(self):
        re, im = self.re, self.im
        if im == 0:
            return str(re)
        if re == 0:
            return f"{im}*i"
        op = "+" if im > 0 else "-"
        return f"{re} {op} {abs(im)}*i"


_new = object.__new__


def _gr(a: int, b: int, d: int) -> GaussianRational:
    """(a + b*i)/d in canonical form, for d > 0."""
    if d != 1:
        g = math.gcd(a, b, d)
        if g != 1:
            a //= g
            b //= g
            d //= g
    x = _new(GaussianRational)
    x._a = a
    x._b = b
    x._d = d
    return x


def _fma(acc, x, y, negate: bool = False):
    """acc + x*y, or acc - x*y with negate; acc None stands for 0.

    The one multiply-add of the product kernels.  For two GaussianRationals
    it works on their ints and builds one result with :func:`_gr` (an acc
    that is not Gaussian takes that result through its own ``+``); any other
    factor goes through the operators.
    """
    if type(x) is GaussianRational and type(y) is GaussianRational:
        a1, b1, a2, b2 = x._a, x._b, y._a, y._b
        a, b, d = a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, x._d * y._d
        if negate:
            a, b = -a, -b
        if acc is None:
            return _gr(a, b, d)
        if type(acc) is not GaussianRational:
            return acc + _gr(a, b, d)
        d0 = acc._d
        if d0 == d:
            return _gr(acc._a + a, acc._b + b, d)
        return _gr(acc._a * d + a * d0, acc._b * d + b * d0, d0 * d)
    p = x * y
    if acc is None:
        return -p if negate else p
    return acc - p if negate else acc + p


def _coerce_gaussian(x) -> Optional[GaussianRational]:
    """x as a GaussianRational, or None.  A Q(i)[s] value is the second
    test, so a Q(i) operator hands it to its reflected method at once."""
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, ExtendedScalar):
        return None
    if isinstance(x, bool):
        return None
    if isinstance(x, (int, Fraction)):
        return GaussianRational(x, 0)
    return None


ZERO = GaussianRational(0, 0)
ONE = GaussianRational(1, 0)
HALF = GaussianRational(Fraction(1, 2), 0)
I = GaussianRational(0, 1)


class ExtendedScalar(Frozen):
    """c0 + c1*s over Q(i), where the formal generator s satisfies s*s = -i*m.

    Stored as five ints ((a0 + b0*i) + (a1 + b1*i)*s)/d with d > 0 and
    gcd(a0, b0, a1, b1, d) = 1, so the form is canonical and equality is
    structural.  Arithmetic works on the ints and builds every result
    through :func:`_ext`, which normalises with one gcd.  ``c0`` and ``c1``
    are read-only GaussianRational views.

    For |m| = 2k^2 the element -i*m already has a square root in Q(i), so the
    quotient ring Q(i)[s]/(s^2 + i*m) would have zero divisors; construction
    rejects such m, and sqrt_neg_im returns the Gaussian root instead.  Every
    allowed m gives a field.

    A value whose s-component is 0 is the GaussianRational c0, whether it
    is built or is an arithmetic result; that keeps zeros parameter-free and
    lets block matrices over different weights coexist without illegal
    cross-extension arithmetic.
    """

    __slots__ = ("_v", "m")

    def __new__(cls, c0, c1, m: int):
        g0 = _coerce_gaussian(c0)
        g1 = _coerce_gaussian(c1)
        if g0 is None or g1 is None:
            raise TypeError("ExtendedScalar components must be Gaussian rationals")
        # a zero s-part demotes before m is read, whatever m is
        if g1.is_zero():
            return g0
        if not _fits(m, int) or m == 0:
            raise ValueError("extension parameter m must be a nonzero integer")
        if _exact_root_neg_im(m) is not None:
            raise ValueError(f"-i*m is a square in Q(i) for m={m}; "
                             "the extension would not be a field")
        d0, d1 = g0._d, g1._d
        return _ext(g0._a * d1, g0._b * d1, g1._a * d0, g1._b * d0, d0 * d1, m)

    @property
    def c0(self) -> GaussianRational:
        a0, b0, _, _, d = self._v
        return _gr(a0, b0, d)

    @property
    def c1(self) -> GaussianRational:
        _, _, a1, b1, d = self._v
        return _gr(a1, b1, d)

    def _parts(self, other) -> Optional[tuple]:
        """The five ints of other, lifted to this extension, or None."""
        if isinstance(other, ExtendedScalar):
            if other.m != self.m:
                raise ExtensionMismatchError(
                    f"cannot mix extensions with parameters m={self.m} and m={other.m}"
                )
            return other._v
        g = _coerce_gaussian(other)
        if g is None:
            return None
        return g._a, g._b, 0, 0, g._d

    def is_zero(self) -> bool:
        return False  # the s-part is never 0

    def conjugate(self):
        """Complex conjugation; maps the extension for m onto the one for -m.

        Under the principal branch the conjugate of sqrt(-i*m) is exactly
        sqrt(+i*m) = sqrt(-i*(-m)), so the result lives at parameter -m.
        """
        a0, b0, a1, b1, d = self._v
        return _ext(a0, -b0, a1, -b1, d, -self.m)

    def inverse(self):
        return _ext(*_inverse_parts(self._v, self.m), self.m)

    def __add__(self, other):
        v = self._parts(other)
        if v is None:
            return NotImplemented
        a0, b0, a1, b1, d = self._v
        e0, f0, e1, f1, e = v
        if d == e:
            return _ext(a0 + e0, b0 + f0, a1 + e1, b1 + f1, d, self.m)
        return _ext(a0 * e + e0 * d, b0 * e + f0 * d, a1 * e + e1 * d,
                    b1 * e + f1 * d, d * e, self.m)

    __radd__ = __add__

    def __sub__(self, other):
        v = self._parts(other)
        if v is None:
            return NotImplemented
        return _difference(self._v, v, self.m)

    def __rsub__(self, other):
        v = self._parts(other)
        if v is None:
            return NotImplemented
        return _difference(v, self._v, self.m)

    def __mul__(self, other):
        v = self._parts(other)
        if v is None:
            return NotImplemented
        return _product(self._v, v, self.m)

    __rmul__ = __mul__

    def __truediv__(self, other):
        v = self._parts(other)
        if v is None:
            return NotImplemented
        return _product(self._v, _inverse_parts(v, self.m), self.m)

    def __rtruediv__(self, other):
        v = self._parts(other)
        if v is None:
            return NotImplemented
        return _product(v, _inverse_parts(self._v, self.m), self.m)

    def __neg__(self):
        a0, b0, a1, b1, d = self._v
        return _ext(-a0, -b0, -a1, -b1, d, self.m)

    def __pos__(self):
        return self

    def __eq__(self, other):
        if not isinstance(other, ExtendedScalar):
            return NotImplemented  # no Gaussian value has a nonzero s-part
        return self._v == other._v and self.m == other.m

    def __hash__(self):
        return hash((self.c0, self.c1, self.m))

    def to_complex(self) -> complex:
        # s under the principal branch: sqrt(|m|/2) * (1 - i*sign(m)); int /
        # int is correctly rounded, so a0 / d equals float(self.c0.re) etc.
        a0, b0, a1, b1, d = self._v
        q = math.sqrt(abs(self.m) / 2.0)
        root = complex(q, -q * _sign(self.m))
        return complex(a0 / d, b0 / d) + complex(a1 / d, b1 / d) * root

    def __repr__(self):
        return f"ExtendedScalar({self.c0!r}, {self.c1!r}, {self.m})"

    def __str__(self):
        return f"({self.c0}) + ({self.c1})*s[{self.m}]"


Scalar = Union[GaussianRational, ExtendedScalar]

_set = object.__setattr__


def _ext(a0: int, b0: int, a1: int, b1: int, d: int, m: int) -> Scalar:
    """((a0 + b0*i) + (a1 + b1*i)*s)/d in canonical form, for d > 0, or the
    GaussianRational (a0 + b0*i)/d when a1 = b1 = 0.

    m (or -m) is the parameter of an existing ExtendedScalar, so the checks
    of ``ExtendedScalar(...)`` would only repeat.
    """
    if a1 == 0 and b1 == 0:
        return _gr(a0, b0, d)
    if d != 1:
        g = math.gcd(a0, b0, a1, b1, d)
        if g != 1:
            a0 //= g
            b0 //= g
            a1 //= g
            b1 //= g
            d //= g
    x = _new(ExtendedScalar)
    _set(x, "_v", (a0, b0, a1, b1, d))
    _set(x, "m", m)
    return x


def _difference(u: tuple, v: tuple, m: int) -> Scalar:
    """u - v for the five ints of two values at parameter m."""
    a0, b0, a1, b1, d = u
    e0, f0, e1, f1, e = v
    if d == e:
        return _ext(a0 - e0, b0 - f0, a1 - e1, b1 - f1, d, m)
    return _ext(a0 * e - e0 * d, b0 * e - f0 * d, a1 * e - e1 * d,
                b1 * e - f1 * d, d * e, m)


def _product(u: tuple, v: tuple, m: int) -> Scalar:
    """u * v for the five ints of two values at parameter m."""
    a0, b0, a1, b1, d = u
    e0, f0, e1, f1, e = v
    # the s*s term: (a1 + b1*i)(e1 + f1*i) = p + q*i, times s*s = -i*m
    p = a1 * e1 - b1 * f1
    q = a1 * f1 + b1 * e1
    return _ext(a0 * e0 - b0 * f0 + m * q, a0 * f0 + b0 * e0 - m * p,
                a0 * e1 - b0 * f1 + a1 * e0 - b1 * f0,
                a0 * f1 + b0 * e1 + a1 * f0 + b1 * e0, d * e, m)


def _inverse_parts(v: tuple, m: int) -> tuple:
    """The five ints, not normalised, of the inverse of the value v at m.

    With X = a0 + b0*i and Y = a1 + b1*i, (X + Y*s)(X - Y*s) = G is the
    Gaussian integer X^2 + i*m*Y^2, so d/(X + Y*s) = d*(X - Y*s)*conj(G)/|G|^2.
    G is 0 only for X = Y = 0: with Y != 0, -i*m would be a square in Q(i).
    """
    a0, b0, a1, b1, d = v
    gr = a0 * a0 - b0 * b0 - 2 * m * a1 * b1
    gi = 2 * a0 * b0 + m * (a1 * a1 - b1 * b1)
    n = gr * gr + gi * gi
    if n == 0:
        raise ZeroDivisionError("division by zero in Q(i)")
    return (d * (a0 * gr + b0 * gi), d * (b0 * gr - a0 * gi),
            -d * (a1 * gr + b1 * gi), d * (a1 * gi - b1 * gr), n)


def _exact_root_neg_im(m: int) -> Optional[GaussianRational]:
    """The Gaussian-rational square root of -i*m, or None if there is none.

    -i*m is a perfect square in Q(i) exactly when |m| = 2k^2, with root
    k*(1 - i*sign(m)).
    """
    half = abs(m) // 2
    k = math.isqrt(half)
    if abs(m) != 2 * k * k:
        return None
    return GaussianRational(k, -k * _sign(m))


def sqrt_neg_im(m: int) -> Scalar:
    """An exact scalar s with s*s = -i*m.

    The Gaussian-rational root k*(1 - i*sign(m)) when |m| = 2k^2 (there the
    extension would degenerate and is avoided, so that all arithmetic stays
    inside a field), and the formal ExtendedScalar generator otherwise.
    """
    if not _fits(m, int):
        raise ValueError("extension parameter m must be a nonzero integer")
    if m == 0:
        raise ValueError("degenerate weight")
    root = _exact_root_neg_im(m)
    if root is not None:
        return root
    return _ext(0, 0, 1, 0, 1, m)


def scalar_to_json(x) -> dict:
    if isinstance(x, GaussianRational):
        return {"re": str(x.re), "im": str(x.im)}
    if isinstance(x, ExtendedScalar):
        return {
            "c0": scalar_to_json(x.c0),
            "c1": scalar_to_json(x.c1),
            "m": x.m,
        }
    g = _coerce_gaussian(x)
    if g is not None:
        return scalar_to_json(g)
    raise TypeError(f"cannot encode {type(x).__name__}")


def _gaussian_from_json(obj) -> Optional[GaussianRational]:
    """The value of an {"re", "im"} object, or None for any other shape."""
    if not isinstance(obj, dict) or set(obj) != {"re", "im"}:
        return None
    re, im = obj["re"], obj["im"]
    if not (isinstance(re, str) and isinstance(im, str)):
        raise ValueError("scalar components must be exact strings such as "
                         f'"1/2": {_brief(obj)}')
    # Fraction reads exponents, and "1e1000000" costs time and memory that
    # grow with the exponent
    for part in (re, im):
        if "e" in part.lower():
            raise ValueError("exponent notation is not allowed in "
                             f"scalar components: {_brief(part)}")
    try:
        return GaussianRational(Fraction(re), Fraction(im))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in scalar: {_brief(obj)}") from None


def scalar_from_json(obj) -> Scalar:
    if isinstance(obj, dict) and set(obj) == {"c0", "c1", "m"}:
        # the components are Gaussian, so they are read without recursion
        c0, c1 = _gaussian_from_json(obj["c0"]), _gaussian_from_json(obj["c1"])
        if c0 is None or c1 is None:
            raise ValueError("extension components must be Gaussian rationals")
        return ExtendedScalar(c0, c1,
                              expect(obj["m"], int, "extension parameter"))
    x = _gaussian_from_json(obj)
    if x is None:
        raise ValueError(f"malformed scalar: {_brief(obj)}")
    return x


def as_scalar(x) -> Scalar:
    """Coerce ints and Fractions to GaussianRational; pass scalars through."""
    if isinstance(x, (GaussianRational, ExtendedScalar)):
        return x
    g = _coerce_gaussian(x)
    if g is None:
        raise TypeError(f"cannot interpret {type(x).__name__} as a scalar")
    return g
