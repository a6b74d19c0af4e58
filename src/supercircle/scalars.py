"""Exact coefficient scalars.

Everything downstream computes over exact Gaussian rationals or an exact
quadratic extension of them by a formal square root of -i*m.  The extension
parameter m is an integer weight; values carrying different parameters never
take part in the same arithmetic (that is an error, not a coercion).
:meth:`to_complex` is the one numeric view of a scalar.

``GaussianRational(...)`` and ``ExtendedScalar(...)`` check their input;
``ExtendedScalar(c0, 0, m)`` is the GaussianRational c0, so no ExtendedScalar
has a zero s-part.  Arithmetic results are built by the private builders
:func:`_gr` and :func:`_ext`, which skip those checks: ``_gr`` takes ints
with d > 0, and ``_ext`` takes two GaussianRationals and a parameter m that
an operand already carries (or its negation), so m is a nonzero integer for
which -i*m has no root in Q(i).  ``_ext`` also demotes a zero s-part.
The product kernels of ``grassmann`` and ``linalg``, and the Q(i) products
inside ``ExtendedScalar.__mul__``, use the one fused multiply-add
:func:`_fma`, which builds one ``_gr`` per term.
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
    if isinstance(x, GaussianRational):
        return x
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

    For |m| = 2k^2 the element -i*m already has a square root in Q(i), so the
    quotient ring Q(i)[s]/(s^2 + i*m) would have zero divisors; construction
    rejects such m, and sqrt_neg_im returns the Gaussian root instead.  Every
    allowed m gives a field.

    A value whose s-component is 0 is the GaussianRational c0, whether it
    is built or is an arithmetic result; that keeps zeros parameter-free and
    lets block matrices over different weights coexist without illegal
    cross-extension arithmetic.
    """

    __slots__ = ("c0", "c1", "m")

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
        return _ext(g0, g1, m)

    def _components(self, other) -> Optional[tuple]:
        if isinstance(other, ExtendedScalar):
            if other.m != self.m:
                raise ExtensionMismatchError(
                    f"cannot mix extensions with parameters m={self.m} and m={other.m}"
                )
            return other.c0, other.c1
        g = _coerce_gaussian(other)
        if g is None:
            return None
        return g, ZERO

    def is_zero(self) -> bool:
        return False  # the s-part is never 0

    def conjugate(self):
        """Complex conjugation; maps the extension for m onto the one for -m.

        Under the principal branch the conjugate of sqrt(-i*m) is exactly
        sqrt(+i*m) = sqrt(-i*(-m)), so the result lives at parameter -m.
        """
        return _ext(self.c0.conjugate(), self.c1.conjugate(), -self.m)

    def inverse(self):
        # (c0 + c1 s)(c0 - c1 s) = c0^2 + i*m*c1^2, which is Gaussian rational.
        # It is not 0: c1 is not 0 and -i*m is not a square in Q(i).
        c0, c1, m = self.c0, self.c1, self.m
        den = c0 * c0 + _gr(0, m, 1) * c1 * c1
        return _ext(c0 / den, -(c1 / den), m)

    def __add__(self, other):
        parts = self._components(other)
        if parts is None:
            return NotImplemented
        b0, b1 = parts
        return _ext(self.c0 + b0, self.c1 + b1, self.m)

    __radd__ = __add__

    def __sub__(self, other):
        parts = self._components(other)
        if parts is None:
            return NotImplemented
        b0, b1 = parts
        return _ext(self.c0 - b0, self.c1 - b1, self.m)

    def __rsub__(self, other):
        parts = self._components(other)
        if parts is None:
            return NotImplemented
        b0, b1 = parts
        return _ext(b0 - self.c0, b1 - self.c1, self.m)

    def __mul__(self, other):
        parts = self._components(other)
        if parts is None:
            return NotImplemented
        b0, b1 = parts
        c0, c1, m = self.c0, self.c1, self.m
        if b1.is_zero():
            return _ext(_fma(None, c0, b0), _fma(None, c1, b0), m)
        # s*s = -i*m
        return _ext(_fma(_fma(None, c0, b0), _fma(None, c1, b1), _gr(0, -m, 1)),
                    _fma(_fma(None, c0, b1), c1, b0), m)

    __rmul__ = __mul__

    def __truediv__(self, other):
        parts = self._components(other)
        if parts is None:
            return NotImplemented
        b0, b1 = parts
        return self * _ext(b0, b1, self.m).inverse()

    def __rtruediv__(self, other):
        parts = self._components(other)
        if parts is None:
            return NotImplemented
        b0, b1 = parts
        return _ext(b0, b1, self.m) * self.inverse()

    def __neg__(self):
        return _ext(-self.c0, -self.c1, self.m)

    def __pos__(self):
        return self

    def __eq__(self, other):
        if not isinstance(other, ExtendedScalar):
            return NotImplemented  # no Gaussian value has a nonzero s-part
        return (self.c0 == other.c0 and self.c1 == other.c1
                and self.m == other.m)

    def __hash__(self):
        return hash((self.c0, self.c1, self.m))

    def to_complex(self) -> complex:
        # s under the principal branch: sqrt(|m|/2) * (1 - i*sign(m))
        q = math.sqrt(abs(self.m) / 2.0)
        root = complex(q, -q * _sign(self.m))
        return self.c0.to_complex() + self.c1.to_complex() * root

    def __repr__(self):
        return f"ExtendedScalar({self.c0!r}, {self.c1!r}, {self.m})"

    def __str__(self):
        return f"({self.c0}) + ({self.c1})*s[{self.m}]"


Scalar = Union[GaussianRational, ExtendedScalar]

_set = object.__setattr__


def _ext(c0: GaussianRational, c1: GaussianRational, m: int) -> Scalar:
    """c0 + c1*s for an arithmetic result, demoted to c0 when c1 = 0.

    c0 and c1 are GaussianRationals and m (or -m) is the parameter of an
    existing ExtendedScalar, so the checks of ``ExtendedScalar(...)`` would
    only repeat.
    """
    if c1.is_zero():
        return c0
    x = _new(ExtendedScalar)
    _set(x, "c0", c0)
    _set(x, "c1", c1)
    _set(x, "m", m)
    return x


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
    return _ext(ZERO, ONE, m)


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
