"""Exact Grassmann algebras with paired odd generators and an antilinear star.

Monomials are stored as bitmasks over the odd generators, optionally times a
Laurent monomial in declared invertible even generators (the group charts need
coordinates such as t, t^-1).  The star operation conjugates coefficients and
replaces every generator by a declared image; it extends multiplicatively, so
it is an algebra automorphism, not an antiautomorphism.

Every product runs through one private kernel, :func:`_mul_into`, which adds
each product of a left term and a right term into a term dict the caller
owns, with one fused multiply-add (``scalars._fma``) per pair; element
products, supermatrix entries, ``invert``, ``star`` and the Berezinian all
accumulate into such dicts and drop zero sums once, at the end.  Their
results are wrapped by the private ``GrassmannElement._of``, which neither
copies nor checks: its dict must hold only nonzero coefficients and must not
be shared with anything that may change it.  The public constructor
``GrassmannElement(gens, terms)`` copies its dict, coerces coefficients to
scalars, drops zeros, and checks that each monomial (exps, mask) has one
integer exponent per even generator and an integer mask below 2**len(odd).
"""

from __future__ import annotations

from operator import add
from typing import Dict, Mapping, Optional, Sequence, Tuple

from ._values import Frozen, _brief, _fits, expect
from .scalars import (
    GaussianRational,
    Scalar,
    _fma,
    as_scalar,
    scalar_from_json,
    scalar_to_json,
)

Monomial = Tuple[Tuple[int, ...], int]  # (even exponents, odd bitmask)

_new = object.__new__
_set = object.__setattr__

EVEN = "even"
ODD = "odd"
INHOMOGENEOUS = "inhomogeneous"


class GeneratorSet(Frozen):
    """Ordered odd generator names, an optional conjugation pairing, and
    optional invertible even generators.

    The pairing is an involution on odd indices marking conjugate pairs; fixed
    points are real generators.  Even generators have no default star; rings
    that need one get a copy with explicit images from with_star_images.
    Equality compares the names, the pairing and the star images; the hash
    and :meth:`signature` read the names and the pairing only, since a set
    decoded from JSON carries no star images.
    """

    __slots__ = ("odd", "even", "pairing", "_star_odd", "_star_even")

    def __init__(
        self,
        odd: Sequence[str],
        pairing: Optional[Sequence[Sequence[int]]] = None,
        even: Sequence[str] = (),
    ):
        odd = tuple(odd)
        even = tuple(even)
        names = odd + even
        if len(set(names)) != len(names):
            raise ValueError("generator names must be distinct")
        if len(odd) > 62:
            raise ValueError("too many odd generators for bitmask monomials")
        perm: Optional[Tuple[int, ...]] = None
        if pairing is not None:
            table = list(range(len(odd)))
            for cycle in pairing:
                if len(cycle) != 2 or not all(0 <= k < len(odd) for k in cycle):
                    raise ValueError("pairing must be an involution on odd indices")
                i, j = cycle
                table[i] = j
                table[j] = i
            perm = tuple(table)
            for i, j in enumerate(perm):
                if not 0 <= j < len(odd) or perm[j] != i:
                    raise ValueError("pairing must be an involution on odd indices")
        object.__setattr__(self, "odd", odd)
        object.__setattr__(self, "even", even)
        object.__setattr__(self, "pairing", perm)
        object.__setattr__(self, "_star_odd", None)
        object.__setattr__(self, "_star_even", None)

    def signature(self) -> tuple:
        return (self.odd, self.even, self.pairing)

    def __eq__(self, other):
        if not isinstance(other, GeneratorSet):
            return NotImplemented
        return self is other or (self.signature() == other.signature()
                                 and self._star_terms() == other._star_terms())

    def __hash__(self):
        return hash(self.signature())

    def __repr__(self):
        parts = [f"odd={list(self.odd)}"]
        if self.even:
            parts.append(f"even={list(self.even)}")
        if self.pairing is not None:
            parts.append(f"pairing={list(self.pairing)}")
        return f"GeneratorSet({', '.join(parts)})"

    def with_star_images(
        self,
        odd_images: Sequence["GrassmannElement"],
        even_images: Sequence["GrassmannElement"] = (),
    ) -> "GeneratorSet":
        """A copy of this set whose star sends each generator to the given
        image, an element of this set.

        The copy carries the images' terms as its own elements, and compares
        equal only to sets with the same names and the same images.  Used by
        the group chart rings, where star is determined by the defining
        constraints rather than by a plain generator swap.
        """
        if len(odd_images) != len(self.odd):
            raise ValueError("need one star image per odd generator")
        if len(even_images) != len(self.even):
            raise ValueError("need one star image per even generator")
        for img in tuple(odd_images) + tuple(even_images):
            if img.gens != self:
                raise ValueError("star images must live in this algebra")
        new = _new(GeneratorSet)
        for name in ("odd", "even", "pairing"):
            _set(new, name, getattr(self, name))
        for name, images in (("_star_odd", odd_images), ("_star_even", even_images)):
            _set(new, name, tuple(GrassmannElement._of(new, x.terms) for x in images))
        return new

    def _star_terms(self) -> Optional[tuple]:
        if self._star_odd is None:
            return None
        return tuple(x.terms for x in self._star_odd + self._star_even)

    def _odd_star_image(self, index: int) -> "GrassmannElement":
        if self._star_odd is not None:
            return self._star_odd[index]
        if self.pairing is not None:
            return self.odd_gen(self.odd[self.pairing[index]])
        raise ValueError("no pairing declared")

    def _even_star_image(self, index: int) -> "GrassmannElement":
        if self._star_even is not None:
            return self._star_even[index]
        raise ValueError("no star image declared for even generator "
                         + _brief(self.even[index]))

    # --- element constructors -------------------------------------------

    def _unit_exps(self) -> Tuple[int, ...]:
        return (0,) * len(self.even)

    def zero(self) -> "GrassmannElement":
        return GrassmannElement._of(self, {})

    def scalar(self, c) -> "GrassmannElement":
        c = as_scalar(c)
        if c.is_zero():
            return self.zero()
        return GrassmannElement._of(self, {(self._unit_exps(), 0): c})

    def one(self) -> "GrassmannElement":
        return self.scalar(1)

    def odd_gen(self, name: str) -> "GrassmannElement":
        idx = self.odd.index(name)
        return GrassmannElement._of(
            self, {(self._unit_exps(), 1 << idx): GaussianRational(1, 0)}
        )

    def even_gen(self, name: str, power: int = 1) -> "GrassmannElement":
        idx = self.even.index(name)
        exps = [0] * len(self.even)
        exps[idx] = power
        return GrassmannElement._of(self, {(tuple(exps), 0): GaussianRational(1, 0)})

    def element(self, terms: Mapping[Monomial, object]) -> "GrassmannElement":
        return GrassmannElement(self, terms)


def _merge_sign(left_mask: int, right_mask: int) -> int:
    """Parity of the shuffle that sorts the concatenation of two ascending
    monomials: each right generator moves past every larger left generator."""
    sign = 0
    mask = right_mask
    while mask:
        low = mask & -mask
        j = low.bit_length() - 1
        sign ^= (left_mask >> (j + 1)).bit_count() & 1
        mask ^= low
    return sign


# _merge_sign by (left mask, right mask).  It is a pure function of the two
# masks, so one memo serves every generator set; it stops growing once it
# holds every pair of masks over six generators.
_SIGNS: Dict[Tuple[int, int], int] = {}
_SIGNS_MAX = 1 << 12


def _mul_into(out: Dict[Monomial, Scalar], left: Mapping[Monomial, Scalar],
              right: Mapping[Monomial, Scalar], negate: bool = False) -> None:
    """Add (or, with negate, subtract) every product of a left term and a
    right term into out, one :func:`~supercircle.scalars._fma` per pair.

    The sums may reach zero; callers drop zeros once with :func:`_nonzero`.
    """
    signs, fma = _SIGNS, _fma
    for (e1, m1), c1 in left.items():
        for (e2, m2), c2 in right.items():
            if m1 & m2:
                continue
            odd = signs.get((m1, m2))
            if odd is None:
                odd = _merge_sign(m1, m2)
                if len(signs) < _SIGNS_MAX:
                    signs[(m1, m2)] = odd
            # without even generators every exponent tuple is ()
            key = (tuple(map(add, e1, e2)) if e1 else e1, m1 | m2)
            out[key] = fma(out.get(key), c1, c2, odd ^ negate)


def _add_into(out: Dict[Monomial, Scalar], terms: Mapping[Monomial, Scalar],
              negate: bool = False) -> None:
    """Add (or, with negate, subtract) terms into out; zeros stay."""
    for key, c in terms.items():
        acc = out.get(key)
        if acc is None:
            out[key] = -c if negate else c
        else:
            out[key] = acc - c if negate else acc + c


def _nonzero(terms: Dict[Monomial, Scalar]) -> Dict[Monomial, Scalar]:
    """Drop the zero coefficients of terms in place and return it."""
    for key in [key for key, c in terms.items() if c.is_zero()]:
        del terms[key]
    return terms


def _product(left: Mapping[Monomial, Scalar],
             right: Mapping[Monomial, Scalar]) -> Dict[Monomial, Scalar]:
    """The nonzero terms of left times right, in a new dict."""
    out: Dict[Monomial, Scalar] = {}
    _mul_into(out, left, right)
    return _nonzero(out)


def _inverse_terms(terms: Mapping[Monomial, Scalar],
                   n_odd: int) -> Dict[Monomial, Scalar]:
    """The nonzero terms of the inverse of an even element over n_odd odd
    generators, in a new dict; see :meth:`GrassmannElement.invert`, which
    checks the parity that this trusts."""
    unit_terms = {k: c for k, c in terms.items() if k[1] == 0}
    if len(unit_terms) != 1:
        # A sum of distinct Laurent monomials has no Laurent-polynomial
        # inverse; the pure-Grassmann case lands here when the body is 0.
        raise ValueError("not invertible")
    ((exps, _mask), coef), = unit_terms.items()
    u_inv = {(tuple(-e for e in exps), 0): coef.inverse()}
    v = _product(u_inv, {k: c for k, c in terms.items() if k[1] != 0})
    # x^-1 = u^-1 (1 - v + v^2 - ...) with power_k = u^-1 v^k, since the
    # unit u^-1 is central; v is nilpotent of index at most the number of
    # odd generators plus one.
    result = dict(u_inv)
    power = u_inv
    for k in range(1, n_odd + 1):
        power = _product(power, v)
        if not power:
            break
        _add_into(result, power, negate=k % 2 == 1)
    return _nonzero(result)


class GrassmannElement(Frozen):
    """A finitely supported map from monomials to nonzero scalars."""

    __slots__ = ("gens", "terms")

    def __init__(self, gens: GeneratorSet, terms: Mapping[Monomial, object]):
        n_even, limit = len(gens.even), 1 << len(gens.odd)
        out: Dict[Monomial, Scalar] = {}
        for (exps, mask), c in terms.items():
            exps = tuple(exps)
            if len(exps) != n_even:
                raise ValueError("even exponent vector has wrong length")
            if not all(_fits(e, int) for e in exps):
                raise ValueError("even exponents must be integers")
            if not (_fits(mask, int) and 0 <= mask < limit):
                raise ValueError("odd monomial mask out of range")
            c = as_scalar(c)
            if not c.is_zero():
                out[(exps, mask)] = c
        _set(self, "gens", gens)
        _set(self, "terms", out)

    @classmethod
    def _of(cls, gens: GeneratorSet, terms: Dict[Monomial, Scalar]) -> "GrassmannElement":
        """Wrap terms without copying; every coefficient is nonzero and the
        dict is owned by the new element."""
        x = _new(cls)
        _set(x, "gens", gens)
        _set(x, "terms", terms)
        return x

    def _check_compatible(self, other: "GrassmannElement") -> None:
        if self.gens != other.gens:
            raise ValueError("mismatched generator sets")

    def is_zero(self) -> bool:
        return not self.terms

    def body(self) -> Scalar:
        """Coefficient of the empty monomial."""
        return self.terms.get((self.gens._unit_exps(), 0), GaussianRational(0, 0))

    def parity(self) -> str:
        if not self.terms:
            return EVEN
        parities = {mask.bit_count() & 1 for _, mask in self.terms}
        if parities == {0}:
            return EVEN
        if parities == {1}:
            return ODD
        return INHOMOGENEOUS

    def coefficient(self, key: Monomial) -> Scalar:
        return self.terms.get((tuple(key[0]), key[1]), GaussianRational(0, 0))

    # --- ring operations --------------------------------------------------

    def _combine(self, other, negate: bool):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        _add_into(out, other.terms, negate)
        return GrassmannElement._of(self.gens, _nonzero(out))

    def __add__(self, other):
        return self._combine(other, False)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, True)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return GrassmannElement._of(self.gens, {k: -c for k, c in self.terms.items()})

    def _coerce(self, other) -> Optional["GrassmannElement"]:
        if isinstance(other, GrassmannElement):
            self._check_compatible(other)
            return other
        try:
            return self.gens.scalar(as_scalar(other))
        except TypeError:
            return None

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return GrassmannElement._of(self.gens, _product(self.terms, other.terms))

    # a scalar factor is central; elements handle themselves in __mul__
    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.invert() ** (-n)
        result = self.gens.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def invert(self) -> "GrassmannElement":
        """Multiplicative inverse of an even element with invertible even part.

        Writes x = u*(1 + v) with u a single invertible even monomial and v
        nilpotent; the geometric series for (1 + v)^-1 terminates after at
        most one step per odd generator.
        """
        p = self.parity()
        if p != EVEN:
            raise ValueError(f"cannot invert element of parity {p}")
        return GrassmannElement._of(self.gens,
                                    _inverse_terms(self.terms, len(self.gens.odd)))

    def star(self) -> "GrassmannElement":
        """Antilinear algebra automorphism.

        Conjugates every coefficient and replaces each generator by its star
        image (the paired generator by default), multiplying images in the
        generator order of the monomial.
        """
        gens = self.gens
        out: Dict[Monomial, Scalar] = {}
        # star image powers by (even index, exponent), shared across terms
        powers: Dict[Tuple[int, int], GrassmannElement] = {}
        for (exps, mask), c in self.terms.items():
            term = {(gens._unit_exps(), 0): c.conjugate()}
            factors = []
            for idx, e in enumerate(exps):
                if e:
                    power = powers.get((idx, e))
                    if power is None:
                        power = powers[(idx, e)] = gens._even_star_image(idx) ** e
                    factors.append(power)
            m = mask
            while m:
                low = m & -m
                factors.append(gens._odd_star_image(low.bit_length() - 1))
                m ^= low
            for factor in factors:
                term = _product(term, factor.terms)
            _add_into(out, term)
        return GrassmannElement._of(gens, _nonzero(out))

    def __eq__(self, other):
        if isinstance(other, GrassmannElement):
            if self.gens != other.gens:
                return False
            if self.terms.keys() != other.terms.keys():
                return False
            return all(other.terms[k] == c for k, c in self.terms.items())
        try:
            c = as_scalar(other)
        except TypeError:
            return NotImplemented
        return self == self.gens.scalar(c)

    def __hash__(self):
        raise TypeError("GrassmannElement is unhashable; compare with ==")

    def __repr__(self):
        if not self.terms:
            return "<0>"
        bits = []
        for (exps, mask) in sorted(self.terms, key=lambda k: (k[1].bit_count(), k)):
            c = self.terms[(exps, mask)]
            factors = []
            for idx, e in enumerate(exps):
                if e:
                    factors.append(f"{self.gens.even[idx]}^{e}" if e != 1 else self.gens.even[idx])
            m = mask
            while m:
                low = m & -m
                factors.append(self.gens.odd[low.bit_length() - 1])
                m ^= low
            mono = "*".join(factors) if factors else "1"
            bits.append(f"({c})*{mono}")
        return " + ".join(bits)

    # --- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        gens = self.gens
        obj: dict = {"gens": list(gens.odd)}
        if gens.pairing is not None:
            cycles = sorted({tuple(sorted((i, j))) for i, j in enumerate(gens.pairing) if i != j})
            obj["pairing"] = [list(c) for c in cycles]
        if gens.even:
            obj["evens"] = list(gens.even)
        terms = []
        for (exps, mask) in sorted(self.terms, key=lambda k: (k[1], k[0])):
            entry: dict = {
                "mono": [i for i in range(len(gens.odd)) if mask >> i & 1],
                "coef": scalar_to_json(self.terms[(exps, mask)]),
            }
            if any(exps):
                entry["powers"] = list(exps)
            terms.append(entry)
        obj["terms"] = terms
        return obj


def _require_parity(name: str, x: GrassmannElement, parity: str) -> None:
    """A ValueError "<name> must be <parity>" unless x is zero or of parity."""
    if not x.is_zero() and x.parity() != parity:
        raise ValueError("%s must be %s" % (name, parity))


def _gens_from_json(obj) -> GeneratorSet:
    """The generator set a Grassmann element's JSON object declares."""
    if not isinstance(obj, dict) or "gens" not in obj or "terms" not in obj:
        raise ValueError("malformed Grassmann element")
    pairing = obj.get("pairing")
    if pairing is not None:
        for cycle in expect(pairing, list, "pairing"):
            expect(cycle, list, "pairing entry", int)
    return GeneratorSet(
        expect(obj["gens"], list, "gens", str),
        pairing=pairing,
        even=expect(obj.get("evens", []), list, "evens", str),
    )


def element_from_json(obj, gens: Optional[GeneratorSet] = None) -> GrassmannElement:
    """Decode an element; reuse gens if supplied (they must agree).

    Terms with the same monomial are summed.
    """
    decoded = _gens_from_json(obj)
    if gens is None:
        gens = decoded
    elif gens.signature() != decoded.signature():
        raise ValueError("generator sets disagree across entries")
    terms: Dict[Monomial, Scalar] = {}
    for entry in expect(obj["terms"], list, "Grassmann terms", dict):
        mask = 0
        for i in expect(entry.get("mono"), list, "monomial", int):
            if not 0 <= i < len(gens.odd):
                raise ValueError(f"monomial index {_brief(i)} out of range")
            if mask >> i & 1:
                raise ValueError("repeated generator in monomial")
            mask |= 1 << i
        powers = entry.get("powers", [0] * len(gens.even))
        key = (tuple(expect(powers, list, "powers", int)), mask)
        coef = scalar_from_json(entry.get("coef"))
        terms[key] = coef if key not in terms else terms[key] + coef
    return GrassmannElement(gens, terms)
