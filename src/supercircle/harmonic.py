"""Matrix coefficients as explicit function-algebra sections, and the exact
expansion of a section in those coefficients.

A section is a finite sum of terms t^m * mu where t is the circle coordinate
of the factorization chart, m an integer, and mu a monomial in the odd chart
coordinates (theta for the circle group, theta and eta for the unitary one).
Expansion inverts each nonzero weight's block of coefficient sections in
closed form, from the explicit matrix elements of V_m and pi_m^+, and reports
whatever falls outside the coefficient span as an exact residual instead of
forcing it to zero.  Reconstruction is the forward direction: it reads each
weight-m entry's section off the block's generators, with no matrix product.

:func:`matrix_coefficients` validates the representation it is given.
:func:`expand` builds no block.  It computes each weight's constants (the
root s = sqrt_neg_im(m), 1/s, i/s and 1/m) once per process, in
:func:`_weight_constants`, since the same weights recur across calls; they
are immutable scalars.  :func:`reconstruct` builds its blocks itself
(``make_V_m``, ``make_pi_m`` and the weight-zero blocks), once per label and
call, and does not re-validate them; the ``representation-identities`` check
of ``verify`` and the tests validate those constructors.  It keeps no block
across calls: per-weight tables were faster, but they wait on a leaner
benchmark runner, whose memory bound they broke (ROADMAP item 2).  Only the
weight-zero blocks still form generator products.  It takes exactly the
labels that :func:`expand` emits: on s11 ``("V", m)``, ``("trivial",)`` and
``("W",)``; on su11 ``("pi", m)``, ``("trivial",)`` and ``("adjoint",)``; m
is an int other than 0.  Any other label raises ValueError.
"""

from __future__ import annotations

from functools import lru_cache, partial, reduce
from operator import mul
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ._values import Frozen, Record, _brief, _fits, expect
from .grassmann import _add_into, _nonzero, _product
from .liealg import Representation, require_valid
from .linalg import Matrix
from .reps import (
    make_V_m,
    make_adjoint_su11,
    make_pi_m,
    make_trivial,
    make_weight_zero_s11,
)
from .scalars import (
    HALF,
    I,
    ONE,
    ZERO,
    ExtendedScalar,
    ExtensionMismatchError,
    GaussianRational,
    Scalar,
    as_scalar,
    scalar_from_json,
    scalar_to_json,
    sqrt_neg_im,
)

ODD_COORDS = {"s11": ("theta",), "su11": ("theta", "eta")}

TermKey = Tuple[int, int]  # (weight, odd-coordinate bitmask)
Label = Tuple  # ("V", m) | ("pi", m) | ("trivial",) | ("adjoint",) | ("W",)

# Each group's Peter-Weyl blocks: the weight-m label kind and builder, then
# the weight-zero label and builder; entry (0, k) of the weight-zero block is
# the odd monomial of mask k.  Builders look up the module names when called.
_BLOCKS = {
    "s11": ("V", lambda m: make_V_m(m),
            ("W",), lambda: make_weight_zero_s11("W")),
    "su11": ("pi", lambda m: make_pi_m(m, "+"),
             ("adjoint",), lambda: make_adjoint_su11()),
}


def _odd_coords(group: object) -> Tuple[str, ...]:
    """The odd chart coordinates of a group; the one check of a group tag."""
    if not isinstance(group, str) or group not in ODD_COORDS:
        raise ValueError("unknown group tag %s" % _brief(group))
    return ODD_COORDS[group]


def _mask(coords: Sequence[str], names: Sequence[str]) -> Optional[int]:
    """The bitmask of the named coordinates; None if a name repeats."""
    for name in names:
        if name not in coords:
            raise ValueError("unknown odd coordinate %s" % _brief(name))
    if len(set(names)) < len(names):
        return None
    return sum(1 << coords.index(name) for name in names)


class Section(Record):
    """A finitely supported function on the group chart.

    ``terms`` maps (weight, mask) to a nonzero scalar, where the mask selects
    odd coordinates by their index in ODD_COORDS[group].
    """

    __slots__ = ("group", "terms")

    def __init__(self, group: str, terms):
        """terms maps (weight, mask) to a coefficient or lists
        ((weight, mask), coefficient) pairs; equal keys are summed."""
        limit = 1 << len(_odd_coords(group))
        sums: Dict[TermKey, Scalar] = {}
        items = getattr(terms, "items", None)
        for (m, mask), c in (items() if items else terms):
            if not _fits(m, int):
                raise ValueError("weights must be integers")
            if not (_fits(mask, int) and 0 <= mask < limit):
                raise ValueError("odd monomial mask out of range")
            key = (m, mask)
            c = as_scalar(c)
            sums[key] = sums[key] + c if key in sums else c
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "terms", _nonzero(sums))

    @classmethod
    def _of(cls, group: str, terms: Dict[TermKey, Scalar]) -> "Section":
        """Wrap terms, a dict of valid (weight, mask) keys and scalars that
        the new section owns, dropping its zero coefficients; nothing is
        checked."""
        f = object.__new__(cls)
        object.__setattr__(f, "group", group)
        object.__setattr__(f, "terms", _nonzero(terms))
        return f

    @classmethod
    def zero(cls, group: str) -> "Section":
        return cls(group, {})

    @classmethod
    def monomial(cls, group: str, m: int, names: Sequence[str] = (),
                 coef: object = 1) -> "Section":
        """t^m times the product of the named odd coordinates (canonical
        order), times coef."""
        mask = _mask(_odd_coords(group), names)
        if mask is None:
            return cls.zero(group)
        return cls(group, {(m, mask): coef})

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, m: int, mask: int) -> Scalar:
        return self.terms.get((m, mask), ZERO)

    def weights(self) -> List[int]:
        return sorted({m for m, _ in self.terms})

    def _combine(self, other, negate: bool):
        if not isinstance(other, Section):
            return NotImplemented
        if other.group != self.group:
            raise ValueError("sections live on different groups")
        terms = dict(self.terms)
        _add_into(terms, other.terms, negate)
        return Section(self.group, terms)

    def __add__(self, other):
        return self._combine(other, False)

    def __sub__(self, other):
        return self._combine(other, True)

    def __neg__(self):
        return Section(self.group, {k: -c for k, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, Section):
            if other.group != self.group:
                raise ValueError("sections live on different groups")
            # t^m is the Laurent monomial of one even generator t, so the
            # Grassmann term kernel multiplies the terms lifted to ((m,), mask)
            product = _product(*({((m,), mask): c for (m, mask), c
                                  in f.terms.items()} for f in (self, other)))
            return Section(self.group, {
                (exps[0], mask): c for (exps, mask), c in product.items()})
        try:
            c = as_scalar(other)
        except TypeError:
            return NotImplemented
        return Section(self.group, {k: x * c for k, x in self.terms.items()})

    __rmul__ = __mul__

    def __repr__(self):
        parts = ["(%s)*%s" % (c, _monomial(self.group, m, mask))
                 for (m, mask), c in sorted(self.terms.items())]
        return "Section(%s)" % (" + ".join(parts) or "0")

    def to_json(self) -> dict:
        coords = ODD_COORDS[self.group]
        out = []
        for (m, mask), c in sorted(self.terms.items()):
            mono = [coords[i] for i in range(len(coords)) if mask & (1 << i)]
            out.append({"m": m, "mono": mono, "coef": scalar_to_json(c)})
        return {"group": self.group, "terms": out}


def _monomial(group: str, m: int, mask: int) -> str:
    """t^m times the odd coordinates that mask selects, as text."""
    coords = ODD_COORDS[group]
    return "t^%d" % m + "".join(
        "*" + coords[i] for i in range(len(coords)) if mask & (1 << i))


def section_from_json(obj: object) -> Section:
    obj = expect(obj, dict, "section JSON")
    coords = _odd_coords(obj.get("group"))
    items = []
    for entry in expect(obj.get("terms"), list, "section terms", dict):
        names = expect(entry.get("mono", []), list, "monomial", str)
        mask = _mask(coords, names)
        if mask is None:
            raise ValueError("repeated odd coordinate in monomial %s"
                             % _brief(names))
        items.append(((entry.get("m"), mask),
                      scalar_from_json(entry.get("coef"))))
    return Section(obj["group"], items)


def matrix_coefficients(rep: Representation) -> Dict[Tuple[int, int], Section]:
    """Each entry (i, j) of the point action as a Section.

    The action on a factorized point is the weight action followed by one
    nilpotent factor per odd generator, in the factorization order, so the
    coefficient of an odd monomial is the product of the generators it
    selects; for the unitary group that expands to
    t^m * (delta + theta*U + eta*S + theta*eta*(U*S)) entrywise.
    """
    require_valid(rep)
    products = _generator_products(rep)
    return {
        (i, j): Section(rep.algebra, {
            (rep.weights[i], mask): p[i, j] for mask, p in enumerate(products)
        })
        for i in range(rep.dim)
        for j in range(rep.dim)
    }


def _generator_products(rep: Representation) -> List[Matrix]:
    """For each odd mask, the product of the generators it selects, in the
    factorization order (the identity for mask 0)."""
    names = rep.generator_names
    products = []
    for mask in range(1 << len(names)):
        factors = [rep.odd[name] for k, name in enumerate(names) if mask >> k & 1]
        products.append(reduce(mul, factors) if factors
                        else Matrix.identity(rep.dim))
    return products


class ExpansionResult(Frozen):
    """Coefficients over (representation label, entry) plus an exact residual."""

    __slots__ = ("group", "coefficients", "residual")

    def __init__(self, group: str,
                 coefficients: Mapping[Tuple[Label, Tuple[int, int]], Scalar],
                 residual: Section):
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "coefficients", dict(coefficients))
        object.__setattr__(self, "residual", residual)

    def to_json(self) -> dict:
        out = []
        for (label, entry), c in sorted(
            self.coefficients.items(), key=lambda kv: _label_sort_key(kv[0])
        ):
            out.append({
                "rep": _label_to_json(label),
                "entry": list(entry),
                "coef": scalar_to_json(c),
            })
        return {
            "group": self.group,
            "coefficients": out,
            "residual": self.residual.to_json(),
        }


def _label_sort_key(key):
    label, entry = key
    if len(label) == 2:  # a weight-m block
        return (0, label[1], entry)
    return (1 if label == ("trivial",) else 2, 0, entry)


def _label_to_json(label: Label) -> dict:
    out = dict(zip(("type", "m"), label))
    if label[0] == "pi":
        out["sign"] = "+"
    return out


def _label_rep(label: object, group: str) -> Representation:
    """The block that label names, for a label that expand emits on group."""
    kind, weight_block, zero, zero_block = _BLOCKS[group]
    if (type(label) is tuple and len(label) == 2 and label[0] == kind
            and _fits(label[1], int) and label[1] != 0):
        return weight_block(label[1])
    if label == ("trivial",):
        return make_trivial(group, 1, 0)
    if label == zero:
        return zero_block()
    raise ValueError("unknown representation label %s" % _brief(label))


def expand(f: Section) -> ExpansionResult:
    """Exact coefficients of f over the spanning matrix coefficients.

    Each nonzero weight m is solved against the weight-m irreducible block
    by the closed-form inverse of :func:`_weight_solution`; the weight-zero
    component is read off against the trivial coefficient and the odd
    entries of the weight-zero indecomposable.  For the unitary group the
    weight-zero theta*eta monomial lies outside that span and is returned in
    the residual.
    """
    group = f.group
    masks = range(1 << len(ODD_COORDS[group]))
    kind = _BLOCKS[group][0]
    coefficients: Dict[Tuple[Label, Tuple[int, int]], Scalar] = {}
    residual_terms: Dict[TermKey, Scalar] = {}

    for m in f.weights():
        if m == 0:
            _expand_weight_zero(f, coefficients, residual_terms)
            continue
        constants = _weight_constants(m)
        rhs = [f.coefficient(m, mask) for mask in masks]
        try:
            solution = _weight_solution(group, constants, rhs)
        except ExtensionMismatchError:
            raise _extension_mismatch(f, m, constants[0]) from None
        for entry, x in solution:
            if not x.is_zero():
                coefficients[((kind, m), entry)] = x

    return ExpansionResult(group, coefficients,
                           Section._of(group, residual_terms))


# how many weights' constants a process keeps
_WEIGHT_CACHE_SIZE = 1024


@lru_cache(maxsize=_WEIGHT_CACHE_SIZE)
def _weight_constants(m: int) -> Tuple[Scalar, Scalar, Scalar,
                                       GaussianRational]:
    """s = sqrt_neg_im(m), 1/s, i/s and 1/m for a nonzero weight m; each is
    an immutable scalar, so every caller may share them."""
    root = sqrt_neg_im(m)
    s_inv = root.inverse()
    return root, s_inv, s_inv * I, GaussianRational(m).inverse()


def _weight_solution(group: str, constants: tuple,
                     r: Sequence[Scalar]) -> tuple:
    """The (entry, coefficient) pairs of the weight-m block for the mask
    coefficients r, where constants = _weight_constants(m): the block's
    system, inverted in closed form.

    V_m's mask products are I and Z = s*swap; pi_m^+'s are I, U = s*swap,
    S = i*s*[[0, -1], [1, 0]] and U*S = diag(m, -m).  Each odd coefficient
    is divided by s before odd coefficients mix, so a term over a foreign
    Q(i)[s] raises ExtensionMismatchError on exactly the inputs where
    elimination of the system raises it.  The Q(i)[s] constant is the left
    operand, so its own method does the product.
    """
    _, s_inv, i_s_inv, m_inv = constants
    if group == "s11":
        return (((0, 0), r[0]), ((0, 1), s_inv * r[1]))
    a, b = s_inv * r[1], i_s_inv * r[2]
    c = r[3] * m_inv
    return (((0, 0), (r[0] + c) * HALF), ((0, 1), (a + b) * HALF),
            ((1, 0), (a - b) * HALF), ((1, 1), (r[0] - c) * HALF))


def _extension_mismatch(f: Section, m: int,
                        root: Scalar) -> ExtensionMismatchError:
    """Name the weight-m term whose Q(i)[s] differs from that of the block's
    root sqrt_neg_im(m), or, when the root lies in Q(i), from that of an
    earlier term."""
    owner = (("the weight-%d matrix coefficients lie" % m, root.m)
             if isinstance(root, ExtendedScalar) else None)
    for mask in range(1 << len(ODD_COORDS[f.group])):
        c = f.coefficient(m, mask)
        if not isinstance(c, ExtendedScalar):
            continue
        name = "the coefficient of %s" % _monomial(f.group, m, mask)
        if owner is None:
            owner = (name + " lies", c.m)
        elif c.m != owner[1]:
            return ExtensionMismatchError(
                "%s (weight %d) lies in Q(i)[s] with m=%d, but %s in Q(i)[s] "
                "with m=%d" % (name, m, c.m, owner[0], owner[1]))
    return ExtensionMismatchError(
        "cannot mix extensions at weight %d" % m)


def _expand_weight_zero(f: Section, coefficients, residual_terms) -> None:
    """The constant goes to the trivial block, the odd monomial of mask k to
    entry (0, k) of the weight-zero block, and theta*eta to the residual."""
    zero = _BLOCKS[f.group][2]
    for mask in range(1 << len(ODD_COORDS[f.group])):
        c = f.coefficient(0, mask)
        if c.is_zero():
            continue
        if mask == 0:
            coefficients[(("trivial",), (0, 0))] = c
        elif mask.bit_count() == 1:
            coefficients[(zero, (0, mask))] = c
        else:
            residual_terms[(0, mask)] = c


def reconstruct(coefficients: Mapping[Tuple[Label, Tuple[int, int]], Scalar],
                group: str) -> Section:
    """The linear combination of matrix-coefficient sections; exact.  Any
    label that expand does not emit for group raises ValueError.

    A weight-m entry's section is read off its block's generators by
    :func:`_weight_entry`; a weight-zero entry's from the block's generator
    products, as :func:`matrix_coefficients` forms them.
    """
    _odd_coords(group)  # rejects an unknown tag
    terms: Dict[TermKey, Scalar] = {}
    blocks = {}  # label -> (weights, entry reader)
    for key, c in coefficients.items():
        if not (type(key) is tuple and len(key) == 2
                and type(key[1]) is tuple and len(key[1]) == 2):
            raise ValueError("coefficient key %s is not a (label, (i, j)) pair"
                             % _brief(key))
        label, entry = key
        if label not in blocks:
            rep = _label_rep(label, group)
            if len(label) == 2:  # a weight-m block: read off its generators
                read = partial(_weight_entry,
                               [rep.odd[name] for name in rep.generator_names])
            else:
                read = partial(_product_entry, _generator_products(rep))
            blocks[label] = (rep.weights, read)
        weights, read = blocks[label]
        i, j = entry
        if not (type(i) is int and type(j) is int
                and 0 <= i < len(weights) and 0 <= j < len(weights)):
            raise ValueError("coefficient key %s names no entry of its block"
                             % _brief(key))
        m = weights[i]
        try:  # the entry's section, as matrix_coefficients builds it, times c
            _add_into(terms, {(m, mask): x * c for mask, x in read(i, j)})
        except ExtensionMismatchError as exc:
            raise ExtensionMismatchError(
                "the coefficient of entry %r of %r: %s" % (entry, label, exc)
            ) from None
    return Section._of(group, terms)


def _weight_entry(odd: Sequence[Matrix], i: int,
                  j: int) -> List[Tuple[int, Scalar]]:
    """The nonzero (mask, value) pairs of entry (i, j) of a 1|1 weight-m
    block's mask products, read off its generators odd (in the factorization
    order) with no matrix product: the forward twin of :func:`_weight_solution`.

    Mask 0 is the identity and a one-generator mask is that generator.  Odd
    generators swap the even and the odd basis vector, so su11's U*S is
    diagonal, with (U*S)_ii = U[i, 1-i] * S[1-i, i].
    """
    pairs = [(0, ONE)] if i == j else []
    for k, g in enumerate(odd):
        x = g[i, j]
        if not x.is_zero():
            pairs.append((1 << k, x))
    if i == j and len(odd) == 2:
        u, s = odd
        pairs.append((3, u[i, 1 - i] * s[1 - i, i]))
    return pairs


def _product_entry(products: Sequence[Matrix], i: int,
                   j: int) -> List[Tuple[int, Scalar]]:
    """The (mask, value) pairs of entry (i, j) of the generator products."""
    return [(mask, p[i, j]) for mask, p in enumerate(products)]
