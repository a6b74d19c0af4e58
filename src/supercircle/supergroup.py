"""The 1|1 matrix supergroups, described once: tags and report names, su11's
defining matrices, coordinate rings and the file decoders that use them,
defining involutions, membership predicates, and the unique factorization
of a unitary point into a circle factor and two odd exponential factors.

Every identity here is decided by normal-form comparison in an explicit
coordinate ring.  The constrained rings eliminate the conjugate variables
(the generator sets carry star images), so the group relations hold
identically rather than modulo an ideal.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ._values import Record, _brief, expect
from .grassmann import (
    EVEN,
    ODD,
    GeneratorSet,
    GrassmannElement,
    _gens_from_json,
    _require_parity,
    element_from_json,
)
from .scalars import HALF, I, GaussianRational
from .supermatrix import SuperMatrix, berezinian, inverse_1_1

# Each group's tag in the layers and its name in reports and on the command
# line; the groups other than sl11 are the two isomers of SU(1|1).
GROUP_NAMES = {"sl11": "sl11", "su11": "su11", "su11_minus": "su11-minus"}


def defining_matrices() -> Dict[str, SuperMatrix]:
    """su11's basis (C, U, S) as 2x2 supermatrices; verify checks that they
    realize the bracket table of builtin_algebra("su11")."""
    gens = GeneratorSet([])
    grid = lambda rows: SuperMatrix.from_scalar_grid(gens, 1, 1, rows)
    return {
        "C": grid([[I, 0], [0, I]]),
        "U": grid([[0, 1], [-I, 0]]),
        "S": grid([[0, I], [-1, 0]]),
    }


class GL11Point(Record):
    """An invertible even 2x2 T-point [[a, beta], [gamma, d]].

    a and d are even with invertible even parts; beta and gamma are odd.
    Construction checks the parities and the invertibility, so membership
    predicates only ever have to test relations.
    """

    __slots__ = ("a", "beta", "gamma", "d")

    def __init__(self, a: GrassmannElement, beta: GrassmannElement,
                 gamma: GrassmannElement, d: GrassmannElement):
        gens = a.gens
        for name, x in (("a", a), ("beta", beta), ("gamma", gamma), ("d", d)):
            if x.gens != gens:
                raise ValueError("entries live over different generator sets")
        for name, x in (("a", a), ("d", d)):
            _require_parity("entry " + name, x, EVEN)
            x.invert()  # raises if the even part is not a unit
        for name, x in (("beta", beta), ("gamma", gamma)):
            _require_parity("entry " + name, x, ODD)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "d", d)

    @classmethod
    def identity(cls, gens: GeneratorSet) -> "GL11Point":
        one, zero = gens.one(), gens.zero()
        return cls(one, zero, zero, one)

    @classmethod
    def from_matrix(cls, m: SuperMatrix) -> "GL11Point":
        if (m.pdim, m.qdim) != (1, 1):
            raise ValueError("need a 1|1 supermatrix")
        return cls(m[0, 0], m[0, 1], m[1, 0], m[1, 1])

    def matrix(self) -> SuperMatrix:
        return SuperMatrix(1, 1, [[self.a, self.beta], [self.gamma, self.d]])

    def multiply(self, other: "GL11Point") -> "GL11Point":
        return GL11Point.from_matrix(self.matrix() * other.matrix())

    def inverse(self) -> "GL11Point":
        return GL11Point.from_matrix(inverse_1_1(self.matrix()))


# --- coordinate rings -----------------------------------------------------


def c11x_ring() -> Tuple[GeneratorSet, GrassmannElement, GrassmannElement]:
    """The unconstrained invertible 1|1 coordinates (w, eta) together with
    their formal conjugates; star swaps each generator with its partner."""
    base = GeneratorSet(["eta", "etabar"], pairing=[[0, 1]], even=["w", "wbar"])
    gens = base.with_star_images(
        [base.odd_gen("etabar"), base.odd_gen("eta")],
        [base.even_gen("wbar"), base.even_gen("w")],
    )
    return gens, gens.even_gen("w"), gens.odd_gen("eta")


def s11_chart_ring() -> Tuple[GeneratorSet, GrassmannElement, GrassmannElement]:
    """The reduced-circle chart: the fixed-point constraints are built into
    star, so star(w) = w^-1 and star(eta) = -i w^-2 eta identically."""
    base = GeneratorSet(["eta"], even=["w"])
    gens = base.with_star_images(
        [-I * base.even_gen("w", -2) * base.odd_gen("eta")],
        [base.even_gen("w", -1)],
    )
    return gens, gens.even_gen("w"), gens.odd_gen("eta")


def sl11_generic_ring() -> Tuple[GeneratorSet, GL11Point]:
    """A generic point with unit berezinian: d is eliminated through
    d = a - a^-1*beta*gamma, which makes Ber = 1 an identity."""
    base = GeneratorSet(
        ["beta", "betabar", "gamma", "gammabar"],
        pairing=[[0, 1], [2, 3]],
        even=["a", "abar"],
    )
    gens = base.with_star_images(
        [base.odd_gen(n) for n in ("betabar", "beta", "gammabar", "gamma")],
        [base.even_gen("abar"), base.even_gen("a")],
    )
    a = gens.even_gen("a")
    beta = gens.odd_gen("beta")
    gamma = gens.odd_gen("gamma")
    d = a - gens.even_gen("a", -1) * beta * gamma
    return gens, GL11Point(a, beta, gamma, d)


def _su11_star_sign(group: str) -> GaussianRational:
    if group == "su11":
        return -I
    if group == "su11_minus":
        return I
    raise ValueError("group must be su11 or su11_minus")


def su11_chart_ring(group: str = "su11", copies: int = 1,
                    ) -> Tuple[GeneratorSet, List[GL11Point]]:
    """Generic member points of the chosen unitary group.

    The conjugate of each even coordinate is eliminated through the defining
    constraint a*star(a)*(1 +- i*b*star(b)) = 1, so membership relations
    become identities of the ring.  ``copies`` independent points share one
    ring, which is what the closure checks need.
    """
    sign = _su11_star_sign(group)
    odd_names: List[str] = []
    pairing = []
    for k in range(copies):
        odd_names += ["b%d" % k, "b%dbar" % k]
        pairing.append([2 * k, 2 * k + 1])
    even_names = ["a%d" % k for k in range(copies)]
    base = GeneratorSet(odd_names, pairing=pairing, even=even_names)

    even_images = []
    for k in range(copies):
        b = base.odd_gen("b%d" % k)
        bbar = base.odd_gen("b%dbar" % k)
        # star(a) = a^-1*(1 + sign*b*bbar) follows from
        # a*star(a)*(1 - sign*b*bbar) = 1, as (b*bbar)^2 = 0
        even_images.append(base.even_gen("a%d" % k, -1) * (base.one() + sign * b * bbar))
    gens = base.with_star_images(
        [base.odd_gen(odd_names[i ^ 1]) for i in range(2 * copies)],
        even_images,
    )

    points = []
    for k in range(copies):
        a = gens.even_gen("a%d" % k)
        b = gens.odd_gen("b%d" % k)
        points.append(_member_point(group, a, b))
    return gens, points


def _member_point(group: str, a: GrassmannElement,
                  b: GrassmannElement) -> GL11Point:
    """The member point of the chosen group with upper row (a, b)."""
    gamma = _su11_star_sign(group) * b.star() * a * a
    return GL11Point(a, b, gamma, a.star().invert())


# --- decoding ------------------------------------------------------------


def _chart_gens(candidates: List[GeneratorSet], entry,
                star: bool) -> GeneratorSet:
    """The first of candidates with the names and pairing that the element
    JSON entry declares.  Star images are not serialized, so a file is
    attached to the chart ring that carries its group's constraints.  When
    none matches, star-free operations work on the declared set; with star
    that is an input fault, reported with the names the file must use."""
    decoded = _gens_from_json(entry)
    for gens in candidates:
        if gens.signature() == decoded.signature():
            return gens
    if star:
        raise ValueError(
            "the generator names match no chart ring, and star images are "
            "not serialized: the file must use %s"
            % " or ".join(", ".join(g.odd + g.even) for g in candidates))
    return decoded


def point_from_json(obj: object, group: Optional[str] = None, *,
                    star: bool = False) -> GL11Point:
    """Decode a point over the chart ring of group (sl11, su11 or
    su11_minus) when its names match, or else over the generator set of
    entry a.  With star, for an operation that reads star images, a point
    over other names raises ValueError naming the chart ring's generators."""
    if group is None:
        candidates = []
    elif group == "sl11":
        candidates = [sl11_generic_ring()[0]]
    elif group in ("su11", "su11_minus"):
        candidates = [su11_chart_ring(group)[0]]
    else:
        raise ValueError("unknown group tag %s" % _brief(group))
    obj = expect(obj, dict, "point JSON")
    entries = []
    for name in ("a", "beta", "gamma", "d"):
        if name not in obj:
            raise ValueError("point JSON is missing entry %r" % name)
        gens = (entries[0].gens if entries
                else _chart_gens(candidates, obj[name], star))
        entries.append(element_from_json(obj[name], gens))
    return GL11Point(*entries)


def pair_from_json(obj: object) -> Tuple[GrassmannElement, GrassmannElement]:
    """An invertible 1|1 coordinate pair {w, eta} for the circle involution,
    over c11x_ring or s11_chart_ring, whose names it must use: the
    involution reads star images."""
    if not isinstance(obj, dict) or "w" not in obj or "eta" not in obj:
        raise ValueError("expected an object with entries 'w' and 'eta'")
    gens = _chart_gens([c11x_ring()[0], s11_chart_ring()[0]], obj["w"], True)
    return element_from_json(obj["w"], gens), element_from_json(obj["eta"], gens)


# --- involutions ----------------------------------------------------------


def rho_s11(w: GrassmannElement, eta: GrassmannElement,
            ) -> Tuple[GrassmannElement, GrassmannElement]:
    """The defining real structure of the circle supergroup on (w, eta)
    coordinates: (w, eta) -> (star(w)^-1, i*star(w)^-2*star(eta))."""
    _require_parity("w", w, EVEN)
    _require_parity("eta", eta, ODD)
    wbar_inv = w.star().invert()
    return wbar_inv, I * wbar_inv * wbar_inv * eta.star()


def sigma_su(p: GL11Point) -> GL11Point:
    """The defining real structure of the unitary group on 2x2 points."""
    abar_inv = p.a.star().invert()
    sq = abar_inv * abar_inv
    return GL11Point(
        p.d.star().invert(),
        -I * sq * p.gamma.star(),
        -I * sq * p.beta.star(),
        abar_inv,
    )


# --- membership -----------------------------------------------------------


def membership(p: GL11Point, group: str) -> Tuple[bool, str]:
    """Exact membership test with a diagnostic naming the first violated
    relation; the diagnostic is "member" on success."""
    if group == "sl11":
        if berezinian(p.matrix()) == p.a.gens.one():
            return True, "member"
        return False, "berezinian differs from 1"
    if group not in ("su11", "su11_minus"):
        raise ValueError("group must be sl11, su11 or su11_minus")
    expected = _member_point(group, p.a, p.beta)
    if p.gamma != expected.gamma:
        return False, (
            "lower-left entry is not %si*star(beta)*a^2"
            % ("-" if group == "su11" else "")
        )
    if p.d != expected.d:
        return False, "lower-right entry is not star(a)^-1"
    gens = p.a.gens
    sign = _su11_star_sign(group)
    unit = p.a * p.a.star() * (gens.one() - sign * p.beta * p.beta.star())
    if unit != gens.one():
        return False, "defining constraint a*star(a)*(1 %s i*beta*star(beta)) != 1" % (
            "+" if group == "su11" else "-"
        )
    return True, "member"


# --- factorization --------------------------------------------------------


class FactorizationTriple(Record):
    """The circle coordinate and the two odd coordinates of a unitary point."""

    __slots__ = ("t", "theta", "eta")

    def __init__(self, t: GrassmannElement, theta: GrassmannElement,
                 eta: GrassmannElement):
        _require_parity("t", t, EVEN)
        _require_parity("theta", theta, ODD)
        _require_parity("eta", eta, ODD)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "eta", eta)


def factorize(p: GL11Point, group: str = "su11") -> FactorizationTriple:
    """Coordinates (t, theta, eta) with p = diag(t, star(t)^-1) *
    (1 + theta*U) * (1 + eta*S).

    One formula in the star sign sigma of the group (-i for su11, +i for
    the isomer): with P = i*sigma*star(beta)*a and Q = beta*star(a),
    t = a*(1 - (sigma/2)*beta*star(beta)), theta = (P + Q)/2 and
    eta = (i/2)*(P - Q).  Then star(x) = i*sigma*x for x = theta, eta
    (star-real for su11, star-imaginary for the isomer), which the verify
    report records rather than this function asserting it.
    """
    sign = _su11_star_sign(group)
    ok, diag = membership(p, group)
    if not ok:
        raise ValueError("not a member of %s: %s" % (group, diag))
    a, b = p.a, p.beta
    P = I * sign * b.star() * a
    Q = b * a.star()
    return FactorizationTriple(a * (b.gens.one() - HALF * sign * b * b.star()),
                               HALF * (P + Q), I * HALF * (P - Q))


def defactorize(t: GrassmannElement, theta: GrassmannElement,
                eta: GrassmannElement) -> GL11Point:
    """diag(t, star(t)^-1) * (1 + theta*U) * (1 + eta*S), expanded exactly.

    U and S are the odd matrices of defining_matrices(); the product of
    the two odd factors is
    [[1 - theta*eta, theta + i*eta], [-i*theta - eta, 1 + theta*eta]].
    """
    _require_parity("t", t, EVEN)
    one = t.gens.one()
    tbar_inv = t.star().invert()
    te = theta * eta
    return GL11Point(
        t * (one - te),
        t * (theta + I * eta),
        tbar_inv * (-I * theta - eta),
        tbar_inv * (one + te),
    )


def factorization_triple_ring(group: str = "su11",
                              ) -> Tuple[GeneratorSet, FactorizationTriple]:
    """Generic (t, theta, eta) with the reality types the factorization
    produces: star(t) = t^-1 always; theta and eta are star-real for su11
    and star-imaginary for the isomer."""
    base = GeneratorSet(["theta", "eta"], even=["t"])
    theta = base.odd_gen("theta")
    eta = base.odd_gen("eta")
    real = I * _su11_star_sign(group)
    gens = base.with_star_images([real * theta, real * eta],
                                 [base.even_gen("t", -1)])
    return gens, FactorizationTriple(
        gens.even_gen("t"), gens.odd_gen("theta"), gens.odd_gen("eta"))
