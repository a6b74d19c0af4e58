"""Structure-constant tables for the two Lie superalgebras and the
machinery that checks a proposed representation against them.

The even generator acts diagonally with purely imaginary integer eigenvalues,
so a representation never stores its matrix: the integer weight vector is the
matrix.  Everything else (the odd generators) is stored explicitly and checked
against the bracket table.  The algebras are given by their tables alone:
su11's defining 2x2 supermatrices belong to the group layer, in
``supergroup.defining_matrices``, so this layer and ``reps`` above it load
neither ``grassmann`` nor ``supermatrix``.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ._values import Frozen, Record, _brief, _fits, expect
from .linalg import Matrix, _product_rows, matrix_from_json, matrix_to_json
from .scalars import ZERO, ExtendedScalar, GaussianRational, Scalar

ODD_GENERATORS = {"s11": ("Z",), "su11": ("U", "S")}


def _odd_generators(algebra: object) -> Tuple[str, ...]:
    """The odd generator names of an algebra; the one check of its tag."""
    if not isinstance(algebra, str) or algebra not in ODD_GENERATORS:
        raise ValueError("unknown algebra tag %s" % _brief(algebra))
    return ODD_GENERATORS[algebra]


def _parity_tuple(parities: Sequence[int]) -> Tuple[int, ...]:
    parities = tuple(parities)
    if any(not _fits(p, int) or p not in (0, 1) for p in parities):
        raise ValueError("parities must be the integers 0 or 1")
    return parities


class LieSuperAlgebra(Frozen):
    """A finite-dimensional Lie superalgebra given by structure constants.

    ``brackets`` maps a pair of basis indices (i, j) to the coefficient
    vector of [x_i, x_j]; omitted pairs bracket to zero.  Construction
    validates super-antisymmetry and the graded Jacobi identity, so a
    successfully built instance is always a genuine Lie superalgebra.
    """

    __slots__ = ("names", "parities", "brackets")

    def __init__(
        self,
        names: Sequence[str],
        parities: Sequence[int],
        brackets: Mapping[Tuple[int, int], Sequence[int]],
    ):
        names = tuple(names)
        parities = _parity_tuple(parities)
        if len(names) != len(parities):
            raise ValueError("names and parities must have equal length")
        n = len(names)
        table: Dict[Tuple[int, int], Tuple[int, ...]] = {}
        for (i, j), vec in brackets.items():
            if not (_fits(i, int) and _fits(j, int)
                    and 0 <= i < n and 0 <= j < n):
                raise ValueError("bracket index out of range")
            vec = tuple(vec)
            if not all(_fits(c, int) for c in vec):
                raise ValueError("structure constants must be integers")
            if len(vec) != n:
                raise ValueError("bracket coefficient vector has wrong length")
            if any(vec):
                table[(i, j)] = vec
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "parities", parities)
        object.__setattr__(self, "brackets", table)
        self._check_antisymmetry()
        self._check_jacobi()

    @property
    def dim(self) -> int:
        return len(self.names)

    def bracket(self, i: int, j: int) -> Tuple[int, ...]:
        return self.brackets.get((i, j), (0,) * self.dim)

    def _bracket_vec(self, i: int, vec: Sequence[int]) -> Tuple[int, ...]:
        """[x_i, v] for a coefficient vector v, extended bilinearly."""
        out = [0] * self.dim
        for j, c in enumerate(vec):
            if c:
                for k, b in enumerate(self.bracket(i, j)):
                    out[k] += c * b
        return tuple(out)

    def _check_antisymmetry(self) -> None:
        n = self.dim
        for i in range(n):
            for j in range(n):
                sign = -1 if (self.parities[i] and self.parities[j]) else 1
                lhs = self.bracket(i, j)
                rhs = self.bracket(j, i)
                if any(a + sign * b for a, b in zip(lhs, rhs)):
                    raise ValueError(
                        "structure constants are not super-antisymmetric "
                        "at (%s, %s)" % (self.names[i], self.names[j])
                    )

    def _check_jacobi(self) -> None:
        n = self.dim
        p = self.parities
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    s1 = -1 if (p[i] and p[k]) else 1
                    s2 = -1 if (p[j] and p[i]) else 1
                    s3 = -1 if (p[k] and p[j]) else 1
                    t1 = self._bracket_vec(i, self.bracket(j, k))
                    t2 = self._bracket_vec(j, self.bracket(k, i))
                    t3 = self._bracket_vec(k, self.bracket(i, j))
                    total = [
                        s1 * a + s2 * b + s3 * c
                        for a, b, c in zip(t1, t2, t3)
                    ]
                    if any(total):
                        raise ValueError(
                            "graded Jacobi identity fails at (%s, %s, %s)"
                            % (self.names[i], self.names[j], self.names[k])
                        )

    def __repr__(self):
        return "LieSuperAlgebra(%r)" % (self.names,)


def builtin_algebra(tag: str) -> LieSuperAlgebra:
    """The two built-in tables, keyed by the group they differentiate.

    ``s11``: basis (C, Z), C even and central, [Z, Z] = -2C.
    ``su11``: basis (C, U, S), C central, [U, U] = [S, S] = -2C, [U, S] = 0;
    its defining 2x2 matrices are ``supergroup.defining_matrices()``.
    """
    _odd_generators(tag)  # rejects an unknown tag
    if tag == "s11":
        return LieSuperAlgebra(
            ("C", "Z"), (0, 1), {(1, 1): (-2, 0)}
        )
    return LieSuperAlgebra(
        ("C", "U", "S"),
        (0, 1, 1),
        {(1, 1): (-2, 0, 0), (2, 2): (-2, 0, 0)},
    )


class Representation(Record):
    """A finite-dimensional representation of one of the built-in algebras.

    The central even generator acts as diag(i * weights[j]); only the odd
    generator matrices are stored.  Matrices act on column vectors, so column
    j of ``odd[name]`` is the image of basis vector j.  Construction checks
    that ``odd`` holds exactly the algebra's odd generators, each a dim x dim
    Matrix.
    """

    __slots__ = ("algebra", "parities", "weights", "odd")

    def __init__(
        self,
        algebra: str,
        parities: Sequence[int],
        weights: Sequence[int],
        odd: Mapping[str, Matrix],
    ):
        names = _odd_generators(algebra)
        parities = _parity_tuple(parities)
        weights = tuple(weights)
        if not all(_fits(m, int) for m in weights):
            raise ValueError("weights must be integers")
        n = len(parities)
        if n != len(weights):
            raise ValueError("parity and weight vectors must have equal length")
        odd = dict(odd)
        for name in names:
            if name not in odd:
                raise ValueError("missing generator matrix %s" % name)
            mat = odd[name]
            if not isinstance(mat, Matrix):
                raise TypeError("generator %s must be a Matrix, not %s"
                                % (name, type(mat).__name__))
            if mat.shape != (n, n):
                raise ValueError("generator %s has wrong shape" % name)
        if len(odd) != len(names):
            raise ValueError("unknown generator %s" % _brief(
                next(name for name in odd if name not in names)))
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "parities", parities)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "odd", odd)

    @classmethod
    def _of(cls, algebra: str, parities: Tuple[int, ...],
            weights: Tuple[int, ...],
            odd: Dict[str, Matrix]) -> "Representation":
        """Wrap fields that are valid by construction, without checking or
        copying them: a built-in algebra tag, tuples of 0/1 parities and of
        integer weights of one length n, and a dict the new representation
        owns of exactly the algebra's odd generators, each an n x n Matrix."""
        rep = object.__new__(cls)
        object.__setattr__(rep, "algebra", algebra)
        object.__setattr__(rep, "parities", parities)
        object.__setattr__(rep, "weights", weights)
        object.__setattr__(rep, "odd", odd)
        return rep

    @property
    def dim(self) -> int:
        return len(self.parities)

    @property
    def generator_names(self) -> Tuple[str, ...]:
        return ODD_GENERATORS[self.algebra]

    def restrict(self, indices: Sequence[int]) -> "Representation":
        """The subrepresentation spanned by the listed basis indices, in the
        listed order.

        The indices must be distinct, in range, and a union of weight blocks
        (every index of a weight, or none), since the odd generators keep
        weights; anything else raises ValueError.  The check is O(dim).
        """
        idx = tuple(indices)
        n = self.dim
        taken = [False] * n
        for i in idx:
            if not (_fits(i, int) and 0 <= i < n):
                raise ValueError("basis index %s out of range for dimension %d"
                                 % (_brief(i), n))
            if taken[i]:
                raise ValueError("basis index %d repeats" % i)
            taken[i] = True
        block_taken: Dict[int, bool] = {}
        for i, m in enumerate(self.weights):
            if block_taken.setdefault(m, taken[i]) != taken[i]:
                raise ValueError("the indices split the weight block m=%d; "
                                 "restrict takes a union of weight blocks" % m)
        odd = {name: m._submatrix(idx, idx) for name, m in self.odd.items()}
        return Representation._of(
            self.algebra,
            tuple(self.parities[i] for i in idx),
            tuple(self.weights[i] for i in idx),
            odd,
        )

    def __repr__(self):
        return "Representation(%r, dim=%d|%d)" % (
            self.algebra,
            sum(1 for p in self.parities if p == 0),
            sum(1 for p in self.parities if p == 1),
        )

    def to_json(self) -> dict:
        out = {
            "algebra": self.algebra,
            "basis": [
                {"parity": p, "weight": m}
                for p, m in zip(self.parities, self.weights)
            ],
        }
        for name in self.generator_names:
            out[name] = matrix_to_json(self.odd[name])
        return out


def representation_from_json(obj: object) -> Representation:
    obj = expect(obj, dict, "representation JSON")
    names = _odd_generators(obj.get("algebra"))
    basis = expect(obj.get("basis"), list, "basis", dict)
    odd = {name: matrix_from_json(obj[name]) for name in names if name in obj}
    return Representation(obj["algebra"], [e.get("parity") for e in basis],
                          [e.get("weight") for e in basis], odd)


def _first_violation(pairs: Sequence[Tuple[Matrix, Matrix]],
                     rows: Sequence[int], diagonal: Sequence[Scalar], weights,
                     relation: str) -> Optional[str]:
    """The first row-major entry, on the listed rows, where the sum of the
    products left * right over the pairs differs from diag(diagonal); each
    row is accumulated from the factors' nonzero patterns and then tested."""
    for i, row in zip(rows, _product_rows(pairs, rows)):
        wrong = [j for j, x in row.items() if j != i and not x.is_zero()]
        x, d = row.get(i, ZERO), diagonal[i]
        if x is not d and x != d:
            wrong.append(i)
        if wrong:
            return "%s at weight block m=%s (entry (%d,%d))" % (
                relation, weights[i], i, min(wrong))
    return None


def _unimplied_rows(rep: Representation) -> List[int]:
    """The rows of the relation products that the other rows do not imply:
    even rows, weight-zero rows, and the rows of nonzero-weight blocks whose
    even and odd parts differ in size.

    In a block of weight m != 0 with k even and k odd vectors, an odd
    generator is [[0, A], [B, 0]] with k x k blocks.  Its even rows give
    A*B = c*I with c = -i*m != 0, so B = c*A^-1 and the odd rows B*A = c*I
    hold too.  On su11 the even rows of U*S + S*U = 0 give X^2 = -I for
    X = A_U*A_S^-1, and the odd rows, c*(Y + Y^-1) for Y = A_U^-1*A_S, which
    is conjugate to X^-1, vanish too.
    """
    balance: Dict[int, int] = defaultdict(int)
    for p, m in zip(rep.parities, rep.weights):
        balance[m] += 1 - 2 * p
    return [i for i, (p, m) in enumerate(zip(rep.parities, rep.weights))
            if p == 0 or m == 0 or balance[m]]


def _relation_problems(rep: Representation, rows: Sequence[int],
                       minus_ic: Sequence[Scalar]) -> List[str]:
    """The violated bracket relations, read on the listed rows, for the
    diagonal D = minus_ic of -i*m (s^2 on verify's generic blocks).  The su11
    square (U*S)^2 is checked only on all rows and only when another relation
    failed, and only then is U*S formed as a matrix: U^2 = S^2 = D and
    US + SU = 0 give (US)^2 = -U^2 S^2 = -D^2, which is diag(m^2)."""
    problems: List[str] = []

    def check(pairs, diagonal, relation):
        msg = _first_violation(pairs, rows, diagonal, rep.weights, relation)
        if msg:
            problems.append(msg)

    for name in rep.generator_names:
        mat = rep.odd[name]
        check([(mat, mat)], minus_ic, "%s^2 != -i*m" % name)
    if rep.algebra == "su11":
        u = rep.odd["U"]
        s = rep.odd["S"]
        check([(u, s), (s, u)], [ZERO] * rep.dim, "U*S + S*U != 0")
        if problems and len(rows) == rep.dim:
            us = u * s
            check([(us, us)], [-d * d for d in minus_ic], "(U*S)^2 != m^2")
    return problems


def validate_representation(rep: Representation) -> List[str]:
    """All violated defining relations, as human-readable strings.

    An empty list means the data is a genuine representation.  The
    constructor has already checked that each generator is present and has
    shape dim x dim.  The checks, in order: odd parity structure, weight
    preservation (equivalently, commutation with the central generator), one
    extension Q(i)[s] per linked set of basis vectors, and the bracket
    relations including the su11 anticommutator and its diagonal square.
    Two basis vectors are linked when some generator has a nonzero entry
    between them; the relations multiply and add only entries of one linked
    set, so a direct sum may write equal weights over different extensions.
    Only the last step does arithmetic.  It accumulates each relation row
    from the generators' nonzero patterns, with no product matrix, and only
    on the rows the other rows do not imply: even rows, weight-zero rows, and
    the rows of nonzero-weight blocks whose even and odd parts differ in
    size.  If one of those fails, it checks every row, and the su11 square
    (U*S)^2, which the other relations imply; so the problem list is the one
    a check of every row of every relation gives.
    """
    problems = _structure_problems(rep)
    if problems:
        return problems
    # a zero diagonal entry is the shared ZERO, which an empty row meets by
    # identity in _first_violation
    minus_ic = [GaussianRational(0, -m) if m else ZERO for m in rep.weights]
    checked = _unimplied_rows(rep)
    problems = _relation_problems(rep, checked, minus_ic)
    if problems and len(checked) < rep.dim:
        # the other rows are implied only when all checked rows hold
        problems = _relation_problems(rep, range(rep.dim), minus_ic)
    return problems


def _structure_problems(rep: Representation) -> List[str]:
    """The problems of validate_representation found before any arithmetic:
    odd parity, weight preservation and one extension per linked set."""
    problems: List[str] = []
    n = rep.dim
    link = list(range(n))  # union-find over basis vectors

    def root(k: int) -> int:
        while link[k] != k:
            link[k] = link[link[k]]
            k = link[k]
        return k

    extended: List[Tuple[str, int, int, int]] = []
    for name in rep.generator_names:
        for i, row in enumerate(rep.odd[name]._nonzeros()):
            for j, x in row:
                link[root(i)] = root(j)
                if isinstance(x, ExtendedScalar):
                    extended.append((name, i, j, x.m))
                if rep.parities[i] == rep.parities[j]:
                    problems.append(
                        "generator %s entry (%d,%d) connects equal parities"
                        % (name, i, j)
                    )
                if rep.weights[i] != rep.weights[j]:
                    problems.append(
                        "generator %s entry (%d,%d) connects weights %d and %d"
                        % (name, i, j, rep.weights[i], rep.weights[j])
                    )
    if problems:
        return problems

    first_ext: Dict[int, Tuple[str, int, int, int]] = {}
    for name, i, j, m in extended:
        seen = first_ext.setdefault(root(i), (name, i, j, m))
        if seen[3] != m:
            problems.append(
                "generator %s entry (%d,%d) has Q(i)[s] parameter m=%d, but "
                "generator %s entry (%d,%d), linked to it in weight block "
                "m=%d, has m=%d"
                % (name, i, j, m, *seen[:3], rep.weights[i], seen[3])
            )
    return problems


def require_valid(rep: Representation) -> None:
    """Raise ValueError naming every violated relation, if there is one."""
    problems = validate_representation(rep)
    if problems:
        raise ValueError("representation is not valid: " + "; ".join(problems))


def find_even_intertwiners(
    rep1: Representation, rep2: Representation
) -> List[Matrix]:
    """A basis for the even maps F with F.r1(X) = r2(X).F for all generators.

    F is supported on entries whose row and column agree in parity and in
    weight; everything else is forced to zero by evenness and by commutation
    with the central generator, so those entries are not unknowns at all.
    The remaining linear system is solved exactly and the kernel basis is
    returned as a list of dim(rep2) x dim(rep1) matrices.
    """
    if rep1.algebra != rep2.algebra:
        raise ValueError("representations live over different algebras")
    n1, n2 = rep1.dim, rep2.dim
    unknowns = [
        (i, j)
        for i in range(n2)
        for j in range(n1)
        if rep2.parities[i] == rep1.parities[j]
        and rep2.weights[i] == rep1.weights[j]
    ]
    # one equation per (generator, r, c) of F.X1 - X2.F: the unknown F[i, j]
    # enters (F.X1)[i, c] with X1[j, c] and (X2.F)[r, j] with X2[r, i]
    equations: Dict[Tuple[int, int, int], List[Scalar]] = defaultdict(
        lambda: [ZERO] * len(unknowns))
    for g, name in enumerate(rep1.generator_names):
        x1 = rep1.odd[name]._nonzeros()
        x2t = rep2.odd[name].transpose()._nonzeros()
        for k, (i, j) in enumerate(unknowns):
            for c, x in x1[j]:
                row = equations[(g, i, c)]
                row[k] = row[k] + x
            for r, x in x2t[i]:
                row = equations[(g, r, j)]
                row[k] = row[k] - x
    system = Matrix._of([equations[key] for key in sorted(equations)],
                        len(unknowns))
    basis = []
    for vec in system.kernel_basis():
        grid = [[ZERO] * n1 for _ in range(n2)]
        for (i, j), x in zip(unknowns, vec):
            grid[i][j] = x
        basis.append(Matrix._of(grid, n1))
    return basis
