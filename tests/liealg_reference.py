"""A naive dense reference for representation validation.

The same checks, in the same order and with the same texts, as
``supercircle.liealg.validate_representation``, written over the plain row
tuples of the generator matrices: every entry is read and tested, products
are triple loops over all (i, k, j), and every relation, the su11 square
(U*S)^2 included, is computed and checked.  Nothing is shared with the
library's nonzero patterns or products, so tests can compare problem lists.

``even_intertwiners`` is the same kind of reference for
``find_even_intertwiners``: it probes every entry of both generator matrices
for each equation of F.X1 = X2.F, keeps an equation when some term touches an
unknown, and builds the identity basis itself when no equation is left.
"""

from supercircle.liealg import ODD_GENERATORS
from supercircle.linalg import Matrix
from supercircle.scalars import ExtendedScalar, GaussianRational

GR = GaussianRational


def matmul(a, b):
    """Dense product of two row-tuple matrices.  Terms with a zero factor are
    skipped, so entries of different extensions are never multiplied."""
    n = len(b)
    cols = len(b[0]) if b else 0
    out = []
    for i in range(len(a)):
        row = []
        for j in range(cols):
            acc = GR(0)
            for k in range(n):
                if not a[i][k].is_zero() and not b[k][j].is_zero():
                    acc = acc + a[i][k] * b[k][j]
            row.append(acc)
        out.append(row)
    return out


def matadd(a, b):
    return [[x + y for x, y in zip(r1, r2)] for r1, r2 in zip(a, b)]


def first_violation(product, diagonal, weights, relation):
    for i, row in enumerate(product):
        for j, x in enumerate(row):
            if (x != diagonal[i]) if i == j else not x.is_zero():
                return "%s at weight block m=%d (entry (%d,%d))" % (
                    relation, weights[i], i, j)
    return None


def validate(rep):
    problems = []
    n = rep.dim
    names = ODD_GENERATORS[rep.algebra]
    for name in names:
        mat = rep.odd.get(name)
        if mat is None:
            problems.append("missing generator matrix %s" % name)
            continue
        if mat.shape != (n, n):
            problems.append(
                "generator %s has shape %dx%d, expected %dx%d"
                % (name, mat.nrows, mat.ncols, n, n))
    if problems:
        return problems
    rows = {name: rep.odd[name].rows for name in names}

    link = list(range(n))

    def root(k):
        while link[k] != k:
            k = link[k]
        return k

    extended = []
    for name in names:
        for i in range(n):
            for j in range(n):
                x = rows[name][i][j]
                if x.is_zero():
                    continue
                link[root(i)] = root(j)
                if isinstance(x, ExtendedScalar):
                    extended.append((name, i, j, x.m))
                if rep.parities[i] == rep.parities[j]:
                    problems.append(
                        "generator %s entry (%d,%d) connects equal parities"
                        % (name, i, j))
                if rep.weights[i] != rep.weights[j]:
                    problems.append(
                        "generator %s entry (%d,%d) connects weights %d and %d"
                        % (name, i, j, rep.weights[i], rep.weights[j]))
    if problems:
        return problems

    first_ext = {}
    for name, i, j, m in extended:
        seen = first_ext.setdefault(root(i), (name, i, j, m))
        if seen[3] != m:
            problems.append(
                "generator %s entry (%d,%d) has Q(i)[s] parameter m=%d, but "
                "generator %s entry (%d,%d), linked to it in weight block "
                "m=%d, has m=%d"
                % (name, i, j, m, *seen[:3], rep.weights[i], seen[3]))
    if problems:
        return problems

    minus_ic = [GR(0, -m) for m in rep.weights]
    relations = [("%s^2 != -i*m" % name, matmul(rows[name], rows[name]),
                  minus_ic) for name in names]
    if rep.algebra == "su11":
        u, s = rows["U"], rows["S"]
        us = matmul(u, s)
        relations.append(("U*S + S*U != 0", matadd(us, matmul(s, u)),
                          [GR(0)] * n))
        relations.append(("(U*S)^2 != m^2", matmul(us, us),
                          [GR(m * m) for m in rep.weights]))
    for relation, product, diagonal in relations:
        msg = first_violation(product, diagonal, rep.weights, relation)
        if msg:
            problems.append(msg)
    return problems


def even_intertwiners(rep1, rep2):
    n1, n2 = rep1.dim, rep2.dim
    unknowns = [
        (i, j)
        for i in range(n2)
        for j in range(n1)
        if rep2.parities[i] == rep1.parities[j]
        and rep2.weights[i] == rep1.weights[j]
    ]
    if not unknowns:
        return []
    index = {pos: k for k, pos in enumerate(unknowns)}
    rows = []
    for name in ODD_GENERATORS[rep1.algebra]:
        x1 = rep1.odd[name]
        x2 = rep2.odd[name]
        for r in range(n2):
            for c in range(n1):
                row = [GR(0)] * len(unknowns)
                touched = False
                for j in range(n1):
                    if (r, j) in index and not x1[j, c].is_zero():
                        row[index[(r, j)]] = row[index[(r, j)]] + x1[j, c]
                        touched = True
                for i in range(n2):
                    if (i, c) in index and not x2[r, i].is_zero():
                        row[index[(i, c)]] = row[index[(i, c)]] - x2[r, i]
                        touched = True
                if touched:
                    rows.append(row)
    if rows:
        kernel = Matrix(rows).kernel_basis()
    else:
        kernel = [[GR(int(k == t)) for k in range(len(unknowns))]
                  for t in range(len(unknowns))]
    basis = []
    for vec in kernel:
        grid = [[GR(0)] * n1 for _ in range(n2)]
        for (i, j), k in index.items():
            grid[i][j] = vec[k]
        basis.append(Matrix(grid))
    return basis
