"""A naive dense reference for representation validation.

The same checks, in the same order and with the same texts, as
``supercircle.liealg.validate_representation``, written over the plain row
tuples of the generator matrices: every entry is read and tested, products
are triple loops over all (i, k, j), and every relation, the su11 square
(U*S)^2 included, is computed and checked.  Nothing is shared with the
library's nonzero patterns or products, so tests can compare problem lists.
"""

from supercircle.liealg import ODD_GENERATORS
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
