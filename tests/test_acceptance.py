"""Acceptance suite: ten self-contained criteria, one printed verdict line
each.  Every criterion re-derives what it needs instead of trusting other
tests, and carries its own wall-clock budget."""

import json
import random
import time

from supercircle.cli import cmd_verify, main, RunConfig
from supercircle.grassmann import GeneratorSet
from supercircle.harmonic import Section, expand, reconstruct
from supercircle.liealg import builtin_algebra, find_even_intertwiners
from supercircle.linalg import Matrix
from supercircle.reps import (
    decompose_s11,
    decompose_su11,
    make_pi_m,
    random_direct_sum,
    scramble,
)
from supercircle.scalars import GaussianRational
from supercircle.supergroup import (
    c11x_ring,
    defactorize,
    defining_matrices,
    factorization_triple_ring,
    factorize,
    membership,
    rho_s11,
    sigma_su,
    sl11_generic_ring,
    su11_chart_ring,
)
from supercircle.supermatrix import SuperMatrix, berezinian, supercommutator

GR = GaussianRational


def _run(capsys, number, label, limit, body):
    start = time.perf_counter()
    failure = None
    try:
        body()
    except BaseException as exc:  # report FAIL, then let pytest see it
        failure = exc
    elapsed = time.perf_counter() - start
    over = limit is not None and elapsed >= limit
    status = "FAIL" if failure is not None or over else "PASS"
    with capsys.disabled():
        if limit is None:
            print("ACCEPTANCE %02d %s: %s (%.2f s)"
                  % (number, label, status, elapsed))
        else:
            print("ACCEPTANCE %02d %s: %s (%.2f s, limit %g s)"
                  % (number, label, status, elapsed, limit))
    if failure is not None:
        raise failure
    assert not over, "criterion %d exceeded %g s" % (number, limit)


def test_criterion_01_structure_constants(capsys):
    def body():
        su = builtin_algebra("su11")
        defining = defining_matrices()
        mats = [defining[name] for name in su.names]
        for i in range(3):
            for j in range(3):
                expected = None
                for k, c in enumerate(su.bracket(i, j)):
                    term = c * mats[k]
                    expected = term if expected is None else expected + term
                assert supercommutator(mats[i], mats[j]) == expected
        # the named relations, spelled out: the even generator is central
        # and the two odd generators square to the same central element
        C, U, S = mats
        zero = C + (-1) * C
        assert supercommutator(C, U) == zero
        assert supercommutator(C, S) == zero
        assert supercommutator(U, S) == zero
        minus_two_C = (-2) * C
        assert supercommutator(U, U) == minus_two_C
        assert supercommutator(S, S) == minus_two_C

    _run(capsys, 1, "structure-constants", 1.0, body)


def test_criterion_02_representation_identities(capsys):
    def body():
        for m in range(1, 11):
            for mm in (m, -m):
                for sign in ("+", "-"):
                    rep = make_pi_m(mm, sign)
                    u, s = rep.odd["U"], rep.odd["S"]
                    target = Matrix.diagonal([GR(0, -mm)] * 2)
                    assert u * u == target
                    assert s * s == target
                    us = u * s
                    assert us * us == Matrix.diagonal([GR(mm * mm)] * 2)

    _run(capsys, 2, "representation-identities", 1.0, body)


def test_criterion_03_inequivalence(capsys):
    def body():
        for m in range(1, 11):
            for mm in (m, -m):
                plus = make_pi_m(mm, "+")
                minus = make_pi_m(mm, "-")
                assert find_even_intertwiners(plus, minus) == []
                assert len(find_even_intertwiners(plus, plus)) == 1

    _run(capsys, 3, "inequivalence-and-schur", 5.0, body)


def test_criterion_04_decomposition_oracle(capsys):
    def body():
        rng = random.Random(2024)
        recovered = 0
        for algebra in ("s11", "su11"):
            decomp = decompose_s11 if algebra == "s11" else decompose_su11
            for _ in range(50):
                model = random_direct_sum(algebra, rng, max_blocks=8)
                want = decomp(model).labels()
                rep = scramble(model, rng)
                report = decomp(rep)
                assert report.labels() == want
                assert report.verify(rep)
                recovered += 1
        assert recovered == 100

    _run(capsys, 4, "decomposition-oracle-100-trials", 60.0, body)


def test_criterion_05_factorization(capsys):
    def body():
        for group in ("su11", "su11_minus"):
            gens, pts = su11_chart_ring(group)
            p = pts[0]
            triple = factorize(p, group)
            assert defactorize(triple.t, triple.theta, triple.eta) == p
            tgens, generic = factorization_triple_ring(group)
            q = defactorize(generic.t, generic.theta, generic.eta)
            assert factorize(q, group) == generic
        # the convention resolution must be recorded in the verify report
        report, code = cmd_verify(RunConfig(weights=1))
        conv = next(c for c in report["checks"]
                    if c["name"] == "isomer-convention")
        assert conv["status"] == "pass"
        assert conv["detail"]["componentwise_match"] == {
            "su11": {"t": False, "theta": True, "eta": False},
            "su11-minus": {"t": True, "theta": False, "eta": False},
        }
        assert conv["detail"]["resolution"]

    _run(capsys, 5, "factorization-round-trips", 5.0, body)


def test_criterion_06_involutions(capsys):
    def body():
        gens, w, eta = c11x_ring()
        w1, eta1 = rho_s11(w, eta)
        w2, eta2 = rho_s11(w1, eta1)
        assert w2 == w and eta2 == eta

        sgens, p = sl11_generic_ring()
        assert sigma_su(sigma_su(p)) == p

        cgens, pts = su11_chart_ring("su11")
        q = pts[0]
        assert sigma_su(q) == q
        ok, diag = membership(q, "su11")
        assert ok and diag == "member"

    _run(capsys, 6, "involutions", 5.0, body)


def test_criterion_07_peter_weyl_s11(capsys):
    def body():
        count = 0
        for m in range(-10, 11):
            for mask in range(2):
                f = Section("s11", {(m, mask): GR(1)})
                res = expand(f)
                assert res.residual.is_zero()
                assert reconstruct(res.coefficients, "s11") == f
                count += 1
        assert count == 42

    _run(capsys, 7, "peter-weyl-s11-42-monomials", 5.0, body)


def test_criterion_08_peter_weyl_su11(capsys):
    def body():
        count = 0
        for m in range(-10, 11):
            for mask in range(4):
                if m == 0 and mask == 0b11:
                    continue
                f = Section("su11", {(m, mask): GR(1)})
                res = expand(f)
                assert res.residual.is_zero()
                assert reconstruct(res.coefficients, "su11") == f
                count += 1
        assert count == 83

        # the one monomial outside the span: exact residual, and the suite
        # reports it as a finding rather than a failure
        leftover = Section("su11", {(0, 0b11): GR(1)})
        res = expand(leftover)
        assert not res.residual.is_zero()
        assert res.residual == leftover and res.coefficients == {}
        report, code = cmd_verify(RunConfig(weights=1))
        assert code == 0
        finding = next(c for c in report["checks"]
                       if c["name"] == "peter-weyl-weight-zero-residual")
        assert finding["status"] == "expected-discrepancy"

    _run(capsys, 8, "peter-weyl-su11-83-monomials", 10.0, body)


def _random_even_invertible(gens, rng):
    masks_even = [m for m in range(16) if bin(m).count("1") % 2 == 0]
    masks_odd = [m for m in range(16) if bin(m).count("1") % 2 == 1]

    def entry(odd_entry):
        masks = masks_odd if odd_entry else masks_even
        terms = {}
        for mask in rng.sample(masks, rng.randint(1, 4)):
            c = GR(rng.randint(-3, 3), rng.randint(-3, 3))
            if not c.is_zero():
                terms[((), mask)] = c
        return gens.element(terms)

    rows = [[entry(False), entry(True)], [entry(True), entry(False)]]
    for i in (0, 1):
        if rows[i][i].body().is_zero():
            rows[i][i] = rows[i][i] + gens.scalar(GR(rng.randint(1, 3), 0))
    return SuperMatrix(1, 1, rows)


def test_criterion_09_berezinian(capsys):
    def body():
        gens = GeneratorSet(["x0", "x1", "x2", "x3"])
        rng = random.Random(99)
        for _ in range(200):
            a = _random_even_invertible(gens, rng)
            b = _random_even_invertible(gens, rng)
            assert berezinian(a * b) == berezinian(a) * berezinian(b)
        for group in ("su11", "su11_minus"):
            cgens, pts = su11_chart_ring(group)
            assert berezinian(pts[0].matrix()) == cgens.one()

    _run(capsys, 9, "berezinian", 10.0, body)


def test_criterion_10_determinism(capsys, tmp_path):
    def body():
        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        args = ["verify", "--seed", "5", "--out"]
        assert main(args + [str(first)]) == 0
        assert main(args + [str(second)]) == 0
        a = first.read_bytes()
        b = second.read_bytes()
        assert a == b and a.endswith(b"\n")
        json.loads(a)  # well-formed

    _run(capsys, 10, "verify-determinism", None, body)
