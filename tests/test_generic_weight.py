"""The four ``verify`` checks that prove their claims over the generic root s
of the Laurent ring Q(i)[s, 1/s]: the generic blocks specialise to the
constructors at every weight, and each check fails, naming what broke, when a
builder, a constructor or the proof itself is wrong."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supercircle import _checks, cli, reps
from supercircle.harmonic import _weight_constants
from supercircle.linalg import Matrix
from supercircle.scalars import sqrt_neg_im

CHECKS = dict(_checks._VERIFY_CHECKS)
GENERIC_CHECKS = {
    "V_m": ["representation-identities", "peter-weyl-span-s11"],
    "pi_m^+": ["representation-identities", "intertwiner-spaces",
               "peter-weyl-span-su11"],
}


def run(name, weights=3):
    return _checks._run_check(CHECKS[name], cli.RunConfig(weights=weights))


def scaled(build, name, i, j, scale):
    """build, with entry (i, j) of generator name replaced by scale(entry)."""
    def corrupted(s, *sign):
        odd = build(s, *sign)
        rows = [list(row) for row in odd[name].rows]
        rows[i][j] = scale(rows[i][j])
        odd[name] = Matrix._of(rows, 2)
        return odd
    return corrupted


@settings(max_examples=60, deadline=None)
@given(st.integers(-10 ** 6, 10 ** 6).filter(bool))
def test_generic_blocks_specialise_to_the_constructors_beyond_the_sample(m):
    root = sqrt_neg_im(m)
    for block, (_, _, make) in _checks._WEIGHT_BLOCKS.items():
        generic, made = _checks._generic(block), make(m)
        assert generic.parities == made.parities
        assert tuple(_checks._at(w, root) for w in generic.weights) == (m, m)
        for name, mat in generic.odd.items():
            at_root = [[_checks._at(x, root) for x in row] for row in mat.rows]
            assert Matrix._of(at_root, 2) == made.odd[name]
    assert tuple(_checks._at(x, root) for x in _checks._CONSTANTS) == (
        _weight_constants(m))


@pytest.mark.parametrize("block,builder,name,entry", [
    ("V_m", "_v_odd", "Z", (1, 0)),
    ("pi_m^+", "_pi_odd", "S", (1, 0)),
])
def test_a_corrupt_generic_builder_fails_each_check_that_uses_it(
        monkeypatch, block, builder, name, entry):
    # only the generic side is wrong: the constructors still build the
    # right blocks, so the specialisation test fails at the first weight
    bad = scaled(getattr(_checks, builder), name, *entry, lambda x: 2 * x)
    monkeypatch.setattr(_checks, builder, bad)
    for check in GENERIC_CHECKS[block]:
        assert run(check) == ("fail", {
            "error": "generic block differs from its constructor",
            "weight": 1, "block": block, "generator": name,
            "entry": list(entry)})
    for check in set(CHECKS) - set(GENERIC_CHECKS[block]):
        assert run(check)[0] != "fail"


def test_a_constructor_wrong_at_one_weight_fails_at_that_weight(monkeypatch):
    real = _checks.make_pi_m
    monkeypatch.setattr(_checks, "make_pi_m", lambda m, sign: real(
        m, "-" if m == -7 else sign))  # pi_-7^+ built as pi_-7^-
    for check in GENERIC_CHECKS["pi_m^+"]:
        assert run(check, weights=6)[0] == "pass"
        status, detail = run(check, weights=10)
        assert status == "fail"
        assert (detail["weight"], detail["generator"],
                detail["entry"]) == (-7, "S", [0, 1])


def test_a_wrong_shared_builder_fails_the_proof_and_names_the_entry(
        monkeypatch):
    # constructors and generic blocks agree, so only the proof can fail
    bad = scaled(reps._pi_odd, "S", 1, 0, lambda x: 2 * x)
    monkeypatch.setattr(reps, "_pi_odd", bad)
    monkeypatch.setattr(_checks, "_pi_odd", bad)
    assert run("representation-identities") == ("fail", {
        "error": "S^2 != -i*m at weight block m=i*s^2 (entry (0,0))",
        "block": "pi_m^+"})


def test_a_pivot_that_is_not_a_unit_fails_the_intertwiner_proof(
        monkeypatch):
    # U's entries become s + s^2, which is not a unit of Q(i)[s, 1/s]
    bad = reps._pi_odd
    for entry in ((0, 1), (1, 0)):
        bad = scaled(bad, "U", *entry, lambda x: x + x * x)
    monkeypatch.setattr(reps, "_pi_odd", bad)
    monkeypatch.setattr(_checks, "_pi_odd", bad)
    assert run("intertwiner-spaces") == (
        "fail", {"error": "ValueError: not invertible"})
