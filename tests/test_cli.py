import errno
import json
import os
import random
import threading
import time

import pytest

from supercircle import _checks, cli, supermatrix
from supercircle.cli import main
from supercircle.grassmann import GeneratorSet, element_from_json
from supercircle.harmonic import Section
from supercircle.liealg import LieSuperAlgebra, Representation
from supercircle.linalg import Matrix
from supercircle.reps import direct_sum, make_pi_m, make_V_m, scramble
from supercircle.scalars import ExtendedScalar, I
from supercircle.supergroup import (
    FactorizationTriple,
    GL11Point,
    c11x_ring,
    defactorize,
    point_from_json,
    sl11_generic_ring,
    su11_chart_ring,
)

CHECK_NAMES = [
    "structure-constants",
    "representation-identities",
    "intertwiner-spaces",
    "decomposition-oracle",
    "involution-rho",
    "involution-sigma",
    "factorization-round-trip",
    "isomer-convention",
    "peter-weyl-span-s11",
    "peter-weyl-span-su11",
    "peter-weyl-weight-zero-residual",
    "berezinian",
]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def test_verify_passes(capsys):
    code, out = run(capsys, "verify", "--weights", "3")
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "pass"
    assert report["failing"] == []
    assert report["config"] == {"weights": 3, "seed": 0}
    assert [c["name"] for c in report["checks"]] == CHECK_NAMES
    statuses = {c["name"]: c["status"] for c in report["checks"]}
    assert statuses.pop("peter-weyl-weight-zero-residual") == "expected-discrepancy"
    assert set(statuses.values()) == {"pass"}
    # the isomer record is part of the report
    conv = next(c for c in report["checks"] if c["name"] == "isomer-convention")
    assert conv["detail"]["componentwise_match"] == {
        "su11": {"t": False, "theta": True, "eta": False},
        "su11-minus": {"t": True, "theta": False, "eta": False},
    }


def test_verify_span_counts(capsys):
    code, out = run(capsys, "verify", "--weights", "3")
    report = json.loads(out)
    details = {c["name"]: c["detail"] for c in report["checks"]}
    assert details["peter-weyl-span-s11"]["monomials"] == 14
    assert details["peter-weyl-span-su11"]["monomials"] == 27


def test_verify_deterministic(capsys, tmp_path):
    code1, out1 = run(capsys, "verify", "--weights", "2", "--seed", "7")
    code2, out2 = run(capsys, "verify", "--weights", "2", "--seed", "7")
    assert (code1, out1) == (code2, out2)
    target = tmp_path / "report.json"
    code3, out3 = run(capsys, "verify", "--weights", "2", "--seed", "7",
                      "--out", str(target))
    assert code3 == 0 and out3 == ""
    assert target.read_text() == out1


def test_only_the_decomposition_oracle_reads_the_seed():
    reports = []
    for seed in (0, 1):
        report, code = cli.cmd_verify(cli.RunConfig(weights=1, seed=seed))
        assert code == 0
        assert report["config"].pop("seed") == seed
        oracle = report["checks"][CHECK_NAMES.index("decomposition-oracle")]
        assert oracle["detail"].pop("seed") == seed
        reports.append(report)
    assert reports[0] == reports[1]


def schur_plus_berezinian(m):
    """Ber with the Schur complement's sign flipped."""
    (a, beta), (gamma, d) = m.rows
    d_inv = d.invert()
    return d_inv * (a + beta * d_inv * gamma)


def test_berezinian_check_fails_with_a_flipped_schur_complement(monkeypatch):
    monkeypatch.setattr(_checks, "berezinian", schur_plus_berezinian)
    status, detail = _checks._check_berezinian(cli.RunConfig())
    assert status == "fail"
    assert detail["identity"] == "Ber(XY) = Ber(X)*Ber(Y)"


@pytest.mark.parametrize("order", [1, 2])
def test_berezinian_check_fails_with_the_inverse_series_cut(monkeypatch,
                                                            order):
    # keep the series up to its v**order term; both cuts are exact on the
    # bare pair [[a, b], [g, d]], where v**2 = 0
    full = supermatrix._inverse_terms
    monkeypatch.setattr(supermatrix, "_inverse_terms",
                        lambda terms, n_odd: full(terms, min(n_odd, order)))
    status, detail = _checks._check_berezinian(cli.RunConfig())
    assert status == "fail"
    assert detail["error"] == "identity fails on the universal pair"


def test_factorization_check_names_a_failing_isomer_as_reports_do(
        monkeypatch):
    real = _checks.factorize

    def factorize(p, group):  # wrong for the isomer only
        triple = real(p, group)
        if group == "su11_minus":
            return FactorizationTriple(triple.t, -triple.theta, triple.eta)
        return triple

    monkeypatch.setattr(_checks, "factorize", factorize)
    assert _checks._check_factorization(cli.RunConfig()) == ("fail", {
        "error": "defactorize(factorize(p)) != p", "group": "su11-minus"})


def test_verify_reports_a_rejected_bracket_table(capsys, monkeypatch):
    monkeypatch.setattr(_checks, "builtin_algebra", corrupt_table)
    code, out = run(capsys, "verify", "--weights", "1")
    assert code == 1
    report = json.loads(out)
    assert report["status"] == "fail"
    assert report["failing"] == ["structure-constants"]


def corrupt_table(tag):
    return LieSuperAlgebra(("C", "Z"), (0, 1),
                           {(1, 1): (-2, 0), (0, 1): (0, 1)})


def serial_verify(monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(_checks, "_usable_cpus", lambda: 1)
        return cli.cmd_verify(cli.RunConfig(weights=1))


def wait_for(condition, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.005)


class ParentInterrupted(BaseException):
    pass


def worker_claims_first(monkeypatch, tmp_path, in_worker=None,
                        in_parent=None):
    """Run verify with one worker that claims the first check: os.fork
    returns in the parent only once the worker has started a check.  Every
    check a worker starts leaves a file named after it in tmp_path/checks,
    and os._exit(code) a file named code in tmp_path/exits; then in_worker,
    or in the parent in_parent, runs before the check."""
    parent = os.getpid()
    checks, exits = tmp_path / "checks", tmp_path / "exits"
    checks.mkdir()
    exits.mkdir()
    real_fork, real_exit = os.fork, os._exit

    def fork():
        pid = real_fork()
        if pid:
            wait_for(lambda: any(checks.iterdir()))
        return pid

    def leave(code):
        (exits / str(code)).touch()
        real_exit(code)

    def traced(name, fn):
        def run(config):
            if os.getpid() != parent:
                (checks / name).touch()
                if in_worker:
                    in_worker()
            elif in_parent:
                in_parent()
            return fn(config)
        return run

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(os, "_exit", leave)
    monkeypatch.setattr(_checks, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(_checks, "_VERIFY_CHECKS", [
        (name, traced(name, fn)) for name, fn in _checks._VERIFY_CHECKS])
    return cli.cmd_verify(cli.RunConfig(weights=1))


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def open_fds():
    return sorted(os.listdir("/dev/fd"))


@pytest.mark.parametrize("fault", ["raises", "fails"])
def test_verify_reports_a_check_of_a_worker_as_serially(monkeypatch,
                                                        tmp_path, fault):
    if fault == "raises":
        monkeypatch.setattr(_checks, "builtin_algebra", corrupt_table)
    else:
        monkeypatch.setattr(_checks, "supercommutator", lambda a, b: a * 2)
    serial = serial_verify(monkeypatch)
    assert serial[0]["failing"] == ["structure-constants"]
    assert (serial[0]["checks"][0]["detail"]["error"].startswith(
        "ValueError: ")) == (fault == "raises")
    fds = open_fds()
    assert worker_claims_first(monkeypatch, tmp_path) == serial
    assert open_fds() == fds
    assert (tmp_path / "checks" / "structure-constants").exists()
    assert [p.name for p in (tmp_path / "exits").iterdir()] == ["0"]
    assert_no_child_left()


def test_verify_reruns_the_check_of_a_worker_that_died(monkeypatch,
                                                       tmp_path):
    serial = serial_verify(monkeypatch)
    assert serial[1] == 0
    report = worker_claims_first(monkeypatch, tmp_path,
                                 in_worker=lambda: os._exit(3))
    assert report == serial
    assert [p.name for p in (tmp_path / "checks").iterdir()] == [
        "structure-constants"]
    assert [p.name for p in (tmp_path / "exits").iterdir()] == ["3"]
    assert_no_child_left()


def test_verify_leaves_no_worker_when_the_parent_raises(monkeypatch,
                                                        tmp_path):
    def interrupt():
        raise ParentInterrupted

    start = time.monotonic()
    with pytest.raises(ParentInterrupted):
        worker_claims_first(monkeypatch, tmp_path,
                            in_worker=lambda: time.sleep(60),
                            in_parent=interrupt)
    assert_no_child_left()
    assert time.monotonic() - start < 30  # the sleeping worker was killed


def test_claim_order_names_every_check_once():
    names = [name for name, fn in _checks._VERIFY_CHECKS]
    assert sorted(_checks._CLAIM_ORDER) == sorted(names)
    # worker_claims_first relies on a worker's first claim being the first
    # check of the report
    assert _checks._CLAIM_ORDER[0] == names[0]


def test_verify_runs_serially_when_fork_fails(monkeypatch):
    serial = serial_verify(monkeypatch)

    def fork():
        raise BlockingIOError(errno.EAGAIN, "cannot fork")

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(_checks, "_usable_cpus", lambda: 3)
    fds = open_fds()
    assert cli.cmd_verify(cli.RunConfig(weights=1)) == serial
    assert open_fds() == fds


def test_verify_does_not_fork_without_fork_or_beside_a_thread(monkeypatch):
    serial = serial_verify(monkeypatch)

    def fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(_checks, "_usable_cpus", lambda: 2)
    with pytest.raises(AssertionError, match="^forked$"):
        cli.cmd_verify(cli.RunConfig(weights=1))
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert cli.cmd_verify(cli.RunConfig(weights=1)) == serial
    finally:
        stop.set()
        thread.join()
    monkeypatch.delattr(os, "fork")
    assert cli.cmd_verify(cli.RunConfig(weights=1)) == serial


@pytest.mark.parametrize("weights", ["0", "-2"])
def test_verify_rejects_a_weight_bound_below_one(capsys, weights):
    code = main(["verify", "--weights", weights])
    captured = capsys.readouterr()
    assert code == 2
    assert json.loads(captured.out) == {
        "error": "--weights must be at least 1"}
    assert captured.err == ""


def test_float_mode_requires_tol(capsys):
    code, out = run(capsys, "verify", "--scalar", "float")
    assert code == 2


def test_rep_validate(capsys, tmp_path):
    rep = make_pi_m(2, "+")
    path = write(tmp_path, "rep.json", rep.to_json())
    code, out = run(capsys, "rep", "validate", path)
    assert code == 0
    report = json.loads(out)
    assert report["valid"] is True
    assert report["algebra"] == "su11" and report["dim"] == 2
    assert report["problems"] == []


def test_rep_validate_failure(capsys, tmp_path):
    blob = make_pi_m(2, "+").to_json()
    blob["basis"][1]["weight"] = 3  # breaks weight preservation
    path = write(tmp_path, "bad.json", blob)
    code, out = run(capsys, "rep", "validate", path)
    assert code == 1
    report = json.loads(out)
    assert report["valid"] is False
    assert report["problems"]


def test_rep_parse_errors(capsys, tmp_path):
    blob = make_pi_m(2, "+").to_json()
    blob["basis"][0]["weight"] = 2.5
    path = write(tmp_path, "float-weight.json", blob)
    code, out = run(capsys, "rep", "validate", path)
    assert code == 2
    assert "error" in json.loads(out)

    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    assert run(capsys, "rep", "validate", str(garbled))[0] == 2
    assert run(capsys, "rep", "validate", str(tmp_path / "absent.json"))[0] == 2


def test_rep_decompose(capsys, tmp_path):
    model = direct_sum(make_pi_m(2, "+"), make_pi_m(2, "-"), make_pi_m(-1, "+"))
    rep = scramble(model, random.Random(11))
    path = write(tmp_path, "sum.json", rep.to_json())
    code, out = run(capsys, "rep", "decompose", path)
    assert code == 0
    report = json.loads(out)
    assert report["su11"]["pi"] == [
        {"m": -1, "sign": "+", "count": 1},
        {"m": 2, "sign": "+", "count": 1},
        {"m": 2, "sign": "-", "count": 1},
    ]
    assert report["basis_change"]


def test_rep_decompose_s11(capsys, tmp_path):
    model = direct_sum(make_V_m(1), make_V_m(1))
    rep = scramble(model, random.Random(13))
    path = write(tmp_path, "s11.json", rep.to_json())
    code, out = run(capsys, "rep", "decompose", path)
    assert code == 0
    assert json.loads(out)["s11"]["V"] == [{"m": 1, "count": 2}]


def test_point_check(capsys, tmp_path):
    gens, pts = su11_chart_ring("su11")
    path = write(tmp_path, "pt.json", pts[0].to_json())
    code, out = run(capsys, "point", "check", path, "--group", "su11")
    assert code == 0
    report = json.loads(out)
    assert report["member"] is True and report["diagnostic"] == "member"

    code, out = run(capsys, "point", "check", path, "--group", "su11-minus")
    assert code == 0
    report = json.loads(out)
    assert report["member"] is False
    assert "star(beta)*a^2" in report["diagnostic"]


def test_point_factorize_round_trip(capsys, tmp_path):
    gens, pts = su11_chart_ring("su11")
    path = write(tmp_path, "pt.json", pts[0].to_json())
    code, out = run(capsys, "point", "factorize", path, "--group", "su11")
    assert code == 0
    coords = json.loads(out)
    t, theta, eta = (element_from_json(coords[name], gens)
                     for name in ("t", "theta", "eta"))
    assert defactorize(t, theta, eta) == pts[0]


def test_point_factorize_rejects_non_member(capsys, tmp_path):
    gens, pts = su11_chart_ring("su11")
    path = write(tmp_path, "pt.json", pts[0].to_json())
    code, out = run(capsys, "point", "factorize", path, "--group",
                    "su11-minus")
    assert code == 1
    assert "not a member" in json.loads(out)["error"]


def test_point_involute_sigma(capsys, tmp_path):
    _, pts = su11_chart_ring("su11")
    path = write(tmp_path, "fixed.json", pts[0].to_json())
    code, out = run(capsys, "point", "involute", path, "--group", "su11")
    assert code == 0
    assert point_from_json(json.loads(out), "su11") == pts[0]

    # applying sigma twice through files restores the generic point
    _, generic = sl11_generic_ring()
    p1 = write(tmp_path, "generic.json", generic.to_json())
    code, once = run(capsys, "point", "involute", p1, "--group", "sl11")
    assert code == 0
    p2 = write(tmp_path, "once.json", json.loads(once))
    code, twice = run(capsys, "point", "involute", p2, "--group", "sl11")
    assert code == 0
    assert point_from_json(json.loads(twice), "sl11") == generic


def test_point_involute_rho(capsys, tmp_path):
    gens, w, eta = c11x_ring()
    path = write(tmp_path, "circle.json",
                 {"w": w.to_json(), "eta": eta.to_json()})
    code, once = run(capsys, "point", "involute", path, "--group", "s11")
    assert code == 0
    path2 = write(tmp_path, "circle2.json", json.loads(once))
    code, twice = run(capsys, "point", "involute", path2, "--group", "s11")
    assert code == 0
    img = json.loads(twice)
    assert element_from_json(img["w"], gens) == w
    assert element_from_json(img["eta"], gens) == eta


def test_point_group_s11_only_for_involute(capsys, tmp_path):
    gens, w, eta = c11x_ring()
    path = write(tmp_path, "circle.json",
                 {"w": w.to_json(), "eta": eta.to_json()})
    code, out = run(capsys, "point", "check", path, "--group", "s11")
    assert code == 2


@pytest.mark.parametrize("action, group, names", [
    ("involute", "sl11", "beta, betabar, gamma, gammabar, a, abar"),
    ("involute", "su11", "b0, b0bar, a0"),
    ("involute", "su11-minus", "b0, b0bar, a0"),
    ("check", "su11", "b0, b0bar, a0"),
    ("factorize", "su11-minus", "b0, b0bar, a0"),
])
def test_point_over_other_names_is_an_input_error_where_star_is_read(
        capsys, tmp_path, action, group, names):
    # a file carries no star images, so an action that reads them needs the
    # names of the group's chart ring
    base = GeneratorSet(["u", "v"], even=["y"])
    p = GL11Point.identity(base)
    path = write(tmp_path, "own.json", p.to_json())
    code, out = run(capsys, "point", action, path, "--group", group)
    assert code == 2
    assert json.loads(out)["error"].endswith("the file must use " + names)
    # the sl11 membership test reads no star, so the file's names serve
    code, out = run(capsys, "point", "check", path, "--group", "sl11")
    assert code == 0 and json.loads(out)["member"] is True


def test_pair_over_other_names_is_an_input_error(capsys, tmp_path):
    base = GeneratorSet(["u"], even=["y"])
    path = write(tmp_path, "own.json", {"w": base.even_gen("y").to_json(),
                                        "eta": base.odd_gen("u").to_json()})
    code, out = run(capsys, "point", "involute", path, "--group", "s11")
    assert code == 2
    assert json.loads(out)["error"].endswith(
        "the file must use eta, etabar, w, wbar or eta, w")


def test_point_factorize_offers_only_the_unitary_groups(capsys, tmp_path):
    gens, p = sl11_generic_ring()
    path = write(tmp_path, "sl11.json", p.to_json())
    code, out = run(capsys, "point", "factorize", path, "--group", "sl11")
    assert code == 2
    assert out == ""


def test_pw_coeffs(capsys):
    code, out = run(capsys, "pw", "coeffs", "--m", "1", "--sign", "+")
    assert code == 0
    report = json.loads(out)
    assert report["rep"] == {"type": "pi", "m": 1, "sign": "+"}
    assert [(e["i"], e["j"]) for e in report["entries"]] == [
        (0, 0), (0, 1), (1, 0), (1, 1)]
    first = Section.monomial("su11", 1) + Section.monomial(
        "su11", 1, ["theta", "eta"])
    assert report["entries"][0]["section"] == first.to_json()


def test_pw_coeffs_adjoint(capsys):
    code, out = run(capsys, "pw", "coeffs", "--adjoint")
    assert code == 0
    report = json.loads(out)
    assert report["rep"] == {"type": "adjoint"}
    assert [(e["i"], e["j"]) for e in report["entries"]] == [
        (0, 0), (0, 1), (0, 2), (1, 1), (2, 2)]


def test_pw_coeffs_usage_errors(capsys):
    assert run(capsys, "pw", "coeffs", "--m", "0", "--sign", "+")[0] == 2
    assert run(capsys, "pw", "coeffs", "--m", "2")[0] == 2
    assert run(capsys, "pw", "coeffs")[0] == 2
    assert run(capsys, "pw", "coeffs", "--adjoint", "--m", "2")[0] == 2


def test_pw_expand(capsys, tmp_path):
    f = Section.monomial("su11", 2, ["theta"])
    path = write(tmp_path, "f.json", f.to_json())
    code, out = run(capsys, "pw", "expand", path)
    assert code == 0
    report = json.loads(out)
    assert "note" not in report
    assert len(report["coefficients"]) == 2
    assert report["residual"]["terms"] == []


def test_pw_expand_flags_residual(capsys, tmp_path):
    f = Section.monomial("su11", 0, ["theta", "eta"])
    path = write(tmp_path, "residual.json", f.to_json())
    code, out = run(capsys, "pw", "expand", path)
    assert code == 0
    report = json.loads(out)
    assert report["note"] == "outside listed span"
    assert report["coefficients"] == []
    assert report["residual"] == f.to_json()


def test_pw_expand_parse_error(capsys, tmp_path):
    path = write(tmp_path, "bad.json", {"group": "su11"})
    assert run(capsys, "pw", "expand", path)[0] == 2


def test_unknown_subcommand(capsys):
    assert run(capsys, "meditate")[0] == 2


def _su11_point_json():
    gens, pts = su11_chart_ring("su11")
    return pts[0].to_json()


def test_point_term_without_mono_is_a_parse_error(capsys, tmp_path):
    blob = _su11_point_json()
    del blob["a"]["terms"][0]["mono"]
    path = write(tmp_path, "no-mono.json", blob)
    code, out = run(capsys, "point", "check", path, "--group", "su11")
    assert code == 2
    assert "mono" in json.loads(out)["error"]


def test_point_non_integer_powers_are_a_parse_error(capsys, tmp_path):
    blob = _su11_point_json()
    blob["a"]["terms"][0]["powers"] = ["z"]
    path = write(tmp_path, "bad-powers.json", blob)
    code, out = run(capsys, "point", "check", path, "--group", "su11")
    assert code == 2
    assert "powers" in json.loads(out)["error"]


def test_point_zero_denominator_is_a_parse_error(capsys, tmp_path):
    blob = _su11_point_json()
    blob["a"]["terms"][0]["coef"] = {"re": "1/0", "im": "0"}
    path = write(tmp_path, "div-zero.json", blob)
    code, out = run(capsys, "point", "check", path, "--group", "su11")
    assert code == 2
    assert "zero denominator" in json.loads(out)["error"]


def test_pw_expand_zero_denominator_is_a_parse_error(capsys, tmp_path):
    blob = Section.monomial("su11", 2, ["theta"]).to_json()
    blob["terms"][0]["coef"] = {"re": "3", "im": "1/0"}
    path = write(tmp_path, "div-zero.json", blob)
    code, out = run(capsys, "pw", "expand", path)
    assert code == 2
    assert "zero denominator" in json.loads(out)["error"]


def test_point_terms_with_equal_monomials_are_summed(capsys, tmp_path):
    # a = a0 written as (1/3)*a0 + (2/3)*a0 is still the chart point
    blob = _su11_point_json()
    term = blob["a"]["terms"][0]
    assert term["coef"] == {"re": "1", "im": "0"}
    blob["a"]["terms"] = [dict(term, coef={"re": "1/3", "im": "0"}),
                          dict(term, coef={"re": "2/3", "im": "0"})]
    path = write(tmp_path, "split.json", blob)
    code, out = run(capsys, "point", "check", path, "--group", "su11")
    assert code == 0
    assert json.loads(out)["member"] is True


def _point_check_with(capsys, tmp_path, **fields):
    blob = _su11_point_json()
    for entry in blob.values():
        entry.update(fields)
    path = write(tmp_path, "bad-gens.json", blob)
    code, out = run(capsys, "point", "check", path, "--group", "su11")
    assert code == 2
    return json.loads(out)["error"]


def test_point_flat_pairing_is_a_parse_error(capsys, tmp_path):
    assert "pairing" in _point_check_with(capsys, tmp_path, pairing=[0, 1])


def test_point_non_list_evens_are_a_parse_error(capsys, tmp_path):
    assert "evens" in _point_check_with(capsys, tmp_path, evens=5)


def test_point_string_gens_are_a_parse_error(capsys, tmp_path):
    assert "gens" in _point_check_with(capsys, tmp_path, gens="ab")


def test_point_integer_generator_names_are_a_parse_error(capsys, tmp_path):
    assert "gens" in _point_check_with(capsys, tmp_path, gens=[0, 1])


def test_pw_expand_rejects_extension_with_gaussian_root(capsys, tmp_path):
    # -i*2 = (1 - i)^2, so m = 2 names no field extension
    blob = Section.monomial("su11", 2, ["theta"]).to_json()
    blob["terms"][0]["coef"] = {"c0": {"re": "1", "im": "0"},
                                "c1": {"re": "1", "im": "0"}, "m": 2}
    path = write(tmp_path, "m2.json", blob)
    code, out = run(capsys, "pw", "expand", path)
    assert code == 2
    assert "m=2" in json.loads(out)["error"]


def _pw_expand_with_mono(capsys, tmp_path, mono):
    blob = Section.monomial("su11", 1, ["theta"]).to_json()
    blob["terms"][0]["mono"] = mono
    path = write(tmp_path, "mono.json", blob)
    code, out = run(capsys, "pw", "expand", path)
    assert code == 2
    return json.loads(out)["error"]


def test_pw_expand_object_mono_is_a_parse_error(capsys, tmp_path):
    # the keys of an object used to be read as coordinate names
    error = _pw_expand_with_mono(capsys, tmp_path, {"theta": 0})
    assert "monomial must be a list of strings" in error


def test_pw_expand_string_mono_is_a_parse_error(capsys, tmp_path):
    # a string used to be read one character at a time
    error = _pw_expand_with_mono(capsys, tmp_path, "theta")
    assert "monomial must be a list of strings" in error


def _s11_V3_with_foreign_extension():
    blob = make_V_m(3).to_json()
    blob["Z"][0][1] = {"c0": {"re": "0", "im": "0"},
                       "c1": {"re": "1", "im": "0"}, "m": 5}
    return blob


FOREIGN_EXTENSION = ("generator Z entry (1,0) has Q(i)[s] parameter m=3, but "
                     "generator Z entry (0,1), linked to it in weight block "
                     "m=3, has m=5")


def test_rep_validate_reports_mixed_extensions(capsys, tmp_path):
    path = write(tmp_path, "mixed.json", _s11_V3_with_foreign_extension())
    code, out = run(capsys, "rep", "validate", path)
    assert code == 1
    report = json.loads(out)
    assert report["command"] == "rep-validate"
    assert report["valid"] is False
    assert report["problems"] == [FOREIGN_EXTENSION]


def test_rep_decompose_reports_mixed_extensions(capsys, tmp_path):
    path = write(tmp_path, "mixed.json", _s11_V3_with_foreign_extension())
    code, out = run(capsys, "rep", "decompose", path)
    assert code == 1
    assert json.loads(out) == {
        "error": "representation is not valid: " + FOREIGN_EXTENSION}


def test_rep_validate_reports_mixed_extensions_across_generators(
        capsys, tmp_path):
    # U and S of one su11 weight block multiply each other, so one foreign
    # parameter in S is reported against the first entry of U
    blob = make_pi_m(3, "+").to_json()
    row, col = next((i, j) for i, r in enumerate(blob["S"])
                    for j, x in enumerate(r) if "m" in x)
    blob["S"][row][col] = dict(blob["S"][row][col], m=7)
    path = write(tmp_path, "mixed-su11.json", blob)
    code, out = run(capsys, "rep", "validate", path)
    assert code == 1
    problems = json.loads(out)["problems"]
    assert len(problems) == 1
    assert problems[0].startswith(
        "generator S entry (%d,%d) has Q(i)[s] parameter m=7" % (row, col))
    assert problems[0].endswith("has m=3")


def _over_negated_parameter(rep):
    # s -> i*s' with s'^2 = -i*(-m): the same representation over Q(i)[s']
    def swap(x):
        if isinstance(x, ExtendedScalar):
            return ExtendedScalar(x.c0, x.c1 * I, -x.m)
        return x

    odd = {name: Matrix([[swap(x) for x in row] for row in mat.rows])
           for name, mat in rep.odd.items()}
    return Representation(rep.algebra, rep.parities, rep.weights, odd)


def test_rep_validate_accepts_a_sum_over_two_extensions(capsys, tmp_path):
    # the two summands share weight 3 but no entry of one multiplies an
    # entry of the other, so each may keep its own extension
    for rep in (make_V_m(3), make_pi_m(3, "+")):
        blob = direct_sum(rep, _over_negated_parameter(rep)).to_json()
        assert {x["m"] for mat in (blob[n] for n in rep.generator_names)
                for row in mat for x in row if "m" in x} == {3, -3}
        path = write(tmp_path, rep.algebra + "-sum.json", blob)
        code, out = run(capsys, "rep", "validate", path)
        assert code == 0
        assert json.loads(out)["problems"] == []


@pytest.mark.parametrize("argv", [
    ["verify", "--tol", "1e-8"],
    ["verify", "--scalar", "exact"],
    ["rep", "validate", "rep.json", "--weights", "3"],
    ["rep", "decompose", "rep.json", "--seed", "1"],
    ["point", "check", "pt.json", "--group", "su11", "--weights", "3"],
    ["point", "involute", "pt.json", "--group", "s11", "--seed", "0"],
    ["pw", "coeffs", "--adjoint", "--seed", "2"],
    ["pw", "expand", "f.json", "--scalar", "exact"],
])
def test_flags_a_command_does_not_read_are_rejected(capsys, argv):
    # only verify reads --weights and --seed; no command takes --scalar/--tol
    code, out = run(capsys, *argv)
    assert code == 2
    assert out == ""


def test_rep_and_pw_write_to_out(capsys, tmp_path):
    path = write(tmp_path, "rep.json", make_pi_m(2, "+").to_json())
    target = tmp_path / "report.json"
    code, out = run(capsys, "rep", "validate", path, "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["valid"] is True
    code, out = run(capsys, "pw", "coeffs", "--adjoint", "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["command"] == "pw-coeffs"


def test_an_unwritable_out_file_is_a_json_error(capsys, tmp_path):
    target = tmp_path / "missing" / "report.json"
    code = main(["pw", "coeffs", "--adjoint", "--out", str(target)])
    captured = capsys.readouterr()
    assert code == 2
    error = {"error": "cannot write %s: No such file or directory" % target}
    assert captured.out == json.dumps(error, sort_keys=True, indent=2) + "\n"
    assert captured.err == ""
    assert not target.parent.exists()


NUMERIC_SCALAR = {"re": 0.5, "im": 0.0}


def test_rep_validate_numeric_scalar_is_a_parse_error(capsys, tmp_path):
    blob = make_pi_m(2, "+").to_json()
    blob["U"][0][1] = NUMERIC_SCALAR
    path = write(tmp_path, "numeric.json", blob)
    code, out = run(capsys, "rep", "validate", path)
    assert code == 2
    assert 'exact strings such as "1/2"' in json.loads(out)["error"]


def test_rep_validate_exponent_notation_is_a_parse_error(capsys, tmp_path):
    blob = make_pi_m(2, "+").to_json()
    blob["U"][0][0] = {"re": "1e5", "im": "0"}
    path = write(tmp_path, "exponent.json", blob)
    code, out = run(capsys, "rep", "validate", path)
    assert code == 2
    assert "'1e5'" in json.loads(out)["error"]


@pytest.mark.parametrize("parities", [(0.0, True), (False, 1.0)])
def test_rep_validate_non_integer_parity_is_a_parse_error(capsys, tmp_path,
                                                          parities):
    blob = make_pi_m(2, "+").to_json()
    for entry, p in zip(blob["basis"], parities):
        entry["parity"] = p
    path = write(tmp_path, "parity.json", blob)
    code, out = run(capsys, "rep", "validate", path)
    assert code == 2
    assert json.loads(out) == {"error": "parities must be the integers 0 or 1"}


def test_pw_expand_numeric_scalar_is_a_parse_error(capsys, tmp_path):
    blob = Section.monomial("su11", 2, ["theta"]).to_json()
    blob["terms"][0]["coef"] = NUMERIC_SCALAR
    path = write(tmp_path, "numeric.json", blob)
    code, out = run(capsys, "pw", "expand", path)
    assert code == 2
    assert 'exact strings such as "1/2"' in json.loads(out)["error"]


def test_pw_expand_names_the_term_over_a_foreign_extension(capsys, tmp_path):
    blob = Section.monomial("su11", 3, ["theta"]).to_json()
    blob["terms"][0]["coef"] = {"c0": {"re": "1", "im": "0"},
                                "c1": {"re": "2", "im": "0"}, "m": 5}
    path = write(tmp_path, "foreign.json", blob)
    code, out = run(capsys, "pw", "expand", path)
    assert code == 1
    assert json.loads(out) == {
        "error": "the coefficient of t^3*theta (weight 3) lies in Q(i)[s] "
                 "with m=5, but the weight-3 matrix coefficients lie in "
                 "Q(i)[s] with m=3"}


def test_pw_expand_unhashable_group_is_a_parse_error(capsys, tmp_path):
    path = write(tmp_path, "group.json", {"group": [], "terms": []})
    code, out = run(capsys, "pw", "expand", path)
    assert code == 2
    assert json.loads(out) == {"error": "unknown group tag []"}


def test_rep_unhashable_algebra_is_a_parse_error(capsys, tmp_path):
    blob = make_pi_m(2, "+").to_json()
    blob["algebra"] = {}
    path = write(tmp_path, "algebra.json", blob)
    for action in ("validate", "decompose"):
        code, out = run(capsys, "rep", action, path)
        assert code == 2
        assert json.loads(out) == {"error": "unknown algebra tag {}"}


def _long_weight():
    blob = make_pi_m(2, "+").to_json()
    blob["basis"][0]["weight"] = 0
    text = json.dumps(blob).replace('"weight": 0', '"weight": ' + "7" * 5000)
    return text.encode()


@pytest.mark.parametrize("content, error", [
    (_long_weight(), "a JSON integer has more than"),
    (b"[" * 100000, "nested too deeply"),
    (b"\xff{}", "'utf-8' codec can't decode"),
], ids=["long-integer", "deep-nesting", "not-utf-8"])
def test_unreadable_json_files_exit_2(capsys, tmp_path, content, error):
    # an integer over the int() digit limit, nesting deeper than the parser's
    # recursion limit, and bytes that are not UTF-8
    path = tmp_path / "unreadable.json"
    path.write_bytes(content)
    code, out = run(capsys, "rep", "validate", str(path))
    assert code == 2
    message = json.loads(out)["error"]
    assert error in message and "set_int_max_str_digits" not in message


def _ragged_row(blob):
    blob["U"][0].pop()


def _wrong_shape(blob):
    blob["U"].append(blob["U"][0])


def _disagreeing_gens(blob):
    blob["beta"]["gens"] = ["c0", "c0bar"]


def _repeated_names(blob):
    for entry in blob.values():
        entry["gens"] = ["b0", "b0"]


def _unknown_coordinate(blob):
    blob["terms"][0]["mono"] = ["zeta"]


def _zero_a(blob):
    blob["a"]["terms"] = []


@pytest.mark.parametrize("command, fault, error", [
    (("rep", "validate"), _ragged_row, "ragged rows"),
    (("rep", "decompose"), _wrong_shape, "generator U has wrong shape"),
    (("point", "check"), _disagreeing_gens, "generator sets disagree"),
    (("point", "factorize"), _repeated_names,
     "generator names must be distinct"),
    (("pw", "expand"), _unknown_coordinate, "unknown odd coordinate 'zeta'"),
    (("point", "involute"), _zero_a, "not invertible"),
])
def test_constructor_errors_while_reading_exit_2(capsys, tmp_path, command,
                                                  fault, error):
    if command[0] == "rep":
        blob, flags = make_pi_m(2, "+").to_json(), ()
    elif command[0] == "point":
        blob, flags = _su11_point_json(), ("--group", "su11")
    else:
        blob, flags = Section.monomial("su11", 2, ["theta"]).to_json(), ()
    fault(blob)
    path = write(tmp_path, "fault.json", blob)
    code, out = run(capsys, *command, path, *flags)
    assert code == 2
    assert error in json.loads(out)["error"]


def _long_entry(blob):
    blob["U"][0][0] = list(range(200_000))


def _long_group(blob):
    blob["group"] = "g" * 100_000


@pytest.mark.parametrize("command, fault, error", [
    (("rep", "validate"), _long_entry, "malformed scalar: [0, 1, 2, "),
    (("pw", "expand"), _long_group, "unknown group tag 'ggg"),
])
def test_errors_quote_a_long_value_briefly(capsys, tmp_path, command, fault,
                                           error):
    if command[0] == "rep":
        blob = make_pi_m(2, "+").to_json()
    else:
        blob = Section.monomial("su11", 2, ["theta"]).to_json()
    fault(blob)
    code, out = run(capsys, *command, write(tmp_path, "long.json", blob))
    assert code == 2
    assert len(out.encode()) < 1024
    assert error in json.loads(out)["error"]
