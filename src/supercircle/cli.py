"""Command-line front end.

Subcommands:
  verify                      run the full invariant suite, emit a JSON report
  rep {validate|decompose}    diagnostics / block decomposition of a stored
                              representation
  point {check|factorize|involute}
                              membership, factorization coordinates, and the
                              real-structure involutions on stored points
  pw {coeffs|expand}          matrix-coefficient sections and exact expansion

All input and output is JSON.  Exit codes: 0 success, 1 mathematical
failure, 2 I/O or parse failure.  Reports are rendered with sorted keys and
a trailing newline, so identical configuration and inputs give byte-identical
output.

``verify`` runs its checks, which share no state, on every CPU the process
may use: it forks one worker per extra CPU, and each process claims its next
check, largest first, from one shared pipe; workers return results with
``marshal``.  With one CPU, without ``os.fork`` or while a second thread is
alive it runs them one after another.  The report is the same either way.
"""

from __future__ import annotations

import argparse
import json
import marshal
import os
import random
import signal
import sys
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

from ._values import Frozen
from .grassmann import (
    GeneratorSet,
    GrassmannElement,
    _gens_from_json,
    element_from_json,
)
from .harmonic import (
    ODD_COORDS,
    Section,
    expand,
    matrix_coefficients,
    reconstruct,
    section_from_json,
)
from .liealg import (
    builtin_algebra,
    find_even_intertwiners,
    representation_from_json,
    validate_representation,
)
from .reps import (
    decompose_s11,
    decompose_su11,
    make_adjoint_su11,
    make_pi_m,
    make_V_m,
    random_direct_sum,
    scramble,
)
from .scalars import GaussianRational
from .supergroup import (
    c11x_ring,
    defactorize,
    factorization_triple_ring,
    factorize,
    membership,
    point_from_json,
    rho_s11,
    s11_chart_ring,
    sigma_su,
    sl11_generic_ring,
    su11_chart_ring,
)
from .supermatrix import SuperMatrix, berezinian, inverse_1_1, supercommutator

GR = GaussianRational

GROUP_TAGS = {"sl11": "sl11", "su11": "su11", "su11-minus": "su11_minus"}


class InputError(Exception):
    """File or format problem; maps to exit code 2."""


class RunConfig(Frozen):
    """The settings of a verify run."""

    __slots__ = ("weights", "seed")

    def __init__(self, weights: int = 10, seed: int = 0):
        if weights < 1:
            raise InputError("--weights must be at least 1")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "seed", seed)

    def to_json(self) -> dict:
        # The output path is left out so reports compare equal no matter
        # where they were written.
        return {"weights": self.weights, "seed": self.seed}


# --- file plumbing ---------------------------------------------------------


def _json_int(literal: str) -> int:
    # int() refuses a literal over the digit limit with advice to raise it
    limit = sys.get_int_max_str_digits()
    if len(literal.lstrip("-")) > limit > 0:
        raise ValueError("a JSON integer has more than %d digits" % limit)
    return int(literal)


def _read(path: str, decode: Callable[[object], object]):
    """decode applied to the JSON document in the file at path.

    Every failure while reading, from the file system to a constructor that
    rejects a decoded value, raises InputError, which exits with code 2.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh, parse_int=_json_int)
        return decode(obj)
    except OSError as exc:
        raise InputError("cannot read %s: %s" % (path, exc.strerror or exc))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise InputError("invalid JSON in %s: %s" % (path, exc))
    except RecursionError:
        raise InputError("the JSON in %s is nested too deeply" % path)
    except ValueError as exc:
        raise InputError(str(exc))


def _chart_gens(group: str, obj, first: str) -> Optional[GeneratorSet]:
    """The ring to decode a point or pair against: the package-defined chart
    ring with the generator set that the element obj[first] declares, or
    else that set; None if obj has no entry first.

    Star images are not serialized, so symbolic points are attached to the
    ring that carries the group's constraints; star-free operations still
    work on a file with its own generator names.
    """
    if not isinstance(obj, dict) or first not in obj:
        return None  # left for the decoder to report
    decoded = _gens_from_json(obj[first])
    if group == "sl11":
        candidates = [sl11_generic_ring()[0]]
    elif group in ("su11", "su11_minus"):
        candidates = [su11_chart_ring(group)[0]]
    else:
        candidates = [c11x_ring()[0], s11_chart_ring()[0]]
    for gens in candidates:
        if gens.signature() == decoded.signature():
            return gens
    return decoded


def _parse_pair(obj) -> Tuple[GrassmannElement, GrassmannElement]:
    """An invertible 1|1 coordinate pair {w, eta} for the circle involution."""
    if not isinstance(obj, dict) or "w" not in obj or "eta" not in obj:
        raise ValueError("expected an object with entries 'w' and 'eta'")
    gens = _chart_gens("s11", obj, "w")
    return element_from_json(obj["w"], gens), element_from_json(obj["eta"], gens)


# --- verify checks ---------------------------------------------------------


def _check_structure_constants(config: RunConfig):
    for tag in ("s11", "su11"):
        builtin_algebra(tag)  # constructor re-validates the table
    su = builtin_algebra("su11")
    mats = [su.defining[name] for name in su.names]
    for i in range(len(mats)):
        for j in range(len(mats)):
            expected = None
            for k, c in enumerate(su.bracket(i, j)):
                term = c * mats[k]
                expected = term if expected is None else expected + term
            if supercommutator(mats[i], mats[j]) != expected:
                return "fail", {"error": "defining matrices disagree with the "
                                         "bracket table at (%d, %d)" % (i, j)}
    return "pass", {"tables": ["s11", "su11"],
                    "defining_matrices": "realize the su11 bracket table "
                                         "under the supercommutator"}


def _check_representation_identities(config: RunConfig):
    count = 0
    for m in range(1, config.weights + 1):
        for mm in (m, -m):
            for rep in (make_V_m(mm), make_pi_m(mm, "+"), make_pi_m(mm, "-")):
                problems = validate_representation(rep)
                if problems:
                    return "fail", {"error": problems[0],
                                    "weight": mm}
                count += 1
    return "pass", {"weight_bound": config.weights, "representations": count}


def _check_intertwiners(config: RunConfig):
    for m in range(1, config.weights + 1):
        for mm in (m, -m):
            plus = make_pi_m(mm, "+")
            minus = make_pi_m(mm, "-")
            cross = find_even_intertwiners(plus, minus)
            if cross:
                return "fail", {"error": "unexpected intertwiner between "
                                         "opposite signs", "weight": mm}
            selfdim = len(find_even_intertwiners(plus, plus))
            if selfdim != 1:
                return "fail", {"error": "self-intertwiner space has "
                                         "dimension %d" % selfdim,
                                "weight": mm}
    return "pass", {"weight_bound": config.weights,
                    "cross_dimension": 0, "self_dimension": 1,
                    "weights_checked": 2 * config.weights}


def _check_decomposition_oracle(config: RunConfig):
    rng = random.Random(config.seed)
    trials = 0
    for algebra in ("s11", "su11"):
        decomp = decompose_s11 if algebra == "s11" else decompose_su11
        for _ in range(3):
            model = random_direct_sum(algebra, rng)
            want = decomp(model).labels()
            rep = scramble(model, rng)
            report = decomp(rep)
            if report.labels() != want:
                return "fail", {"error": "label multiset not recovered",
                                "algebra": algebra}
            if not report.verify(rep):
                return "fail", {"error": "change of basis fails to "
                                         "reproduce the block model",
                                "algebra": algebra}
            trials += 1
    return "pass", {"trials": trials, "max_blocks": 8, "seed": config.seed}


def _check_involution_rho(config: RunConfig):
    gens, w, eta = c11x_ring()
    w1, eta1 = rho_s11(w, eta)
    w2, eta2 = rho_s11(w1, eta1)
    if w2 != w or eta2 != eta:
        return "fail", {"error": "applying the circle involution twice is "
                                 "not the identity on the generic point"}
    cgens, cw, ceta = s11_chart_ring()
    fw, feta = rho_s11(cw, ceta)
    if fw != cw or feta != ceta:
        return "fail", {"error": "the constrained chart point is not fixed"}
    if cw * cw.star() != cgens.one():
        return "fail", {"error": "w * star(w) != 1 on the constrained chart"}
    return "pass", {"involutive": "generic invertible 1|1 point",
                    "fixed_locus": "constrained chart point, with "
                                   "w * star(w) = 1"}


def _check_involution_sigma(config: RunConfig):
    gens, p = sl11_generic_ring()
    if sigma_su(sigma_su(p)) != p:
        return "fail", {"error": "applying sigma twice is not the identity "
                                 "on the generic unimodular point"}
    detail: Dict[str, object] = {"involutive": "generic unimodular point"}
    sgens, pts = su11_chart_ring("su11")
    q = pts[0]
    if sigma_su(q) != q:
        return "fail", {"error": "the su11 chart point is not sigma-fixed"}
    ok, diag = membership(q, "su11")
    if not ok:
        return "fail", {"error": "sigma-fixed point fails membership: "
                                 + diag}
    mgens, mpts = su11_chart_ring("su11_minus")
    qm = mpts[0]
    if sigma_su(qm) == qm:
        return "fail", {"error": "the isomer chart point is unexpectedly "
                                 "sigma-fixed"}
    if not membership(qm, "su11_minus")[0] or membership(qm, "su11")[0]:
        return "fail", {"error": "isomer membership relations mixed up"}
    detail["fixed_locus"] = "su11 chart point, satisfying the membership " \
                            "relations"
    detail["isomer_separation"] = "the su11-minus chart point is moved by " \
                                  "sigma and is not an su11 member"
    return "pass", detail


def _check_factorization(config: RunConfig):
    for group in ("su11", "su11_minus"):
        gens, pts = su11_chart_ring(group)
        p = pts[0]
        triple = factorize(p, group)
        if defactorize(triple.t, triple.theta, triple.eta) != p:
            return "fail", {"error": "defactorize(factorize(p)) != p",
                            "group": group}
        tgens, generic = factorization_triple_ring(group)
        q = defactorize(generic.t, generic.theta, generic.eta)
        if factorize(q, group) != generic:
            return "fail", {"error": "factorize(defactorize(c)) != c",
                            "group": group}
    return "pass", {"groups": ["su11", "su11-minus"],
                    "round_trips": ["factorize then defactorize",
                                    "defactorize then factorize"]}


def _check_isomer_convention(config: RunConfig):
    # factorize is one formula in the star sign sigma of the group, and it
    # factors both isomers (the round-trip check pins it).  The shared
    # candidate below is that formula with sigma left out (beta is the
    # upper-right entry); it matches factorize only componentwise, in
    # different components for the two isomers.
    expected = {
        "su11": {"t": False, "theta": True, "eta": False},
        "su11-minus": {"t": True, "theta": False, "eta": False},
    }
    matches: Dict[str, Dict[str, bool]] = {}
    for group, label in (("su11", "su11"), ("su11_minus", "su11-minus")):
        gens, pts = su11_chart_ring(group)
        p = pts[0]
        a, b = p.a, p.beta
        abar, bbar = a.star(), b.star()
        half = gens.scalar(GR(Fraction(1, 2), 0))
        ihalf = gens.scalar(GR(0, Fraction(1, 2)))
        t_lit = a * (gens.one() - ihalf * b * bbar)
        theta_lit = half * (bbar * a + b * abar)
        eta_lit = half * (bbar * a - b * abar)
        got = factorize(p, group)
        matches[label] = {
            "t": got.t == t_lit,
            "theta": got.theta == theta_lit,
            "eta": got.eta == eta_lit,
        }
    status = "pass" if matches == expected else "fail"
    detail = {
        "shared_candidate": {
            "t": "a*(1 - (i/2)*beta*star(beta))",
            "theta": "(star(beta)*a + beta*star(a))/2",
            "eta": "(star(beta)*a - beta*star(a))/2",
        },
        "componentwise_match": matches,
        "resolution": "factorize is one formula in the star sign sigma "
                      "that factors both isomers, verified by the "
                      "round-trip check; the sigma-free candidate matches "
                      "it only componentwise",
    }
    return status, detail


def _span_monomials(group: str, bound: int):
    nmask = 1 << len(ODD_COORDS[group])
    for m in range(-bound, bound + 1):
        for mask in range(nmask):
            if group == "su11" and m == 0 and mask == 0b11:
                continue
            yield m, mask


def _check_pw_span(group: str):
    def run(config: RunConfig):
        count = 0
        for m, mask in _span_monomials(group, config.weights):
            f = Section(group, {(m, mask): 1})
            res = expand(f)
            if not res.residual.is_zero():
                return "fail", {"error": "nonzero residual", "m": m,
                                "mask": mask}
            if reconstruct(res.coefficients, group) != f:
                return "fail", {"error": "reconstruction mismatch", "m": m,
                                "mask": mask}
            count += 1
        return "pass", {"group": group, "weight_bound": config.weights,
                        "monomials": count}
    return run


def _check_pw_residual(config: RunConfig):
    f = Section("su11", {(0, 0b11): 1})
    res = expand(f)
    if res.coefficients or res.residual != f:
        return "fail", {"error": "the weight-zero theta*eta monomial no "
                                 "longer reproduces the documented residual"}
    return "expected-discrepancy", {
        "monomial": "theta*eta at weight 0",
        "residual": "the monomial itself, exactly",
        "note": "outside listed span; reported as a finding, not a failure",
    }


def _check_berezinian(config: RunConfig):
    # X_k = [[a_k + p_k*q_k, b_k], [g_k, d_k + r_k*s_k]], with a_k and d_k
    # even Laurent generators and the rest odd.  Every even (1|1) pair with
    # invertible diagonal entries is an image of (X_1, X_2), so an identity
    # here holds for all such pairs.  The nilpotent parts catch an inverse
    # series cut short: it can be exact on [[a_k, b_k], [g_k, d_k]] alone.
    gens = GeneratorSet([s + k for k in "12" for s in "bgpqrs"],
                        even=["a1", "d1", "a2", "d2"])

    def universal(k: str) -> SuperMatrix:
        def gen(name):
            return gens.odd_gen(name + k)
        return SuperMatrix(1, 1, [
            [gens.even_gen("a" + k) + gen("p") * gen("q"), gen("b")],
            [gen("g"), gens.even_gen("d" + k) + gen("r") * gen("s")],
        ])

    x, y = universal("1"), universal("2")
    x_inv = inverse_1_1(x)
    ber_x = berezinian(x)
    identities = {
        "Ber(XY) = Ber(X)*Ber(Y)": berezinian(x * y) == ber_x * berezinian(y),
        "inverse_1_1(X)*X = 1": x_inv * x == SuperMatrix.identity(gens, 1, 1),
        "Ber(X^-1)*Ber(X) = 1": berezinian(x_inv) * ber_x == gens.one(),
    }
    for name, holds in identities.items():
        if not holds:
            return "fail", {"error": "identity fails on the universal pair",
                            "identity": name}
    for group, label in (("su11", "su11"), ("su11_minus", "su11-minus")):
        cgens, pts = su11_chart_ring(group)
        if berezinian(pts[0].matrix()) != cgens.one():
            return "fail", {"error": "constrained point has berezinian != 1",
                            "group": label}
    return "pass", {"identities": list(identities),
                    "universal_pair": {"even_generators": 4,
                                       "odd_generators": 12},
                    "constrained_points": ["su11", "su11-minus"]}


_VERIFY_CHECKS = [
    ("structure-constants", _check_structure_constants),
    ("representation-identities", _check_representation_identities),
    ("intertwiner-spaces", _check_intertwiners),
    ("decomposition-oracle", _check_decomposition_oracle),
    ("involution-rho", _check_involution_rho),
    ("involution-sigma", _check_involution_sigma),
    ("factorization-round-trip", _check_factorization),
    ("isomer-convention", _check_isomer_convention),
    ("peter-weyl-span-s11", _check_pw_span("s11")),
    ("peter-weyl-span-su11", _check_pw_span("su11")),
    ("peter-weyl-weight-zero-residual", _check_pw_residual),
    ("berezinian", _check_berezinian),
]

# Claim order: largest check first, as timed cold at --weights 40 by
# tools/check_costs.py, except that the 1 ms structure-constants check
# leads, so a worker's first claim is the report's first check.
_CLAIM_ORDER = (
    "structure-constants", "peter-weyl-span-su11", "intertwiner-spaces",
    "representation-identities", "decomposition-oracle",
    "peter-weyl-span-s11", "factorization-round-trip", "involution-sigma",
    "berezinian", "isomer-convention", "involution-rho",
    "peter-weyl-weight-zero-residual",
)


def _run_check(fn, config: RunConfig) -> Tuple[str, dict]:
    try:
        return fn(config)
    except Exception as exc:  # a crashed check is a failed check
        return "fail", {"error": "%s: %s" % (type(exc).__name__, exc)}


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_checks_forked(config: RunConfig, workers: int) -> list:
    """(status, detail) of every verify check, in report order, from this
    process and up to workers - 1 forked ones.

    Each process claims its next check index, in the fixed, measured order
    of _CLAIM_ORDER (largest first), with a 1-byte read from one shared
    pipe; a worker sends its results back on its own pipe with marshal and
    leaves through os._exit.  A check whose result never arrives (its
    worker died) is run here.  No worker outlives the call.
    """
    index = {name: i for i, (name, fn) in enumerate(_VERIFY_CHECKS)}
    claims, feed = os.pipe()
    os.write(feed, bytes(index[name] for name in _CLAIM_ORDER))
    os.close(feed)
    results: Dict[int, Tuple[str, dict]] = {}
    children: Dict[int, int] = {}  # pid -> read end of its result pipe

    def claim_and_run() -> list:
        done = []
        while True:
            index = os.read(claims, 1)
            if not index:
                return done
            i = index[0]
            done.append((i, *_run_check(_VERIFY_CHECKS[i][1], config)))

    try:
        for _ in range(workers - 1):
            inbox, outbox = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no more processes: the others run their share
                os.close(inbox)
                os.close(outbox)
                break
            if pid == 0:
                try:
                    with os.fdopen(outbox, "wb") as fh:
                        marshal.dump(claim_and_run(), fh)
                finally:
                    os._exit(0)
            os.close(outbox)
            children[pid] = inbox
        for i, status, detail in claim_and_run():
            results[i] = status, detail
        for inbox in children.values():
            with open(inbox, "rb", closefd=False) as fh:
                sent = fh.read()
            try:
                for i, status, detail in marshal.loads(sent):
                    results[i] = status, detail
            except EOFError:
                pass  # the worker died; its checks are run below
    finally:  # a worker that has exited is a zombie, so the kill is harmless
        os.close(claims)
        for pid, inbox in children.items():
            os.close(inbox)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return [results[i] if i in results else _run_check(fn, config)
            for i, (name, fn) in enumerate(_VERIFY_CHECKS)]


def cmd_verify(config: RunConfig) -> Tuple[dict, int]:
    threading = sys.modules.get("threading")
    workers = min(_usable_cpus(), len(_VERIFY_CHECKS))
    if not hasattr(os, "fork") or (threading is not None
                                   and threading.active_count() > 1):
        workers = 1  # forking beside a running thread is unsafe
    results = _run_checks_forked(config, workers)
    checks = [{"name": name, "status": status, "detail": detail}
              for (name, fn), (status, detail) in zip(_VERIFY_CHECKS, results)]
    failures = sorted(c["name"] for c in checks if c["status"] == "fail")
    report = {
        "command": "verify",
        "config": config.to_json(),
        "checks": checks,
        "failing": failures,
        "status": "fail" if failures else "pass",
    }
    return report, (1 if failures else 0)


# --- rep / point / pw commands ---------------------------------------------


def cmd_rep(action: str, path: str) -> Tuple[dict, int]:
    rep = _read(path, representation_from_json)
    if action == "validate":
        problems = validate_representation(rep)
        report = {
            "command": "rep-validate",
            "algebra": rep.algebra,
            "dim": rep.dim,
            "valid": not problems,
            "problems": problems,
        }
        return report, (0 if not problems else 1)
    decomp = decompose_s11 if rep.algebra == "s11" else decompose_su11
    report_obj = decomp(rep)
    return report_obj.to_json(), 0


def cmd_point(action: str, path: str, group_flag: str) -> Tuple[dict, int]:
    if group_flag == "s11":  # argparse offers s11 to involute only
        w, eta = rho_s11(*_read(path, _parse_pair))
        return {"w": w.to_json(), "eta": eta.to_json()}, 0
    group = GROUP_TAGS[group_flag]
    p = _read(path, lambda o: point_from_json(o, _chart_gens(group, o, "a")))
    if action == "involute":
        return sigma_su(p).to_json(), 0
    if action == "check":
        member, diag = membership(p, group)
        report = {
            "command": "point-check",
            "group": group_flag,
            "member": member,
            "diagnostic": diag,
        }
        return report, 0
    # factorize; membership is a precondition and failures exit with code 1
    triple = factorize(p, group)
    return triple.to_json(), 0


def cmd_pw(args) -> Tuple[dict, int]:
    if args.pw_action == "expand":
        res = expand(_read(args.file, section_from_json))
        report = res.to_json()
        if not res.residual.is_zero():
            report["note"] = "outside listed span"
        return report, 0
    # coeffs
    if args.adjoint:
        if args.m is not None or args.sign is not None:
            raise InputError("--adjoint excludes --m and --sign")
        rep = make_adjoint_su11()
        desc = {"type": "adjoint"}
    else:
        if args.m is None or args.sign is None:
            raise InputError("coeffs needs either --adjoint or both --m "
                             "and --sign")
        if args.m == 0:
            raise InputError("weight 0 with a sign is degenerate; the "
                             "weight-0 coefficients come from --adjoint")
        rep = make_pi_m(args.m, args.sign)
        desc = {"type": "pi", "m": args.m, "sign": args.sign}
    sections = matrix_coefficients(rep)
    entries = []
    for i in range(rep.dim):
        for j in range(rep.dim):
            sec = sections[(i, j)]
            if sec.is_zero():
                continue
            entries.append({"i": i, "j": j, "section": sec.to_json()})
    report = {
        "command": "pw-coeffs",
        "group": "su11",
        "rep": desc,
        "entries": entries,
    }
    return report, 0


# --- argument parsing -------------------------------------------------------


def _add_out(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="write the report to FILE instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="supercircle",
        description="Exact computations with the compact 1|1 supergroups "
                    "and their representations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the invariant suite")
    p_verify.add_argument("--weights", type=int, default=10, metavar="N",
                          help="weight bound for suite checks (default 10)")
    p_verify.add_argument("--seed", type=int, default=0,
                          help="seed for randomized checks (default 0)")
    _add_out(p_verify)

    p_rep = sub.add_parser("rep", help="representation tools")
    rep_sub = p_rep.add_subparsers(dest="rep_action", required=True)
    for name, blurb in (("validate", "report defining-relation diagnostics"),
                        ("decompose", "split into irreducible and "
                                      "indecomposable blocks")):
        p = rep_sub.add_parser(name, help=blurb)
        p.add_argument("file", help="representation JSON file")
        _add_out(p)

    p_point = sub.add_parser("point", help="group point tools")
    point_sub = p_point.add_subparsers(dest="point_action", required=True)
    for name, blurb, groups in (
            ("check", "membership test with diagnostic",
             "sl11 su11 su11-minus"),
            ("factorize", "factorization coordinates (t, theta, eta)",
             "su11 su11-minus"),
            ("involute", "apply the real-structure involution",
             "sl11 su11 su11-minus s11")):
        p = point_sub.add_parser(name, help=blurb)
        p.add_argument("file", help="point JSON file")
        p.add_argument("--group", choices=groups.split(), required=True)
        _add_out(p)

    p_pw = sub.add_parser("pw", help="matrix coefficients and expansion")
    pw_sub = p_pw.add_subparsers(dest="pw_action", required=True)
    p_coeffs = pw_sub.add_parser("coeffs", help="entry sections of a "
                                                "coefficient block")
    p_coeffs.add_argument("--m", type=int, default=None,
                          help="weight of the block")
    p_coeffs.add_argument("--sign", choices=["+", "-"], default=None,
                          help="sign of the block")
    p_coeffs.add_argument("--adjoint", action="store_true",
                          help="the weight-zero 1|2 block instead")
    _add_out(p_coeffs)
    p_expand = pw_sub.add_parser("expand", help="expand a section file "
                                                "exactly")
    p_expand.add_argument("file", help="section JSON file")
    _add_out(p_expand)

    return parser


def _dispatch(args: argparse.Namespace) -> Tuple[dict, int]:
    if args.command == "verify":
        return cmd_verify(RunConfig(weights=args.weights, seed=args.seed))
    if args.command == "rep":
        return cmd_rep(args.rep_action, args.file)
    if args.command == "point":
        return cmd_point(args.point_action, args.file, args.group)
    return cmd_pw(args)


def _render(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        report, code = _dispatch(args)
    except InputError as exc:
        report, code = {"error": str(exc)}, 2
    except ValueError as exc:
        report, code = {"error": str(exc)}, 1
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(_render(report))
            return code
        except OSError as exc:
            report, code = {"error": "cannot write %s: %s" % (
                args.out, exc.strerror or exc)}, 2
    sys.stdout.write(_render(report))
    return code


if __name__ == "__main__":
    sys.exit(main())
