"""The checks of ``supercircle verify``, listed in report order in
``_VERIFY_CHECKS``, and ``_run_checks_forked``, which shares them across
CPUs.  Each check takes a run's configuration (its ``weights`` and ``seed``)
and returns (status, detail); the checks share no state.
"""

import marshal
import os
import random
import signal
import sys
from fractions import Fraction
from typing import Dict, Tuple

from .grassmann import GeneratorSet
from .harmonic import ODD_COORDS, Section, expand, reconstruct
from .liealg import (
    builtin_algebra,
    find_even_intertwiners,
    validate_representation,
)
from .reps import (
    decompose_s11,
    decompose_su11,
    make_pi_m,
    make_V_m,
    random_direct_sum,
    scramble,
)
from .scalars import GaussianRational as GR
from .supergroup import (
    GROUP_NAMES,
    c11x_ring,
    defactorize,
    defining_matrices,
    factorization_triple_ring,
    factorize,
    membership,
    rho_s11,
    s11_chart_ring,
    sigma_su,
    sl11_generic_ring,
    su11_chart_ring,
)
from .supermatrix import SuperMatrix, berezinian, inverse_1_1, supercommutator

# The two isomers of SU(1|1): each one's tag in the layers and name in reports.
_ISOMERS = tuple((tag, name) for tag, name in GROUP_NAMES.items()
                 if tag != "sl11")


def _check_structure_constants(config):
    builtin_algebra("s11")  # each constructor re-validates its table
    su = builtin_algebra("su11")
    defining = defining_matrices()
    mats = [defining[name] for name in su.names]
    for i in range(len(mats)):
        for j in range(len(mats)):
            terms = [c * mat for c, mat in zip(su.bracket(i, j), mats)]
            expected = sum(terms[1:], terms[0])
            if supercommutator(mats[i], mats[j]) != expected:
                return "fail", {"error": "defining matrices disagree with the "
                                         "bracket table at (%d, %d)" % (i, j)}
    return "pass", {"tables": ["s11", "su11"],
                    "defining_matrices": "realize the su11 bracket table "
                                         "under the supercommutator"}


def _check_representation_identities(config):
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


def _check_intertwiners(config):
    for m in range(1, config.weights + 1):
        for mm in (m, -m):
            plus = make_pi_m(mm, "+")
            minus = make_pi_m(mm, "-")
            if find_even_intertwiners(plus, minus):
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


def _check_decomposition_oracle(config):
    rng = random.Random(config.seed)
    trials, max_blocks = 0, 8
    for algebra, decomp in (("s11", decompose_s11), ("su11", decompose_su11)):
        for _ in range(3):
            model = random_direct_sum(algebra, rng, max_blocks)
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
    return "pass", {"trials": trials, "max_blocks": max_blocks,
                    "seed": config.seed}


def _check_involution_rho(config):
    gens, w, eta = c11x_ring()
    if rho_s11(*rho_s11(w, eta)) != (w, eta):
        return "fail", {"error": "applying the circle involution twice is "
                                 "not the identity on the generic point"}
    cgens, cw, ceta = s11_chart_ring()
    if rho_s11(cw, ceta) != (cw, ceta):
        return "fail", {"error": "the constrained chart point is not fixed"}
    if cw * cw.star() != cgens.one():
        return "fail", {"error": "w * star(w) != 1 on the constrained chart"}
    return "pass", {"involutive": "generic invertible 1|1 point",
                    "fixed_locus": "constrained chart point, with "
                                   "w * star(w) = 1"}


def _check_involution_sigma(config):
    gens, p = sl11_generic_ring()
    if sigma_su(sigma_su(p)) != p:
        return "fail", {"error": "applying sigma twice is not the identity "
                                 "on the generic unimodular point"}
    sgens, [q] = su11_chart_ring("su11")
    if sigma_su(q) != q:
        return "fail", {"error": "the su11 chart point is not sigma-fixed"}
    ok, diag = membership(q, "su11")
    if not ok:
        return "fail", {"error": "sigma-fixed point fails membership: "
                                 + diag}
    mgens, [qm] = su11_chart_ring("su11_minus")
    if sigma_su(qm) == qm:
        return "fail", {"error": "the isomer chart point is unexpectedly "
                                 "sigma-fixed"}
    if not membership(qm, "su11_minus")[0] or membership(qm, "su11")[0]:
        return "fail", {"error": "isomer membership relations mixed up"}
    return "pass", {"involutive": "generic unimodular point",
                    "fixed_locus": "su11 chart point, satisfying the "
                                   "membership relations",
                    "isomer_separation": "the su11-minus chart point is "
                                         "moved by sigma and is not an su11 "
                                         "member"}


def _check_factorization(config):
    for group, label in _ISOMERS:
        gens, [p] = su11_chart_ring(group)
        triple = factorize(p, group)
        if defactorize(triple.t, triple.theta, triple.eta) != p:
            return "fail", {"error": "defactorize(factorize(p)) != p",
                            "group": label}
        tgens, generic = factorization_triple_ring(group)
        q = defactorize(generic.t, generic.theta, generic.eta)
        if factorize(q, group) != generic:
            return "fail", {"error": "factorize(defactorize(c)) != c",
                            "group": label}
    return "pass", {"groups": [label for group, label in _ISOMERS],
                    "round_trips": ["factorize then defactorize",
                                    "defactorize then factorize"]}


def _check_isomer_convention(config):
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
    for group, label in _ISOMERS:
        gens, [p] = su11_chart_ring(group)
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
    return "pass" if matches == expected else "fail", {
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


def _span_monomials(group: str, bound: int):
    nmask = 1 << len(ODD_COORDS[group])
    for m in range(-bound, bound + 1):
        for mask in range(nmask):
            if group == "su11" and m == 0 and mask == 0b11:
                continue
            yield m, mask


def _check_pw_span(group: str):
    def run(config):
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


def _check_pw_residual(config):
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


def _check_berezinian(config):
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
    for group, label in _ISOMERS:
        cgens, pts = su11_chart_ring(group)
        if berezinian(pts[0].matrix()) != cgens.one():
            return "fail", {"error": "constrained point has berezinian != 1",
                            "group": label}
    return "pass", {"identities": list(identities),
                    "universal_pair": {"even_generators": 4,
                                       "odd_generators": 12},
                    "constrained_points": [label for _, label in _ISOMERS]}


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
    "decomposition-oracle", "representation-identities",
    "peter-weyl-span-s11", "factorization-round-trip", "berezinian",
    "involution-sigma", "isomer-convention", "involution-rho",
    "peter-weyl-weight-zero-residual",
)


def _run_check(fn, config) -> Tuple[str, dict]:
    try:
        return fn(config)
    except Exception as exc:  # a crashed check is a failed check
        return "fail", {"error": "%s: %s" % (type(exc).__name__, exc)}


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_checks_forked(config) -> list:
    """(name, status, detail) of every verify check, in report order, from
    this process and one forked worker per extra usable CPU.  With one CPU,
    without os.fork or while a second thread is alive it runs them one after
    another; the results are the same either way.

    Each process claims its next check index, in the fixed, measured order
    of _CLAIM_ORDER (largest first), with a 1-byte read from one shared
    pipe; a worker writes its results in full to its own pipe with marshal
    and leaves through os._exit with the pipe still open, so the end of a
    worker's results means the worker has exited.  A check whose result
    never arrives (its worker died) is run here.  No worker outlives the
    call.
    """
    threading = sys.modules.get("threading")
    workers = min(_usable_cpus(), len(_VERIFY_CHECKS))
    if not hasattr(os, "fork") or (threading is not None
                                   and threading.active_count() > 1):
        workers = 1  # forking beside a running thread is unsafe
    index = {name: i for i, (name, fn) in enumerate(_VERIFY_CHECKS)}
    claims, feed = os.pipe()
    os.write(feed, bytes(index[name] for name in _CLAIM_ORDER))
    os.close(feed)
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
                try:  # the pipe stays open until the process has exited
                    sent = memoryview(marshal.dumps(claim_and_run()))
                    while sent:
                        sent = sent[os.write(outbox, sent):]
                finally:
                    os._exit(0)
            os.close(outbox)
            children[pid] = inbox
        done = claim_and_run()
        for inbox in children.values():
            with open(inbox, "rb", closefd=False) as fh:
                sent = fh.read()
            try:
                done += marshal.loads(sent)
            except EOFError:
                pass  # the worker died; its checks are run below
    finally:  # a worker that has exited is a zombie, so the kill is harmless
        os.close(claims)
        for pid, inbox in children.items():
            os.close(inbox)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    results = {i: (status, detail) for i, status, detail in done}
    return [(name, *(results.get(i) or _run_check(fn, config)))
            for i, (name, fn) in enumerate(_VERIFY_CHECKS)]
