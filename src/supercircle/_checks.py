"""The checks of ``supercircle verify``, listed in report order in
``_VERIFY_CHECKS``, and ``_run_checks_forked``, which shares them across
CPUs.  Each check takes a run's configuration (its ``weights`` and ``seed``)
and returns (status, detail); the checks share no state.

Four checks prove their claims for every weight m != 0 at once, on blocks
built from the generator s of the Laurent ring Q(i)[s, 1/s] (see _generic);
for 0 < |m| <= ``weights``, the counts in their reports, each checks that
those blocks at s = sqrt_neg_im(m) are the ``make_*`` blocks.
"""

import marshal
import os
import random
import signal
import sys
from fractions import Fraction
from typing import Dict, Tuple

from .grassmann import GeneratorSet, GrassmannElement, _add_into, _nonzero
from .harmonic import (Section, _entry_terms, _weight_constants,
                       _weight_solution, expand, reconstruct)
from .liealg import (Representation, _relation_problems, _structure_problems,
                     builtin_algebra, find_even_intertwiners)
from .reps import (_pi_odd, _v_odd, decompose_s11, decompose_su11, make_pi_m,
                   make_V_m, random_direct_sum, scramble)
from .scalars import I, ONE, ZERO, _fma, sqrt_neg_im
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


# the generic root s, and harmonic._weight_constants at it: s, 1/s, i/s, 1/m
_S = GeneratorSet([], even=["s"]).element({((1,), 0): ONE})
_CONSTANTS = (_S, _S ** -1, I * _S ** -1, -I * _S ** -2)
# name: algebra, builder from a root and constructor from a weight
_WEIGHT_BLOCKS = {
    "V_m": ("s11", lambda s: _v_odd(s), lambda m: make_V_m(m)),
    "pi_m^+": ("su11", lambda s: _pi_odd(s, "+"), lambda m: make_pi_m(m, "+")),
    "pi_m^-": ("su11", lambda s: _pi_odd(s, "-"), lambda m: make_pi_m(m, "-")),
}


def _generic(block: str) -> Representation:
    """The block built from s, of weight m = i*s^2; sending s to sqrt_neg_im(m)
    is a ring homomorphism onto the weight-m block, so an identity, or an
    elimination with unit pivots c*s^k only, holds at every m != 0."""
    algebra, build, _ = _WEIGHT_BLOCKS[block]
    m = I * _S ** 2
    return Representation._of(algebra, (0, 1), (m, m), build(_S))


def _at(x, root):
    """x, an entry of a generic block or a generic constant, at s = root."""
    if not isinstance(x, GrassmannElement):
        return x  # an entry in Q(i)
    value = ZERO
    for ((k,), _), c in x.terms.items():
        for _ in range(abs(k)):  # _fma skips a factor that is ONE
            c = _fma(None, c, root if k > 0 else root.inverse())
        value = c if value is ZERO else value + c
    return value


def _specialisation_mismatch(bound: int, blocks, constants=()):
    """The failure detail of the first weight 0 < |m| <= bound at which a
    named generic block or a constant, at s = sqrt_neg_im(m), differs from
    its constructor's or _weight_constants(m); None if there is none."""
    generic = [(block, _WEIGHT_BLOCKS[block][2], _generic(block).odd)
               for block in blocks]
    for mm in (m * sign for m in range(1, bound + 1) for sign in (1, -1)):
        root = sqrt_neg_im(mm)
        for block, build, odd in generic:
            made = build(mm)
            if (made.parities, made.weights) != ((0, 1), (mm, mm)):
                return {"error": "constructor's basis differs from the "
                        "generic block's", "weight": mm, "block": block}
            for name, mat in odd.items():
                for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)):
                    if _at(mat[i, j], root) != made.odd[name][i, j]:
                        return {"error": "generic block differs from its "
                                "constructor", "weight": mm, "block": block,
                                "generator": name, "entry": [i, j]}
        for k, (x, c) in enumerate(zip(constants, _weight_constants(mm))):
            if _at(x, root) != c:
                return {"error": "generic constant %d differs from "
                                 "_weight_constants" % k, "weight": mm}
    return None


def _check_representation_identities(config):
    failed = _specialisation_mismatch(config.weights, _WEIGHT_BLOCKS)
    if failed:
        return "fail", failed
    for block in _WEIGHT_BLOCKS:
        rep = _generic(block)
        problems = _structure_problems(rep) or _relation_problems(
            rep, range(2), [_S * _S] * 2)
        if problems:
            return "fail", {"error": problems[0], "block": block}
    return "pass", {"weight_bound": config.weights,
                    "representations": 6 * config.weights}


def _check_intertwiners(config):
    signs = ("pi_m^+", "pi_m^-")
    failed = _specialisation_mismatch(config.weights, signs)
    if failed:
        return "fail", failed
    plus, minus = map(_generic, signs)
    if find_even_intertwiners(plus, minus):
        return "fail", {"error": "unexpected intertwiner between "
                                 "opposite signs"}
    selfdim = len(find_even_intertwiners(plus, plus))
    if selfdim != 1:
        return "fail", {"error": "self-intertwiner space has "
                                 "dimension %d" % selfdim}
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


def _check_pw_span(group: str):
    # expand's solution at the generic constants, rebuilt by reconstruct's
    # reader on the generic block, must be each odd monomial
    block = {"s11": "V_m", "su11": "pi_m^+"}[group]
    def run(config):
        failed = _specialisation_mismatch(config.weights, [block], _CONSTANTS)
        if failed:
            return "fail", failed
        odd = list(_generic(block).odd.values())  # in generator order
        nmask = 1 << len(odd)
        for mask in range(nmask):
            got: Dict[int, object] = {}
            rhs = [ONE if k == mask else ZERO for k in range(nmask)]
            for (i, j), c in _weight_solution(group, _CONSTANTS, rhs):
                _add_into(got, {k: x * c for k, x in _entry_terms(odd, i, j)})
            if _nonzero(got) != {mask: ONE}:
                return "fail", {"error": "reconstruction mismatch",
                                "block": block, "mask": mask}
        # weight zero, one fixed case: all but su11's documented residual
        zero = [mask for mask in range(nmask) if group == "s11" or mask < 3]
        for mask in zero:
            f = Section(group, {(0, mask): 1})
            res = expand(f)
            if not res.residual.is_zero():
                return "fail", {"error": "nonzero residual", "m": 0,
                                "mask": mask}
            if reconstruct(res.coefficients, group) != f:
                return "fail", {"error": "reconstruction mismatch", "m": 0,
                                "mask": mask}
        return "pass", {"group": group, "weight_bound": config.weights,
                        "monomials": 2 * config.weights * nmask + len(zero)}
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
    "structure-constants", "decomposition-oracle", "representation-identities",
    "peter-weyl-span-su11", "intertwiner-spaces", "peter-weyl-span-s11",
    "factorization-round-trip", "berezinian", "involution-sigma",
    "isomer-convention", "involution-rho", "peter-weyl-weight-zero-residual",
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


def _pin(cpus) -> None:
    """Let this process run only on cpus; an OSError leaves it as it was."""
    try:
        os.sched_setaffinity(0, cpus)
    except OSError:
        pass


def _run_checks_forked(config) -> list:
    """(name, status, detail) of every verify check, in report order, from
    this process and one forked worker per extra usable CPU.  With one CPU,
    without os.fork or while a second thread is alive it runs them one after
    another; the results are the same either way.

    Where os.sched_setaffinity exists and the process may run on at least
    one CPU per process, each process runs on its own CPU of that set: this
    one on the first for the duration of the call (its mask is restored on
    the way out), worker k on the (k+1)-th.  Left alone, the kernel keeps a
    new process on its parent's CPU for longer than the checks take, so the
    two would share one CPU.

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
    pinnable = workers > 1 and hasattr(os, "sched_setaffinity")
    mask = os.sched_getaffinity(0) if pinnable else set()
    cpus = sorted(mask) if len(mask) >= workers else []
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
        if cpus:
            _pin({cpus[0]})
        for k in range(1, workers):
            inbox, outbox = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no more processes: the others run their share
                os.close(inbox)
                os.close(outbox)
                break
            if pid == 0:
                try:  # the pipe stays open until the process has exited
                    if cpus:
                        _pin({cpus[k]})
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
        if cpus:
            _pin(mask)
    results = {i: (status, detail) for i, status, detail in done}
    return [(name, *(results.get(i) or _run_check(fn, config)))
            for i, (name, fn) in enumerate(_VERIFY_CHECKS)]
