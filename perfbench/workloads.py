"""The four benchmark workloads.

Each workload turns a seed into an endless, deterministic stream of inputs
(input ``i`` depends only on the seed and ``i``), runs one operation per
input through the library's public functions, and checks the result
exactly.  Input ``-1`` is the warm-up input, so measured inputs never
repeat.  The library is imported in :meth:`Workload.setup`, which is what
``setup_s`` times.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from typing import Any, Dict

HERE = os.path.dirname(os.path.abspath(__file__))


class Workload:
    """One workload: its input stream, its op, and the check of an op's
    result.  Subclasses set the class attributes below."""

    name = ""
    sizes: Dict[str, Any] = {}
    batch = 0          # inputs generated during set-up
    trace_ops = 0      # ops per phase of a traced run
    min_ops = 0        # ops per untraced run, however long they take
    digest_ops = 16    # leading ops whose outputs the digest covers
    property_ops = 16  # leading ops replayed traced after an untraced run
    warm_up = True
    units: list = []   # calibration units timed inside the last op
    process_per_op = False

    def setup(self, seed: int) -> None:
        self.seed = seed

    def rng(self, i: int) -> random.Random:
        return random.Random("%s:%d:%d" % (self.name, self.seed, i))

    def make_input(self, i: int):
        raise NotImplementedError

    def run_op(self, inp):
        raise NotImplementedError

    def check(self, inp, out) -> bool:
        raise NotImplementedError

    def canonical(self, inp, out) -> bytes:
        raise NotImplementedError


def _dumps(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


class Decompose(Workload):
    name = "decompose"
    sizes = {"max_blocks": 8, "weight_bound": 4,
             "algebras": ["s11", "su11"], "alternating": True,
             "structure": "by index", "scramble": "by seed"}
    batch = 8
    trace_ops = 60

    def setup(self, seed):
        super().setup(seed)
        from supercircle import reps
        self.reps = reps

    def _decompose(self, algebra):
        return (self.reps.decompose_s11 if algebra == "s11"
                else self.reps.decompose_su11)

    def make_input(self, i):
        # The direct sum depends on the index alone and the seed picks the
        # scramble.  Cost is set by the block structure (80x the variance
        # the scramble adds), so drawing the structure from the seed as
        # well would make a run's figures depend on its seed by about 8%.
        algebra = ("s11", "su11")[i % 2]
        model = self.reps.random_direct_sum(
            algebra, random.Random("%s-structure:%d" % (self.name, i)),
            max_blocks=8, weight_bound=4)
        want = self._decompose(algebra)(model).labels()
        return algebra, self.reps.scramble(model, self.rng(i)), want

    def run_op(self, inp):
        algebra, rep, _ = inp
        report = self._decompose(algebra)(rep)
        return report, report.verify(rep)

    def check(self, inp, out):
        report, certified = out
        return certified is True and report.labels() == inp[2]

    def canonical(self, inp, out):
        return _dumps(out[0].to_json())


class Berezinian(Workload):
    name = "berezinian"
    sizes = {"odd_generators": 4, "terms_per_entry": [1, 4],
             "coefficient_range": [-3, 3]}
    batch = 32
    trace_ops = 300

    def setup(self, seed):
        super().setup(seed)
        from supercircle import supermatrix
        from supercircle.grassmann import GeneratorSet
        from supercircle.scalars import GaussianRational
        self.sm = supermatrix
        self.gr = GaussianRational
        self.gens = GeneratorSet(["x0", "x1", "x2", "x3"])

    def _sample(self, rng):
        # the sampler of the verify command's berezinian check, copied so
        # that the inputs stay fixed while the library changes
        gens, gr = self.gens, self.gr
        masks_even = [m for m in range(16) if bin(m).count("1") % 2 == 0]
        masks_odd = [m for m in range(16) if bin(m).count("1") % 2 == 1]

        def entry(odd_entry):
            masks = masks_odd if odd_entry else masks_even
            terms = {}
            for mask in rng.sample(masks, rng.randint(1, 4)):
                c = gr(rng.randint(-3, 3), rng.randint(-3, 3))
                if not c.is_zero():
                    terms[((), mask)] = c
            return gens.element(terms)

        rows = [[entry(False), entry(True)], [entry(True), entry(False)]]
        for i in (0, 1):
            if rows[i][i].body().is_zero():
                rows[i][i] = rows[i][i] + gens.scalar(gr(rng.randint(1, 3), 0))
        return self.sm.SuperMatrix(1, 1, rows)

    def make_input(self, i):
        rng = self.rng(i)
        return self._sample(rng), self._sample(rng)

    def run_op(self, inp):
        a, b = inp
        ber = self.sm.berezinian
        product = ber(a * b)
        return product, product == ber(a) * ber(b)

    def check(self, inp, out):
        return out[1] is True

    def canonical(self, inp, out):
        return _dumps(out[0].to_json())


class PeterWeyl(Workload):
    name = "peter-weyl"
    sizes = {"monomials": [1, 4], "weight_bound": 40,
             "coefficient_range": [-3, 3], "theta_eta_share": 0.125,
             "groups": ["su11", "s11"], "alternating": True}
    batch = 32
    trace_ops = 300

    def setup(self, seed):
        super().setup(seed)
        from supercircle import harmonic
        from supercircle.scalars import GaussianRational
        self.h = harmonic
        self.gr = GaussianRational

    def make_input(self, i):
        rng = self.rng(i)
        group = ("su11", "s11")[i % 2]
        nmask = 4 if group == "su11" else 2
        terms = {}
        for _ in range(rng.randint(1, 4)):
            key = (rng.randint(-40, 40), rng.randrange(nmask))
            c = self.gr(rng.randint(-3, 3), rng.randint(-3, 3))
            terms[key] = terms[key] + c if key in terms else c
        if group == "su11" and rng.random() < 0.125:
            terms[(0, 0b11)] = self.gr(rng.randint(1, 3), rng.randint(-3, 3))
        section = self.h.Section(group, terms)
        if section.is_zero():
            section = self.h.Section(group, {(1, 0): self.gr(1)})
        return section

    def run_op(self, f):
        res = self.h.expand(f)
        return res, self.h.reconstruct(res.coefficients, f.group)

    def check(self, f, out):
        res, rebuilt = out
        allowed = {(0, 0b11)} if f.group == "su11" else set()
        if not set(res.residual.terms) <= allowed:
            return False
        if any(res.residual.terms[k] != f.terms.get(k)
               for k in res.residual.terms):
            return False
        return rebuilt + res.residual == f

    def canonical(self, f, out):
        return _dumps(out[0].to_json())


class Verify(Workload):
    """``supercircle verify --weights 40 --seed k``, one fresh interpreter
    per op, so nothing cached in a module carries over between ops.

    The interpreter runs ``run.py --verify-child``, which calls the CLI's
    ``main`` and meanwhile times a calibration unit every few milliseconds
    (an op lasts seconds, long enough for the host's speed to change)."""

    name = "verify"
    sizes = {"weights": 40, "process_per_op": True,
             "verify_seeds": "1000*seed + op index"}
    process_per_op = True
    min_ops = 7
    batch = 0
    trace_ops = 1
    digest_ops = 2
    property_ops = 1
    warm_up = False
    traced = False

    def setup(self, seed):
        super().setup(seed)
        import supercircle.cli as cli
        cli.build_parser()
        self.reports = {}
        self.summaries = []

    def make_input(self, i):
        # The work of `verify` depends on its seed (by 9% between seeds), so
        # each op of a run uses another one.  Runs repeat op 0's seed after
        # measuring, which checks determinism.
        return 1000 * self.seed + i

    def run_op(self, verify_seed):
        cmd = [sys.executable, os.path.join(HERE, "run.py"),
               "--verify-child", "op%d" % verify_seed,
               "--trace", str(int(self.traced)), "--",
               "verify", "--weights", "40", "--seed", str(verify_seed)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, timeout=170)
        summary = json.loads(proc.stderr.splitlines()[-1])
        self.units = summary["units"]
        if self.traced:
            self.summaries.append(summary["trace"])
        return proc

    def check(self, verify_seed, proc):
        if proc.returncode != 0:
            return False
        if json.loads(proc.stdout).get("status") != "pass":
            return False
        first = self.reports.setdefault(verify_seed, proc.stdout)
        return proc.stdout == first

    def canonical(self, i, proc):
        return proc.stdout


WORKLOADS = {w.name: w for w in (Decompose, Berezinian, PeterWeyl, Verify)}
