"""Spans and counters around the public functions of each supercircle layer.

Everything here works from outside the library: :func:`install` replaces a
public function or method by a wrapper that records a span (name, start,
end, parent span, op id) or bumps a counter, and puts the wrapper into every
``supercircle`` module that binds the original object, so calls through
``from .x import f`` bindings are seen too.  Spans are kept in memory and
summarised (or written out) when the run ends.

Scalar arithmetic is counted, never spanned: a span per Q(i) operation
would cost more than the operation itself.
"""

from __future__ import annotations

import contextlib
import sys
import time
from fractions import Fraction
from typing import Callable, Dict, List, Optional

perf = time.perf_counter

# (span name, module, attribute); the attribute is a function or "Class.method"
SPANNED = [
    ("grassmann.mul", "supercircle.grassmann", "GrassmannElement.__mul__"),
    ("grassmann.invert", "supercircle.grassmann", "GrassmannElement.invert"),
    ("grassmann.star", "supercircle.grassmann", "GrassmannElement.star"),
    ("linalg.rref", "supercircle.linalg", "Matrix.rref"),
    ("linalg.kernel_basis", "supercircle.linalg", "Matrix.kernel_basis"),
    ("linalg.solve", "supercircle.linalg", "Matrix.solve"),
    ("linalg.inverse", "supercircle.linalg", "Matrix.inverse"),
    ("linalg.matmul", "supercircle.linalg", "Matrix.__mul__"),
    ("supermatrix.mul", "supercircle.supermatrix", "SuperMatrix.__mul__"),
    ("supermatrix.berezinian", "supercircle.supermatrix", "berezinian"),
    ("liealg.validate_representation", "supercircle.liealg",
     "validate_representation"),
    ("liealg.find_even_intertwiners", "supercircle.liealg",
     "find_even_intertwiners"),
    ("reps.decompose", "supercircle.reps", "decompose_s11"),
    ("reps.decompose", "supercircle.reps", "decompose_su11"),
    ("reps.report_verify", "supercircle.reps", "DecompositionReport.verify"),
    ("reps.make_block", "supercircle.reps", "make_V_m"),
    ("reps.make_block", "supercircle.reps", "make_pi_m"),
    ("reps.make_block", "supercircle.reps", "make_adjoint_su11"),
    ("reps.make_block", "supercircle.reps", "make_trivial"),
    ("reps.make_block", "supercircle.reps", "make_weight_zero_s11"),
    ("reps.scramble", "supercircle.reps", "scramble"),
    ("harmonic.expand", "supercircle.harmonic", "expand"),
    ("harmonic.reconstruct", "supercircle.harmonic", "reconstruct"),
    ("harmonic.matrix_coefficients", "supercircle.harmonic",
     "matrix_coefficients"),
    ("supergroup.factorize", "supercircle.supergroup", "factorize"),
    ("supergroup.membership", "supercircle.supergroup", "membership"),
    ("cli.main", "supercircle.cli", "main"),
]

# (counter name, module, attributes counted together)
COUNTED = [
    ("scalars.gr_new", "supercircle.scalars", ["GaussianRational.__init__"]),
    ("scalars.gr_mul", "supercircle.scalars",
     ["GaussianRational.__mul__", "GaussianRational.__rmul__"]),
    ("scalars.gr_add", "supercircle.scalars",
     ["GaussianRational.__add__", "GaussianRational.__radd__",
      "GaussianRational.__sub__", "GaussianRational.__rsub__"]),
    ("scalars.ext_mul", "supercircle.scalars",
     ["ExtendedScalar.__mul__", "ExtendedScalar.__rmul__"]),
    ("scalars.sqrt_neg_im", "supercircle.scalars", ["sqrt_neg_im"]),
]

HOOK = "trace.hook"
SPAN_NAMES = sorted({name for name, _, _ in SPANNED} | {HOOK})
COUNTER_NAMES = [name for name, _, _ in COUNTED] + ["scalars.fraction_new"]


class Tracer:
    """In-memory spans and counters for one process."""

    def __init__(self):
        self.spans: List[list] = []   # [name, start, end, parent, op]
        self.stack: List[int] = []
        self.counts: Dict[str, int] = {name: 0 for name in COUNTER_NAMES}
        self.op: Optional[str] = None
        self.rref_max_cols = 0
        self.mul_terms_max = 0
        self.decompose_dims: List[int] = []
        self.validated: set = set()
        self.validate_repeats = 0
        self.systems: set = set()
        self.system_count = 0
        self.system_repeats = 0

    # --- recording ------------------------------------------------------

    def _enter(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.op]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf()
        return rec

    def _exit(self, rec: list) -> None:
        rec[2] = perf()
        self.stack.pop()

    def _hook(self, fn: Callable, *args) -> None:
        # bookkeeping gets a span of its own, so it counts against neither
        # the caller's self time nor the layer's
        rec = self._enter(HOOK)
        try:
            fn(*args)
        finally:
            self._exit(rec)

    def spanned(self, name: str, fn: Callable, before=None, after=None):
        def wrapper(*args, **kwargs):
            if before is not None:
                self._hook(before, args)
            rec = self._enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._exit(rec)
            if after is not None:
                self._hook(after, args, out)
            return out

        return wrapper

    def counted(self, name: str, fn: Callable):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def paused(self):
        """Drop whatever the block records: correctness checks and digests
        run library code that is not part of the measured work."""
        n_spans = len(self.spans)
        counts = dict(self.counts)
        try:
            yield
        finally:
            del self.spans[n_spans:]
            self.counts.update(counts)

    # --- hooks that measure workload properties ------------------------

    def _note_rref(self, args):
        self.rref_max_cols = max(self.rref_max_cols, args[0].ncols)

    def _note_mul(self, args, out):
        if out is not NotImplemented:
            self.mul_terms_max = max(self.mul_terms_max, len(out.terms))

    def _note_decompose(self, args):
        self.decompose_dims.append(args[0].dim)

    def _note_validate(self, args):
        rep = args[0]
        # structural identity: equal keys exactly when the canonical JSON
        # of the two representations is equal
        key = (rep.algebra, rep.parities, rep.weights,
               tuple(sorted((k, m.rows) for k, m in rep.odd.items())))
        if key in self.validated:
            self.validate_repeats += 1
        else:
            self.validated.add(key)

    def _note_expand(self, args):
        section = args[0]
        for m in section.weights():
            if m == 0:
                continue
            self.system_count += 1
            key = (section.group, m)
            if key in self.systems:
                self.system_repeats += 1
            else:
                self.systems.add(key)

    # --- export ----------------------------------------------------------

    def summary(self) -> dict:
        """Per-layer totals over everything recorded in this process."""
        child_time = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[3] >= 0:
                child_time[rec[3]] += rec[2] - rec[1]
        calls = {name: 0 for name in SPAN_NAMES}
        self_s = {name: 0.0 for name in SPAN_NAMES}
        op_self: Dict[str, float] = {}
        for k, rec in enumerate(self.spans):
            own = rec[2] - rec[1] - child_time[k]
            calls[rec[0]] += 1
            self_s[rec[0]] += own
            if rec[4] is not None:
                op_self[rec[4]] = op_self.get(rec[4], 0.0) + own
        return {
            "calls": calls,
            "self_s": self_s,
            "op_self_s": op_self,
            "counts": dict(self.counts),
            "rref_max_cols": self.rref_max_cols,
            "mul_terms_max": self.mul_terms_max,
            "decompose_dims": list(self.decompose_dims),
            "validate_repeats": self.validate_repeats,
            "system_count": self.system_count,
            "system_repeats": self.system_repeats,
            "spans": len(self.spans),
        }

    def dump_spans(self, path: str) -> None:
        import json
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, fh, separators=(",", ":"))


def merge(summaries: List[dict]) -> dict:
    """Combine the summaries of several processes (the verify workload runs
    each op in its own interpreter)."""
    out = {
        "calls": {name: 0 for name in SPAN_NAMES},
        "self_s": {name: 0.0 for name in SPAN_NAMES},
        "op_self_s": {},
        "counts": {name: 0 for name in COUNTER_NAMES},
        "rref_max_cols": 0, "mul_terms_max": 0, "decompose_dims": [],
        "validate_repeats": 0,
        "system_count": 0, "system_repeats": 0, "spans": 0,
    }
    for s in summaries:
        for name in SPAN_NAMES:
            out["calls"][name] += s["calls"][name]
            out["self_s"][name] += s["self_s"][name]
        for name in COUNTER_NAMES:
            out["counts"][name] += s["counts"][name]
        out["op_self_s"].update(s["op_self_s"])
        out["decompose_dims"].extend(s["decompose_dims"])
        for key in ("rref_max_cols", "mul_terms_max"):
            out[key] = max(out[key], s[key])
        for key in ("validate_repeats", "system_count",
                    "system_repeats", "spans"):
            out[key] += s[key]
    return out


def _resolve(module: str, attr: str):
    owner = sys.modules[module]
    parts = attr.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _rebind_everywhere(original, replacement) -> None:
    for modname, mod in list(sys.modules.items()):
        if modname != "supercircle" and not modname.startswith("supercircle."):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, replacement)


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary listed above, once per process."""
    import supercircle.cli  # noqa: F401  (binds every layer module)

    hooks = {
        "linalg.rref": (tracer._note_rref, None),
        "grassmann.mul": (None, tracer._note_mul),
        "reps.decompose": (tracer._note_decompose, None),
        "liealg.validate_representation": (tracer._note_validate, None),
        "harmonic.expand": (tracer._note_expand, None),
    }
    for name, module, attr in SPANNED:
        owner, key = _resolve(module, attr)
        original = vars(owner)[key]
        before, after = hooks.get(name, (None, None))
        if name == "linalg.matmul":
            wrapped = _matrix_only(tracer.spanned(name, original), original)
        else:
            wrapped = tracer.spanned(name, original, before, after)
        setattr(owner, key, wrapped)
        if isinstance(owner, type(sys)):
            _rebind_everywhere(original, wrapped)
    for name, module, attrs in COUNTED:
        for attr in attrs:
            owner, key = _resolve(module, attr)
            original = vars(owner)[key]
            wrapped = tracer.counted(name, original)
            setattr(owner, key, wrapped)
            if isinstance(owner, type(sys)):
                _rebind_everywhere(original, wrapped)
    Fraction.__new__ = tracer.counted("scalars.fraction_new", Fraction.__new__)


def _matrix_only(traced, plain):
    """Span matrix products only, not scaling by a scalar."""
    from supercircle.linalg import Matrix

    def wrapper(self, other):
        if isinstance(other, Matrix):
            return traced(self, other)
        return plain(self, other)

    return wrapper
