"""Benchmark runner for supercircle.

Run from the repository root:

    python3 perfbench/run.py --workload decompose --seed 0 --seconds 6 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing patched;
``--trace 1`` runs the same workload with every layer wrapped (see
``tracer.py``) and reports the per-layer metrics.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it holds the details (environment, input
sizes, output digest, fail ratio, p90, raw wall times).
``--self-test`` runs every workload for a few ops and checks the result
format against BENCHMARK.json.

Each workload is a closed loop with one caller in one process and no
threads, so no operation ever waits for another.  Times are reported at
reference host speed (see ``calibrate.py``); the raw wall times are in the
details.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

perf = time.perf_counter
SETUP_SAMPLES = 5     # set-ups per run; setup_s is their median
WALL_CAP_S = 150.0    # stop measuring early rather than overrun 180 s
WAITING = ("none: one caller in one process with no threads, so no op "
           "waits for another")


def find_src() -> str:
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "supercircle", "__init__.py")):
        sys.exit("error: run from the repository root; src/supercircle "
                 "not found under %s" % os.getcwd())
    return src


def timed_setup(wl, seed: int):
    """Import, build, generate the first inputs and run one warm-up op.

    Returns (wall seconds, seconds at reference speed, inputs)."""
    before = calibrate.measure()
    start = perf()
    wl.setup(seed)
    inputs = [wl.make_input(i) for i in range(wl.batch)]
    if wl.warm_up:
        warm = wl.make_input(-1)
        if not wl.check(warm, wl.run_op(warm)):
            raise RuntimeError("warm-up op gave a wrong result")
    wall = perf() - start
    ref = calibrate.to_reference(wall, [before, calibrate.measure()])
    return wall, ref, inputs


def setup_probe(workload: str, seed: int) -> list:
    """One set-up in a fresh interpreter, so that import time counts."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        stdout=subprocess.PIPE, timeout=170, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Loop:
    """Runs ops over the input stream.  Inputs are made outside the timer;
    each op is timed between two calibration units."""

    def __init__(self, wl, inputs, first=0, tracer=None):
        self.wl = wl
        self.inputs = inputs
        self.tracer = tracer
        self.next = first
        self.wall = []        # seconds per op, as measured
        self.ref = []         # seconds per op, at reference speed
        self.failed = 0
        self.errors = []
        self.digest = hashlib.sha256()
        self.digest_ops = 0

    def _input(self, i):
        if i < len(self.inputs):
            return self.inputs[i]
        if self.tracer is not None:
            self.tracer.op = "gen%d" % i
        return self.wl.make_input(i)

    def step(self) -> None:
        wl, i = self.wl, self.next
        self.next += 1
        inp = self._input(i)
        out = None
        if self.tracer is not None:
            self.tracer.op = "op%d" % i
        wl.units = []
        before = calibrate.measure()
        t0 = perf()
        try:
            out = wl.run_op(inp)
        except Exception as exc:  # a crashed op is a failed op
            self.errors.append("%s: %s" % (type(exc).__name__, exc))
        dt = perf() - t0
        after = calibrate.measure()
        # units timed inside the op are not the op's own work
        dt -= sum(wl.units)
        if self.tracer is not None:
            self.tracer.op = None
            with self.tracer.paused():
                self._check(i, inp, out)
        else:
            self._check(i, inp, out)
        self.wall.append(dt)
        self.ref.append(calibrate.to_reference(dt, [before, after] + wl.units))

    def _check(self, i, inp, out):
        if out is None or not self.wl.check(inp, out):
            self.failed += 1
        elif i < self.wl.digest_ops:
            self.digest.update(self.wl.canonical(inp, out))
            self.digest_ops += 1

    def for_seconds(self, seconds: float, started: float) -> None:
        """Run until the ops have taken `seconds` at reference speed, so a
        slow spell on the host does not shrink the sample, and for at least
        the workload's minimum number of ops."""
        while ((sum(self.ref) < seconds or len(self.ref) < self.wl.min_ops)
               and perf() - started < WALL_CAP_S):
            self.step()

    def for_ops(self, n: int, started: float) -> None:
        for _ in range(n):
            if perf() - started >= WALL_CAP_S:
                break
            self.step()

    def rate(self, times) -> float:
        """Correct ops per second of op time."""
        return (len(times) - self.failed) / sum(times)


def environment(wl) -> dict:
    commit = None
    if os.path.isdir(".git"):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL, timeout=30, text=True,
            ).stdout.strip() or None
        except OSError:
            commit = None
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "commit": commit, "inputs": wl.sizes,
            "reference_unit_s": calibrate.REFERENCE_S}


def peak_rss_mb(wl) -> float:
    # the verify ops run in child interpreters; the others in this one
    who = resource.RUSAGE_CHILDREN if wl.process_per_op else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def _ms(times):
    return [x * 1000.0 for x in times]


def run_plain(wl, args, started):
    probes = [setup_probe(wl.name, args.seed)
              for _ in range(args.setup_samples - 1)]
    wall, ref, inputs = timed_setup(wl, args.seed)
    setups = probes + [[wall, ref]]
    loop = Loop(wl, inputs)
    loop.for_seconds(args.seconds, started)
    ref_ms, wall_ms = _ms(loop.ref), _ms(loop.wall)
    n = len(ref_ms)
    enough = n >= 100
    metrics = {
        "ops_per_s": {"value": loop.rate(loop.ref), "unit": "1/s"},
        "op_ms.p50": {"value": statistics.median(ref_ms), "unit": "ms"},
        "setup_s": {"value": statistics.median(r for _, r in setups),
                    "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb(wl), "unit": "MB"},
    }
    detail = {
        "fail_ratio": loop.failed / n,
        "op_ms.p50": {"value": statistics.median(ref_ms), "unit": "ms",
                      "samples": n},
        "op_ms.p90": {"value": percentile(ref_ms, 90) if enough else None,
                      "unit": "ms", "samples": n,
                      "note": None if enough else "needs at least 100 ops"},
        "setup_s.samples": [ref for _, ref in setups],
        "wall": {
            "ops_per_s": loop.rate(loop.wall),
            "op_ms.p50": statistics.median(wall_ms),
            "op_ms.p90": percentile(wall_ms, 90) if enough else None,
            "setup_s": statistics.median(w for w, _ in setups),
        },
    }
    # With measuring over, the leading inputs run again traced, so that
    # every run reports the workload's properties.  Their results are
    # checked like any other op's.
    replay, summary = traced_loop(wl, inputs, 0, wl.property_ops, started)
    detail["properties"] = properties(summary)
    loop.failed += replay.failed
    loop.errors += replay.errors
    loop.ref += replay.ref
    return loop, detail, metrics, True


def span_file(tag: str) -> str:
    """Where a traced run writes its spans, under the working directory."""
    os.makedirs(".bench_out", exist_ok=True)
    return os.path.join(".bench_out", "spans-%s.json" % tag)


def _share(part: int, base: int) -> float:
    return part / base if base else 0.0


def traced_loop(wl, inputs, first: int, n: int, started, spans=None):
    """Run n ops from input `first` with every layer wrapped; returns the
    loop and the trace summary.  The wrappers stay for the process."""
    import tracer as tr

    t = tr.Tracer()
    if wl.process_per_op:
        wl.traced = True
        wl.summaries = []
    else:
        tr.install(t)
    loop = Loop(wl, inputs, first=first, tracer=t)
    loop.for_ops(n, started)
    if wl.process_per_op:
        s = tr.merge(wl.summaries)
        s["op_wall_s"] = {}
        for child in wl.summaries:
            s["op_wall_s"].update(child["op_wall_s"])
    else:
        s = t.summary()
        s["op_wall_s"] = {"op%d" % (first + k): w
                          for k, w in enumerate(loop.wall)}
        if spans:
            t.dump_spans(span_file(spans))
    return loop, s


def properties(s) -> dict:
    """Workload properties that a cache or a size-dependent change could
    exploit, each with its base count."""
    dims = s["decompose_dims"]
    return {
        "harmonic.system_repeat_share": {
            "value": _share(s["system_repeats"], s["system_count"]),
            "base": s["system_count"]},
        "liealg.validate.repeat_share": {
            "value": _share(s["validate_repeats"],
                            s["calls"]["liealg.validate_representation"]),
            "base": s["calls"]["liealg.validate_representation"]},
        "reps.decompose.dim.p50": {
            "value": statistics.median(dims) if dims else 0,
            "base": len(dims)},
        "reps.decompose.dim.max": {
            "value": max(dims) if dims else 0, "base": len(dims)},
        "grassmann.mul.terms_out.max": {
            "value": s["mul_terms_max"],
            "base": s["calls"]["grassmann.mul"]},
    }


def run_traced(wl, args, started):
    import tracer as tr

    _, _, inputs = timed_setup(wl, args.seed)
    n = args.trace_ops or wl.trace_ops
    plain = Loop(wl, inputs)
    plain.for_ops(n, started)
    # An op in a fresh process can rerun its inputs with nothing cached,
    # which makes the overhead exact and checks determinism; in-process
    # ops go on to new inputs.
    first = 0 if wl.process_per_op else plain.next
    loop, s = traced_loop(wl, inputs, first, n, started,
                          spans="%s-seed%d" % (wl.name, args.seed))
    walls = s["op_wall_s"]
    over = [op for op, own in s["op_self_s"].items()
            if op.startswith("op") and own > walls.get(op, 0.0) + 1e-6]

    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    for name in tr.COUNTER_NAMES:
        put(name + ".calls", s["counts"][name], "count")
    for name in tr.SPAN_NAMES:
        put(name + ".calls", s["calls"][name], "count")
        put(name + ".self_s", s["self_s"][name], "s")
    props = properties(s)
    for name in props:
        put(name, props[name]["value"],
            "ratio" if name.endswith("share") else "count")
    put("linalg.rref.max_cols", s["rref_max_cols"], "count")
    put("harmonic.systems", s["system_count"], "count")
    put("cli.report_bytes",
        max(map(len, wl.reports.values())) if wl.process_per_op else 0,
        "bytes")
    traced_rate, plain_rate = loop.rate(loop.ref), plain.rate(plain.ref)
    put("trace.ops", len(loop.ref), "count")
    put("trace.spans", s["spans"], "count")
    put("trace.ops_per_s", traced_rate, "1/s")
    put("trace.untraced_ops_per_s", plain_rate, "1/s")
    put("trace.overhead_ratio", plain_rate / traced_rate, "ratio")
    put("trace.self_over_wall_ops", len(over), "count")
    detail = {
        "fail_ratio": (loop.failed + plain.failed)
        / (len(loop.ref) + len(plain.ref)),
        "properties": props,
        "tracing_overhead": {
            "traced_ops_per_s": traced_rate,
            "untraced_ops_per_s": plain_rate,
            "ops_each": n,
            "note": "in-process workloads trace the n inputs after the "
                    "untraced ones, and the traced figures include making "
                    "them; verify traces the same n inputs again",
        },
        "self_time_check": ("pass: summed self times never exceed the op "
                            "wall time" if not over else
                            "fail on %s" % ", ".join(over[:5])),
    }
    # the digest covers the leading inputs, which the untraced phase ran
    loop.digest, loop.digest_ops = plain.digest, plain.digest_ops
    loop.failed += plain.failed
    loop.ref += plain.ref
    loop.errors += plain.errors
    return loop, detail, {k: m[k] for k in sorted(m)}, not over


def verify_child(op: str, traced: bool, argv) -> int:
    """One `supercircle verify` op in this fresh interpreter.  The report
    goes to stdout; the calibration units timed during the op (and, when
    traced, the trace summary) go to the last line of stderr."""
    import io
    import supercircle.cli as cli

    t = None
    if traced:
        import tracer as tr
        t = tr.Tracer()
        tr.install(t)
        t.op = op
    buf = io.StringIO()
    real, sys.stdout = sys.stdout, buf
    # a traced op is not sampled: the handler would land in the spans
    sampler = calibrate.Sampler()
    t0 = perf()
    try:
        if t is None:
            with sampler:
                code = cli.main(argv)
        else:
            code = cli.main(argv)
    finally:
        wall = perf() - t0
        sys.stdout = real
    sys.stdout.write(buf.getvalue())
    summary = {"units": sampler.units}
    if t is not None:
        t.op = None
        t.dump_spans(span_file("verify-" + op))
        summary["trace"] = t.summary()
        summary["trace"]["op_wall_s"] = {op: wall}
    sys.stderr.write(json.dumps(summary) + "\n")
    return code


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-samples", type=int, default=SETUP_SAMPLES,
                   help="set-ups per run; setup_s is their median")
    p.add_argument("--trace-ops", type=int, default=0,
                   help="ops per phase of a traced run (default: per "
                        "workload)")
    p.add_argument("--self-test", action="store_true",
                   help="run each workload briefly and check the output "
                        "format against BENCHMARK.json")
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    p.add_argument("--verify-child", metavar="OP", help=argparse.SUPPRESS)
    p.add_argument("rest", nargs="*", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    started = perf()
    sys.path.insert(0, find_src())
    if args.self_test:
        import selftest
        return selftest.run()
    calibrate.warm()
    if args.verify_child:
        return verify_child(args.verify_child, bool(args.trace), args.rest)
    if args.workload is None:
        p.error("--workload is required")
    wl = WORKLOADS[args.workload]()
    if args.setup_probe:
        print(json.dumps(timed_setup(wl, args.seed)[:2]))
        return 0

    run = run_traced if args.trace else run_plain
    loop, detail, metrics, consistent = run(wl, args, started)
    detail.update({
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "load": "closed loop, one caller, one process",
        "waiting": WAITING,
        "environment": environment(wl),
        "digest": {"sha256": loop.digest.hexdigest(),
                   "ops": loop.digest_ops},
        "errors": loop.errors[:5],
    })
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({
        "correct": loop.failed == 0 and consistent,
        "attempted": len(loop.ref),
        "failed": loop.failed,
        "metrics": metrics,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
