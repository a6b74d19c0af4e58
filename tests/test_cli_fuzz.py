"""Seeded fuzz test of the JSON decoders behind the CLI.

Each case takes a valid document, replaces the value at one path (an object
key, a list index, or the whole document) by a value of another type, and
runs the command on it in-process.  Every top-level path is tried with every
replacement, since tags and the overall shape are read there first; the
remaining cases pick a deeper path at random.  Whatever the input, the CLI
must return exit code 0, 1 or 2 with JSON on stdout; an exception escaping
``main`` is a decoder bug.
"""

import json
import random

from supercircle.cli import main
from supercircle.harmonic import Section
from supercircle.reps import direct_sum, make_pi_m, make_V_m, make_weight_zero_s11
from supercircle.scalars import ExtendedScalar, GaussianRational
from supercircle.supergroup import c11x_ring, su11_chart_ring

CASES = 300
REPLACEMENTS = [None, 1.5, "x", [], {}, True, -1]


def _documents():
    _, pts = su11_chart_ring("su11")
    _, w, eta = c11x_ring()
    section = Section("su11", {
        (3, 0b01): ExtendedScalar(GaussianRational(1, 2), 1, 3),
        (0, 0b10): GaussianRational(-1, 1),
        (-2, 0): 2,
    })
    su11 = "--group", "su11"
    return [
        (direct_sum(make_V_m(2), make_weight_zero_s11("W")).to_json(),
         [("rep", "validate"), ("rep", "decompose")]),
        (make_pi_m(-3, "-").to_json(),
         [("rep", "validate"), ("rep", "decompose")]),
        (pts[0].to_json(),
         [("point", "check") + su11, ("point", "factorize") + su11,
          ("point", "involute") + su11]),
        ({"w": w.to_json(), "eta": eta.to_json()},
         [("point", "involute", "--group", "s11")]),
        (section.to_json(), [("pw", "expand")]),
    ]


def _paths(obj, prefix=()):
    yield prefix
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return
    for key, value in items:
        yield from _paths(value, prefix + (key,))


def _replaced(obj, path, value):
    if not path:
        return value
    out = json.loads(json.dumps(obj))
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return out


def _cases(rng):
    """(document, command, path, replacement) tuples, CASES in all."""
    docs = _documents()
    count = 0
    for doc, commands in docs:
        for where in _paths(doc):
            if len(where) <= 1:
                for value in REPLACEMENTS:
                    yield doc, rng.choice(commands), where, value
                    count += 1
    deep = [(doc, commands, [p for p in _paths(doc) if len(p) > 1])
            for doc, commands in docs]
    for case in range(CASES - count):
        doc, commands, paths = deep[case % len(deep)]
        yield doc, rng.choice(commands), rng.choice(paths), rng.choice(REPLACEMENTS)


def _run(capsys, argv):
    try:
        code = main(list(argv))
    except Exception as exc:
        raise AssertionError("%s escaped main(%r): %r" % (
            type(exc).__name__, argv, exc)) from exc
    return code, capsys.readouterr().out


def test_mutated_documents_never_escape_main(capsys, tmp_path):
    path = tmp_path / "doc.json"
    cases = 0
    for doc, command, where, value in _cases(random.Random(20151)):
        path.write_text(json.dumps(_replaced(doc, where, value)))
        argv = command[:2] + (str(path),) + command[2:]
        code, out = _run(capsys, argv)
        assert code in (0, 1, 2), (argv, where, value, code)
        report = json.loads(out)
        assert isinstance(report, dict), (where, value, out)
        if code == 2:
            assert set(report) == {"error"}, (where, value, report)
        cases += 1
    assert cases == CASES
