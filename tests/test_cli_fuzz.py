"""Seeded fuzz test of the JSON decoders behind the CLI.

Each case takes a valid document, changes it at one path (an object key, a
list index, or the whole document) and runs the command on it in-process.
The change replaces the value by one of another type, deletes the key or
list item, or, for a tag string (a group or algebra tag, or a generator
name), replaces it by an unknown string.  Every top-level path is tried with
every replacement and deleted once, since tags and the overall shape are read
there first, and every tag string is replaced once; the remaining cases pick
a deeper path at random.  Whatever the input, the CLI must return exit code
0, 1 or 2 with JSON on stdout; an exception escaping ``main`` is a decoder
bug.
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
DELETE = object()  # removes the key or list item instead of replacing it
UNKNOWN = "no-such-name"
NAME_LISTS = ("gens", "evens", "mono")


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
    """(path, value) for the document and everything inside it."""
    yield prefix, obj
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return
    for key, value in items:
        yield from _paths(value, prefix + (key,))


def _is_tag(path, value) -> bool:
    """A group or algebra tag, or a generator name."""
    return isinstance(value, str) and bool(path) and (
        path[-1] in ("group", "algebra")
        or len(path) > 1 and path[-2] in NAME_LISTS)


def _replaced(obj, path, value):
    if not path:
        return value
    out = json.loads(json.dumps(obj))
    node = out
    for key in path[:-1]:
        node = node[key]
    if value is DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return out


def _cases(rng):
    """(document, command, path, replacement) tuples, CASES in all."""
    docs = _documents()
    fixed = []
    for doc, commands in docs:
        for where, value in _paths(doc):
            if len(where) <= 1:
                fixed += [(doc, commands, where, v) for v in REPLACEMENTS]
            if len(where) == 1:
                fixed.append((doc, commands, where, DELETE))
            if _is_tag(where, value):
                fixed.append((doc, commands, where, UNKNOWN))
    for doc, commands, where, value in fixed:
        yield doc, rng.choice(commands), where, value
    deep = [(doc, commands, [p for p, _ in _paths(doc) if len(p) > 1])
            for doc, commands in docs]
    for case in range(CASES - len(fixed)):
        doc, commands, paths = deep[case % len(deep)]
        yield (doc, rng.choice(commands), rng.choice(paths),
               rng.choice(REPLACEMENTS + [DELETE]))


def _run(capsys, argv):
    try:
        code = main(list(argv))
    except Exception as exc:
        raise AssertionError("%s escaped main(%r): %r" % (
            type(exc).__name__, argv, exc)) from exc
    return code, capsys.readouterr().out


def test_mutated_documents_never_escape_main(capsys, tmp_path):
    path = tmp_path / "doc.json"
    cases = deleted = renamed = 0
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
        deleted += value is DELETE
        renamed += value is UNKNOWN
    assert cases == CASES and deleted and renamed
