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

``verify`` reports the checks of :mod:`supercircle._checks`, and
:mod:`supercircle.supergroup` decodes the point files and names the groups;
this module keeps only the command line.  Importing it loads ``_checks``
and with it every layer, which the benchmark's tracer relies on: it wraps
the layers loaded by ``import supercircle.cli``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, List, Optional, Tuple

from . import _checks
from ._values import Frozen
from .harmonic import expand, matrix_coefficients, section_from_json
from .liealg import representation_from_json, validate_representation
from .reps import decompose_s11, decompose_su11, make_adjoint_su11, make_pi_m
from .supergroup import (
    GROUP_NAMES,
    factorize,
    membership,
    pair_from_json,
    point_from_json,
    rho_s11,
    sigma_su,
)


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
    # int() refuses a literal over the digit limit with advice to raise it;
    # Python before 3.10.7 has no limit and no get_int_max_str_digits
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
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


# --- commands --------------------------------------------------------------


def cmd_verify(config: RunConfig) -> Tuple[dict, int]:
    checks = [{"name": name, "status": status, "detail": detail}
              for name, status, detail in _checks._run_checks_forked(config)]
    failures = sorted(c["name"] for c in checks if c["status"] == "fail")
    report = {
        "command": "verify",
        "config": config.to_json(),
        "checks": checks,
        "failing": failures,
        "status": "fail" if failures else "pass",
    }
    return report, (1 if failures else 0)


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
        w, eta = rho_s11(*_read(path, pair_from_json))
        return {"w": w.to_json(), "eta": eta.to_json()}, 0
    group = {name: tag for tag, name in GROUP_NAMES.items()}[group_flag]
    # every action but the sl11 membership test reads star images
    star = action != "check" or group != "sl11"
    p = _read(path, lambda o: point_from_json(o, group, star=star))
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
