"""Command-line front end: character tables, verification suites, modular checks.

Exit codes: 0 success, 1 check failure, 2 usage error (an ``--out`` path
that cannot be written included), 141 when the reader of stdout closes it
early (no traceback, as for a writer killed by SIGPIPE).  Output is JSON
(sorted keys, canonical rationals, schema field "1") or CSV with exact
values as "num/den" strings.  Configuration is flags only; no environment
variables, so identical invocations produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction
from functools import lru_cache
from typing import List, Optional

from . import characters as ch
from . import modular, suites, zhu

SCHEMA = "1"

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_BROKEN_PIPE = 141  # what a shell reports for a writer killed by SIGPIPE


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):  # argparse would not catch a zero denominator
        raise argparse.ArgumentTypeError(f"invalid rational value: {text!r}") from None


class _OutError(Exception):
    """An ``--out`` path that cannot be written: a usage error, not a failed check."""


def _emit(payload: str, out: Optional[str]) -> None:
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(payload)
        except OSError as exc:
            raise _OutError(f"cannot write {out}: {exc.strerror or exc}") from exc
    else:
        # each write's count checked: with PYTHONUNBUFFERED the binary layer is the
        # raw file, and the text layer would drop the short count a closed pipe leaves
        data = memoryview((payload if payload.endswith("\n") else payload + "\n").encode())
        sys.stdout.flush()
        while data:
            data = data[sys.stdout.buffer.write(data):]
        sys.stdout.buffer.flush()  # a closed pipe raises here or above, inside main


def _json_dump(data) -> str:
    """Every reply but ``char``'s: sorted keys, two-space indent."""
    return json.dumps(data, sort_keys=True, indent=2)


# ----------------------------------------------------------------------
# char
# ----------------------------------------------------------------------


def _cmd_char(args) -> int:
    m = args.m
    cutoff = args.cutoff if args.cutoff is not None else Fraction(30)
    if cutoff <= 0:
        print("char: cutoff must be positive", file=sys.stderr)
        return EXIT_USAGE
    if args.all:
        labels = ch.all_labels(m)
    else:
        if not args.family or args.index is None:
            print("char: provide --family and --index, or --all", file=sys.stderr)
            return EXIT_USAGE
        try:
            label = ch.ModuleLabel(args.family, args.index, m)
        except ValueError as exc:
            print(f"char: {exc}", file=sys.stderr)
            return EXIT_USAGE
        flavor = args.flavor
        if label.twisted and flavor == "supercharacter":
            print("char: twisted families have no supercharacter flavor", file=sys.stderr)
            return EXIT_USAGE
        labels = ((label, flavor),)
    try:
        payload = _char_payload(cutoff, labels, args.format)
    except ValueError as exc:
        print(f"char: {exc}", file=sys.stderr)
        return EXIT_USAGE
    _emit(payload, args.out)
    return EXIT_OK


def _char_payload(cutoff: Fraction, labels: tuple, fmt: str) -> str:
    """The JSON or CSV reply for the ``(label, flavor)`` rows: ``json.dumps({"schema": ..., "rows":
    ...}, sort_keys=True, indent=2)`` or the ``csv.writer`` lines, joined from rows rendered once."""
    rows = [_char_row(label, flavor, cutoff, fmt) for label, flavor in labels]
    if fmt == "json":
        return '{\n  "rows": [\n    ' + ",\n    ".join(rows) + f'\n  ],\n  "schema": "{SCHEMA}"\n}}'
    return "family,index,flavor,m,exponent,coefficient\r\n" + "".join(rows)


# a row object and one of its terms, indented as json.dumps(..., indent=2) places them inside "rows"
_JSON_TERM = (
    '\n          {\n            "coef": [\n              "%s",\n              "%s"\n            ],'
    '\n            "exp": [\n              "%s",\n              "%s"\n            ]\n          }'
)
_JSON_ROW = (
    '{\n      "family": "%s",\n      "flavor": "%s",\n      "index": %s,\n      "leading_exponent": %s,'
    '\n      "m": %s,\n      "series": {\n        "cutoff": %s,\n        "domain": "exact-rational",'
    '\n        "terms": %s\n      }\n    }'
)


@lru_cache(maxsize=None)
def _char_row(label: ch.ModuleLabel, flavor: str, cutoff: Fraction, fmt: str) -> str:
    """One character row, rendered once per process from the series' integer run: the row
    object as it sits inside ``"rows"`` of the JSON reply, or its CSV lines."""
    series = ch.character_series(label, flavor, cutoff)
    offset, d, coeffs, scale = series.lattice
    # entry i sits at exponent (base + i * step) / den with coefficient c * sn / sd
    base, step, den = offset.numerator * d, offset.denominator, offset.denominator * d
    sn, sd = scale.numerator, scale.denominator
    terms = []
    for i, c in enumerate(coeffs):
        if c:
            e = base + i * step
            g, h = math.gcd(e, den), math.gcd(c, sd)
            terms.append((e // g, den // g, c // h * sn, sd // h))
    if fmt == "csv":
        head = f"{label.family},{label.index},{flavor},{label.m}"
        return "".join(f"{head},{en}/{ed},{cn}/{cd}\r\n" for en, ed, cn, cd in terms)
    lead = '[\n        "%s",\n        "%s"\n      ]' % terms[0][:2] if terms else "null"
    cut = '[\n          "%s",\n          "%s"\n        ]' % (series.cutoff.numerator, series.cutoff.denominator)
    body = "[" + ",".join(_JSON_TERM % (cn, cd, en, ed) for en, ed, cn, cd in terms) + "\n        ]" if terms else "[]"
    return _JSON_ROW % (label.family, flavor, label.index, lead, label.m, cut, body)


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------


def _cmd_verify(args) -> int:
    cutoff = args.cutoff if args.cutoff is not None else Fraction(30)
    try:
        results = suites.run_suite(args.suite, args.m, cutoff=cutoff)
    except ValueError as exc:
        print(f"verify: {exc}", file=sys.stderr)
        return EXIT_USAGE
    passed = all(r.passed for r in results)
    report = {
        "schema": SCHEMA,
        "suite": args.suite,
        "m": args.m,
        "cutoff": [str(Fraction(cutoff).numerator), str(Fraction(cutoff).denominator)],
        "passed": passed,
        "checks": [r.to_json() for r in results],
    }
    _emit(_json_dump(report), args.out)
    return EXIT_OK if passed else EXIT_CHECK_FAILED


# ----------------------------------------------------------------------
# classify
# ----------------------------------------------------------------------


def _cmd_classify(args) -> int:
    records = zhu.classify_twisted(args.m)
    if args.format == "json":
        payload = {"schema": SCHEMA, "m": args.m, "modules": [r.to_json() for r in records]}
        _emit(_json_dump(payload), args.out)
    else:
        lines = [f"{r.family},{r.index},{r.i_index},{r.lowest_weight.numerator}/{r.lowest_weight.denominator},"
                 f"{r.top_dim_graded},{r.g0_squared.numerator}/{r.g0_squared.denominator}\r\n" for r in records]
        _emit("family,index,i_index,lowest_weight,top_dim_graded,g0_squared\r\n" + "".join(lines), args.out)
    return EXIT_OK


# ----------------------------------------------------------------------
# modular
# ----------------------------------------------------------------------


def _grid_json(grid) -> list:
    return [[tau.real, tau.imag] for tau in grid.points]


def _modular_rank(m: int, cutoff: Fraction, tolerance: float):
    grid = modular.standard_grid(m, cutoff)
    report = modular.closure_rank(m, grid)
    payload = {"cutoff": float(cutoff), "grid": _grid_json(grid), **report.to_json()}
    return payload, report.rank == report.expected


def _modular_closure(m: int, cutoff: Fraction, tolerance: float):
    grid = modular.standard_grid(m, cutoff)
    report = modular.closure_under_s_t(m, grid)
    payload = {"cutoff": float(cutoff), "grid": _grid_json(grid), **report.to_json()}
    return payload, (
        report.worst_s_residual < tolerance
        and report.worst_t_residual < tolerance
        and report.negative_control_residual > 1e-2
    )


def _modular_s_transform(m: int, cutoff: Fraction, tolerance: float):
    grid = modular.theta_transform_grid(cutoff)
    worst = 0.0
    per = []
    for idx in modular.character_theta_indices(m):
        for variant in ("theta", "theta_deriv"):
            r = modular.s_transform_residual(idx, variant, grid, tolerance)
            per.append({"j": str(idx.j), "k": str(idx.k), "variant": variant, "residual": r})
            worst = max(worst, r)
    payload = {"m": m, "cutoff": float(cutoff), "grid": _grid_json(grid), "worst_residual": worst, "residuals": per}
    return payload, worst < tolerance


def _modular_mde(m: int, cutoff: Fraction, tolerance: float):
    result = modular.find_mde(m, allow_large_m=True)
    return result.to_json(), result.success and result.negative_control_nonzero


_MODULAR_CHECKS = {
    "rank": _modular_rank,
    "closure": _modular_closure,
    "s-transform": _modular_s_transform,
    "mde": _modular_mde,
}


def _cmd_modular(args) -> int:
    for flag in {"mde": ("cutoff", "tolerance"), "rank": ("tolerance",)}.get(args.check, ()):
        if getattr(args, flag) is not None:
            print(f"modular: {args.check} takes no --{flag}", file=sys.stderr)
            return EXIT_USAGE
    cutoff = args.cutoff if args.cutoff is not None else Fraction(400)
    tolerance = args.tolerance if args.tolerance is not None else 1e-8
    if cutoff < 100:
        print("modular: numeric cutoff must be >= 100", file=sys.stderr)
        return EXIT_USAGE
    if not 0 < tolerance < math.inf:
        print("modular: tolerance must be positive and finite", file=sys.stderr)
        return EXIT_USAGE
    try:
        payload, ok = _MODULAR_CHECKS[args.check](args.m, cutoff, tolerance)
    except ValueError as exc:
        print(f"modular: {exc}", file=sys.stderr)
        return EXIT_USAGE
    _emit(_json_dump({"schema": SCHEMA, "test": args.check, **payload}), args.out)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="supertriplet",
        description="Characters, twisted Zhu data, and modular checks for the "
        "N=1 super triplet algebra family.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, cutoff=True):
        p.add_argument("--m", type=int, required=True, help="family parameter, >= 1")
        if cutoff:
            p.add_argument("--cutoff", type=_parse_rational, default=None)
        p.add_argument("--out", type=str, default=None)

    p_char = sub.add_parser("char", help="emit character tables")
    add_common(p_char)
    p_char.add_argument("--family", choices=["RLambda", "RPi", "SLambda", "SPi"])
    p_char.add_argument("--index", type=int)
    p_char.add_argument(
        "--flavor", choices=["character", "supercharacter"], default="character"
    )
    p_char.add_argument("--all", action="store_true")
    p_char.add_argument("--format", choices=["json", "csv"], default="json")
    p_char.set_defaults(func=_cmd_char)

    p_verify = sub.add_parser("verify", help="run named invariant suites")
    add_common(p_verify)
    p_verify.add_argument("--suite", choices=list(suites.SUITE_NAMES), default="all")
    p_verify.set_defaults(func=_cmd_verify)

    p_classify = sub.add_parser("classify", help="emit the twisted module table")
    add_common(p_classify, cutoff=False)
    p_classify.add_argument("--format", choices=["json", "csv"], default="json")
    p_classify.set_defaults(func=_cmd_classify)

    p_mod = sub.add_parser("modular", help="numeric modular checks")
    p_mod.add_argument("check", choices=["rank", "closure", "s-transform", "mde"])
    add_common(p_mod)
    p_mod.add_argument("--tolerance", type=float, default=None, help="closure and s-transform; default 1e-8")
    p_mod.set_defaults(func=_cmd_modular)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit code 2 for usage errors already
        return int(exc.code) if exc.code is not None else EXIT_USAGE
    if args.m < 1:
        print("m must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except _OutError as exc:
        print(f"supertriplet: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull so the flush at exit
        # raises nothing (Python docs, "Note on SIGPIPE")
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
