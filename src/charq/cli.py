"""Command-line front end.

Subcommands:

    char      compute a factorial character by one or more routes
    qfun      compute a factorial Q-function by one or more routes
    tableaux  stream the tableaux of a family (optionally just count them,
              optionally with their lattice-path images)
    verify    run an identity suite over a bounded grid

Exit codes: 0 success, 2 usage or specification error (including an
exponent outside the packed range), 3 identity failure (route
disagreement or a failing suite case).  A reader that closes stdout early
ends the command quietly with exit 0, and Ctrl-C with exit 130.  All
output is exact and byte-identical across runs for identical invocations.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import os
import sys

from .algebra import (AlgebraError, at_a_zero, poly_to_json, poly_to_text,
                      vartable_for)
from .characters import CHAR_ROUTES, TABLEAU_KIND, character
from .lattice import _dumps, paths_line, tableau_line
from .qfunctions import QFUNC_KINDS, Q_ROUTES, qfunction
from .tableaux import (ALL_KINDS, check_shape, count_tableaux,
                       enumerate_tableaux)
from .verify import SUITE_TABLE, SUITES, run_suite

USAGE_ERROR = 2
IDENTITY_ERROR = 3
INTERRUPTED = 130   # 128 + SIGINT: Ctrl-C ends the command without a traceback


class SpecError(Exception):
    """Invalid job specification (maps to exit code 2)."""


def _integer(text: str) -> int:
    """An integer only as ``str`` writes it: no plus sign, space,
    underscore, leading zero or non-ASCII digit."""
    if not text.removeprefix("-").isdecimal() or str(int(text)) != text:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    return int(text)


def _parse_parts(text: str | None) -> tuple[int, ...]:
    """Comma-separated integers; an empty argument is the empty partition,
    an empty field anywhere else is refused."""
    if not text:
        return ()
    try:
        return tuple(map(_integer, text.split(",")))
    except argparse.ArgumentTypeError:
        raise SpecError(f"bad partition {text!r}: expected comma-separated integers")


def _run_poly_command(args, families, routes, compute) -> int:
    """Run ``compute`` by each --method route; ``families`` maps each
    --kind to the tableau family its shape is checked against."""
    if args.kind not in families:
        raise SpecError(f"--kind must be one of {', '.join(families)}")
    methods = args.method.split(",")
    if "" in methods:
        raise SpecError(f"bad --method {args.method!r}: empty route name")
    if len(set(methods)) < len(methods):
        raise SpecError(f"bad --method {args.method!r}: a route is named twice")
    for m in methods:
        if m not in routes:
            raise SpecError(f"--method must be chosen from {', '.join(routes)}")
    parts = _parse_parts(args.lam)
    # before vartable_for, which would call a negative part a bad a_max
    check_shape(families[args.kind], parts, args.n)
    vt = vartable_for(args.n, parts[0] if parts else 0)
    values = {}
    for m in methods:
        p = compute(args.kind, parts, vt, m)
        if args.a == "zero":
            p = at_a_zero(p)
        values[m] = p
    first = values[methods[0]]
    equal = all(v == first for v in values.values())
    emit = poly_to_json if args.out == "json" else poly_to_text
    if equal:
        texts = dict.fromkeys(methods, emit(first))
    else:
        texts = {m: emit(v) for m, v in values.items()}
    if len(methods) == 1:
        print(texts[methods[0]])
    elif args.out == "json":
        # the compact json.dumps of {"kind", "n", "lambda", "a", "methods":
        # {route: poly_to_obj(value)}, "equal"}, around the texts above
        body = ",".join(f"{_dumps(m)}:{texts[m]}" for m in methods)
        print(f'{{"kind":{_dumps(args.kind)},"n":{_dumps(args.n)},'
              f'"lambda":{_dumps(list(parts))},"a":{_dumps(args.a)},'
              f'"methods":{{{body}}},"equal":{_dumps(equal)}}}')
    else:
        for m in methods:
            print(f"{m}: {texts[m]}")
        print(f"equal: {str(equal).lower()}")
    return 0 if equal else IDENTITY_ERROR


def cmd_tableaux(args) -> int:
    if args.kind not in ALL_KINDS:
        raise SpecError(f"--kind must be one of {', '.join(ALL_KINDS)}")
    # refuse flags the command would ignore
    if args.paths and (args.count or args.out == "text"):
        raise SpecError("--paths needs the JSON tableau stream, "
                        "not --count or --out text")
    parts = _parse_parts(args.lam)
    check_shape(args.kind, parts, args.n)
    if args.count:
        print(count_tableaux(args.kind, parts, args.n))
        return 0
    vt = vartable_for(args.n, parts[0] if parts else 0)
    # texts of this command's stream, shared across its tableaux
    memo = {}
    for t in enumerate_tableaux(args.kind, parts, args.n):
        if args.out == "text":
            print(" / ".join(" ".join(e.token for e in row) for row in t.rows)
                  or "(empty)")
        elif args.paths:
            print(paths_line(t, vt, memo))
        else:
            print(tableau_line(t, memo))
    return 0


def _suite_params(name: str):
    return inspect.signature(SUITE_TABLE[name]).parameters


GRID_BOUNDS = ("n_max", "lambda_max", "mu_max", "m_max")


def _flag(param: str) -> str:
    return "--" + param.replace("_", "-")


def cmd_verify(args) -> int:
    names = SUITES if args.suite == "all" else (args.suite,)
    if args.suite != "all" and args.suite not in SUITES:
        raise SpecError(f"--suite must be one of {', '.join(SUITES)} or 'all'")
    if args.suite == "all" and args.kind:
        raise SpecError("--kind needs a single suite; no kind is valid for every suite")
    # only the grid flags given are passed on; the suites hold the defaults
    kw = {k: getattr(args, k) for k in GRID_BOUNDS if getattr(args, k) is not None}
    if kw.get("n_max", 1) < 1:
        raise SpecError("--n-max must be at least 1")
    for param, value in kw.items():
        if value < 0:
            raise SpecError(f"{_flag(param)} must be nonnegative")
    if args.suite != "all":
        for param in kw:
            if param not in _suite_params(args.suite):
                raise SpecError(f"{_flag(param)} does not apply to --suite {args.suite}")
    if args.lam is not None or args.n is not None:
        # one explicit shape replaces the grid, so it must be complete and
        # the suite must be able to take it
        if args.suite == "all" or "shapes" not in _suite_params(args.suite):
            raise SpecError(f"--n/--lambda apply only to suites that take shapes, "
                            f"not to --suite {args.suite}")
        if args.lam is None or args.n is None or not args.kind:
            raise SpecError("an explicit shape needs all of --kind, --n and --lambda")
        if kw:
            raise SpecError(f"{', '.join(map(_flag, kw))} would be ignored: "
                            "--n/--lambda replace the grid")
        kw["shapes"] = [(args.kind, _parse_parts(args.lam), args.n)]
    if args.kind:
        kw["kind"] = args.kind
    failures = 0
    for name in names:
        params = _suite_params(name)
        suite_kw = {k: v for k, v in kw.items() if k in params}
        report = run_suite(name, **suite_kw)
        failures += report.failed
        if args.out == "json":
            print(_dumps(report.to_obj()))
        else:
            print(f"suite {name}: passed={report.passed} failed={report.failed}")
            for case in report.cases:
                status = "ok" if case.equal else "FAIL"
                print(f"  [{status}] {_dumps(case.inputs)}")
        if not report.ok:
            bad = report.first_failure()
            print(f"first failing case: {_dumps(bad.to_obj())}", file=sys.stderr)
    return IDENTITY_ERROR if failures else 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="charq",
        description="Exact factorial characters and Q-functions of the "
                    "classical groups, with cross-verified routes.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--kind", required=True)
        p.add_argument("--n", type=_integer, required=True)
        p.add_argument("--lambda", dest="lam", default="",
                       help="comma-separated parts; empty for the empty partition")

    def out(p):
        p.add_argument("--out", choices=("json", "text"), default="json")

    # one row per route command; --method's default is its entry point's
    for name, what, families, routes, compute in (
            ("char", "a factorial character", TABLEAU_KIND, CHAR_ROUTES, character),
            ("qfun", "a factorial Q-function", {k: k for k in QFUNC_KINDS},
             Q_ROUTES, qfunction)):
        p = sub.add_parser(name, help=f"compute {what}")
        common(p)
        p.add_argument("--a", choices=("symbolic", "zero"), default="symbolic")
        out(p)
        default = inspect.signature(compute).parameters["method"].default
        p.add_argument("--method", default=default, help="comma-separated "
                       f"subset of {','.join(routes)} (default {default})")
        p.set_defaults(func=functools.partial(_run_poly_command, families=families,
                                              routes=routes, compute=compute))

    p = sub.add_parser("tableaux", help="stream a tableau family")
    common(p)
    out(p)
    p.add_argument("--count", action="store_true", help="emit only the cardinality")
    p.add_argument("--paths", action="store_true",
                   help="include the lattice-path image of each tableau")
    p.set_defaults(func=cmd_tableaux)

    p = sub.add_parser("verify", help="run an identity suite")
    p.add_argument("--suite", required=True,
                   help=f"one of {', '.join(SUITES)} or 'all'")
    p.add_argument("--kind", default=None)
    p.add_argument("--n", type=_integer, default=None)
    p.add_argument("--lambda", dest="lam", default=None)
    for bound in GRID_BOUNDS:
        p.add_argument(_flag(bound), type=_integer, default=None)
    out(p)
    p.set_defaults(func=cmd_verify)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (SpecError, AlgebraError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except BrokenPipeError:
        # the reader closed the pipe early (`charq ... | head`); send what is
        # still buffered to devnull so the interpreter's final flush is silent
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except KeyboardInterrupt:
        return INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
