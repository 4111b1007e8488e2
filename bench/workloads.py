"""The benchmark's four workloads: fixed case lists over charq's public API.

Each case is a ``Case``: ``run`` is the timed part (compute every route and
check that they agree), ``canon`` is the untimed part that turns the result
into the canonical text whose SHA-256 is pinned in ``digests.json``.  The
case set of a workload is fixed; the seed only changes the order in which a
pass visits the cases, so digests never depend on it.

Import this module only after ``src`` is on ``sys.path`` (``worker.py`` does
that and checks that the imported package is the checkout's own).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass
from typing import Callable

import charq
from charq import algebra, characters, cli, qfunctions, tableaux, verify

CHAR_ROUTE_NAMES = ("def", "hdet", "jt", "tab")


@dataclass(frozen=True)
class Case:
    key: str
    run: Callable[[], tuple[bool, object]]
    canon: Callable[[object], str]
    tiny: bool = False
    emitted: Callable[[object], int] | None = None   # bytes a CLI call printed


@dataclass(frozen=True)
class Workload:
    name: str
    cases: tuple[Case, ...]
    heavy: str                  # key of the single heaviest case, timed cold
    cold_cases: bool = False    # clear charq's caches before every case


def _poly_json(p) -> str:
    return algebra.poly_to_json(p)


def _parts_text(parts) -> str:
    return ",".join(map(str, parts))


# -- char-routes ----------------------------------------------------------------


def _char_case(kind, n, parts) -> Case:
    def run():
        vt = algebra.vartable_for(n, parts[0] if parts else 0)
        routes = characters.CHAR_ROUTES
        values = [routes[m](kind, parts, vt) for m in CHAR_ROUTE_NAMES]
        return all(v == values[0] for v in values[1:]), values[0]

    return Case(f"char {kind} n={n} lambda={_parts_text(parts)}", run, _poly_json,
                tiny=(kind == "gl" and n == 1))


def char_routes() -> Workload:
    cases = [_char_case(kind, n, lam.parts)
             for kind in characters.GROUP_KINDS
             for n in range(1, 4)
             for lam in charq.enumerate_partitions(2, n)]
    return Workload("char-routes", tuple(cases), "char so n=3 lambda=2,2,2")


# -- q-tokuyama -----------------------------------------------------------------


def _tokuyama_case(kind, n, mu) -> Case:
    def run():
        vt = algebra.vartable_for(n, (mu[0] if mu else 0) + n)
        rep = qfunctions.verify_tokuyama(kind, mu, vt)
        return rep.equal, rep.lhs

    return Case(f"tokuyama {kind} n={n} mu={_parts_text(mu)}", run, _poly_json,
                tiny=(n == 1))


def _q_routes_case(kind, n, parts) -> Case:
    def run():
        vt = algebra.vartable_for(n, parts[0] if parts else 0)
        lhs = qfunctions.q_tableaux(kind, parts, vt)
        rhs = qfunctions.q_determinantal(kind, parts, vt)
        return lhs == rhs, lhs

    return Case(f"q-routes {kind} n={n} lambda={_parts_text(parts)}", run, _poly_json,
                tiny=(n == 1))


def q_tokuyama() -> Workload:
    cases = []
    for kind in qfunctions.QFUNC_KINDS:
        for n in range(1, 4):
            mu_max = 2 if n <= 2 else 1
            for mu in charq.enumerate_partitions(mu_max, n):
                if mu.size <= mu_max:
                    cases.append(_tokuyama_case(kind, n, mu.parts))
            for lam in charq.enumerate_partitions(3, n, strict=True):
                cases.append(_q_routes_case(kind, n, lam.parts))
    return Workload("q-tokuyama", tuple(cases), "tokuyama soQ n=3 mu=1")


# -- lgv-paths ------------------------------------------------------------------


def _lgv_case(kind, n, parts) -> Case:
    anchor: list[str] = []

    def run():
        report = verify.suite_lgv(shapes=[(kind, parts, n)])
        return report.ok, report.cases[0]

    def canon(case) -> str:
        # The suite's own verdict and tableau count, plus an anchor that
        # pins the shared MultiPoly kernel: both sides of the weight check
        # multiply with it, so a kernel fault would agree with itself.  The
        # anchor is computed once per process; it does not change per pass.
        if not anchor:
            vt = algebra.vartable_for(n, parts[0] if parts else 0)
            anchor.append(_poly_json(tableaux.tableau_weight_sum(kind, parts, n, vt)))
        obj = {k: v for k, v in case.to_obj().items() if k not in ("case", "ms")}
        return json.dumps(obj, separators=(",", ":")) + "\n" + anchor[0]

    return Case(f"lgv {kind} n={n} lambda={_parts_text(parts)}", run, canon,
                tiny=(n == 1 and sum(parts) <= 2))


def lgv_paths() -> Workload:
    # |shape| <= 4, except |shape| <= 3 for spQ/soQ at n = 3: those two
    # families alone would take half of every pass and leave the workload
    # with too few cases to measure steadily
    cases = []
    for kind in tableaux.ALL_KINDS:
        strict = kind in tableaux.Q_KINDS
        for n in range(1, 4):
            size_max = 3 if n == 3 and kind in ("spQ", "soQ") else 4
            for lam in charq.enumerate_partitions(4, n, strict=strict):
                if lam.size <= size_max:
                    cases.append(_lgv_case(kind, n, lam.parts))
    return Workload("lgv-paths", tuple(cases), "lgv soChar n=3 lambda=3,1")


# -- cli-mix ----------------------------------------------------------------------

CLI_CALLS = (
    ("verify --suite h-diff --n-max 3 --m-max 5", False),
    ("verify --suite f-diff --n-max 3 --m-max 4", False),
    ("char --kind sp --n 3 --lambda 2,1 --method def,hdet,jt,tab", False),
    ("char --kind gl --n 2 --lambda 1 --method jt --a zero --out text", True),
    ("qfun --kind spQ --n 3 --lambda 3,2,1 --a zero --out text", False),
    ("qfun --kind soQ --n 3 --lambda 3,1 --method tab,det", False),
    ("tableaux --kind spQ --lambda 3,1 --n 3 --paths", False),
    ("tableaux --kind spChar --lambda 1,1 --n 2 --count", True),
)


def strip_verify_ms(out: str) -> str:
    """Drop the per-case wall-clock ``ms`` from ``verify --out json`` lines.

    ``verify`` reports each case's run time inside its JSON, so its output
    differs from run to run; the rest of the line is deterministic.
    """
    lines = []
    for line in out.splitlines():
        obj = json.loads(line)
        for case in obj.get("cases", ()):
            case.pop("ms", None)
        lines.append(json.dumps(obj, separators=(",", ":")))
    return "\n".join(lines) + "\n"


def _cli_case(command: str, tiny: bool) -> Case:
    argv = command.split()

    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code == 0, (code, out.getvalue())

    def canon(value) -> str:
        code, out = value
        if argv[0] == "verify":
            out = strip_verify_ms(out)
        return f"exit {code}\n{out}"

    # charq prints ASCII only, so characters are bytes
    return Case(command, run, canon, tiny=tiny, emitted=lambda value: len(value[1]))


def cli_mix() -> Workload:
    # each call stands for one `charq` process, which starts with empty caches
    return Workload("cli-mix", tuple(_cli_case(c, t) for c, t in CLI_CALLS),
                    CLI_CALLS[1][0], cold_cases=True)


WORKLOADS = {
    "char-routes": char_routes,
    "q-tokuyama": q_tokuyama,
    "lgv-paths": lgv_paths,
    "cli-mix": cli_mix,
}


def build(name: str, tiny: bool = False) -> Workload:
    """The workload's cases; ``tiny`` keeps only its cheapest few, for the
    benchmark's own tests."""
    wl = WORKLOADS[name]()
    if tiny:
        cases = tuple(c for c in wl.cases if c.tiny)
        return Workload(wl.name, cases, cases[-1].key, wl.cold_cases)
    return wl


def case_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def workload_digest(case_digests: dict[str, str]) -> str:
    """One digest over every case, keyed by case and independent of order."""
    lines = "".join(f"{k}\t{case_digests[k]}\n" for k in sorted(case_digests))
    return case_digest(lines)
