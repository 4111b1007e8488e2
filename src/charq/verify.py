"""Identity suites: exhaustive checks over bounded parameter grids.

Each suite enumerates its grid in a fixed order and computes every case
exactly (zero tolerance) where the grid lists it: a case builder returns
``(inputs, equal, detail)``, and the SuiteReport lists the cases in grid
order.  Suites never sample, and reports carry no timings, so the same
call gives the same report byte for byte.
``SUITE_TABLE`` maps each suite name to its function, in the order
``--suite all`` runs them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from operator import mul
from typing import NamedTuple

from .algebra import (MultiPoly, a_shifted_down, add_a, determinant,
                      vartable_for, xbar, xv, ybar, yv)
from .characters import (CHAR_ROUTES, GROUP_KINDS, h_factorial, h_range,
                         one_part_expansion, weyl_factor)
# read off their modules when called: tableaux.row_factors, so the row
# check and its fallback, tableau_factors, always weigh the same cell side,
# and the ratio routes' entries and Weyl factors of the h-denominator case
from . import characters, tableaux
from .lattice import Path, is_lattice_path, tableau_to_paths
from .partitions import enumerate_partitions
from .qfunctions import (CHAR_KIND, QFUNC_KINDS, f_mpqn, prefactor,
                         q_determinantal, q_md, q_tableaux, qtilde,
                         verify_tokuyama)
from .tableaux import (ALL_KINDS, Q_KINDS, check_shape,
                       enumerate_tableaux, require_valid, tableau_factors)


@dataclass
class CaseResult:
    index: int
    inputs: dict
    equal: bool
    detail: dict = field(default_factory=dict)

    def to_obj(self) -> dict:
        obj = {"case": self.index, "inputs": self.inputs, "equal": self.equal}
        obj.update(self.detail)
        return obj


@dataclass
class SuiteReport:
    suite: str
    cases: list[CaseResult]

    @property
    def passed(self) -> int:
        return sum(1 for c in self.cases if c.equal)

    @property
    def failed(self) -> int:
        return sum(1 for c in self.cases if not c.equal)

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def first_failure(self) -> CaseResult | None:
        for c in self.cases:
            if not c.equal:
                return c
        return None

    def to_obj(self) -> dict:
        return {"suite": self.suite, "passed": self.passed, "failed": self.failed,
                "cases": [c.to_obj() for c in self.cases]}


def _run_cases(suite: str, cases) -> SuiteReport:
    """Number the computed cases, (inputs, equal, detail) triples in grid
    order, into the suite's report."""
    return SuiteReport(suite, [CaseResult(index, *case)
                               for index, case in enumerate(cases)])


def _kinds(family: tuple[str, ...], kind_filter, what: str) -> tuple[str, ...]:
    """The kinds a suite runs: all of ``family``, or the one it is asked for."""
    if kind_filter is None:
        return family
    if kind_filter not in family:
        raise ValueError(f"{what} suite kind must be one of {family}")
    return (kind_filter,)


def _grid(kinds, n_max: int, max_part: int, strict: bool | None = None,
          size_max: int | None = None):
    """(kind, n, parts) over ``kinds`` in order, n = 1..n_max, and the
    partitions with parts <= max_part and at most n of them (strict ones
    for the Q kinds unless ``strict`` is given), only those of size <=
    size_max when it is given."""
    for k in kinds:
        s = k in Q_KINDS if strict is None else strict
        for n in range(1, n_max + 1):
            for lam in enumerate_partitions(max_part, n, strict=s):
                if size_max is None or lam.size <= size_max:
                    yield k, n, lam.parts


# -- character route suites -------------------------------------------------


def suite_routes(n_max: int = 2, lambda_max: int = 3, kind: str | None = None,
                 methods=tuple(CHAR_ROUTES)) -> SuiteReport:
    """All requested character routes agree on every (kind, n, shape)."""
    kinds = _kinds(GROUP_KINDS, kind, "character")
    return _run_cases("routes", [_route_case(k, n, parts, methods)
                                 for k, n, parts in _grid(kinds, n_max, lambda_max)])


def suite_jt_vs_def(n_max: int = 2, lambda_max: int = 3,
                    kind: str | None = None) -> SuiteReport:
    report = suite_routes(n_max, lambda_max, kind, methods=("jt", "def"))
    return SuiteReport("jt-vs-def", report.cases)


def _route_case(kind, n, parts, methods):
    inputs = {"kind": kind, "n": n, "lambda": list(parts),
              "routes": list(methods)}
    vt = vartable_for(n, parts[0] if parts else 0)
    values = {m: CHAR_ROUTES[m](kind, parts, vt) for m in methods}
    first = values[methods[0]]
    equal = all(v == first for v in values.values())
    return inputs, equal, {"terms": first.n_terms()}


# -- Q-function suites --------------------------------------------------------


def suite_q_routes(n_max: int = 2, lambda_max: int = 3,
                   kind: str | None = None) -> SuiteReport:
    kinds = _kinds(QFUNC_KINDS, kind, "Q")
    return _run_cases("q-routes", [_q_route_case(k, n, parts)
                                   for k, n, parts in _grid(kinds, n_max, lambda_max)])


def _q_route_case(kind, n, parts):
    inputs = {"identity": "q-routes", "kind": kind, "n": n, "lambda": list(parts)}
    vt = vartable_for(n, parts[0] if parts else 0)
    lhs = q_tableaux(kind, parts, vt)
    rhs = q_determinantal(kind, parts, vt)
    return inputs, lhs == rhs, {"lhs_terms": lhs.n_terms(),
                                "rhs_terms": rhs.n_terms()}


def suite_tokuyama(n_max: int = 2, mu_max: int = 2,
                   kind: str | None = None) -> SuiteReport:
    """Tokuyama factorisation over all mu with |mu| <= mu_max."""
    kinds = _kinds(QFUNC_KINDS, kind, "Q")
    return _run_cases("tokuyama", [
        _tokuyama_case(k, n, mu)
        for k, n, mu in _grid(kinds, n_max, mu_max, strict=False, size_max=mu_max)])


def _tokuyama_case(kind, n, mu):
    inputs = {"identity": "tokuyama", "kind": kind, "mu": list(mu), "n": n}
    vt = vartable_for(n, (mu[0] if mu else 0) + n)
    rep = verify_tokuyama(kind, mu, vt)
    return inputs, rep.equal, {"lhs_terms": rep.lhs.n_terms(),
                               "rhs_terms": rep.rhs.n_terms()}


# -- h-family lemma suite -----------------------------------------------------


def suite_h_diff(n_max: int = 2, m_max: int = 4,
                 kind: str | None = None) -> SuiteReport:
    """One-variable-block difference relations, the last-variable
    recursion, the closed-form denominator determinants, and the one-part
    expansions.

    The denominator case expands each ratio route's dense n x n
    denominator by cofactors and compares it with the product of its Weyl
    factors, independently of the reduced check the routes run on the
    same factors.  Dense expansion grows fast with n: about 0.6 s for the
    whole suite at n_max = 5, m_max = 0, and at n = 6 the case takes
    about 14 s for sp and 28 s for so (CPython 3.11, 2 shared cores).
    """
    cases = []
    for k in _kinds(GROUP_KINDS, kind, "character"):
        for n in range(1, n_max + 1):
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    for m in range(0, m_max + 1):
                        cases.append(_h_diff_case(k, n, i, j, m))
            for m in range(0, m_max + 1):
                if k == "gl":
                    cases.append(_h_recursion_case(k, n, m))
                cases.append(_one_part_case(k, n, m))
            cases.append(_h_denominator_case(k, n))
    return _run_cases("h-diff", cases)


def _h_diff_case(kind, n, i, j, m):
    inputs = {"identity": "h-diff", "kind": kind, "n": n, "i": i, "j": j, "m": m}
    vt = vartable_for(n, m)
    lhs = h_range(kind, m, i, j - 1, vt) - h_range(kind, m, i + 1, j, vt)
    rhs = weyl_factor(kind, i, j, vt) * h_range(kind, m - 1, i, j, vt)
    return inputs, lhs == rhs, {}


def _h_recursion_case(kind, n, m):
    inputs = {"identity": "h-recursion", "kind": kind, "n": n, "m": m}
    vt = vartable_for(n, m)
    full = h_range(kind, m, 1, n, vt)
    head = h_range(kind, m, 1, n - 1, vt)
    rhs = head + add_a(xv(vt, n), m + n - 1) * h_range(kind, m - 1, 1, n, vt)
    return inputs, full == rhs, {}


def _one_part_case(kind, n, m):
    inputs = {"identity": "one-part", "kind": kind, "n": n, "m": m}
    vt = vartable_for(n, m)
    equal = one_part_expansion(kind, m, vt) == h_factorial(kind, m, 1, vt)
    return inputs, equal, {}


def _h_denominator_case(kind, n):
    """Weyl's denominator formula for each ratio route: the dense
    determinant |entry(n - j, i)| is the product of the route's
    ``ratio_factors``, sign included."""
    inputs = {"identity": "h-denominator", "kind": kind, "n": n}
    vt = vartable_for(n, 0 if kind == "gl" else 1)
    for route, entry in characters._RATIO_ENTRIES.items():
        den = determinant([[entry(kind, n - j, i, vt) for j in range(1, n + 1)]
                           for i in range(1, n + 1)], vt=vt)
        scales, pairs = characters.ratio_factors(kind, vt, route)
        if den != reduce(mul, [*scales, *pairs.values()], MultiPoly.one(vt)):
            return inputs, False, {}
    return inputs, True, {}


# -- f / qtilde lemma suite ----------------------------------------------------


def suite_f_diff(n_max: int = 2, m_max: int = 4,
                 kind: str | None = None) -> SuiteReport:
    """f difference relations and reductions, the qtilde recursions, and
    the diagonal-prefactor bridge identities."""
    cases = []
    for k in _kinds(QFUNC_KINDS, kind, "Q"):
        for n in range(1, n_max + 1):
            for p in range(1, n + 1):
                for q in range(p, n + 1):
                    for m in range(0, m_max + 1):
                        if p < q:
                            cases.append(_f_diff_case(k, n, p, q, m))
                        cases.append(_f_reduction_case(k, n, p, q, m))
            for i in range(1, n + 1):
                for m in range(0, min(m_max, 3) + 1):
                    if k in ("spQ", "soQ"):
                        cases.append(_bridge_case(k, n, i, m))
    for n in range(1, n_max + 1):
        for r in range(1, 2 * n + 1):
            for s in range(0, 2 * n + 1):
                for m in range(1, min(m_max, 3) + 1):
                    cases.append(_qtilde_recursion_case(n, r, s, m))
    return _run_cases("f-diff", cases)


def _f_diff_case(kind, n, p, q, m):
    inputs = {"identity": "f-diff", "kind": kind, "n": n, "p": p, "q": q, "m": m}
    vt = vartable_for(n, m + n)
    lhs = f_mpqn(kind, m, p, q - 1, vt) - f_mpqn(kind, m, p + 1, q, vt)
    rhs = prefactor(kind, p, q, vt) * f_mpqn(kind, m - 1, p, q, vt)
    return inputs, lhs == rhs, {}


def _f_reduction_case(kind, n, p, q, m):
    inputs = {"identity": "f-reduction", "kind": kind, "n": n, "p": p, "q": q, "m": m}
    vt = vartable_for(n, m + n)
    ok = True
    if p == q:
        ok = f_mpqn(kind, m, p, p, vt) == q_md(kind, m, p, vt)
    if q == n:
        h = h_factorial(CHAR_KIND[kind], m, p, vt)
        if kind == "soQ":
            h = a_shifted_down(h)
        ok = ok and f_mpqn(kind, m, p, n, vt) == h
    return inputs, ok, {}


def _bridge_case(kind, n, i, m):
    inputs = {"identity": "bridge", "kind": kind, "n": n, "i": i, "m": m}
    vt = vartable_for(n, m + 2)
    xs = [xv(vt, k) for k in range(i, n + 1)]
    xs1 = [xv(vt, k) for k in range(i + 1, n + 1)]
    xb = [xbar(vt, k) for k in range(i, n + 1)]
    ys1 = [yv(vt, k) for k in range(i + 1, n + 1)]
    yb = [ybar(vt, k) for k in range(i, n + 1)]
    yb1 = [ybar(vt, k) for k in range(i + 1, n + 1)]
    extra = [MultiPoly.one(vt)] if kind == "soQ" else []
    lhs = (xv(vt, i) + yv(vt, i)) * qtilde(m, xs + xb, ys1 + yb + extra, vt) \
        + (xbar(vt, i) + ybar(vt, i)) * qtilde(m, xs1 + xb, ys1 + yb1 + extra, vt)
    rhs = prefactor(kind, i, i, vt) * q_md(kind, m, i, vt)
    return inputs, lhs == rhs, {}


def _qtilde_recursion_case(n, r, s, m):
    inputs = {"identity": "qtilde-recursion", "n": n, "r": r, "s": s, "m": m}
    vt = vartable_for(n, m + r + 1)
    us = [xv(vt, (k % n) + 1) for k in range(r)]
    vs = [yv(vt, (k % n) + 1) for k in range(s)]
    ok = True
    lhs = qtilde(m, us, vs, vt)
    if r >= 1:
        rhs = qtilde(m, us[:-1], vs, vt) + \
            add_a(us[-1], m + r - s - 1) * qtilde(m - 1, us, vs, vt)
        ok = lhs == rhs
    if s >= 1:
        rhs = qtilde(m, us, vs[:-1], vt) + \
            add_a(vs[-1], m + r - s, sign=-1) * qtilde(m - 1, us, vs[:-1], vt)
        ok = ok and lhs == rhs
    return inputs, ok, {}


# -- lattice-path suite ---------------------------------------------------------


def suite_lgv(n_max: int = 2, lambda_max: int = 3, kind: str | None = None,
              shapes=None, size_max: int | None = None) -> SuiteReport:
    """Per-family checks of the tableau-to-path map, the lattice-path model
    of Gessel and Viennot: edge-weight products reproduce tableau weights,
    images are pairwise vertex-disjoint, the map is injective, the D
    steps sit on the marked letters (``Entry.marked``), and every path runs
    through the lattice from its fixed source to its fixed sink.
    ``shapes`` may pin an explicit list of (kind, parts, n); otherwise the
    grid runs over partitions with parts <= lambda_max (optionally
    |shape| <= size_max).  A failing case reports the first failing check
    in that order: wrong number of paths (n in the character kinds, one
    per row in the Q kinds), weight mismatch, paths intersect, not
    injective, diagonal steps, not a lattice path.

    Path i and the cell weights of row i depend only on (row index, row),
    so each case checks once per distinct (row index, row, path): the
    row's sorted non-unit cell weights (``tableaux.row_factors``) against
    the path's sorted non-unit edge weights, the path's signature (its
    edge geometry and weights, since curved starts can share geometry),
    its D steps (one per marked letter that a step places, so not a Q
    row's diagonal letter, which its C step places; at most one in a
    character row, empty rows included), and its geometry.  A path's
    geometry holds when it starts at its source, ends in its source's
    column plus the row's length, and is a lattice path
    (``lattice.is_lattice_path``: edges chained by unit H, V and D steps,
    C steps from column 0 to 1, ending on the bottom level).  The sources
    are written here from the model, not taken from the walker: on the
    character side the staircase point at level i (2i - 1 for sp/so) in
    column n - i + 1; on the Q side the left edge at level d (2d - 1/2 for
    spQ/soQ), d the index of the row's diagonal letter.

    The edge weights read their parameter index off the step's lattice
    position and the cell weights off the cell, so the weight check
    compares two independent statements.  Both are products of linear
    factors, so equal multisets of non-unit factors have equal products.
    A tableau whose rows all match passes the weight check.  If a row
    does not, the whole tableau's multisets are compared (rows may trade
    factors and still agree), and only when those differ are both products
    expanded, so the verdict is exactly product equality.  Weights and
    path signatures are compared as small ints interned per case by value
    (the unit weight is 0, which the multisets leave out), so
    equal-valued copies match and the multisets sort ints.  Every tableau
    is still validated on both sides (by ``tableau_to_paths``, and for the
    cell side here) and checked for disjointness and injectivity as a
    whole."""
    kinds = _kinds(ALL_KINDS, kind, "tableau")
    if shapes is None:
        shapes = [(k, parts, n) for k, n, parts
                  in _grid(kinds, n_max, lambda_max, size_max=size_max)]
    return _run_cases("lgv", [_lgv_case(k, tuple(parts), n)
                              for k, parts, n in shapes])


def _lgv_case(kind, parts, n):
    inputs = {"identity": "lgv", "kind": kind, "lambda": list(parts), "n": n}
    # before vartable_for, which would call a negative part a bad a_max
    check_shape(kind, parts, n)
    vt = vartable_for(n, parts[0] if parts else 0)
    # the row memo hands a recurring row's path out as one object, and cell
    # and edge factors are shared values (tableaux.letter_factor), so
    # ``weights`` and ``checked`` are keyed by id; each entry holds its
    # weight or path, so the id cannot be reused while the case runs
    rows = {}
    weights = {}
    checked = {}
    weight_ids = {_term_key(MultiPoly.one(vt)): 0}
    sig_ids = {}
    qkind = kind in Q_KINDS
    # the character kinds draw a path for every row up to n, empty ones too
    pad = () if qkind else ((),) * (n - len(parts))
    index = range(1, n + 1)

    def key(w):
        hit = weights.get(id(w))
        if hit is None:
            hit = weights[id(w)] = (
                w, weight_ids.setdefault(_term_key(w), len(weight_ids)))
        return hit[1]

    def check(i, row, p):
        """Row i's verdicts against its path p, kept in ``checked``."""
        ws = [key(e.weight) for e in p.edges]
        edges = sorted(filter(None, ws))
        factors = tableaux.row_factors(kind, n, i, row, vt)
        cells = sorted(filter(None, map(key, factors)))
        sig = (tuple([(e.frm, e.to, e.kind) for e in p.edges]), tuple(ws))
        if qkind:
            k = row[0].k  # the diagonal letter's index
            source = (2 * k if kind == "glQ" else 4 * k - 1, 0)
        else:
            source = (2 * i if kind == "glChar" else 4 * i - 2, n - i + 1)
        # a Q row's diagonal letter is placed by its C step
        placed = row[1:] if qkind else row
        d = [e.kind for e in p.edges].count("D")
        diagonal = d == sum([e.marked for e in placed]) and (qkind or d <= 1)
        geometry = (p.start == source and p.end[1] == source[1] + len(row)
                    and is_lattice_path(kind, n, p))
        weight = edges == cells
        hit = checked[(i, row, id(p))] = _RowCheck(
            weight and diagonal and geometry,
            sig_ids.setdefault(sig, len(sig_ids)),
            edges, weight, diagonal, geometry, p)
        return hit

    seen = set()
    vertices = {}
    count = 0
    for t in enumerate_tableaux(kind, parts, n):
        count += 1
        pt = tableau_to_paths(t, vt, rows)
        if parts:
            # the cell side validates on its own, as tableau_factors does
            require_valid(t)
        if len(pt.paths) != len(t.rows) + len(pad):
            return inputs, False, {"count": count, "reason": "wrong number of paths"}
        data = [checked.get((i, row, id(p))) or check(i, row, p)
                for i, row, p in zip(index, t.rows + pad, pt.paths)]
        ok = all([r.ok for r in data])
        if not ok and not all(r.weight for r in data):
            # rows that differ may still make up equal tableau multisets,
            # and different multisets equal products
            factors = tableau_factors(t, vt)
            edge_ms = sorted(w for r in data for w in r.edges)
            cell_ms = sorted(filter(None, map(key, factors)))
            if edge_ms != cell_ms and pt.weight() != reduce(
                    mul, factors, MultiPoly.one(vt)):
                return inputs, False, {"count": count, "reason": "weight mismatch"}
        if not pt.non_intersecting(vertices):
            return inputs, False, {"count": count, "reason": "paths intersect"}
        sig = tuple([r.sig for r in data])
        if sig in seen:
            return inputs, False, {"count": count, "reason": "not injective"}
        seen.add(sig)
        if not ok:
            if not all(r.diagonal for r in data):
                return inputs, False, {"count": count, "reason": "diagonal steps"}
            if not all(r.geometry for r in data):
                return inputs, False, {"count": count, "reason": "not a lattice path"}
    return inputs, True, {"count": count}


class _RowCheck(NamedTuple):
    """One row's verdicts against its path in ``_lgv_case``."""

    ok: bool            # weight, diagonal and geometry all hold
    sig: int            # the path's signature id
    edges: list[int]    # the path's sorted non-unit edge weights, as interned ints
    weight: bool        # they equal the row's sorted non-unit cell weights
    diagonal: bool      # one D step per marked letter a step places; <= 1 (char)
    geometry: bool      # the path runs from its source to its sink in the lattice
    path: Path          # kept, so its id in the key stays its own


def _term_key(p: MultiPoly) -> tuple:
    """Hashable, order-free key of a polynomial's terms."""
    return tuple(sorted(p.terms.items()))


SUITE_TABLE = {
    "routes": suite_routes,
    "jt-vs-def": suite_jt_vs_def,
    "q-routes": suite_q_routes,
    "tokuyama": suite_tokuyama,
    "h-diff": suite_h_diff,
    "f-diff": suite_f_diff,
    "lgv": suite_lgv,
}

SUITES = tuple(SUITE_TABLE)


def run_suite(name: str, **kw) -> SuiteReport:
    """Run the named suite with the keyword arguments of its function."""
    try:
        suite = SUITE_TABLE[name]
    except KeyError:
        raise ValueError(
            f"unknown suite {name!r}; choose from {SUITES} or 'all'") from None
    return suite(**kw)
