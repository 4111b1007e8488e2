"""Suite machinery: reports, ordering, dispatch."""

import os
import subprocess
import sys
from dataclasses import replace
from types import ModuleType

import pytest

import charq
from charq import characters, cli, lattice, tableaux, verify
from charq.algebra import MultiPoly, TruncatedSeries, vartable_for, xbar, xv
from charq.lattice import Edge, Path, PathTuple
from charq.tableaux import Q_KINDS, enumerate_tableaux
from charq.verify import (CaseResult, SuiteReport, run_suite, suite_lgv,
                          suite_routes)


def test_report_counters_and_first_failure():
    good = CaseResult(0, {"k": 1}, True)
    bad = CaseResult(1, {"k": 2}, False, {"reason": "boom"})
    rep = SuiteReport("demo", [good, bad])
    assert rep.passed == 1 and rep.failed == 1 and not rep.ok
    assert rep.first_failure() is bad
    obj = rep.to_obj()
    assert obj["suite"] == "demo" and obj["failed"] == 1
    assert obj["cases"][1]["reason"] == "boom"


def test_run_suite_dispatch_error():
    with pytest.raises(ValueError):
        run_suite("nope")


def test_a_passing_report_has_no_first_failure():
    good = CaseResult(0, {"k": 1}, True)
    assert SuiteReport("demo", [good]).first_failure() is None


def test_suite_kind_filter():
    rep = suite_routes(n_max=1, lambda_max=1, kind="sp")
    assert all(c.inputs["kind"] == "sp" for c in rep.cases)
    with pytest.raises(ValueError):
        suite_routes(kind="zz")


def test_h_denominator_reports_a_wrong_weyl_factor(monkeypatch):
    real = characters.ratio_factors

    def negated(kind, vt, route):
        scales, pairs = real(kind, vt, route)
        if pairs:
            key = next(iter(pairs))
            pairs = {**pairs, key: -pairs[key]}
        return scales, pairs

    characters._ratio_denominator.cache_clear()
    monkeypatch.setattr(characters, "ratio_factors", negated)
    try:
        rep = verify.suite_h_diff(n_max=2, m_max=0, kind="gl")
    finally:
        characters._ratio_denominator.cache_clear()
    assert rep.failed == 1
    assert rep.first_failure().inputs == {
        "identity": "h-denominator", "kind": "gl", "n": 2}


def test_h_denominator_expands_its_own_determinants(monkeypatch):
    # the case states Weyl's formula itself, not through the routes' check
    def refused(kind, vt, route):
        raise AssertionError("the reduced denominator check was called")

    monkeypatch.setattr(characters, "_ratio_denominator", refused)
    # and any alias of it that verify might hold
    monkeypatch.setattr(verify, "_ratio_denominator", refused, raising=False)
    rep = verify.suite_h_diff(n_max=3, m_max=0)
    assert rep.ok
    assert sum(c.inputs["identity"] == "h-denominator" for c in rep.cases) == 9


def test_lgv_pinned_shapes():
    rep = suite_lgv(shapes=[("spChar", (1, 1), 2), ("glQ", (2, 1), 2)])
    assert rep.ok and len(rep.cases) == 2
    assert rep.cases[0].detail["count"] == 5


def _patch_factors(monkeypatch, change):
    """Make suite_lgv see the first cell factor of every tableau rewritten
    by ``change`` (a function from one factor to a list of factors): the
    first factor of row 1, in the row check and in ``tableau_factors``."""
    real = tableaux.row_factors

    def patched(kind, n, i, row, vt):
        factors = real(kind, n, i, row, vt)
        if i > 1:
            return factors
        first, *rest = factors
        return change(first, vt) + rest

    monkeypatch.setattr(tableaux, "row_factors", patched)


def test_lgv_reports_a_corrupted_factor(monkeypatch):
    _patch_factors(monkeypatch, lambda f, vt: [f + 1])
    rep = suite_lgv(shapes=[("glChar", (2, 1), 2)])
    assert not rep.ok
    assert rep.cases[0].detail == {"count": 1, "reason": "weight mismatch"}


def test_lgv_split_factor_passes_through_exact_fallback(monkeypatch):
    # f -> (f * x1, x1^-1): a different multiset with the same product.
    # No first cell of these shapes weighs x1^-1, so f * x1 is never the
    # unit that the multiset comparison leaves out.
    _patch_factors(monkeypatch, lambda f, vt: [f * xv(vt, 1), xbar(vt, 1)])
    expanded = []
    real_weight = PathTuple.weight
    monkeypatch.setattr(PathTuple, "weight",
                        lambda self: expanded.append(1) or real_weight(self))
    rep = suite_lgv(shapes=[("glChar", (2, 1), 3), ("glQ", (2, 1), 2)])
    assert rep.ok and [c.detail["count"] for c in rep.cases] == [8, 8]
    assert len(expanded) == 8 + 8


@pytest.mark.parametrize("kind", ["glChar", "soQ"])
def test_lgv_reports_a_corrupted_factor_in_the_last_row(monkeypatch, kind):
    # only the last cell of row 2, the last row of (2, 1), weighs wrong:
    # a lower row's own check must see it
    real = tableaux.row_factors

    def patched(kind, n, i, row, vt):
        factors = real(kind, n, i, row, vt)
        return factors[:-1] + [factors[-1] + 1] if i == 2 else factors

    monkeypatch.setattr(tableaux, "row_factors", patched)
    rep = suite_lgv(shapes=[(kind, (2, 1), 2)])
    assert rep.cases[0].detail == {"count": 1, "reason": "weight mismatch"}


def test_lgv_passes_a_factor_moved_between_rows_without_expanding(monkeypatch):
    # row 1's last factor is handed to row 2: neither row matches its
    # path, but each tableau's multiset does, so no product is expanded
    # (tableau_factors weighs row 1 before row 2, so the factor row 2
    # gets there is its own tableau's)
    real = tableaux.row_factors
    moved = []

    def patched(kind, n, i, row, vt):
        factors = real(kind, n, i, row, vt)
        if i == 1:
            moved[:] = factors[-1:]
            return factors[:-1]
        return factors + moved if i == 2 else factors

    monkeypatch.setattr(tableaux, "row_factors", patched)
    expanded = []
    monkeypatch.setattr(PathTuple, "weight",
                        lambda self: expanded.append(1))
    rep = suite_lgv(shapes=[("glChar", (2, 1), 3), ("soQ", (2, 1), 2)])
    assert rep.ok and expanded == []
    assert all(c.detail["count"] > 1 for c in rep.cases)


@pytest.mark.parametrize("kind", ["glChar", "spChar", "soChar",
                                  "glQ", "spQ", "soQ"])
def test_lgv_reports_paths_without_their_vertical_steps(monkeypatch, kind):
    # with no V steps a path jumps levels between its edges and stops
    # above the bottom level; the V steps weigh 1, so the weights, the
    # vertex check, injectivity and the diagonal steps all still hold
    monkeypatch.setattr(lattice, "_drop", lambda *args: None)
    rep = suite_lgv(shapes=[(kind, (2, 1), 2)])
    assert rep.cases[0].detail == {"count": 1, "reason": "not a lattice path"}


@pytest.mark.parametrize("kind", ["glChar", "spChar", "soChar",
                                  "glQ", "spQ", "soQ"])
def test_lgv_reports_a_path_that_ends_off_its_last_edge(monkeypatch, kind):
    # every path's end moves 5 columns right; its edges, and so its
    # weights, vertices and signature, are kept
    def moved(pt):
        return replace(pt, paths=tuple(
            Path(p.start, (p.end[0], p.end[1] + 5), p.edges) for p in pt.paths))

    real = verify.tableau_to_paths
    monkeypatch.setattr(verify, "tableau_to_paths",
                        lambda t, vt, *memo: moved(real(t, vt, *memo)))
    rep = suite_lgv(shapes=[(kind, (2, 1), 2)])
    assert rep.cases[0].detail == {"count": 1, "reason": "not a lattice path"}


@pytest.mark.parametrize("kind", ["glChar", "spChar", "soChar",
                                  "glQ", "spQ", "soQ"])
def test_lgv_reports_a_shifted_edge_weight_index(monkeypatch, kind):
    # every H, D and C step takes its weight from one lattice._edge_weight
    # call; moving the column it is given by one shifts the parameter index
    # of every such weight by one, which the weight check must see
    real = lattice._edge_weight
    calls = []
    monkeypatch.setattr(lattice, "_edge_weight",
                        lambda kind, n, e, level, col, vt:
                        calls.append(e) or real(kind, n, e, level, col, vt))
    vt = vartable_for(2, 2)
    for t in enumerate_tableaux(kind, (2, 1), 2):
        calls.clear()
        pt = lattice.tableau_to_paths(t, vt)
        assert len(calls) == sum(e.kind != "V" for p in pt.paths for e in p.edges)
    monkeypatch.setattr(lattice, "_edge_weight",
                        lambda kind, n, e, level, col, vt:
                        real(kind, n, e, level, col + 1, vt))
    rep = suite_lgv(shapes=[(kind, (2, 1), 2)])
    assert rep.cases[0].detail == {"count": 1, "reason": "weight mismatch"}


@pytest.mark.parametrize("kind", ["glChar", "spChar", "soChar",
                                  "glQ", "spQ", "soQ"])
def test_lgv_compares_factors_by_value_not_identity(monkeypatch, kind):
    # every H, D and C weight becomes a fresh copy: equal to the shared
    # cached factor of its cell, but a distinct object, so the multisets
    # must match by value, without the expanded fallback
    real = lattice._edge_weight

    def copied(kind, n, e, level, col, vt):
        w = real(kind, n, e, level, col, vt)
        fresh = -(-w)
        assert fresh == w and fresh is not w
        return fresh

    monkeypatch.setattr(lattice, "_edge_weight", copied)
    expanded = []
    monkeypatch.setattr(PathTuple, "weight",
                        lambda self: expanded.append(1))
    rep = suite_lgv(shapes=[(kind, (2, 1), 2), (kind, (3, 1), 3)])
    assert rep.ok and expanded == []
    assert all(c.detail["count"] > 1 for c in rep.cases)


def test_lgv_reports_intersecting_paths(monkeypatch):
    # every path is translated to start where the first one starts; the
    # edge weights are kept, so the weight check passes and the vertex
    # check must fail
    def stacked(pt):
        r0, c0 = pt.paths[0].start

        def moved(p):
            dr, dc = r0 - p.start[0], c0 - p.start[1]

            def shift(v):
                return (v[0] + dr, v[1] + dc)

            return Path(shift(p.start), shift(p.end),
                        tuple(Edge(shift(e.frm), shift(e.to), e.kind, e.weight)
                              for e in p.edges))

        return replace(pt, paths=tuple(map(moved, pt.paths)))

    real = verify.tableau_to_paths
    monkeypatch.setattr(verify, "tableau_to_paths",
                        lambda t, vt, *memo: stacked(real(t, vt, *memo)))
    rep = suite_lgv(shapes=[("glChar", (2, 1), 2)])
    assert rep.cases[0].detail == {"count": 1, "reason": "paths intersect"}


def test_lgv_reports_a_path_that_meets_itself(monkeypatch):
    # the first path gains a unit V step from its end back to its end, so
    # it visits that vertex twice while its vertex set stays the same;
    # weights, injectivity and diagonal steps still hold
    def looped(pt, vt):
        p = pt.paths[0]
        stay = Edge(p.end, p.end, "V", MultiPoly.one(vt))
        return replace(pt, paths=(Path(p.start, p.end, p.edges + (stay,)),)
                       + pt.paths[1:])

    real = verify.tableau_to_paths
    monkeypatch.setattr(verify, "tableau_to_paths",
                        lambda t, vt, *memo: looped(real(t, vt, *memo), vt))
    rep = suite_lgv(shapes=[("glChar", (2, 1), 2)])
    assert rep.cases[0].detail == {"count": 1, "reason": "paths intersect"}


def test_lgv_reports_a_map_that_is_not_injective(monkeypatch):
    # every tableau is sent to the first one's paths and cell factors, so
    # weights and disjointness hold and the second tableau repeats the first
    real_paths, real_factors = verify.tableau_to_paths, verify.tableau_factors
    first = []

    def pinned(real):
        def call(t, vt, *rest):
            if not first:
                first.append(t)
            return real(first[0], vt, *rest)
        return call

    monkeypatch.setattr(verify, "tableau_to_paths", pinned(real_paths))
    monkeypatch.setattr(verify, "tableau_factors", pinned(real_factors))
    rep = suite_lgv(shapes=[("glChar", (2, 1), 2)])
    assert rep.cases[0].detail == {"count": 2, "reason": "not injective"}


def test_lgv_compares_path_signatures_by_value(monkeypatch):
    # every tableau is sent to fresh equal copies (new Path and Edge
    # objects) of the first one's paths, with the first one's cell factors:
    # the second tableau must still repeat the first, so a path's
    # signature cannot be keyed by the path object
    real_paths, real_factors = verify.tableau_to_paths, verify.tableau_factors
    first = []

    def copied(t, vt, *rest):
        if not first:
            first.append(t)
        pt = real_paths(first[0], vt, *rest)
        return replace(pt, paths=tuple(
            Path(p.start, p.end, tuple(Edge(*e) for e in p.edges))
            for p in pt.paths))

    monkeypatch.setattr(verify, "tableau_to_paths", copied)
    monkeypatch.setattr(verify, "tableau_factors",
                        lambda t, vt: real_factors(first[0], vt))
    rep = suite_lgv(shapes=[("glChar", (2, 1), 2)])
    assert rep.cases[0].detail == {"count": 2, "reason": "not injective"}


def test_lgv_leaves_out_a_unit_cell_factor_by_value(monkeypatch):
    # a fresh 1 among the cell factors is dropped from the multiset as the
    # unit V steps are, so the multisets still agree and no product is
    # expanded
    real = tableaux.row_factors
    fresh = []

    def with_unit(kind, n, i, row, vt):
        fresh.append(MultiPoly.one(vt))
        return real(kind, n, i, row, vt) + [fresh[-1]]

    monkeypatch.setattr(tableaux, "row_factors", with_unit)
    expanded = []
    monkeypatch.setattr(PathTuple, "weight",
                        lambda self: expanded.append(1))
    rep = suite_lgv(shapes=[("glChar", (2, 1), 2), ("soQ", (2, 1), 2)])
    assert rep.ok and expanded == []
    assert len({id(u) for u in fresh}) == len(fresh) > 2


def test_lgv_reports_diagonal_steps_off_the_zero_letters(monkeypatch):
    # the walker draws every H step as a D step between the same points
    # with the same weight: weights, disjointness and injectivity hold,
    # and a row without a zero letter now has diagonal steps
    monkeypatch.setattr(lattice, "Edge",
                        lambda frm, to, kind, weight:
                        Edge(frm, to, "D" if kind == "H" else kind, weight))
    rep = suite_lgv(shapes=[("soChar", (2, 1), 2)])
    assert rep.cases[0].detail == {"count": 1, "reason": "diagonal steps"}


def _off_source(real):
    """``lattice._row_path`` with every path moved off its source: a
    character path whose first step is V starts where that step ends,
    without it; a Q path's C step leaves the left edge two doubled levels
    lower.  Each path still chains to the bottom level with its weights."""
    def row_path(kind, n, i, row, vt):
        p = real(kind, n, i, row, vt)
        if kind in Q_KINDS:
            curve, *rest = p.edges
            start = (p.start[0] + 2, 0)
            return Path(start, p.end,
                        (Edge(start, curve.to, "C", curve.weight), *rest))
        if p.edges and p.edges[0].kind == "V":
            return Path(p.edges[0].to, p.end, p.edges[1:])
        return p
    return row_path


def _off_sink(real):
    """``lattice._row_path`` with every path that ends on a V step ending
    instead on a unit-weight D step one column to the right, so it reaches
    the bottom level one column right of its sink."""
    def row_path(kind, n, i, row, vt):
        p = real(kind, n, i, row, vt)
        if not p.edges or p.edges[-1].kind != "V":
            return p
        last = p.edges[-1]
        end = (last.to[0], last.to[1] + 1)
        return Path(p.start, end,
                    p.edges[:-1] + (Edge(last.frm, end, "D", last.weight),))
    return row_path


@pytest.mark.parametrize("kind,count", [("glChar", 2), ("spChar", 1),
                                        ("soChar", 1), ("glQ", 1),
                                        ("spQ", 1), ("soQ", 1)])
def test_lgv_reports_a_path_off_its_source(monkeypatch, kind, count):
    # weights, disjointness, injectivity and D steps still hold; glChar's
    # first tableau has no path that starts with a V step
    monkeypatch.setattr(lattice, "_row_path", _off_source(lattice._row_path))
    rep = suite_lgv(shapes=[(kind, (2, 1), 3)])
    assert rep.cases[0].detail == {"count": count,
                                   "reason": "not a lattice path"}


@pytest.mark.parametrize("kind,reason", [("glChar", "diagonal steps"),
                                         ("spChar", "diagonal steps"),
                                         ("soChar", "diagonal steps"),
                                         ("glQ", "diagonal steps"),
                                         ("spQ", "diagonal steps"),
                                         ("soQ", "diagonal steps")])
def test_lgv_reports_a_path_off_its_sink(monkeypatch, kind, reason):
    # the moved path still ends on the bottom level with its weights, and
    # gains a D step no marked letter accounts for, which is checked first
    monkeypatch.setattr(lattice, "_row_path", _off_sink(lattice._row_path))
    rep = suite_lgv(shapes=[(kind, (2, 1), 3)])
    assert rep.cases[0].detail == {"count": 1, "reason": reason}


def _unmarked_steps(real):
    """``lattice._row_path`` with each D edge of a Q path replaced by a
    unit V step down its column and an H step carrying the D edge's
    weight: the path keeps its ends, weights and lattice steps, but its
    primed letters no longer take a D step."""
    def row_path(kind, n, i, row, vt):
        p = real(kind, n, i, row, vt)
        if kind not in Q_KINDS:
            return p
        edges = []
        for e in p.edges:
            if e.kind == "D":
                corner = (e.to[0], e.frm[1])
                edges += [Edge(e.frm, corner, "V", MultiPoly.one(vt)),
                          Edge(corner, e.to, "H", e.weight)]
            else:
                edges.append(e)
        return Path(p.start, p.end, tuple(edges))
    return row_path


@pytest.mark.parametrize("kind", ["glQ", "spQ", "soQ"])
@pytest.mark.parametrize("parts,n", [((3,), 2), ((2,), 3)], ids=["3-n2", "2-n3"])
def test_lgv_reports_a_primed_letter_without_its_diagonal_step(
        monkeypatch, kind, parts, n):
    # one-row shapes, so the moved steps meet no other path; the first
    # tableau, the diagonal letter then unmarked letters, has no D step
    monkeypatch.setattr(lattice, "_row_path", _unmarked_steps(lattice._row_path))
    rep = suite_lgv(shapes=[(kind, parts, n)])
    assert rep.cases[0].detail == {"count": 2, "reason": "diagonal steps"}


@pytest.mark.parametrize("kind", ["glChar", "spChar", "soChar"])
def test_lgv_reports_a_diagonal_step_in_an_empty_row(monkeypatch, kind):
    # the empty shape's paths are V steps alone, so moving the last one
    # gives each an unaccounted D step; empty rows get no exemption
    monkeypatch.setattr(lattice, "_row_path", _off_sink(lattice._row_path))
    rep = suite_lgv(shapes=[(kind, (), 2)])
    assert rep.cases[0].detail == {"count": 1, "reason": "diagonal steps"}


def _with_paths(monkeypatch, change):
    """``verify.tableau_to_paths`` handing out ``change(t, paths)`` in
    place of each tableau's paths."""
    real = verify.tableau_to_paths

    def to_paths(t, vt, *memo):
        pt = real(t, vt, *memo)
        return replace(pt, paths=change(t, pt.paths))

    monkeypatch.setattr(verify, "tableau_to_paths", to_paths)


@pytest.mark.parametrize("kind", ["glChar", "spChar", "soChar"])
def test_lgv_reports_the_empty_rows_paths_missing(monkeypatch, kind):
    # the paths of the rows below the shape are dropped; every path left
    # still matches its row
    _with_paths(monkeypatch, lambda t, paths: paths[:len(t.rows)])
    rep = suite_lgv(shapes=[(kind, (2, 1), 3)])
    assert rep.cases[0].detail == {"count": 1, "reason": "wrong number of paths"}


@pytest.mark.parametrize("kind", ["glChar", "spChar", "soChar",
                                  "glQ", "spQ", "soQ"])
def test_lgv_reports_an_extra_path(monkeypatch, kind):
    # a copy of the last path, 100 columns to the right, so it meets no
    # other path
    def far(p):
        def shift(v):
            return (v[0], v[1] + 100)

        return Path(shift(p.start), shift(p.end),
                    tuple(Edge(shift(e.frm), shift(e.to), e.kind, e.weight)
                          for e in p.edges))

    _with_paths(monkeypatch, lambda t, paths: paths + (far(paths[-1]),))
    rep = suite_lgv(shapes=[(kind, (2, 1), 3)])
    assert rep.cases[0].detail == {"count": 1, "reason": "wrong number of paths"}


@pytest.mark.parametrize("kind", ["glChar", "spChar", "soChar"])
def test_lgv_weighs_the_empty_shape(monkeypatch, kind):
    # an empty row's V steps weigh x1 instead of 1, so the empty tableau's
    # paths no longer weigh 1
    real = lattice._row_path

    def heavy(kind, n, i, row, vt):
        p = real(kind, n, i, row, vt)
        if row:
            return p
        return Path(p.start, p.end, tuple(Edge(e.frm, e.to, e.kind, xv(vt, 1))
                                          for e in p.edges))

    monkeypatch.setattr(lattice, "_row_path", heavy)
    rep = suite_lgv(shapes=[(kind, (), 2)])
    assert rep.cases[0].detail == {"count": 1, "reason": "weight mismatch"}


# -- caches the benchmark can clear ---------------------------------------------

F_DIFF = ("verify", "--suite", "f-diff", "--n-max", "2", "--m-max", "3")

# Counts the series passes (mul_linear and mul_geometric calls) of one CLI
# command in a process that has just imported charq; argv follows "-c".
_COUNT_PASSES = """
import contextlib, io, sys
from charq import algebra, cli
count = [0]
for name in ("mul_linear", "mul_geometric"):
    def counted(self, v, real=getattr(algebra.TruncatedSeries, name)):
        count[0] += 1
        return real(self, v)
    setattr(algebra.TruncatedSeries, name, counted)
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(code, count[0])
"""


def _clear_lru_caches(package):
    """Clear every ``lru_cache`` in the package's modules, found as the
    benchmark worker finds them: each callable with ``cache_info`` among a
    ``charq.*`` module's globals."""
    for mod in vars(package).values():
        if isinstance(mod, ModuleType) and mod.__name__.startswith("charq."):
            for v in vars(mod).values():
                if callable(getattr(v, "cache_info", None)):
                    v.cache_clear()


def test_cleared_lru_caches_leave_the_series_checks_cold(monkeypatch, capsys):
    # A cache that clearing the lru_caches misses (a plain dict, say) would
    # let a second run skip passes that a fresh process runs.
    src = os.path.dirname(os.path.dirname(os.path.abspath(charq.__file__)))
    fresh = subprocess.run([sys.executable, "-c", _COUNT_PASSES, *F_DIFF],
                           env={**os.environ, "PYTHONPATH": src},
                           capture_output=True, text=True, check=True, timeout=120)
    code, want = map(int, fresh.stdout.split())
    assert code == 0 and want > 0
    assert cli.main(list(F_DIFF)) == 0
    _clear_lru_caches(charq)
    count = [0]
    for name in ("mul_linear", "mul_geometric"):
        def counted(self, v, real=getattr(TruncatedSeries, name)):
            count[0] += 1
            return real(self, v)
        monkeypatch.setattr(TruncatedSeries, name, counted)
    assert cli.main(list(F_DIFF)) == 0
    capsys.readouterr()
    assert count[0] == want
