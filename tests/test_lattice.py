"""Tableau-to-path maps: figure geometry, weight preservation, disjointness."""

import json
from dataclasses import FrozenInstanceError, fields, replace

import pytest

from charq.algebra import MultiPoly, av, vartable_for, xv, yv
from charq.partitions import enumerate_partitions
from charq.lattice import Edge, Path, PathTuple, is_lattice_path, tableau_to_paths
from charq.tableaux import (ALL_KINDS, CHAR_KINDS, Tableau,
                            entry_from_token, enumerate_tableaux,
                            tableau_weight)


def _tab(kind, n, rows):
    shape = tuple(len(r) for r in rows)
    return Tableau(kind, n, shape,
                   tuple(tuple(entry_from_token(tok) for tok in row)
                         for row in rows))


FIG_GL = _tab("glChar", 4, [("1", "1", "2", "4"), ("2", "3", "3"),
                            ("4", "4", "4")])


def test_figure_gl_endpoints_and_edges():
    vt = vartable_for(4, 4)
    pt = tableau_to_paths(FIG_GL, vt)
    n = 4
    lam = (4, 3, 3, 0)
    assert len(pt.paths) == n
    for i, p in enumerate(pt.paths, start=1):
        assert p.start == (2 * i, n - i + 1)
        assert p.end == (2 * n, n - i + 1 + lam[i - 1])
    # first path: two horizontal steps at level 1 weighted x1+a1, x1+a2
    h_edges = [e for e in pt.paths[0].edges if e.kind == "H"]
    assert h_edges[0].weight == xv(vt, 1) + av(vt, 1)
    assert h_edges[1].weight == xv(vt, 1) + av(vt, 2)
    assert h_edges[2].weight == xv(vt, 2) + av(vt, 4)
    assert h_edges[3].weight == xv(vt, 4) + av(vt, 7)
    # the empty fourth row gives an all-vertical path
    assert all(e.kind == "V" for e in pt.paths[3].edges)


def test_figure_gl_weight_product():
    vt = vartable_for(4, 4)
    pt = tableau_to_paths(FIG_GL, vt)
    assert pt.weight() == tableau_weight(FIG_GL, vt)


def test_figure_sp_so_start_points():
    vt = vartable_for(4, 4)
    sp = _tab("spChar", 4, [("1", "1bar", "2", "4bar"), ("3bar", "4", "4"),
                            ("4", "4bar", "4bar")])
    pt = tableau_to_paths(sp, vt)
    for i, p in enumerate(pt.paths, start=1):
        assert p.start == (2 * (2 * i - 1), 4 - i + 1)
        assert p.end[0] == 2 * (2 * 4)
    so = _tab("soChar", 4, [("1", "1bar", "2", "4bar"), ("3", "4", "0"),
                            ("4", "4bar", "0")])
    pt = tableau_to_paths(so, vt)
    for p in pt.paths:
        assert p.end[0] == 2 * (2 * 4 + 1)


def test_so_zero_becomes_single_diagonal_step():
    vt = vartable_for(4, 4)
    so = _tab("soChar", 4, [("1", "1bar", "2", "4bar"), ("3", "4", "0"),
                            ("4", "4bar", "0")])
    pt = tableau_to_paths(so, vt)
    one = MultiPoly.one(vt)
    for p, row in zip(pt.paths, so.rows + ((),)):
        d_edges = [e for e in p.edges if e.kind == "D"]
        zeros = sum(1 for e in row if e.zero)
        assert len(d_edges) == zeros <= 1
    # cell (2,3) carries 1 - a6 on its diagonal edge
    d = [e for e in pt.paths[1].edges if e.kind == "D"][0]
    assert d.weight == one - av(vt, 6)


def test_figure_spq_curved_starts():
    # diagonal letters 1, 2bar, 4prime give supports d = (1, 2, 4) and
    # half-integer starts (2d - 1/2, 0)
    vt = vartable_for(4, 6)
    t = _tab("spQ", 4, [("1", "1bar", "2prime", "2barprime", "3", "3"),
                        ("2bar", "2bar", "3", "4prime"),
                        ("4prime", "4", "4bar")])
    pt = tableau_to_paths(t, vt)
    assert [p.start for p in pt.paths] == [(3, 0), (7, 0), (15, 0)]
    assert [p.edges[0].kind for p in pt.paths] == ["C", "C", "C"]
    # curved edge of the second path lands on the barred level 2*2
    assert pt.paths[1].edges[0].to == (2 * 4, 1)
    assert pt.paths[2].edges[0].weight == yv(vt, 4)
    assert [p.end for p in pt.paths] == [(2 * 8, 6), (2 * 8, 4), (2 * 8, 3)]
    assert pt.weight() == tableau_weight(t, vt)


def test_glq_figure_paths():
    vt = vartable_for(4, 6)
    t = _tab("glQ", 4, [("1prime", "1", "2prime", "2", "3prime", "4"),
                        ("2", "3prime", "3", "3"), ("4prime", "4", "4")])
    pt = tableau_to_paths(t, vt)
    assert [p.start for p in pt.paths] == [(2, 0), (4, 0), (8, 0)]
    assert [p.end for p in pt.paths] == [(8, 6), (8, 4), (8, 3)]
    assert pt.weight() == tableau_weight(t, vt)
    assert pt.non_intersecting()


def test_empty_shape_q_tuple_is_empty():
    vt = vartable_for(2, 0)
    t = Tableau("glQ", 2, (), ())
    pt = tableau_to_paths(t, vt)
    assert pt.paths == ()


def test_json_halves_and_edge_schema():
    vt = vartable_for(2, 2)
    t = _tab("spQ", 2, [("1", "2prime"), ("2",)])
    pt = tableau_to_paths(t, vt)
    obj = pt.to_obj()
    assert obj["paths"][0]["start"] == [1.5, 0]
    edge = obj["paths"][0]["edges"][0]
    assert set(edge) == {"from", "to", "type", "w"}
    assert edge["type"] == "C"
    assert isinstance(edge["w"], dict) and "terms" in edge["w"]


def test_empty_path_tuple_has_no_weight():
    pt = tableau_to_paths(Tableau("glQ", 2, (), ()), vartable_for(2, 0))
    with pytest.raises(ValueError, match="no ring to weigh in"):
        pt.weight()


GRID = [
    ("glChar", (2, 1), 2), ("spChar", (2, 1), 2), ("soChar", (2, 1), 2),
    ("glQ", (2, 1), 2), ("spQ", (2, 1), 2), ("soQ", (2, 1), 2),
    ("soChar", (2,), 1), ("spQ", (3, 1), 2),
]


@pytest.mark.parametrize("kind,shape,n", GRID)
def test_weight_preservation_injectivity_disjointness(kind, shape, n):
    vt = vartable_for(n, shape[0])
    seen = set()
    for t in enumerate_tableaux(kind, shape, n):
        pt = tableau_to_paths(t, vt)
        assert pt.weight() == tableau_weight(t, vt)
        assert pt.non_intersecting()
        sig = tuple(tuple((e.frm, e.to, e.kind,
                           tuple(sorted(e.weight.terms.items())))
                          for e in p.edges) for p in pt.paths)
        assert sig not in seen
        seen.add(sig)


@pytest.mark.parametrize("kind,shape,n", GRID)
def test_to_json_is_compact_to_obj_and_encodes_each_edge_once(monkeypatch,
                                                               kind, shape, n):
    vt = vartable_for(n, shape[0])
    tuples = [tableau_to_paths(t, vt) for t in enumerate_tableaux(kind, shape, n)]
    want = [json.dumps(pt.to_obj(), separators=(",", ":")) for pt in tuples]
    real = Edge.to_obj
    encoded = []
    monkeypatch.setattr(Edge, "to_obj", lambda e: encoded.append(e) or real(e))
    memo = {}
    assert [pt.to_json(memo) for pt in tuples] == want
    keys = {(e.frm, e.to, e.kind, id(e.weight))
            for pt in tuples for p in pt.paths for e in p.edges}
    assert len(encoded) == len(keys)
    # each edge entry holds its weight, so the id in its key stays its own
    for e in encoded:
        assert memo[e.frm, e.to, e.kind, id(e.weight)][0] is e.weight


def test_invalid_tableau_rejected():
    vt = vartable_for(2, 2)
    bad = _tab("glChar", 2, [("2", "1")])
    with pytest.raises(ValueError):
        tableau_to_paths(bad, vt)


# the row memo: every family, a shape with two rows at n = 2 and n = 3,
# and the character shape (1, 1) at n = 3, where one row recurs at two
# indices on two different paths
MEMO_GRID = [(kind, shape, n) for kind in ALL_KINDS
             for shape, n in (((2, 1), 2), ((3, 1), 3))] + \
    [(kind, (1, 1), 3) for kind in CHAR_KINDS]


def test_row_memo_gives_the_image_drawn_without_it():
    # one memo held across all six families and both ranks: its keys
    # carry kind and n, so no family's rows are served to another
    memo = {}
    for kind, shape, n in MEMO_GRID:
        vt = vartable_for(n, shape[0])
        for t in enumerate_tableaux(kind, shape, n):
            assert tableau_to_paths(t, vt, memo) == tableau_to_paths(t, vt), \
                (kind, shape, n, t.rows)


@pytest.mark.parametrize("kind,shape,n", MEMO_GRID)
def test_row_memo_shares_equal_rows_at_one_index(kind, shape, n):
    vt = vartable_for(n, shape[0])
    memo = {}
    by_row = {}
    for t in enumerate_tableaux(kind, shape, n):
        pt = tableau_to_paths(t, vt, memo)
        for i, (row, p) in enumerate(zip(t.rows, pt.paths)):
            assert by_row.setdefault((i, row), p) is p
    # a row repeated under different rows above it is drawn once
    assert len(by_row) < sum(1 for _ in enumerate_tableaux(kind, shape, n)) * len(shape)


def test_row_memo_reused_with_another_table_gives_its_weights():
    small, large = vartable_for(2, 2), vartable_for(2, 3)
    memo = {}
    tabs = list(enumerate_tableaux("spQ", (2, 1), 2))
    for t in tabs:
        tableau_to_paths(t, small, memo)
    for t in tabs:
        pt = tableau_to_paths(t, large, memo)
        assert pt == tableau_to_paths(t, large)
        assert all(e.weight.vt is large for p in pt.paths for e in p.edges)
        assert pt.weight() == tableau_weight(t, large)


def test_row_memo_still_rejects_an_invalid_tableau():
    # both rows of the bad tableau sit in the warm memo at their own
    # index; only the column rule breaks, so validation must run first
    vt = vartable_for(3, 2)
    memo = {}
    for t in enumerate_tableaux("glChar", (2, 1), 3):
        tableau_to_paths(t, vt, memo)
    bad = _tab("glChar", 3, [("2", "2"), ("2",)])
    assert all(("glChar", 3, i, row, vt) in memo
               for i, row in enumerate(bad.rows, start=1))
    with pytest.raises(ValueError):
        tableau_to_paths(bad, vt, memo)


def _hash_or_error(rec):
    # a record holding edges is unhashable: its weights are polynomials
    try:
        return hash(rec)
    except TypeError as err:
        return type(err)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_walked_paths_are_the_constructors_records(kind):
    # the walker builds Path and PathTuple without the dataclass __init__
    vt = vartable_for(3, 2)
    for t in enumerate_tableaux(kind, (2, 1), 3):
        pt = tableau_to_paths(t, vt)
        qt = PathTuple(pt.kind, pt.n, pt.shape,
                       tuple(Path(p.start, p.end, p.edges) for p in pt.paths))
        assert type(pt) is PathTuple and vars(pt) == vars(qt) and pt == qt
        assert _hash_or_error(pt) == _hash_or_error(qt)
        assert replace(pt) == qt and replace(pt, n=4) == replace(qt, n=4)
        for p, q in zip(pt.paths, qt.paths):
            assert type(p) is Path and vars(p) == vars(q) and p == q
            assert _hash_or_error(p) == _hash_or_error(q)
            assert replace(p, end=(0, 0)) == replace(q, end=(0, 0))
        for rec in (pt, qt, pt.paths[0], qt.paths[0]):
            name = fields(rec)[0].name
            with pytest.raises(FrozenInstanceError):
                setattr(rec, name, None)
            with pytest.raises(FrozenInstanceError):
                delattr(rec, name)
    # a path without edges hashes, like one from the constructor
    bare = tableau_to_paths(_tab("glChar", 2, [("1",)]), vartable_for(2, 1)).paths[1]
    assert not bare.edges and hash(bare) == hash(Path(bare.start, bare.end, ()))


def _steps(*points_and_kinds):
    """Path from its points and the step kinds between them (weights 1)."""
    one = MultiPoly.one(vartable_for(2, 1))
    pts, kinds = points_and_kinds[::2], points_and_kinds[1::2]
    return Path(pts[0], pts[-1], tuple(Edge(a, b, k, one)
                                       for a, b, k in zip(pts, pts[1:], kinds)))


# on the glChar lattice at n = 2 the bottom level is 2, so row2 = 4
@pytest.mark.parametrize("path,ok", [
    (_steps((2, 1), "H", (2, 2), "V", (4, 2)), True),
    (_steps((2, 1), "D", (4, 2)), True),
    (_steps((3, 0), "C", (2, 1), "V", (4, 1)), True),
    (_steps((0, 1), "V", (2, 1), "V", (4, 1)), True),
    (_steps((2, 1), "H", (2, 3), "V", (4, 3)), False),   # H two columns
    (_steps((0, 1), "V", (4, 1)), False),                # V two levels
    (_steps((2, 1), "D", (4, 3)), False),                # D two columns
    (_steps((2, 1), "H", (4, 2)), False),                # H that drops
    (_steps((3, 1), "C", (2, 2), "V", (4, 2)), False),   # C off column 0
    (_steps((2, 1), "X", (2, 2), "V", (4, 2)), False),   # no such step
    (_steps((2, 1), "H", (2, 2)), False),                # ends above the bottom
    (Path((2, 1), (4, 2), _steps((2, 1), "H", (2, 2), "V", (4, 2)).edges[1:]),
     False),                                             # starts off its edges
    (Path((2, 1), (4, 7), _steps((2, 1), "H", (2, 2), "V", (4, 2)).edges),
     False),                                             # ends off its edges
    (Path((2, 1), (4, 2), _steps((2, 1), "H", (2, 2), "V", (4, 2)).edges[::-1]),
     False),                                             # edges out of order
])
def test_is_lattice_path_checks_chain_steps_and_bottom(path, ok):
    assert is_lattice_path("glChar", 2, path) is ok


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_every_walked_path_is_a_lattice_path(kind):
    # the lgv suite checks this over the criterion-6 grid as well
    for n in (1, 2, 3):
        vt = vartable_for(n, 2)
        for lam in enumerate_partitions(2, n, strict=kind not in CHAR_KINDS):
            for t in enumerate_tableaux(kind, lam.parts, n):
                for p in tableau_to_paths(t, vt).paths:
                    assert is_lattice_path(kind, n, p), (t.rows, p)
