"""Lattice-path images of tableaux.

Matrix coordinates throughout: the first coordinate is the level (row of
the lattice, increasing downwards), the second the column (increasing
rightwards).  Character-side paths run from start points on the
staircase to the bottom edge of the lattice; Q-side paths start on the
left edge, at half-integer levels for the sp/so families.  Levels are
stored doubled (``row2``) so those half-integer points stay integral;
JSON exposes the true halves.

Edge types: H horizontal, V vertical (weight 1, filler), D diagonal,
C curved start.  For every valid tableau the product of edge weights of
its image equals the tableau weight, distinct tableaux give distinct
tuples, and the paths of one tuple share no lattice vertex.

One walker, ``tableau_to_paths``, draws every family: it places each
path's start point, runs one loop over the row's letters, and drops the
path to the bottom level; a marked letter (``Entry.marked``) takes a D
step, every other one an H step.  One function, ``_edge_weight``, gives
every H, D and C weight: the factor of the letter the step places,
``tableaux.letter_factor`` (v + a_k, v - a_k or 1 - a_k, v one of x_i,
xbar_i, y_i, ybar_i; a_k = 0 for k <= 0), which also weighs every cell
of a tableau, so the image of a tableau carries the factors of its
cells, and equal factors are one shared object.  The unit V weight is
the constant 1 of the cached ``algebra.linear_factor``.  The edge
weights read their index k off the step's lattice position, not off the
cell (``tableaux.cell_weight``), so the two index rules are independent
statements of the weights, which ``verify.suite_lgv`` compares.  Edges
are named tuples, the cheapest immutable record to build per step, and
only this module relies on the order of their fields; the walker builds
its ``Path`` and ``PathTuple`` records straight into their instance
dicts (``_path``, ``_path_tuple``), skipping the frozen dataclass
``__init__`` but giving the same records.

The JSON text of a tableau, of a path tuple and of one ``tableaux
--paths`` line is laid out here and nowhere else: ``tableau_line`` writes
the compact ``json.dumps`` of ``t.to_obj()`` and ``paths_line`` that of
``{"tableau": t.to_obj(), "paths": <tuple>.to_obj()}``, byte for byte,
from texts in a memo the caller holds.  A path recurs as one object
through the row memo below, so its text is keyed by its id; edges repeat
heavily across a family (equal endpoints, type and shared cached
weight), so an edge is encoded once per key ``(frm, to, kind,
id(weight))``.  Each entry keeps its path or weight alive, so the id
cannot be reused while memoised.  The "kind", "shape", "n" head, which a
tableau and its path tuple share, is built once per (kind, shape, n),
and each distinct row's cell list once per row.

Row paths are memoised the same way.  Path i depends on nothing but
(kind, n, i, row i, vt), and the tableaux of one shape share rows, so
``tableau_to_paths`` takes each row's ``Path`` from a memo the caller
passes, under that key, and draws only the rows it lacks; it validates
every tableau before any lookup.  Each memo lives as long as its caller
keeps it: one ``tableaux`` command (``paths_line`` shares the text memo)
or one ``verify.suite_lgv`` case, which also passes a memo of each
path's vertices to ``PathTuple.non_intersecting``.  Nothing is cached at
module level: a module cache would outlive a changed ``_edge_weight``
and serve paths weighed by the old one, so a call without a memo draws
every row afresh.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import NamedTuple

from .algebra import MultiPoly, VarTable, linear_factor, poly_to_obj
from .tableaux import Q_KINDS, Entry, Tableau, letter_factor, require_valid


class Edge(NamedTuple):
    """One path edge; endpoints are (row2, col) with row2 = twice the level.
    A tuple, so the walker's many edges cost one tuple each."""

    frm: tuple[int, int]
    to: tuple[int, int]
    kind: str            # "H" | "V" | "D" | "C"
    weight: MultiPoly

    def to_obj(self) -> dict:
        return {"from": [_halve(self.frm[0]), self.frm[1]],
                "to": [_halve(self.to[0]), self.to[1]],
                "type": self.kind,
                "w": poly_to_obj(self.weight)}


def _halve(row2: int):
    return row2 // 2 if row2 % 2 == 0 else row2 / 2


# json.dumps(obj, separators=(",", ":")) without a new encoder per call
_dumps = json.JSONEncoder(separators=(",", ":")).encode


def _point_json(p: tuple[int, int]) -> str:
    return _dumps([_halve(p[0]), p[1]])


def _head_json(kind: str, shape: tuple[int, ...], n: int, memo: dict) -> str:
    """``"kind":..,"shape":[..],"n":..``, the head of both the tableau's
    and the path tuple's JSON object, taken from ``memo`` (held by the
    caller) under the key (kind, shape, n) once it was built."""
    key = (kind, shape, n)
    head = memo.get(key)
    if head is None:
        head = memo[key] = (f'"kind":{_dumps(kind)},"shape":{_dumps(list(shape))},'
                            f'"n":{_dumps(n)}')
    return head


@dataclass(frozen=True)
class Path:
    start: tuple[int, int]
    end: tuple[int, int]
    edges: tuple[Edge, ...]

    def vertices(self):
        """All lattice points on the path, including endpoints."""
        pts = [self.start]
        for e in self.edges:
            pts.append(e.to)
        return pts

    def to_obj(self) -> dict:
        return {"start": [_halve(self.start[0]), self.start[1]],
                "end": [_halve(self.end[0]), self.end[1]],
                "edges": [e.to_obj() for e in self.edges]}


@dataclass(frozen=True)
class PathTuple:
    kind: str
    n: int
    shape: tuple[int, ...]
    paths: tuple[Path, ...]

    def to_obj(self) -> dict:
        return {"kind": self.kind, "shape": list(self.shape), "n": self.n,
                "paths": [p.to_obj() for p in self.paths]}

    def to_json(self, memo: dict) -> str:
        """``_dumps(self.to_obj())``, with each edge's and each path's text
        and the "kind", "shape", "n" head (``_head_json``) taken from
        ``memo`` (filled here, held by the caller) once it was encoded.  A
        path is keyed by its id and an edge by (frm, to, kind,
        id(weight)); each entry holds its path or weight, so the id stays
        its own.  A path the row memo hands out again is found by its id,
        so its edges are not visited; a path drawn afresh is encoded from
        its edges' entries."""
        paths = []
        for p in self.paths:
            hit = memo.get(id(p))
            if hit is None:
                edges = []
                for e in p.edges:
                    key = (e.frm, e.to, e.kind, id(e.weight))
                    edge = memo.get(key)
                    if edge is None:
                        edge = memo[key] = (e.weight, _dumps(e.to_obj()))
                    edges.append(edge[1])
                hit = memo[id(p)] = (p, f'{{"start":{_point_json(p.start)},'
                                        f'"end":{_point_json(p.end)},'
                                        f'"edges":[{",".join(edges)}]}}')
            paths.append(hit[1])
        head = _head_json(self.kind, self.shape, self.n, memo)
        return f'{{{head},"paths":[{",".join(paths)}]}}'

    def weight(self) -> MultiPoly:
        out = None
        for p in self.paths:
            for e in p.edges:
                out = e.weight if out is None else out * e.weight
        if out is None:
            raise ValueError("empty path tuple has no ring to weigh in")
        return out

    def non_intersecting(self, memo: dict | None = None) -> bool:
        """No two paths share a lattice vertex, and no path meets itself
        (integer levels only; the half-integer sp/so start points are all
        distinct by construction).  Each path's integer-level vertices are
        listed once and kept in ``memo`` (held by the caller) under its id,
        with the path, so the id stays its own; without a memo every path
        is listed afresh."""
        if memo is None:
            memo = {}
        seen: set[tuple[int, int]] = set()
        count = 0
        for p in self.paths:
            hit = memo.get(id(p))
            if hit is None:
                hit = memo[id(p)] = (p, [v for v in p.vertices() if not v[0] % 2])
            seen.update(hit[1])
            count += len(hit[1])
        return len(seen) == count


_new = object.__new__


def _path(start: tuple[int, int], end: tuple[int, int],
          edges: tuple[Edge, ...]) -> Path:
    """``Path(start, end, edges)`` without the frozen dataclass's
    ``__init__`` (the fields go straight into the instance dict, as in
    ``tableaux._tableau``); the walker builds its records with this and
    ``_path_tuple``."""
    p = _new(Path)
    d = p.__dict__
    d["start"] = start
    d["end"] = end
    d["edges"] = edges
    return p


def _path_tuple(kind: str, n: int, shape: tuple[int, ...],
                paths: tuple[Path, ...]) -> PathTuple:
    """``PathTuple(kind, n, shape, paths)``, built as ``_path`` builds a path."""
    pt = _new(PathTuple)
    d = pt.__dict__
    d["kind"] = kind
    d["n"] = n
    d["shape"] = shape
    d["paths"] = paths
    return pt


# (row2, col) change of each step type but C, whose rise is free
_STEPS = {"H": (0, 1), "V": (2, 0), "D": (2, 1)}


def is_lattice_path(kind: str, n: int, p: Path) -> bool:
    """Whether ``p`` is a path of the kind's lattice: its edges chain from
    ``p.start`` to ``p.end``, each H, V and D edge is a unit step
    ((row2, col) changes by (0, 1), (2, 0) and (2, 1)), each C edge runs
    from column 0 to column 1, and the path ends on the bottom level."""
    at = p.start
    for frm, to, step, _ in p.edges:
        if frm != at:
            return False
        if step == "C":
            if frm[1] != 0 or to[1] != 1:
                return False
        elif _STEPS.get(step) != (to[0] - frm[0], to[1] - frm[1]):
            return False
        at = to
    return at == p.end and at[0] == 2 * _n_levels(kind, n)


def _level(kind: str, e: Entry, n: int) -> int:
    """Lattice level carrying the step that places this letter."""
    if kind in ("glChar", "glQ"):
        return e.k
    if e.zero:
        return 2 * n + 1
    return 2 * e.k - (0 if e.barred else 1)


def _n_levels(kind: str, n: int) -> int:
    """Bottom level of the kind's lattice (one extra for the so zero)."""
    if kind in ("glChar", "glQ"):
        return n
    return 2 * n if kind in ("spChar", "spQ") else 2 * n + 1


def _drop(edges: list, level: int, col: int, to: int, one: MultiPoly) -> None:
    """Append unit vertical steps down column ``col`` from ``level`` to
    ``to`` (none if the path is already there).  Levels never decrease
    along a row of a valid tableau, so after each letter's step the path
    sits on that letter's level."""
    for lv in range(level, to):
        edges.append(Edge((2 * lv, col), (2 * (lv + 1), col), "V", one))


def _edge_weight(kind: str, n: int, e: Entry, level: int, col: int,
                 vt: VarTable) -> MultiPoly:
    """Weight of the H, D or C step that places letter ``e``, leaving
    ``level`` and ending in column ``col``: the letter's factor
    (``tableaux.letter_factor``) at an index k read off the step's
    lattice position: col - 1 on the Q side, and level + col less a
    per-kind origin on the character side.  ValueError for an unknown
    kind."""
    if kind in Q_KINDS:
        k = col - 1
    elif kind == "glChar":
        k = level + col - n - 1
    elif kind in ("spChar", "soChar"):
        k = level + col - 2 * n - (kind == "spChar")
    else:
        raise ValueError(f"unknown tableau kind {kind!r}")
    return letter_factor(vt, e, k)


def tableau_to_paths(t: Tableau, vt: VarTable,
                     memo: dict | None = None) -> PathTuple:
    """The kind-specific bijective path image of a valid tableau.

    Path i starts on the staircase at (level i, or 2i - 1 for sp/so,
    column n - i + 1) for the character kinds, empty rows included.  On
    the Q side it starts on the left edge at level d (2d - 1/2 for
    spQ/soQ), d the diagonal letter's index, and a C step carries that
    letter's bare variable to its level in column 1.  Each further letter
    moves one column right: an unmarked letter by an H step on its level,
    a marked one (primed or zero) by a D step from the level above its own.
    Every path ends with V steps down to the bottom level.

    Path i depends on nothing but (kind, n, i, row i, vt), so each row's
    ``Path`` is taken from ``memo`` (held by the caller) under that key
    and drawn only when missing; equal rows at the same index give the
    same object.  The tableau is validated on every call, before any
    lookup.  Without a memo a fresh dict is used, and every row is drawn."""
    require_valid(t)
    if memo is None:
        memo = {}
    kind, n = t.kind, t.n
    rows = t.rows if kind in Q_KINDS else t.rows + ((),) * (n - len(t.rows))
    paths = []
    for i, row in enumerate(rows, start=1):
        key = (kind, n, i, row, vt)
        path = memo.get(key)
        if path is None:
            path = memo[key] = _row_path(kind, n, i, row, vt)
        paths.append(path)
    return _path_tuple(kind, n, t.shape, tuple(paths))


def _row_path(kind: str, n: int, i: int, row: tuple[Entry, ...],
              vt: VarTable) -> Path:
    """Path i of a valid tableau whose row i is ``row`` (see
    ``tableau_to_paths``)."""
    one = linear_factor(vt, None, 0, 0, 1)
    if kind in Q_KINDS:
        head, row = row[0], row[1:]
        level, col = _level(kind, head, n), 1
        start = (2 * head.k if kind == "glQ" else 4 * head.k - 1, 0)
        edges = [Edge(start, (2 * level, col), "C",
                      _edge_weight(kind, n, head, level, col, vt))]
    else:
        level, col = (i if kind == "glChar" else 2 * i - 1), n - i + 1
        start = (2 * level, col)
        edges = []
    for e in row:
        lv = _level(kind, e, n)
        diagonal = e.marked
        frm = lv - 1 if diagonal else lv
        _drop(edges, level, col, frm, one)
        edges.append(Edge((2 * frm, col), (2 * lv, col + 1),
                          "D" if diagonal else "H",
                          _edge_weight(kind, n, e, frm, col + 1, vt)))
        level, col = lv, col + 1
    bottom = _n_levels(kind, n)
    _drop(edges, level, col, bottom, one)
    return _path(start, (2 * bottom, col), tuple(edges))


def tableau_line(t: Tableau, memo: dict) -> str:
    """The JSON text of a tableau: exactly ``_dumps(t.to_obj())``, written
    from the "kind", "shape", "n" head (``_head_json``) and each distinct
    row's cell list, both taken from ``memo`` (held by the caller); a row's
    text is kept under the key ("cells", row)."""
    cells = []
    for row in t.rows:
        key = ("cells", row)
        text = memo.get(key)
        if text is None:
            text = memo[key] = f'[{",".join([_dumps(e.token) for e in row])}]'
        cells.append(text)
    head = _head_json(t.kind, t.shape, t.n, memo)
    return f'{{{head},"cells":[{",".join(cells)}]}}'


def paths_line(t: Tableau, vt: VarTable, memo: dict) -> str:
    """One line of the ``tableaux --paths`` stream: exactly
    ``_dumps({"tableau": t.to_obj(), "paths": tableau_to_paths(t, vt).to_obj()})``,
    written from texts shared through ``memo``: row paths (see
    ``tableau_to_paths``), edge and path texts (see ``PathTuple.to_json``)
    and the tableau's text (``tableau_line``), whose head its path tuple
    shares.  The keys are ints and tuples of 2, 3, 4 and 5 items, so they
    cannot collide."""
    pt = tableau_to_paths(t, vt, memo)
    return f'{{"tableau":{tableau_line(t, memo)},"paths":{pt.to_json(memo)}}}'
