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

Every H, D and C edge weighs one factor v + a_k, v - a_k or 1 - a_k
(v one of x_i, xbar_i, y_i, ybar_i; a_k = 0 for k <= 0), and so does
every cell of a tableau: the image of a tableau carries the factors of
its cells.  ``verify.suite_lgv`` checks weight preservation that way.
It compares the two factor multisets and multiplies both sides out
only when they differ, where the products decide exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (MultiPoly, VarTable, add_a, poly_to_obj, xbar, xv, ybar,
                      yv)
from .tableaux import CHAR_KINDS, Entry, Tableau, validate_tableau


@dataclass(frozen=True)
class Edge:
    """One path edge; endpoints are (row2, col) with row2 = twice the level."""

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

    def weight(self) -> MultiPoly:
        out = None
        for p in self.paths:
            for e in p.edges:
                out = e.weight if out is None else out * e.weight
        if out is None:
            raise ValueError("empty path tuple has no ring to weigh in")
        return out

    def non_intersecting(self) -> bool:
        """No two paths share a lattice vertex (integer levels only; the
        half-integer sp/so start points are all distinct by construction)."""
        seen: set[tuple[int, int]] = set()
        for p in self.paths:
            for v in p.vertices():
                if v[0] % 2:
                    continue
                if v in seen:
                    return False
                seen.add(v)
        return True


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


def tableau_to_paths(t: Tableau, vt: VarTable) -> PathTuple:
    """The kind-specific bijective path image of a valid tableau."""
    report = validate_tableau(t)
    if not report:
        raise ValueError(f"invalid tableau: {report.rule} at {report.cell}")
    if t.kind in CHAR_KINDS:
        return _char_paths(t, vt)
    return _q_paths(t, vt)


def _char_paths(t: Tableau, vt: VarTable) -> PathTuple:
    """Character families: path i starts on the staircase at column n-i+1
    and ends at the bottom level in column n-i+1+shape_i; the j-th
    horizontal step of path i sits at the level of entry (i, j).  The
    odd-orthogonal 0 letter becomes a single final diagonal step."""
    kind, n = t.kind, t.n
    one = MultiPoly.one(vt)
    n_levels = _n_levels(kind, n)
    paths = []
    for i in range(1, n + 1):
        row = t.rows[i - 1] if i <= len(t.rows) else ()
        start_level = i if kind == "glChar" else 2 * i - 1
        col = n - i + 1
        start = (2 * start_level, col)
        cur_level, cur_col = start_level, col
        edges: list[Edge] = []
        for j, e in enumerate(row, start=1):
            target_col = n - i + 1 + j
            lv = _level(kind, e, n)
            if e.zero:
                _drop(edges, cur_level, cur_col, 2 * n, one)
                w = add_a(one, target_col, sign=-1)
                edges.append(Edge((2 * 2 * n, cur_col),
                                  (2 * (2 * n + 1), target_col), "D", w))
            else:
                _drop(edges, cur_level, cur_col, lv, one)
                if kind == "glChar":
                    w = add_a(xv(vt, e.k), e.k + target_col - n - 1)
                elif kind == "spChar":
                    base = xbar(vt, e.k) if e.barred else xv(vt, e.k)
                    w = add_a(base, lv + target_col - 2 * n - 1)
                else:
                    base = xbar(vt, e.k) if e.barred else xv(vt, e.k)
                    w = add_a(base, lv + target_col - 2 * n)
                edges.append(Edge((2 * lv, cur_col), (2 * lv, target_col), "H", w))
            cur_level, cur_col = lv, target_col
        _drop(edges, cur_level, cur_col, n_levels, one)
        paths.append(Path(start, (2 * n_levels, cur_col), tuple(edges)))
    return PathTuple(kind, n, t.shape, tuple(paths))


def _q_paths(t: Tableau, vt: VarTable) -> PathTuple:
    """Q families: path i starts on the left edge at the level fixed by the
    diagonal letter (half-integer for sp/so), opens with a curved step,
    then unprimed letters walk horizontal steps on their level, primed
    letters take diagonal steps down onto their level, and 0prime takes
    the final diagonal step to the extra bottom level."""
    kind, n = t.kind, t.n
    one = MultiPoly.one(vt)
    n_levels = _n_levels(kind, n)
    paths = []
    for row in t.rows:
        head = row[0]
        d = head.k
        if kind == "glQ":
            start = (2 * d, 0)
        else:
            start = (2 * (2 * d) - 1, 0)   # level 2d - 1/2, doubled
        head_level = _level(kind, head, n)
        if head.primed:
            w = ybar(vt, head.k) if head.barred else yv(vt, head.k)
        else:
            w = xbar(vt, head.k) if head.barred else xv(vt, head.k)
        edges = [Edge(start, (2 * head_level, 1), "C", w)]
        cur_level, cur_col = head_level, 1
        for c, e in enumerate(row[1:], start=1):
            off = c                      # = j - i for cell (i, i+c)
            target_col = c + 1
            lv = _level(kind, e, n)
            if e.zero:
                _drop(edges, cur_level, cur_col, 2 * n, one)
                w = add_a(one, off, sign=-1)
                edges.append(Edge((2 * 2 * n, cur_col),
                                  (2 * (2 * n + 1), target_col), "D", w))
            elif e.primed:
                _drop(edges, cur_level, cur_col, lv - 1, one)
                base = ybar(vt, e.k) if e.barred else yv(vt, e.k)
                w = add_a(base, off, sign=-1)
                edges.append(Edge((2 * (lv - 1), cur_col), (2 * lv, target_col), "D", w))
            else:
                _drop(edges, cur_level, cur_col, lv, one)
                base = xbar(vt, e.k) if e.barred else xv(vt, e.k)
                w = add_a(base, off)
                edges.append(Edge((2 * lv, cur_col), (2 * lv, target_col), "H", w))
            cur_level, cur_col = lv, target_col
        _drop(edges, cur_level, cur_col, n_levels, one)
        paths.append(Path(start, (2 * n_levels, cur_col), tuple(edges)))
    return PathTuple(kind, n, t.shape, tuple(paths))
