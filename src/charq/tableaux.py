"""The six tableau families carrying characters and Q-functions.

Character-side fillings live on ordinary Young diagrams F^shape (row i
occupies columns 1..shape_i); Q-side fillings live on shifted diagrams
SF^shape of strict shapes (row i occupies columns i..i+shape_i-1).  Each
kind draws entries from its own ordered alphabet:

    glChar   1 < 2 < ... < n
    spChar   1 < 1bar < 2 < 2bar < ... < n < nbar
    soChar   spChar alphabet followed by 0
    glQ      1' < 1 < 2' < 2 < ... < n' < n
    spQ      1' < 1 < 1bar' < 1bar < ... < n' < n < nbar' < nbar
    soQ      spQ alphabet followed by 0'

Entries weakly increase along rows and down columns.  A marked letter
(``Entry.marked``: a primed or a zero letter, so the primed letters of
the Q families and the 0 of soChar) may not repeat in a row but may
repeat in a column; every other letter does the reverse.  Each family's
rules are built once per rank n into one rule record of per-rank tables
(_Rules), which enumeration, the fused weighted sum and validation all
read.  Each letter weighs one linear factor, ``letter_factor(vt, e, k)``,
which serves the cell weights here and the edge weights of the lattice
paths alike; only the index k is found apart, from the cell here
(``cell_weight``) and from the step's lattice position there
(``lattice._edge_weight``), so the two stay independent statements of
the weights.  The diagram geometry follows the conventions listed with
each public function.  Everything here is exact: weights are MultiPoly
values over a shared VarTable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement
from typing import Iterator, NamedTuple

from .algebra import (MultiPoly, VarTable, _add_products, _poly, _sum,
                      linear_factor)
from .partitions import as_parts, is_strict

CHAR_KINDS = ("glChar", "spChar", "soChar")
Q_KINDS = ("glQ", "spQ", "soQ")
ALL_KINDS = CHAR_KINDS + Q_KINDS


class ShapeKindMismatch(ValueError):
    """Shape is invalid for the requested tableau kind."""


_LETTERS: dict[tuple[int, bool, bool, bool], "Entry"] = {}


class Entry:
    """One alphabet letter: letter index k (0 for the zero letters),
    barred/primed markers, the zero flag, and ``marked`` (primed or zero:
    the letters of the marked rule, module docstring).

    Letters are interned like ``VarTable``: ``Entry(k, barred, primed,
    zero)`` returns the one letter for those values (flags normalised to
    bool), so letters compare and hash by identity, at C speed, in every
    rank lookup and row key.  Fields are set once; pickle and copy go
    through the constructor and keep the interned object."""

    __slots__ = ("k", "barred", "primed", "zero", "marked")

    def __new__(cls, k: int, barred: bool = False, primed: bool = False,
                zero: bool = False):
        key = (k, bool(barred), bool(primed), bool(zero))
        e = _LETTERS.get(key)
        if e is None:
            e = object.__new__(cls)
            # the fifth field, marked, is primed or zero
            for name, value in zip(cls.__slots__, (*key, key[2] or key[3])):
                object.__setattr__(e, name, value)
            _LETTERS[key] = e
        return e

    def __setattr__(self, name, value):
        raise AttributeError(f"letters are immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"letters are immutable; cannot delete {name!r}")

    def __reduce__(self):
        return (Entry, (self.k, self.barred, self.primed, self.zero))

    @property
    def token(self) -> str:
        if self.zero:
            return "0prime" if self.primed else "0"
        s = str(self.k)
        if self.barred:
            s += "bar"
        if self.primed:
            s += "prime"
        return s

    def __repr__(self):
        return self.token


class _Rules(NamedTuple):
    """The filling rules of one family at rank n, by letter rank r.

    By the marked rule (module docstring), a cell of rank r admits ranks
    from ``right[r]`` = r + marked on its right and from ``below[r]`` =
    r + 1 - marked below it.  ``lift[r]`` is the floor 4k that a diagonal
    letter of group k puts under the diagonal of the row below in spQ/soQ
    (Q5: 4k is the first rank of group k+1; 0 elsewhere).  ``starts``
    holds the ranks that may begin a row: every rank but soQ's 0', the
    last one, which Q6 keeps off the diagonal; it is a range from 0, so
    ``starts[lo:]`` are those from lo up.  Row i holds no rank below
    ``step * (i - 1)`` (T4: letters k and kbar stay in rows 1..k)."""

    alpha: tuple[Entry, ...]
    rank: dict[Entry, int]
    right: tuple[int, ...]
    below: tuple[int, ...]
    lift: tuple[int, ...]
    starts: range
    step: int


_RULES: dict[tuple[str, int], _Rules] = {}


def _rules(kind: str, n: int) -> _Rules:
    """The rule record of ``kind`` at rank n (cached)."""
    got = _RULES.get((kind, n))
    if got is not None:
        return got
    if kind not in ALL_KINDS:
        raise ValueError(f"unknown tableau kind {kind!r}")
    qkind = kind in Q_KINDS
    bars = (False,) if kind.startswith("gl") else (False, True)
    primes = (True, False) if qkind else (False,)
    letters = [Entry(k, barred=b, primed=p)
               for k in range(1, n + 1) for b in bars for p in primes]
    if kind.startswith("so"):
        letters.append(Entry(0, primed=qkind, zero=True))
    alpha = tuple(letters)
    marked = [e.marked for e in alpha]
    got = _RULES[(kind, n)] = _Rules(
        alpha, {e: r for r, e in enumerate(alpha)},
        tuple(r + m for r, m in enumerate(marked)),
        tuple(r + 1 - m for r, m in enumerate(marked)),
        tuple(4 * e.k if kind in ("spQ", "soQ") else 0 for e in alpha),
        range(len(alpha) - (kind == "soQ")),
        2 if kind in ("spChar", "soChar") else 0)
    return got


def alphabet(kind: str, n: int) -> tuple[Entry, ...]:
    """The ordered alphabet of ``kind`` at rank n; index = rank in the order."""
    return _rules(kind, n).alpha


def entry_from_token(token: str) -> Entry:
    """The letter whose ``token`` is exactly ``token``, else ValueError."""
    s = token
    primed = s.endswith("prime")
    if primed:
        s = s[: -len("prime")]
    barred = s.endswith("bar")
    if barred:
        s = s[: -len("bar")]
    k = int(s)
    e = (Entry(0, primed=primed, zero=True) if k == 0
         else Entry(k, barred=barred, primed=primed))
    if e.token != token:
        raise ValueError(f"bad entry token {token!r}")
    return e


_SHAPES: dict[tuple, tuple[int, ...]] = {}


def check_shape(kind: str, shape, n: int) -> tuple[int, ...]:
    """Cleaned parts of ``shape`` if it is valid for ``kind`` at rank n,
    else ShapeKindMismatch.  Successes on tuple shapes are cached."""
    if n < 1:
        raise ValueError("rank n must be >= 1")
    key = (kind, shape, n) if isinstance(shape, tuple) else None
    if key is not None:
        got = _SHAPES.get(key)
        if got is not None:
            return got
    parts = as_parts(shape)
    if kind not in ALL_KINDS:
        raise ValueError(f"unknown tableau kind {kind!r}")
    if any(p < 0 for p in parts) or any(
            parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise ShapeKindMismatch(f"{parts} is not a partition")
    if kind in Q_KINDS and not is_strict(parts):
        raise ShapeKindMismatch(f"{kind} needs a strict shape, got {parts}")
    if len(parts) > n:
        raise ShapeKindMismatch(f"shape {parts} has more than n={n} rows")
    if key is not None:
        _SHAPES[key] = parts
    return parts


@dataclass(frozen=True)
class Tableau:
    """A filling of F^shape (character kinds) or SF^shape (Q kinds).

    ``rows[i-1]`` lists the entries of row i left to right; in the shifted
    families row i starts at column i, so ``rows[i-1][c]`` sits in cell
    (i, i+c).
    """

    kind: str
    n: int
    shape: tuple[int, ...]
    rows: tuple[tuple[Entry, ...], ...]

    @property
    def shifted(self) -> bool:
        return self.kind in Q_KINDS

    def col_start(self, i: int) -> int:
        return i if self.shifted else 1

    def cells(self):
        """Yield ((i, j), entry) in row-major scan order, 1-based."""
        for i, row in enumerate(self.rows, start=1):
            start = self.col_start(i)
            for c, e in enumerate(row):
                yield (i, start + c), e

    def to_obj(self) -> dict:
        return {"kind": self.kind, "shape": list(self.shape), "n": self.n,
                "cells": [[e.token for e in row] for row in self.rows]}


_new = object.__new__


def _tableau(kind: str, n: int, shape: tuple[int, ...],
             rows: tuple[tuple[Entry, ...], ...]) -> Tableau:
    """``Tableau(kind, n, shape, rows)`` without the frozen dataclass's
    ``__init__``: the fields go straight into the instance dict, as the
    generated ``__init__`` would put them, so equality, hashing,
    ``dataclasses.replace`` and the refusal to assign are unchanged."""
    t = _new(Tableau)
    d = t.__dict__
    d["kind"] = kind
    d["n"] = n
    d["shape"] = shape
    d["rows"] = rows
    return t


def tableau_from_obj(obj: dict) -> Tableau:
    kind = obj["kind"]
    n = int(obj["n"])
    if n != obj["n"]:
        raise ValueError(f"rank n {obj['n']!r} is not an integer")
    shape = check_shape(kind, obj["shape"], n)
    rows = tuple(tuple(entry_from_token(tok) for tok in row) for row in obj["cells"])
    if tuple(len(r) for r in rows) != shape:
        raise ShapeKindMismatch("cell rows do not match the shape")
    return Tableau(kind, n, shape, rows)


# -- validation -----------------------------------------------------------


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    rule: str | None = None
    cell: tuple[int, int] | None = None
    message: str = ""

    def __bool__(self):
        return self.ok


# every valid tableau gets this one report; each failure builds its own
_VALID = ValidationReport(True)


def validate_tableau(t: Tableau) -> ValidationReport:
    """Check every filling rule of t's kind; on failure report the first
    violated rule (scanning cells row-major, local rules first).  A valid
    tableau gets one shared report, ``ValidationReport(True)``."""
    kind = t.kind
    parts = check_shape(kind, t.shape, t.n)
    rows = t.rows
    if tuple(map(len, rows)) != parts:
        return ValidationReport(False, "shape", None, "rows do not match shape")
    _, rank_of, right, below, lift, starts, step = _rules(kind, t.n)
    qkind = kind in Q_KINDS
    row_weak, col_weak, col_repeat, row_repeat = _Q_LABELS if qkind else _CHAR_LABELS
    # the cell above row i's c-th cell is the (c+1)-th of the row above
    # in the shifted families, the c-th otherwise
    up_shift = 1 if qkind else 0
    above: list[int] = []          # ranks of the row above

    for i, row in enumerate(rows, start=1):
        start = i if qkind else 1
        low = step * (i - 1)
        ranks: list[int] = []
        for c, e in enumerate(row):
            j = start + c
            r = rank_of.get(e)
            if r is None:
                return ValidationReport(False, "alphabet", (i, j),
                                        f"{e.token} not in the {kind} alphabet")
            # right[lr] >= lr and below[ur] >= ur, so one test per neighbour
            # passes a valid cell; a failing r less than the neighbour's rank
            # breaks the weak rule, an equal one the repeat rule
            if c:
                lr = ranks[-1]
                if r < right[lr]:
                    if r < lr:
                        return ValidationReport(
                            False, row_weak, (i, j),
                            "entries must weakly increase across rows")
                    return ValidationReport(False, row_repeat, (i, j),
                                            f"{e.token} may not repeat within a row")
            u = c + up_shift
            if u < len(above):
                ur = above[u]
                if r < below[ur]:
                    if r < ur:
                        return ValidationReport(
                            False, col_weak, (i, j),
                            "entries must weakly increase down columns")
                    return ValidationReport(False, col_repeat, (i, j),
                                            f"{e.token} may not repeat within a column")
            if r < low:
                return ValidationReport(False, "T4", (i, j),
                                        f"{e.token} may not appear below row {e.k}")
            if qkind and c == 0:
                if r not in starts:
                    return ValidationReport(False, "Q6", (i, j),
                                            "0prime may not sit on the main diagonal")
                # the cell above this one already bounds r by the diagonal
                # letter above, so only a letter of its group is under the lift
                if i > 1 and r < lift[above[0]]:
                    return ValidationReport(
                        False, "Q5", (i, j),
                        f"two letters of group {e.k} on the main diagonal")
            ranks.append(r)
        above = ranks
    return _VALID


def require_valid(t: Tableau) -> None:
    """ValueError naming the first filling rule t breaks, if any."""
    report = validate_tableau(t)
    if not report:
        raise ValueError(f"invalid tableau: {report.rule} at {report.cell}: "
                         f"{report.message}")


# the rules a cell breaks against a neighbour: row weak, column weak, column
# repeat, row repeat; only soChar's 0 can repeat in a character row (T5)
_CHAR_LABELS = ("T1", "T2", "T3", "T5")
_Q_LABELS = ("Q1", "Q2", "Q3", "Q4")


# -- enumeration ----------------------------------------------------------


def enumerate_tableaux(kind: str, shape, n: int) -> Iterator[Tableau]:
    """All valid fillings, each exactly once, in lexicographic row-major
    scan order of entry ranks.  The empty shape yields one empty tableau."""
    parts = check_shape(kind, shape, n)
    ell = len(parts)
    if ell == 0:
        yield _tableau(kind, n, parts, ())
        return
    rules = _rules(kind, n)
    alpha = rules.alpha
    rows: list[tuple[Entry, ...]] = [()] * ell

    def stack(i: int, above: tuple[int, ...]) -> Iterator[Tableau]:
        # every admissible row i under the row of ranks ``above``
        width = parts[i - 1]
        for ranks in _row_ranks(rules, i, width,
                                _floors(kind, rules, above, width)):
            rows[i - 1] = tuple(map(alpha.__getitem__, ranks))
            if i == ell:
                yield _tableau(kind, n, parts, tuple(rows))
            else:
                yield from stack(i + 1, ranks)

    yield from stack(1, ())


def _row_ranks(rules, i, width, floors):
    """Rank tuples of every admissible row i of the given width under the
    row above, in lexicographic order: enumeration's row generator.  The
    row starts at a rank of ``rules.starts`` no lower than the row's
    minimum, and each cell right of one of rank r at ``rules.right[r]``;
    cell c also stays at or above ``floors[c]`` where the row above
    reaches (_floors; empty for row 1)."""
    A = len(rules.alpha)
    right = rules.right
    lo = max(rules.step * (i - 1), floors[0] if floors else 0)
    rows = [(r,) for r in rules.starts[lo:]]
    for c in range(1, width):
        floor = floors[c] if c < len(floors) else 0
        nxt = []
        for row in rows:
            nxt += [row + (r,) for r in range(max(right[row[-1]], floor), A)]
        rows = nxt
    return rows


def _floors(kind, rules, above, width):
    """Lowest admissible rank of each cell of a row of the given width
    under the row of ranks ``above``, for the cells that have a cell
    above them (shifted rows align one step over): ``rules.below`` of
    the cell above, raised to the Q5 lift of the diagonal letter above.
    The diagonal letter below already reaches the group k of the one
    above through the cell above it, so the lift binds the whole weakly
    increasing row.  Under group n the lift (len(alpha) in spQ) leaves
    no row."""
    src = above[1:1 + width] if kind in Q_KINDS else above[:width]
    lift = rules.lift[above[0]] if above else 0
    return tuple(max(rules.below[r], lift) for r in src)


def count_tableaux(kind: str, shape, n: int) -> int:
    return sum(1 for _ in enumerate_tableaux(kind, shape, n))


# -- weights --------------------------------------------------------------


@lru_cache(maxsize=None)
def letter_factor(vt: VarTable, e: Entry, k: int) -> MultiPoly:
    """The one linear factor letter e contributes at parameter index k,
    wherever it is placed (a cell, or a lattice step): 1 - a_k for a zero
    letter, else its variable (y for a primed letter, x otherwise, the
    inverse when barred) minus a_k if marked and plus a_k if not.  Cached
    like ``algebra.linear_factor``, so pass every argument positionally;
    an error leaves no entry."""
    if e.zero:
        return linear_factor(vt, None, 0, k, -1)
    exp = -1 if e.barred else 1
    if e.primed:
        return linear_factor(vt, vt.y_pos(e.k), exp, k, -1)
    return linear_factor(vt, vt.x_pos(e.k), exp, k, 1)


def cell_weight(vt: VarTable, kind: str, n: int, e: Entry, i: int, j: int) -> MultiPoly:
    """Weight of entry e in cell (i, j), with a_m = 0 for m <= 0: the
    letter's factor (``letter_factor``) at index base + j - i.

    The base shifts the index by the letter in the character kinds (k in
    glChar; 2k - 1 - n and 2k - n for spChar's k and kbar; 2k - n,
    2k + 1 - n and n + 1 for soChar's k, kbar and 0); the Q kinds use the
    bare diagonal offset j - i on every letter.  ValueError for an
    unknown kind.
    """
    if kind == "glChar":
        k = e.k
    elif kind == "spChar":
        k = 2 * e.k - n - 1 + e.barred
    elif kind == "soChar":
        k = n + 1 if e.zero else 2 * e.k - n + e.barred
    elif kind in Q_KINDS:
        k = 0
    else:
        raise ValueError(f"unknown tableau kind {kind!r}")
    return letter_factor(vt, e, k + j - i)


def row_factors(kind: str, n: int, i: int, row: tuple[Entry, ...],
                vt: VarTable) -> list[MultiPoly]:
    """Cell weights of row i of a tableau whose row i is ``row``, left to
    right; they depend on nothing else (row i starts in column i in the
    shifted families, in column 1 otherwise)."""
    start = i if kind in Q_KINDS else 1
    return [cell_weight(vt, kind, n, e, i, j)
            for j, e in enumerate(row, start=start)]


def tableau_factors(t: Tableau, vt: VarTable) -> list[MultiPoly]:
    """Cell weights of a valid tableau in row-major order, row by row
    (``row_factors``); ValueError if t breaks a filling rule."""
    require_valid(t)
    kind, n = t.kind, t.n
    return [f for i, row in enumerate(t.rows, start=1)
            for f in row_factors(kind, n, i, row, vt)]


def tableau_weight(t: Tableau, vt: VarTable) -> MultiPoly:
    """Product of the cell weights of a valid tableau."""
    out = MultiPoly.one(vt)
    for f in tableau_factors(t, vt):
        out = out * f
    return out


# -- fused weighted summation ---------------------------------------------
#
# Summing tableau_weight over enumerate_tableaux is correct but revisits
# shared row prefixes once per tableau.  The sum factorises row by row:
# the rules coupling row i+1 to row i come down to one lower bound per
# cell of row i+1, a function of row i alone (_floors: ``below`` of the
# entry directly above in the family's rule record, raised in spQ/soQ to
# the Q5 ``lift`` of the diagonal letter).  So we sweep rows top to
# bottom.  Each content r of row i has weight w(r); its product with the
# sum of weights of all fillings of rows 1..i-1 that admit r goes
# straight into the bucket of the threshold vector r imposes on row i+1,
# or into the total on the last row.  The buckets are prefix-summed and
# row i+1 reads each of its contents' sums off with one lookup.
# Thresholds and contents both weakly increase, so the prefix sums run
# over weakly increasing keys up to the largest content, last coordinate
# first.  That is exact: once coordinates d+1.. are summed and those
# before d fixed, a key whose coordinate d drops below coordinate d-1
# could only hold a threshold vector that does not weakly increase, so
# it is absent and reads as zero.  A threshold may reach len(alpha) (spQ
# under a diagonal letter of group n); that bucket is seeded and never
# read.  test_tableaux pins this against the naive per-tableau sum.
#
# Every row is weighed cell by cell (_row_sums; a transfer-matrix sum,
# Stanley, EC1 4.7).  Cell c extends each state by every rank from the
# record's ``right`` of its last one (from ``starts`` on the first
# cell), times that letter's weight in cell (i, start + c); on the cells
# with a cell of row i+1 below them the state's key gains the letter's
# ``below``, raised to the key's last coordinate, or for the first one
# to the ``lift`` of the diagonal letter, so the finished key is the
# row's _floors vector.  Row 1 has nothing above it, so its states keep
# only the last rank and drop it on the last cell: states that agree
# merge, every prefix reaching a state shares its dict, and what is left
# is the bucket table ({(): total} for a one-row shape).  A lower row
# reads its sum from above at its whole content, so its states keep the
# content and do not merge; their weights are the shared prefix products.
#
# Every sum is a term dict; no polynomial is built per product.  Products
# accumulate through algebra._add_products, which checks each finished
# bucket once, so each level's keys are checked once before the next
# level multiplies them, and sums of checked keys need no further check.
# A prefix step stores algebra._sum of the dicts at key and key - e_d, so
# a key with no dict of its own shares its neighbour's, and no dict is
# written after it is stored.


def _row_sums(kind, rules, n, i, width, next_width, vt):
    """Row i's weights, cell by cell, as {(ranks kept, threshold key on a
    row i+1 of width ``next_width`` (_floors)): term dict}.  Row 1 keeps
    no rank once the row is complete, so its contents merge into one sum
    per key ({((), ()): total} for a one-row shape); a lower row keeps its
    whole content.  A key may reach len(alpha) (see _floors)."""
    alpha, right, below, lift = rules.alpha, rules.right, rules.below, rules.lift
    A = len(alpha)
    qkind = kind in Q_KINDS
    first = rules.starts[rules.step * (i - 1):]
    # the cells with a cell of row i+1 below them: 1..next_width in a shifted row
    keyed = range(qkind, qkind + next_width)
    start = i if qkind else 1
    states = {((), ()): MultiPoly.one(vt).terms}
    for c in range(width):
        w = [cell_weight(vt, kind, n, e, i, start + c).terms for e in alpha]
        # a lower row keeps its whole content; row 1 its last rank while
        # the row runs, and none after the last cell
        keep = i > 1 or c + 1 < width
        out: dict[tuple, list] = {}
        for (ranks, key), acc in states.items():
            last = ranks[-1] if ranks else None
            nxt = first if last is None else range(right[last], A)
            # keys weakly increase; the first coordinate carries the lift
            lo = key[-1] if key else lift[last] if ranks else 0
            head = ranks if i > 1 else ()
            for r in nxt:
                k = key + (max(below[r], lo),) if c in keyed else key
                out.setdefault((head + (r,) if keep else (), k), []).append(
                    (w[r], acc, 1))
        states = {s: _add_products(vt, {}, prods) for s, prods in out.items()}
    return states


def tableau_weight_sum(kind: str, shape, n: int, vt: VarTable) -> MultiPoly:
    """Sum of tableau_weight over every tableau of the given kind/shape:
    every row weighed cell by cell, then summed into the buckets of the
    row below (see the comment above)."""
    parts = check_shape(kind, shape, n)
    if len(parts) == 0:
        return MultiPoly.one(vt)
    rules = _rules(kind, n)
    widths = parts + (0,)
    table = {key: acc for (_, key), acc in
             _row_sums(kind, rules, n, 1, parts[0], widths[1], vt).items()}
    for i in range(2, len(parts) + 1):
        width = parts[i - 1]
        # prefix sums; lexicographic order updates key - e_d before key
        keys = list(combinations_with_replacement(range(len(rules.alpha)), width))
        for d in reversed(range(width)):
            for key in keys:
                if key[d]:
                    src = table.get(key[:d] + (key[d] - 1,) + key[d + 1:])
                    if src:
                        table[key] = _sum(table.get(key, {}), src)

        # the products w * acc of row i, by the bucket they go into: the
        # threshold vector on row i+1, which is () on the last row (the total)
        buckets: dict[tuple, list] = {}
        for (ranks, th), w in _row_sums(kind, rules, n, i, width, widths[i], vt).items():
            acc = table.get(ranks)
            if acc:
                buckets.setdefault(th, []).append((w, acc, 1))
        table = {th: _add_products(vt, {}, prods) for th, prods in buckets.items()}
    return _poly(vt, table[()])
