"""Factorial characters of GL(n), Sp(2n) and SO(2n+1) by four routes.

All four public routes return the same Laurent polynomial in
x_1..x_n (and their inverses for sp/so) with coefficients shifted by the
factorial parameters a_k:

* ``char_definitional``  -- ratio of the two defining determinants built
  from shifted powers; the odd-orthogonal rows are premultiplied by a
  half-power so everything stays in the Laurent ring (the common factor
  cancels between numerator and denominator).
* ``char_hdet``          -- ratio of determinants of one-variable
  complete-homogeneous analogues.

  Both ratios are taken by divided differences: the numerator's rows are
  divided exactly by the Weyl-denominator factors (``ratio_factors``)
  and the reduced matrix's determinant is the result, so the expanded
  numerator is never divided.  The result is |num|/|den| exactly: the
  denominator's own columns are reduced by the same factors and pass only
  when the reduced determinant is 1 (AlgebraError otherwise), and every
  entry division must leave no remainder (NonExactDivision otherwise).
  Each reduced column depends on one order m only, so it is reduced once
  and kept beside the checked factors it was divided by.  def and hdet
  reduce to the same matrix, and share a determinant only when their
  reduced matrices are equal entry by entry.
* ``char_flagged_jt``    -- flagged Jacobi-Trudi determinant, division
  free; the default route.
* ``char_combinatorial`` -- weighted sum over the kind's tableaux.

``h_factorial`` is the t^m coefficient of the kind's generating function
over the flagged alphabet x_d..x_n; ``one_part_expansion`` is the closed
multi-index sum for one-row shapes.

Everything here is a pure function of immutable values.  The h cache is
keyed by (kind, m, alphabet range, table); the checked ratio factors and
the columns reduced by them share one entry per (kind, table, route), and
the last reduced matrix of a table is kept with its determinant, so a
cached value is the value a fresh computation would give.
"""

from __future__ import annotations

from functools import lru_cache

from .algebra import (AIndexOutOfRange, AlgebraError, MultiPoly, VarTable,
                      add_a, av, check_a_range, determinant, exact_div,
                      factorial_power, gf_coeff, xbar, xv)
from .tableaux import check_shape, tableau_weight_sum

GROUP_KINDS = ("gl", "sp", "so")

TABLEAU_KIND = {"gl": "glChar", "sp": "spChar", "so": "soChar"}


def _check_kind(kind: str):
    if kind not in GROUP_KINDS:
        raise ValueError(f"unknown group kind {kind!r}")


def _check_partition(kind: str, lam, vt: VarTable) -> tuple[int, ...]:
    _check_kind(kind)
    parts = check_shape(TABLEAU_KIND[kind], lam, vt.n)
    check_a_range(vt, parts[0] if parts else 0)
    return parts


def _padded(parts, n):
    return tuple(parts) + (0,) * (n - len(parts))


# -- generating-function h families ----------------------------------------


@lru_cache(maxsize=None)
def _h(kind: str, m: int, lo: int, hi: int, vt: VarTable) -> MultiPoly:
    """[t^m] of prod_{i=lo..hi} 1/(1-t x_i) [ * 1/(1-t xbar_i) for sp/so ]
    [ * (1+t) for so ] * prod_{k=1..m+hi-lo} (1+t a_k); h_0 = 1."""
    if m == 0:
        return MultiPoly.one(vt)
    letters = (xv,) if kind == "gl" else (xv, xbar)
    geometric = [x(vt, i) for i in range(lo, hi + 1) for x in letters]
    linear = [MultiPoly.one(vt)] if kind == "so" else []
    return gf_coeff(m, geometric, linear, m + hi - lo, vt)


def h_factorial(kind: str, m: int, d: int, vt: VarTable) -> MultiPoly:
    """Complete-homogeneous analogue of order m over the flagged alphabet
    x_d..x_n (with inverses for sp, and inverses plus the fixed eigenvalue
    1 for so).  h_0 = 1 and h_m = 0 for m < 0."""
    _check_kind(kind)
    if not 1 <= d <= vt.n:
        raise ValueError(f"flag d={d} out of range 1..{vt.n}")
    return _h(kind, m, d, vt.n, vt)


def h_range(kind: str, m: int, lo: int, hi: int, vt: VarTable) -> MultiPoly:
    """h over the contiguous alphabet x_lo..x_hi (with inverses for sp/so
    and the unit for so); the parameter product counts the x's only.  An
    empty range (lo > hi) is allowed."""
    _check_kind(kind)
    return _h(kind, m, lo, max(hi, lo - 1), vt)


def h_one_var(kind: str, m: int, i: int, vt: VarTable) -> MultiPoly:
    """Single-variable h value in x_i alone; the a-product stops at a_m."""
    _check_kind(kind)
    return _h(kind, m, i, i, vt)


# -- routes 1 and 2: determinant ratios by divided differences ----------------


def _def_entry(kind: str, m: int, i: int, vt: VarTable) -> MultiPoly:
    """Entry of the defining determinants: the shifted power of order m in
    x_i, antisymmetrised for sp/so; arguments in ``h_one_var``'s order."""
    if kind == "gl":
        return factorial_power(vt, i, m)
    fp = factorial_power(vt, i, m)
    fp_bar = factorial_power(vt, i, m, barred=True)
    if kind == "sp":
        return xv(vt, i) * fp - xbar(vt, i) * fp_bar
    # so: both rows of the defining ratio are scaled by the half-power of
    # x_i, which turns them into x_i*(shifted power) - (barred shifted
    # power); the scaling cancels in the ratio.
    return xv(vt, i) * fp - fp_bar


_RATIO_ENTRIES = {"def": _def_entry, "hdet": h_one_var}


def weyl_factor(kind: str, a: int, b: int, vt: VarTable) -> MultiPoly:
    """p(a, b) = x_a - x_b for gl and (x_a - x_b)(1 - xbar_a xbar_b) =
    (x_a + xbar_a) - (x_b + xbar_b) for sp/so: the factor of the Weyl
    denominator for the pair a < b, and of the h difference relation."""
    p = xv(vt, a) - xv(vt, b)
    if kind != "gl":
        p = p * (MultiPoly.one(vt) - xbar(vt, a) * xbar(vt, b))
    return p


def ratio_factors(kind: str, vt: VarTable, route: str):
    """The Weyl-denominator factors of a ratio route's denominator
    |entry(n - j, i)|, as (row scales, pair factors).

    The row scales, one per row, are those of the defining route:
    x_i - xbar_i for sp and x_i - 1 for so (empty for gl and for hdet,
    whose one-variable entries are already row-scaled).  The pair factors
    are p(a, b) = ``weyl_factor(kind, a, b, vt)``, keyed by (a, b) with
    a < b.  The denominator is their product, sign included.
    """
    one = MultiPoly.one(vt)
    scales = []
    if route == "def" and kind != "gl":
        scales = [xv(vt, i) - (xbar(vt, i) if kind == "sp" else one)
                  for i in range(1, vt.n + 1)]
    pairs = {(a, b): weyl_factor(kind, a, b, vt)
             for a in range(1, vt.n + 1) for b in range(a + 1, vt.n + 1)}
    return scales, pairs


def _reduced(kind: str, orders, vt: VarTable, route: str, scales, pairs,
             columns) -> list:
    """The matrix of the route's columns of the given orders, each reduced
    by Newton divided differences over (scales, pairs) and kept in
    ``columns``: divide row i by its row scale, then for k = 1..n-1 and
    i = n down to k+1 replace R_i by (R_i - R_{i-1}) / p(i-k, i).  Every
    entry division is exact_div, so a remainder raises NonExactDivision.

    Subtracting rows keeps the determinant, and every pair (a, b), a < b,
    divides exactly one row once, so the reduced matrix's determinant is
    the entry matrix's divided by the row scales and the pair factors.
    The row operations act on each column alone, and a column depends on
    its order m only, so a column already in ``columns`` is not reduced
    again.
    """
    n = vt.n
    entry = _RATIO_ENTRIES[route]
    for m in [m for m in orders if m not in columns]:
        col = [entry(kind, m, i, vt) for i in range(1, n + 1)]
        for i, s in enumerate(scales):
            col[i] = exact_div(col[i], s)
        for k in range(1, n):
            for i in range(n, k, -1):
                col[i - 1] = exact_div(col[i - 1] - col[i - 2],
                                       pairs[i - k, i])
        columns[m] = tuple(col)
    return list(zip(*(columns[m] for m in orders)))


@lru_cache(maxsize=None)
def _ratio_denominator(kind: str, vt: VarTable, route: str):
    """``ratio_factors`` of the route, checked, and the route's reduced
    columns, as (scales, pairs, columns).

    The route's own denominator columns |entry(n - j, i)| (orders n-1..0)
    are reduced by ``_reduced`` over the factors, and the reduced matrix's
    determinant must be exactly 1, else AlgebraError and no entry.  The
    reduction divides |den| by the factors' product, so once every
    division is exact this says that the denominator is that product,
    sign included; the reduced matrix is anti-triangular, so its
    determinant costs almost nothing.  ``columns`` keeps one reduced
    column per order m, the denominator's first, and ``_det_ratio`` adds
    the numerator's.  Factors and columns share the entry per (kind,
    table, route), so a column is only ever reduced by the factors checked
    here, and ``cache_clear`` drops both together.
    """
    n = vt.n
    scales, pairs = ratio_factors(kind, vt, route)
    columns = {}
    den = _reduced(kind, range(n - 1, -1, -1), vt, route, scales, pairs,
                   columns)
    if determinant(den, vt=vt) != MultiPoly.one(vt):
        raise AlgebraError(f"{route} denominator of kind {kind!r}, n={n} is "
                           "not the product of its Weyl factors")
    return scales, pairs, columns


@lru_cache(maxsize=None)
def _last_det(vt: VarTable) -> list:
    """One slot holding (matrix, determinant) of the last reduced matrix
    ``_det_ratio`` expanded on this table, None before the first."""
    return [None]


def _det_ratio(kind: str, lam, vt: VarTable, route: str) -> MultiPoly:
    """|entry(lam_j + n - j, i)| / |entry(n - j, i)|, exactly.

    The expanded numerator is never divided.  Each numerator row i is a
    function of x_i alone (of x_i + xbar_i for sp/so once row-scaled), so
    the quotient is the determinant of its Newton divided differences
    (``_reduced``), the factors' orientation matching the denominator's
    sign.  The factors and the reduced columns come from
    ``_ratio_denominator``, whose denominator passes only when its reduced
    determinant is 1 (AlgebraError otherwise).

    def and hdet reduce to the same matrix (the row-scaled shifted powers
    are the one-variable h values), so the last reduced matrix of the
    table and its determinant are kept in ``_last_det``; the kept value is
    returned only when the new reduced matrix equals the kept one entry by
    entry, so a route shares a determinant only with an identical input.
    """
    parts = _check_partition(kind, lam, vt)
    n = vt.n
    orders = [m + n - j for j, m in enumerate(_padded(parts, n), 1)]
    matrix = _reduced(kind, orders, vt, route,
                      *_ratio_denominator(kind, vt, route))
    slot = _last_det(vt)
    kept = slot[0]
    if kept is None or kept[0] != matrix:
        kept = slot[0] = matrix, determinant(matrix, vt=vt)
    return kept[1]


def char_definitional(kind: str, lam, vt: VarTable) -> MultiPoly:
    """Ratio of the two defining determinants."""
    return _det_ratio(kind, lam, vt, "def")


def char_hdet(kind: str, lam, vt: VarTable) -> MultiPoly:
    """Ratio of determinants of one-variable h values."""
    return _det_ratio(kind, lam, vt, "hdet")


# -- route 3: flagged Jacobi-Trudi determinant -------------------------------


def char_flagged_jt(kind: str, lam, vt: VarTable) -> MultiPoly:
    """Division-free flagged determinant |h_{lam_j - j + i}(x^(i)...)|."""
    parts = _check_partition(kind, lam, vt)
    n = vt.n
    full = _padded(parts, n)
    rows = [[h_factorial(kind, full[j - 1] - j + i, i, vt)
             for j in range(1, n + 1)]
            for i in range(1, n + 1)]
    return determinant(rows, vt=vt)


# -- route 4: tableau sum -----------------------------------------------------


def char_combinatorial(kind: str, lam, vt: VarTable) -> MultiPoly:
    parts = _check_partition(kind, lam, vt)
    return tableau_weight_sum(TABLEAU_KIND[kind], parts, vt.n, vt)


CHAR_ROUTES = {
    "def": char_definitional,
    "hdet": char_hdet,
    "jt": char_flagged_jt,
    "tab": char_combinatorial,
}


def character(kind: str, lam, vt: VarTable, method: str = "jt") -> MultiPoly:
    """Public entry point; the division-free flagged determinant is the
    default, the other routes exist for cross-verification."""
    try:
        route = CHAR_ROUTES[method]
    except KeyError:
        raise ValueError(f"unknown character method {method!r}") from None
    return route(kind, lam, vt)


# -- one-part closed expansions ----------------------------------------------


def one_part_expansion(kind: str, m: int, vt: VarTable) -> MultiPoly:
    """Closed multi-index sum for the one-row character of order m.

    One sum over weakly increasing words of letters (v, offset), each
    letter at position pos weighing v + a_{offset + pos} (a_l = 0 for
    l <= 0).  gl's letters are (x_i, i) for i = 1..n; sp's are the
    interleaved x_1, xbar_1, .., x_n, xbar_n with offset the letter's
    number less n; so shifts those offsets up by one and adds a second
    sum carrying the trailing (1 - a_{m+n}) factor.
    """
    _check_kind(kind)
    if m < 0:
        raise ValueError("m must be >= 0")
    n = vt.n
    if m == 0:
        return MultiPoly.one(vt)
    if m + n - (kind != "so") > vt.a_max:
        raise AIndexOutOfRange("table too small for this expansion")
    if kind == "gl":
        letters = [(xv(vt, i), i) for i in range(1, n + 1)]
    else:
        base = n - (kind == "so")
        letters = [(x(vt, k), 2 * k - odd - base)
                   for k in range(1, n + 1) for x, odd in ((xv, 1), (xbar, 0))]
    *_, shorter, total = _word_sums(letters, m, vt)
    if kind == "so":
        tail = MultiPoly.one(vt) - av(vt, m + n)
        total = total + shorter * tail
    return total


def _word_sums(letters, length: int, vt: VarTable):
    """Yield, for each length l = 0, 1, .., ``length``, the sum over
    weakly increasing words of l ``letters`` (pairs (v, offset)) of the
    products of v + a_{offset + pos} over the word's positions.

    A prefix recursion over the positions: after pos letters, upto[i] is
    the sum over the words whose letters are all among the first i + 1, so
    the words of length pos + 1 ending in letter i sum to upto[i] times
    that letter's factor, and their prefix sums are the next upto."""
    upto = [MultiPoly.one(vt)] * len(letters)
    yield upto[-1]
    for pos in range(length):
        total = MultiPoly.zero(vt)
        for i, (v, offset) in enumerate(letters):
            total = total + upto[i] * add_a(v, offset + pos)
            upto[i] = total
        yield upto[-1]
