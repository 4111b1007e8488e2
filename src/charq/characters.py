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
* ``char_flagged_jt``    -- flagged Jacobi-Trudi determinant, division
  free; the default route.
* ``char_combinatorial`` -- weighted sum over the kind's tableaux.

``h_factorial`` is the t^m coefficient of the kind's generating function
over the flagged alphabet x_d..x_n; ``one_part_expansion`` is the closed
multi-index sum for one-row shapes.

Everything here is a pure function of immutable values.  The one h cache
is keyed by (kind, m, alphabet range, table), so a cached value is the
value a fresh computation would give.
"""

from __future__ import annotations

from functools import lru_cache

from .algebra import (AIndexOutOfRange, MultiPoly, VarTable, add_a, av,
                      check_a_range, determinant, exact_div, factorial_power,
                      gf_coeff, xbar, xv)
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


# -- route 1: defining determinant ratio ------------------------------------


def _def_entry(kind: str, i: int, m: int, vt: VarTable) -> MultiPoly:
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


def _det_ratio(kind: str, lam, vt: VarTable, entry) -> MultiPoly:
    """|entry(i, lam_j + n - j)| / |entry(i, n - j)|; the division is exact
    because the quotient is the character (NonExactDivision would signal
    an implementation fault)."""
    parts = _check_partition(kind, lam, vt)
    n = vt.n
    full = _padded(parts, n)
    num = [[entry(i, full[j - 1] + n - j) for j in range(1, n + 1)]
           for i in range(1, n + 1)]
    den = [[entry(i, n - j) for j in range(1, n + 1)] for i in range(1, n + 1)]
    return exact_div(determinant(num, vt=vt), determinant(den, vt=vt))


def char_definitional(kind: str, lam, vt: VarTable) -> MultiPoly:
    """Ratio of the two defining determinants."""
    return _det_ratio(kind, lam, vt, lambda i, m: _def_entry(kind, i, m, vt))


# -- route 2: one-variable h determinant ratio -------------------------------


def char_hdet(kind: str, lam, vt: VarTable) -> MultiPoly:
    return _det_ratio(kind, lam, vt, lambda i, m: h_one_var(kind, m, i, vt))


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
    if m + n - (kind == "gl") > vt.a_max:
        raise AIndexOutOfRange("table too small for this expansion")
    if kind == "gl":
        letters = [(xv(vt, i), i) for i in range(1, n + 1)]
    else:
        base = n - (kind == "so")
        letters = [(x(vt, k), 2 * k - odd - base)
                   for k in range(1, n + 1) for x, odd in ((xv, 1), (xbar, 0))]
    total = _word_sum(letters, m, vt)
    if kind == "so":
        tail = MultiPoly.one(vt) - av(vt, m + n)
        total = total + _word_sum(letters, m - 1, vt) * tail
    return total


def _word_sum(letters, length: int, vt: VarTable) -> MultiPoly:
    """Sum over weakly increasing words of ``letters`` (pairs (v, offset))
    of the products of v + a_{offset + pos} over the word's positions."""
    total = MultiPoly.zero(vt)

    def rec(pos: int, start: int, w: MultiPoly):
        nonlocal total
        if pos == length:
            total = total + w
            return
        for idx in range(start, len(letters)):
            v, offset = letters[idx]
            rec(pos + 1, idx, w * add_a(v, offset + pos))
    rec(0, 0, MultiPoly.one(vt))
    return total
