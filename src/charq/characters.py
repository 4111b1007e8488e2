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

Everything here is a pure function of immutable values; the h caches are
keyed by (kind, m, flag or variable, table), so a cached value is the
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


def _h_series_coeff(kind: str, m: int, xs: tuple[int, ...], vt: VarTable,
                    a_limit: int) -> MultiPoly:
    """[t^m] of prod_i 1/(1-t x_i) [ * 1/(1-t xbar_i) for sp/so ]
    [ * (1+t) for so ] * prod_{k=1..a_limit} (1+t a_k)."""
    letters = (xv,) if kind == "gl" else (xv, xbar)
    geometric = [x(vt, i) for i in xs for x in letters]
    linear = [MultiPoly.one(vt)] if kind == "so" else []
    return gf_coeff(m, geometric, linear, a_limit, vt)


@lru_cache(maxsize=None)
def _h_factorial_cached(kind: str, m: int, d: int, vt: VarTable) -> MultiPoly:
    xs = tuple(range(d, vt.n + 1))
    return _h_series_coeff(kind, m, xs, vt, m + vt.n - d)


def h_factorial(kind: str, m: int, d: int, vt: VarTable) -> MultiPoly:
    """Complete-homogeneous analogue of order m over the flagged alphabet
    x_d..x_n (with inverses for sp, and inverses plus the fixed eigenvalue
    1 for so).  h_0 = 1 and h_m = 0 for m < 0."""
    _check_kind(kind)
    if not 1 <= d <= vt.n:
        raise ValueError(f"flag d={d} out of range 1..{vt.n}")
    if m < 0:
        return MultiPoly.zero(vt)
    if m == 0:
        return MultiPoly.one(vt)
    return _h_factorial_cached(kind, m, d, vt)


def h_range(kind: str, m: int, lo: int, hi: int, vt: VarTable) -> MultiPoly:
    """h over the contiguous alphabet x_lo..x_hi (with inverses for sp/so
    and the unit for so); the parameter product counts the x's only.  An
    empty range (lo > hi) is allowed."""
    _check_kind(kind)
    if m < 0:
        return MultiPoly.zero(vt)
    xs = tuple(range(lo, hi + 1))
    return _h_series_coeff(kind, m, xs, vt, m + len(xs) - 1)


@lru_cache(maxsize=None)
def _h_one_var_cached(kind: str, m: int, i: int, vt: VarTable) -> MultiPoly:
    return _h_series_coeff(kind, m, (i,), vt, m)


def h_one_var(kind: str, m: int, i: int, vt: VarTable) -> MultiPoly:
    """Single-variable h value in x_i alone; the a-product stops at a_m."""
    _check_kind(kind)
    if m < 0:
        return MultiPoly.zero(vt)
    if m == 0:
        return MultiPoly.one(vt)
    return _h_one_var_cached(kind, m, i, vt)


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


def char_definitional(kind: str, lam, vt: VarTable) -> MultiPoly:
    """Ratio of the two defining determinants; the division is exact
    because the quotient is the character (NonExactDivision would signal
    an implementation fault)."""
    parts = _check_partition(kind, lam, vt)
    n = vt.n
    full = _padded(parts, n)
    num = [[_def_entry(kind, i, full[j - 1] + n - j, vt) for j in range(1, n + 1)]
           for i in range(1, n + 1)]
    den = [[_def_entry(kind, i, n - j, vt) for j in range(1, n + 1)]
           for i in range(1, n + 1)]
    return exact_div(determinant(num, vt=vt), determinant(den, vt=vt))


# -- route 2: one-variable h determinant ratio -------------------------------


def char_hdet(kind: str, lam, vt: VarTable) -> MultiPoly:
    parts = _check_partition(kind, lam, vt)
    n = vt.n
    full = _padded(parts, n)
    num = [[h_one_var(kind, full[j - 1] + n - j, i, vt) for j in range(1, n + 1)]
           for i in range(1, n + 1)]
    den = [[h_one_var(kind, n - j, i, vt) for j in range(1, n + 1)]
           for i in range(1, n + 1)]
    return exact_div(determinant(num, vt=vt), determinant(den, vt=vt))


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

    gl sums over weakly increasing index words in x_1..x_n with parameter
    indices advancing by position; sp does the same over the interleaved
    word x_1, xbar_1, .., x_n, xbar_n with the parameter index shifted
    down by n (vanishing when nonpositive); so adds one unit shift and a
    second sum carrying the trailing (1 - a_{m+n}) factor.
    """
    _check_kind(kind)
    if m < 0:
        raise ValueError("m must be >= 0")
    n = vt.n
    one = MultiPoly.one(vt)
    if m == 0:
        return one

    if kind == "gl":
        if m + n - 1 > vt.a_max:
            raise AIndexOutOfRange("table too small for this expansion")
        total = MultiPoly.zero(vt)

        def rec(pos: int, start: int, w: MultiPoly):
            nonlocal total
            if pos == m:
                total = total + w
                return
            for i in range(start, n + 1):
                rec(pos + 1, i, w * add_a(xv(vt, i), i + pos))
        rec(0, 1, one)
        return total

    def z_factor(idx: int, pos: int, shift: int) -> MultiPoly:
        # letter idx in 1..2n: odd 2k-1 -> x_k, even 2k -> xbar_k; the
        # parameter index is idx - n + pos + shift with a_l = 0 for l <= 0
        k = (idx + 1) // 2
        base = xv(vt, k) if idx % 2 == 1 else xbar(vt, k)
        return add_a(base, idx - n + pos + shift)

    if m + n > vt.a_max:
        raise AIndexOutOfRange("table too small for this expansion")

    def z_sum(length: int, shift: int) -> MultiPoly:
        total = MultiPoly.zero(vt)

        def rec(pos: int, start: int, w: MultiPoly):
            nonlocal total
            if pos == length:
                total = total + w
                return
            for idx in range(start, 2 * n + 1):
                rec(pos + 1, idx, w * z_factor(idx, pos, shift))
        rec(0, 1, one)
        return total

    if kind == "sp":
        return z_sum(m, 0)
    # so: unit extra shift, plus the second sum ending in (1 - a_{m+n})
    tail = one - av(vt, m + n)
    return z_sum(m, 1) + z_sum(m - 1, 1) * tail
