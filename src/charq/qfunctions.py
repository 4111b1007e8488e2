"""Factorial Q-functions: primed-tableau sums, determinantal sums over
diagonal supports, the auxiliary generating-function families, and the
Tokuyama-type factorisation check.

Kinds mirror the tableau families: glQ in x, y; spQ and soQ additionally
in the inverses xbar, ybar (and soQ carries the fixed eigenvalue 1).
Everywhere a_0 = 0, so diagonal cells weigh bare variables.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .algebra import (AIndexOutOfRange, MultiPoly, VarTable, a_shifted_down,
                      check_a_range, determinant, gf_coeff, xbar, xv, ybar, yv)
from .characters import TABLEAU_KIND, char_flagged_jt
from .tableaux import Q_KINDS as QFUNC_KINDS, check_shape, tableau_weight_sum

CHAR_KIND = {"glQ": "gl", "spQ": "sp", "soQ": "so"}


def _check_kind(kind: str):
    if kind not in QFUNC_KINDS:
        raise ValueError(f"unknown Q-function kind {kind!r}")


def _check_strict(kind: str, lam, vt: VarTable) -> tuple[int, ...]:
    _check_kind(kind)
    parts = check_shape(kind, lam, vt.n)
    check_a_range(vt, parts[0] if parts else 0)
    return parts


# -- tableau route -----------------------------------------------------------


def q_tableaux(kind: str, lam, vt: VarTable) -> MultiPoly:
    """Sum of cell-weight products over all primed shifted tableaux of the
    given strict shape."""
    parts = _check_strict(kind, lam, vt)
    return tableau_weight_sum(kind, parts, vt.n, vt)


# -- generating-function families --------------------------------------------


def qtilde(m: int, us, vs, vt: VarTable) -> MultiPoly:
    """[t^m] of prod 1/(1-t u) * prod (1+t v) * prod_{k=1}^{m+r-s-1} (1+t a_k),
    for arbitrary lists of Laurent polynomials u (geometric factors) and v
    (linear factors) with r = len(u), s = len(v); parameter factors with
    k <= 0 are skipped.  The odd-orthogonal families pass the constant 1
    as one of the v entries, which costs a parameter slot like any other
    linear factor."""
    us, vs = list(us), list(vs)
    return gf_coeff(m, us, vs, m + len(us) - len(vs) - 1, vt)


def q_md(kind: str, m: int, d: int, vt: VarTable) -> MultiPoly:
    """[t^m] of the kind's row generating function at flag d: geometric
    factors in x_d..x_n (and inverses), linear factors in y_{d+1}..y_n
    (and inverses), and parameter factors a_1..a_m.  For soQ the fixed
    eigenvalue contributes an extra (1+t) linear factor that consumes one
    parameter slot, so its parameter product stops at a_{m-1}; this is the
    form the primed-tableau sums actually satisfy (see test suite).

    After its own argument checks (zero for m < 0, AIndexOutOfRange past
    a_max) this is f_mpqn at p = q = d, read from that function's cache."""
    _check_kind(kind)
    if not 1 <= d <= vt.n:
        raise ValueError(f"flag d={d} out of range 1..{vt.n}")
    if m < 0:
        return MultiPoly.zero(vt)
    if m > vt.a_max:
        raise AIndexOutOfRange(f"needs a_1..a_{m}, table retains a_max={vt.a_max}")
    return f_mpqn(kind, m, d, d, vt)


@lru_cache(maxsize=None)
def f_mpqn(kind: str, m: int, p: int, q: int, vt: VarTable) -> MultiPoly:
    """Two-flag interpolant between the q family (p = q) and the character
    h family (q = n): geometric factors in x_p..x_n (and inverses), linear
    factors in y_{q+1}..y_n (and inverses), and parameters a_1..a_{m+q-p}.
    For soQ the extra (1+t) factor again consumes one parameter slot, so
    the product stops at a_{m+q-p-1}, matching q_md at p = q.

    Values are cached per (kind, m, p, q, table) in a module-level
    ``lru_cache``, which q_md reads too; a call that raises leaves no
    entry, and ``f_mpqn.cache_clear()`` empties it.  The value is shared
    between callers, as every MultiPoly is immutable."""
    _check_kind(kind)
    n = vt.n
    if not 1 <= p <= q <= n:
        raise ValueError(f"need 1 <= p <= q <= n, got p={p}, q={q}, n={n}")
    xs, ys = ((xv,), (yv,)) if kind == "glQ" else ((xv, xbar), (yv, ybar))
    geometric = [x(vt, i) for i in range(p, n + 1) for x in xs]
    linear = [y(vt, j) for j in range(q + 1, n + 1) for y in ys]
    if kind == "soQ":
        linear.append(MultiPoly.one(vt))
    limit = m + q - p - 1 if kind == "soQ" else m + q - p
    return gf_coeff(m, geometric, linear, limit, vt)


# -- determinantal route ------------------------------------------------------


def prefactor(kind: str, i: int, j: int, vt: VarTable) -> MultiPoly:
    """The linear factor x_i + y_j, plus xbar_i + ybar_j for spQ/soQ: the
    diagonal factor of the determinantal route at i = j, and one factor
    of the Tokuyama product."""
    p = xv(vt, i) + yv(vt, j)
    if kind != "glQ":
        p = p + xbar(vt, i) + ybar(vt, j)
    return p


def q_determinantal(kind: str, lam, vt: VarTable) -> MultiPoly:
    """Sum over all strictly increasing diagonal supports d of the l x l
    determinant with (i, j) entry prefactor(d_i) * q_{lam_j - 1} at flag
    d_i.  Row i is a multiple of prefactor(d_i), so by row multilinearity
    each determinant is det[q_{lam_j - 1}(d_i)] times the prefactors of
    its support: each flag's bare row is built once, and a support whose
    bare determinant is zero adds nothing and skips its prefactor
    products."""
    parts = _check_strict(kind, lam, vt)
    n = vt.n
    ell = len(parts)
    if ell == 0:
        return MultiPoly.one(vt)
    rows = {d: [q_md(kind, m - 1, d, vt) for m in parts] for d in range(1, n + 1)}
    total = MultiPoly.zero(vt)
    for support in combinations(range(1, n + 1), ell):
        det = determinant([rows[d] for d in support], vt=vt)
        if det:
            for d in support:
                det = det * prefactor(kind, d, d, vt)
            total = total + det
    return total


Q_ROUTES = {"tab": q_tableaux, "det": q_determinantal}


def qfunction(kind: str, lam, vt: VarTable, method: str = "det") -> MultiPoly:
    try:
        route = Q_ROUTES[method]
    except KeyError:
        raise ValueError(f"unknown Q-function method {method!r}") from None
    return route(kind, lam, vt)


# -- Tokuyama factorisation ---------------------------------------------------


@dataclass(frozen=True)
class TokuyamaReport:
    kind: str
    mu: tuple[int, ...]
    n: int
    lhs: MultiPoly
    rhs: MultiPoly
    equal: bool

    def to_obj(self) -> dict:
        return {"identity": "tokuyama", "kind": self.kind, "mu": list(self.mu),
                "n": self.n, "equal": self.equal,
                "lhs_terms": self.lhs.n_terms(), "rhs_terms": self.rhs.n_terms()}


def staircase(n: int) -> tuple[int, ...]:
    return tuple(range(n, 0, -1))


def verify_tokuyama(kind: str, mu, vt: VarTable) -> TokuyamaReport:
    """Compare the Q-function at shape mu+delta (delta the staircase, so
    the shape is strict of full length n) with the product of linear
    prefactors times the matching factorial character of mu.  The
    character factor uses the division-free flagged determinant route; in
    the odd-orthogonal case it enters with its parameter sequence shifted
    down one slot (a_k -> a_{k-1}), which is the factorisation the
    primed-tableau definition actually admits: the fixed eigenvalue
    absorbs the first parameter of every row."""
    _check_kind(kind)
    n = vt.n
    mu_parts = check_shape(TABLEAU_KIND[CHAR_KIND[kind]], mu, n)
    padded = mu_parts + (0,) * (n - len(mu_parts))
    lam = tuple(m + d for m, d in zip(padded, staircase(n)))
    lhs = q_tableaux(kind, lam, vt)
    rhs = char_flagged_jt(CHAR_KIND[kind], mu_parts, vt)
    if kind == "soQ":
        rhs = a_shifted_down(rhs)
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            rhs = rhs * prefactor(kind, i, j, vt)
    return TokuyamaReport(kind, mu_parts, n, lhs, rhs, lhs == rhs)
