"""Exact sparse Laurent-polynomial arithmetic over the rationals.

The variable set is fixed by a :class:`VarTable` holding, in order, the
blocks

    x_1 .. x_n,  y_1 .. y_n,  a_1 .. a_amax,  t

x- and y-variables are Laurent (negative exponents allowed, ``x1^-1``
standing for the inverse of ``x1``); a-variables and ``t`` are ordinary
polynomial variables with exponents >= 0.  Coefficients are Python ints
whenever the value is integral and :class:`fractions.Fraction` otherwise;
the two compare and hash identically, so mixed dicts are safe.

A polynomial is a dict mapping packed monomials to coefficients.  A
packed monomial is one Python int made of ``WIDTH``-bit fields: the
total degree in the most significant field, then one field per variable
in table order (x1 first, t in the lowest field).  Each field stores its
exponent plus ``BIAS``, so Laurent exponents are stored as non-negative
values, and its top bit is a guard bit that stays clear.  With
``WIDTH = 22`` and ``BIAS = 2**20``, exponents and total degrees must lie
in [-2**20, 2**20); anything outside raises :class:`ExponentOverflow`
instead of wrapping.  Monomial product is ``ma + mb - vt.zero``.  A
product field that leaves the range, upwards or by borrowing below zero,
sets that field's guard bit, so one OR over a product's keys, masked
with ``vt.guard``, detects an overflow.

The canonical term order is graded lexicographic over the block order
above (total degree first, then the exponent vector, larger first).
With the layout above that is plain integer order of the packed keys.
All serialisation sorts terms this way, so output bytes are reproducible.

WIDTH is 22 so that the keys hash apart.  CPython hashes an int as its
value mod 2**61 - 1, which maps field i to bit offset WIDTH*i mod 61.  At
WIDTH = 20 three fields span 60 bits, which is -1 mod 61, so offsets land
on adjacent residues, and monomials differing by +2 in one field and -1
in another hash equal: the spQ (4,2,1) tableau sum at n = 3 had 2,849
distinct hashes for 10,821 terms, soQ (5,3,1) 11,081 for 89,207, so every
term dict probed long collision chains.  At WIDTH = 22 the offsets of up
to 25 fields stay at least 2 bits apart, and those sums hash injectively.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from heapq import heapify, heappop, heappush
import json
from operator import mul, or_


class AlgebraError(Exception):
    """Base class for exact-arithmetic failures."""


class VarTableMismatch(AlgebraError):
    """Operands were built over different variable tables."""


class NonExactDivision(AlgebraError):
    """Polynomial division left a remainder; some identity upstream broke."""


class NonInvertibleBinding(AlgebraError):
    """A negative exponent met a substitution that is not a single monomial."""


class AIndexOutOfRange(AlgebraError):
    """A factorial parameter index exceeds the a_max retained in the table."""


class ExponentOverflow(AlgebraError):
    """An exponent or total degree left the packed range [-BIAS, BIAS)."""


# Packed monomial layout (module docstring): fields of WIDTH bits, exponent
# e stored as e + BIAS, the field's top bit kept clear as a guard.
WIDTH = 22  # 22*i mod 61 keeps field hash offsets apart (module docstring)
BIAS = 1 << (WIDTH - 2)
_GUARD = 1 << (WIDTH - 1)
_FIELD = (1 << WIDTH) - 1


_VT_CACHE: dict[tuple[int, int], "VarTable"] = {}


class VarTable:
    """Fixed, totally ordered variable set: x-block, y-block, a-block, t.

    ``n`` is the rank (number of x's and of y's), ``a_max`` the highest
    retained factorial-parameter index.  Tables are interned: building one
    with an (n, a_max) already built, as ``VarTable(n, a_max)`` or through
    :func:`vartable`, returns the existing object, so tables compare and
    hash by identity.
    """

    __slots__ = ("n", "a_max", "size", "names", "index", "t_pos",
                 "shifts", "units", "zero", "guard")

    def __new__(cls, n: int, a_max: int):
        vt = _VT_CACHE.get((n, a_max))
        if vt is not None:
            return vt
        if n < 1:
            raise ValueError("rank n must be >= 1")
        if a_max < 0:
            raise ValueError("a_max must be >= 0")
        vt = object.__new__(cls)
        vt.n = n
        vt.a_max = a_max
        names = [f"x{i}" for i in range(1, n + 1)]
        names += [f"y{i}" for i in range(1, n + 1)]
        names += [f"a{k}" for k in range(1, a_max + 1)]
        names.append("t")
        vt.names = tuple(names)
        vt.index = {name: pos for pos, name in enumerate(names)}
        vt.size = len(names)
        vt.t_pos = vt.size - 1
        # packed layout: slot pos sits at shifts[pos], the degree above x1
        vt.shifts = tuple(WIDTH * (vt.size - 1 - pos) for pos in range(vt.size))
        degree = 1 << (WIDTH * vt.size)
        vt.units = tuple((1 << s) | degree for s in vt.shifts)
        fields = range(0, WIDTH * (vt.size + 1), WIDTH)
        vt.zero = sum(BIAS << s for s in fields)
        vt.guard = sum(_GUARD << s for s in fields)
        _VT_CACHE[(n, a_max)] = vt
        return vt

    def __reduce__(self):
        # pickle and copy go through the constructor, so they keep the
        # interned object
        return (VarTable, (self.n, self.a_max))

    def x_pos(self, i: int) -> int:
        if not 1 <= i <= self.n:
            raise ValueError(f"x index {i} out of range 1..{self.n}")
        return i - 1

    def y_pos(self, i: int) -> int:
        if not 1 <= i <= self.n:
            raise ValueError(f"y index {i} out of range 1..{self.n}")
        return self.n + i - 1

    def a_pos(self, k: int) -> int:
        if not 1 <= k <= self.a_max:
            raise AIndexOutOfRange(
                f"a index {k} exceeds retained range 1..{self.a_max}")
        return 2 * self.n + k - 1

    def is_laurent(self, pos: int) -> bool:
        return pos < 2 * self.n

    def pack(self, mono) -> int:
        """Packed key of a dense exponent tuple; ValueError for a negative
        exponent on an a or t variable, ExponentOverflow if an exponent or
        the total degree is outside [-BIAS, BIAS)."""
        if len(mono) != self.size:
            raise ValueError(f"monomial needs {self.size} exponents, got {len(mono)}")
        if min(mono[2 * self.n:]) < 0:
            raise ValueError("negative exponents are allowed only on x/y variables")
        if min(mono) < -BIAS or max(mono) >= BIAS or not -BIAS <= sum(mono) < BIAS:
            raise ExponentOverflow(f"exponent outside [-{BIAS}, {BIAS}) in {tuple(mono)}")
        return self.zero + sum(map(mul, mono, self.units))

    def unpack(self, key: int) -> tuple:
        """Dense exponent tuple of a packed key."""
        return tuple(((key >> s) & _FIELD) - BIAS for s in self.shifts)

    def __repr__(self):
        return f"VarTable(n={self.n}, a_max={self.a_max})"


def vartable(n: int, a_max: int) -> VarTable:
    """The interned VarTable for (n, a_max); tables are immutable and shared."""
    return VarTable(n, a_max)


def vartable_for(n: int, lambda1: int) -> VarTable:
    """Table sized for a computation labelled by a partition with largest
    part ``lambda1``: retains a_1..a_{lambda1+2n}, which covers every
    generating-function product and tableau weight this package forms."""
    return vartable(n, lambda1 + 2 * n)


def check_a_range(vt: VarTable, lambda1: int) -> None:
    """AIndexOutOfRange unless vt retains what vartable_for(n, lambda1)
    would: every a_k up to a_{lambda1+2n}."""
    need = lambda1 + 2 * vt.n
    if vt.a_max < need:
        raise AIndexOutOfRange(
            f"table retains a_max={vt.a_max} but this computation may index "
            f"up to a_{need}; build the table with vartable_for(n, lambda_1)")


def _cdiv(a, b):
    """Exact coefficient quotient, staying in int when possible."""
    if isinstance(a, int) and isinstance(b, int):
        q, r = divmod(a, b)
        if r == 0:
            return q
        return Fraction(a, b)
    return Fraction(a) / Fraction(b)


def _canon_coeff(c):
    """A coefficient as stored: an integral Fraction becomes its int."""
    if isinstance(c, Fraction) and c.denominator == 1:
        return c.numerator
    return c


def _check_keys(vt: VarTable, keys) -> None:
    """Raise ExponentOverflow if a key formed by adding a field-wise offset
    below 2*BIAS in magnitude to a valid key (as a product of two valid
    keys does) has a field outside the range: its guard bit is then set."""
    if reduce(or_, keys, 0) & vt.guard:
        raise ExponentOverflow(f"exponent or degree left [-{BIAS}, {BIAS})")


def _sum(a: dict, b: dict) -> dict:
    """The sum of two term dicts: a copy of the one with more terms (``a``
    on a tie) with the other one's terms added; a key whose sum cancels is
    dropped.  An empty operand gives the other one itself, so the result
    may be an operand; neither operand is written.  Callers:
    ``MultiPoly.__add__`` and the prefix sums of
    ``tableaux.tableau_weight_sum``."""
    if not b:
        return a
    if not a:
        return b
    if len(a) < len(b):
        a, b = b, a
    out = dict(a)
    for m, c in b.items():
        s = out.get(m)
        if s is None:
            out[m] = c
        else:
            s = s + c
            if s:
                out[m] = s
            else:
                del out[m]
    return out


def _merge_rows(dst: dict, src: dict, rows) -> dict:
    """Add into ``dst``, for each (offset, coeff) in ``rows``, the terms of
    ``src`` with their keys shifted by offset and their coefficients
    multiplied by coeff (nonzero); a key whose sum cancels is dropped.  An
    empty ``dst`` is left alone: the first row, whose keys are distinct
    and coefficients nonzero, becomes a new dict built in one
    comprehension.  Checks no range.

    ``dst`` is updated in place, so it must belong to the caller: a dict
    the caller has just built or copied, which no polynomial, series or
    other caller holds.  Use the returned dict.  Callers:
    ``_add_products`` and ``TruncatedSeries._shift_merge``."""
    rows = iter(rows)
    if not dst:
        for off, cv in rows:
            dst = {m + off: c * cv for m, c in src.items()}
            break
    get = dst.get
    for off, cv in rows:
        for m, c in src.items():
            m += off
            c *= cv
            s = get(m)
            if s is None:
                dst[m] = c
            else:
                s += c
                if s:
                    dst[m] = s
                else:
                    del dst[m]
    return dst


def _add_products(vt: VarTable, dst: dict, products) -> dict:
    """Add into ``dst`` the product sign*a*b for each (a, b, sign) in
    ``products`` (a and b term dicts of valid keys, sign 1 or -1), one
    ``_merge_rows`` row per term of the smaller operand, then check the
    finished sum once with ``_check_keys``.  ``dst`` is empty or holds
    valid keys, and belongs to the caller as ``_merge_rows`` requires; use
    the returned dict.  The operands are left unchanged.  Callers:
    ``MultiPoly.__mul__``, the determinant's cofactor sums,
    ``specialize``, the parameter sum of ``gf_coeff`` and the buckets and
    total of ``tableaux.tableau_weight_sum``.

    One check on the finished sum suffices.  Each field of a product of
    two valid keys holds a value in [-BIAS, 3*BIAS) (a negative one
    borrowing from the field above), a range exactly 2**WIDTH wide, so a
    key stands for one exponent vector across all products and the valid
    keys of ``dst``.  A key that cancels therefore had a true zero
    coefficient, and a key that survives with a field out of range has a
    guard bit set, in the lowest such field.  So terms out of range that
    cancel completely leave an exact zero, where forming the products one
    by one would raise ExponentOverflow; a surviving one raises it."""
    zero = vt.zero
    for a, b, sign in products:
        if len(a) < len(b):
            a, b = b, a
        if b:
            dst = _merge_rows(dst, a, [(m - zero, c * sign) for m, c in b.items()])
    _check_keys(vt, dst)
    return dst


_new = object.__new__


def _poly(vt: VarTable, terms: dict) -> "MultiPoly":
    """MultiPoly from a dict that is already keyed by packed monomials."""
    p = _new(MultiPoly)
    p.vt = vt
    p.terms = terms
    return p


class MultiPoly:
    """Immutable sparse multivariate Laurent polynomial.

    ``terms`` maps packed monomials (module docstring: one int per
    monomial, total-degree field on top, then x1 .. t, each field biased
    by BIAS with a clear guard bit) to nonzero int/Fraction coefficients.
    The constructor takes dense exponent tuples (one slot per VarTable
    entry) and packs every one (VarTable.pack refuses a negative exponent
    on an a or t variable), dropping zero coefficients and storing an
    integral Fraction as its int, as every other constructor does;
    exponents and total degrees must lie in [-BIAS, BIAS), and an
    operation whose result leaves that range raises ExponentOverflow.
    Instances are never mutated after construction, so they may be
    shared; an operation may return one of its operands.
    """

    __slots__ = ("vt", "terms")

    def __init__(self, vt: VarTable, terms: dict):
        self.vt = vt
        # every monomial is packed, so checked, even one whose coefficient
        # is zero and is dropped
        self.terms = {m: _canon_coeff(c)
                      for m, c in zip(map(vt.pack, terms), terms.values()) if c}

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, vt: VarTable) -> "MultiPoly":
        return _poly(vt, {})

    @classmethod
    def const(cls, vt: VarTable, c) -> "MultiPoly":
        if c == 0:
            return _poly(vt, {})
        return _poly(vt, {vt.zero: _canon_coeff(c)})

    @classmethod
    def one(cls, vt: VarTable) -> "MultiPoly":
        return cls.const(vt, 1)

    @classmethod
    def var_at(cls, vt: VarTable, pos: int, exp: int = 1) -> "MultiPoly":
        if exp == 0:
            return cls.one(vt)
        if exp < 0 and not vt.is_laurent(pos):
            raise ValueError("negative exponents are allowed only on x/y variables")
        if not -BIAS <= exp < BIAS:
            raise ExponentOverflow(f"exponent {exp} outside [-{BIAS}, {BIAS})")
        return _poly(vt, {vt.zero + exp * vt.units[pos]: 1})

    # -- predicates / views -------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def n_terms(self) -> int:
        return len(self.terms)

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.vt is other.vt and self.terms == other.terms

    __hash__ = None

    def __repr__(self):
        return f"MultiPoly({poly_to_text(self)})"

    # -- arithmetic ----------------------------------------------------

    def _check(self, other: "MultiPoly"):
        if self.vt is not other.vt:
            raise VarTableMismatch("operands use different variable tables")

    def __add__(self, other):
        """The sum of the two term dicts, by ``_sum``."""
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(self.vt, other)
        self._check(other)
        return _poly(self.vt, _sum(self.terms, other.terms))

    __radd__ = __add__

    def __neg__(self):
        return _poly(self.vt, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(self.vt, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        """A sum of one product, formed by ``_add_products``: one row per
        term of the operand with fewer terms (other on a tie), each the
        larger operand shifted and scaled by that term, merged by
        ``_merge_rows`` into a dict built for the product."""
        vt = self.vt
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return MultiPoly.zero(vt)
            if other == 1:
                return self
            return _poly(vt, {m: c * other for m, c in self.terms.items()})
        self._check(other)
        return _poly(vt, _add_products(vt, {}, ((self.terms, other.terms, 1),)))

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if not isinstance(e, int) or e < 0:
            raise ValueError("only nonnegative integer powers")
        result = MultiPoly.one(self.vt)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result


def monomial(vt: VarTable, coeff, exps: dict[str, int] | None = None) -> MultiPoly:
    """Build a single-term polynomial from a name->exponent map."""
    if coeff == 0:
        return MultiPoly.zero(vt)
    mono = [0] * vt.size
    for name, e in (exps or {}).items():
        pos = vt.index.get(name)
        if pos is None:
            raise VarTableMismatch(f"unknown variable {name!r}")
        mono[pos] = e
    return MultiPoly(vt, {tuple(mono): coeff})


# -- convenience generators -------------------------------------------

def xv(vt: VarTable, i: int) -> MultiPoly:
    return MultiPoly.var_at(vt, vt.x_pos(i))


def xbar(vt: VarTable, i: int) -> MultiPoly:
    return MultiPoly.var_at(vt, vt.x_pos(i), -1)


def yv(vt: VarTable, i: int) -> MultiPoly:
    return MultiPoly.var_at(vt, vt.y_pos(i))


def ybar(vt: VarTable, i: int) -> MultiPoly:
    return MultiPoly.var_at(vt, vt.y_pos(i), -1)


def av(vt: VarTable, k: int) -> MultiPoly:
    return MultiPoly.var_at(vt, vt.a_pos(k))


def add_a(base: MultiPoly, k: int, sign: int = 1) -> MultiPoly:
    """base + sign*a_k, with a_k = 0 understood for k <= 0."""
    if k <= 0:
        return base
    vt = base.vt
    key = vt.zero + vt.units[vt.a_pos(k)]
    terms = dict(base.terms)
    c = terms.get(key, 0) + sign
    if c:
        terms[key] = c
    else:
        terms.pop(key, None)
    return _poly(vt, terms)


@lru_cache(maxsize=None)
def linear_factor(vt: VarTable, slot: int | None, exp: int, k: int,
                  sign: int) -> MultiPoly:
    """The linear factor v + sign*a_k (a_k = 0 for k <= 0), v the variable
    at table position ``slot`` to the power ``exp`` (+1 or -1), or the
    constant 1 when ``slot`` is None (``exp`` 0).  Cell and edge weights
    are all such factors; cached, so equal calls share one immutable
    value.  Pass every argument positionally: the cache keys on the call
    as written.  AIndexOutOfRange for k > vt.a_max, as add_a; an error
    leaves no cache entry."""
    base = MultiPoly.one(vt) if slot is None else MultiPoly.var_at(vt, slot, exp)
    return add_a(base, k, sign)


def factorial_power(vt: VarTable, i: int, m: int, barred: bool = False) -> MultiPoly:
    """Shifted power replacing the ordinary m-th power of x_i (or of its
    inverse when ``barred``): the product of (x_i^{+-1} + a_k) for k=1..m.
    m=0 gives 1."""
    if m < 0:
        raise ValueError("factorial power needs m >= 0")
    if m > vt.a_max:
        raise AIndexOutOfRange(f"factorial power of order {m} needs a_1..a_{m}, "
                               f"table retains a_max={vt.a_max}")
    exp = -1 if barred else 1
    return reduce(mul, (linear_factor(vt, vt.x_pos(i), exp, k, 1)
                        for k in range(1, m + 1)), MultiPoly.one(vt))


# -- exact division -----------------------------------------------------

def _col_mins(terms, vt: VarTable) -> list:
    """Per-slot minimum exponent of packed keys: the x/y slots, 0 elsewhere."""
    nxy = 2 * vt.n
    return ([min((m >> s) & _FIELD for m in terms) - BIAS for s in vt.shifts[:nxy]]
            + [0] * (vt.size - nxy))


def _shift(terms: dict, vt: VarTable, shift) -> dict:
    """Packed terms multiplied by the monomial with exponent tuple ``shift``
    (entries in (-2*BIAS, 2*BIAS), any total); ExponentOverflow if a result
    leaves the range."""
    if not any(shift):
        return terms
    off = sum(map(mul, shift, vt.units))
    out = {m + off: c for m, c in terms.items()}
    # an entry below 2*BIAS in magnitude sets its field's guard bit when it
    # leaves the range; the degree field, shifted by the sum, is checked by
    # value: a valid key lies in [0, guard bit of the degree field)
    _check_keys(vt, out)
    if min(out) < 0 or max(out) >= _GUARD << (WIDTH * vt.size):
        raise ExponentOverflow(f"total degree left [-{BIAS}, {BIAS}) in a division")
    return out


def exact_div(num: MultiPoly, den: MultiPoly) -> MultiPoly:
    """Exact quotient num/den in the Laurent ring; raises NonExactDivision
    if no polynomial quotient exists.

    The inputs are shifted by per-variable monomials so numerator, divisor
    and quotient all become true polynomials (legal because extreme
    per-variable degrees are additive over products), then ordinary
    term-by-leading-term division under the graded-lex order runs to a
    mandatory zero remainder.
    """
    num._check(den)
    vt = num.vt
    if not den.terms:
        raise ZeroDivisionError("division by the zero polynomial")
    if not num.terms:
        return MultiPoly.zero(vt)

    # shift numerator and divisor so that every x/y slot has minimum 0; the
    # shifted quotient is then a polynomial with minimum 0 in each slot, the
    # true quotient times x^(mden - mnum)
    mnum = _col_mins(num.terms, vt)
    mden = _col_mins(den.terms, vt)
    P = _shift(num.terms, vt, [-e for e in mnum])
    D = _shift(den.terms, vt, [-e for e in mden])
    dlead = max(D)
    dcoef = D[dlead]
    drest = [(dm - dlead, dc) for dm, dc in D.items() if dm != dlead]
    guard = vt.guard
    # (m - dtest) & guard == guard  iff  every field of m is >= dlead's,
    # i.e. the leading term divides m; no field borrows for valid keys
    dtest = dlead - guard
    qoff = vt.zero - dlead

    # Lazy max-heap over the running remainder: every key currently in r
    # is on the heap (possibly with stale duplicates), and subtracting a
    # quotient term only introduces monomials below the removed lead, so
    # popping in decreasing order always yields the true leading term.
    # Such a monomial m*dm/dlead has no negative field (m passed the
    # divisibility test, dm is a polynomial monomial) and a degree at most
    # m's, so it stays in range and needs no overflow check.
    r = dict(P)
    heap = [-m for m in r]
    heapify(heap)
    q: dict = {}
    rget = r.get
    while heap:
        m = -heappop(heap)
        c = r.pop(m, None)
        if c is None:
            continue
        if (m - dtest) & guard != guard:
            raise NonExactDivision("nonzero remainder in exact division")
        qc = _cdiv(c, dcoef)
        q[m + qoff] = qc
        for dd, dc in drest:
            mm = m + dd
            s = rget(mm)
            if s is None:
                r[mm] = -qc * dc
                heappush(heap, -mm)
            else:
                s = s - qc * dc
                if s:
                    r[mm] = s
                else:
                    del r[mm]
    return _poly(vt, _shift(q, vt, list(map(int.__sub__, mnum, mden))))


# -- determinants --------------------------------------------------------

def determinant(rows, *, vt: VarTable | None = None) -> MultiPoly:
    """Exact determinant of a square matrix of MultiPoly.

    Cofactor expansion along the sparsest row, at every size; zero entries
    are skipped, and the matrices of this package are mostly zero.  The
    empty matrix has determinant 1 (pass ``vt`` so the result knows its
    ring).  Each cofactor sum accumulates its products into one term dict
    (``_add_products``), so products whose terms leave the exponent range
    but cancel completely give an exact zero; a surviving one raises
    ExponentOverflow.
    """
    k = len(rows)
    if any(len(row) != k for row in rows):
        raise ValueError("determinant needs a square matrix")
    if k == 0:
        if vt is None:
            raise ValueError("empty matrix: pass vt to fix the ring")
        return MultiPoly.one(vt)
    v0 = rows[0][0].vt
    if any(e.vt is not v0 for row in rows for e in row):
        raise VarTableMismatch("matrix entries use different variable tables")
    return _det_cofactor(rows, v0)


def _det_cofactor(rows, vt) -> MultiPoly:
    k = len(rows)
    if k == 1:
        return rows[0][0]
    if k == 2:
        (a, b), (c, d) = rows
        return _poly(vt, _add_products(vt, {}, ((a.terms, d.terms, 1),
                                                (b.terms, c.terms, -1))))
    weights = [sum(e.n_terms() for e in row) for row in rows]
    r = weights.index(min(weights))
    rest = [row for idx, row in enumerate(rows) if idx != r]
    cofactors = ((entry.terms,
                  _det_cofactor([[row[j] for j in range(k) if j != c] for row in rest],
                                vt).terms,
                  -1 if (r + c) % 2 else 1)
                 for c, entry in enumerate(rows[r]) if entry.terms)
    return _poly(vt, _add_products(vt, {}, cofactors))


def _det_bareiss(rows, vt) -> MultiPoly:
    """Bareiss fraction-free elimination, called by nothing in the package:
    the tests' independent reference for cofactor expansion, kept while
    the benchmark's tracer counts its calls by name, and deleted with it."""
    k = len(rows)
    m = [list(row) for row in rows]
    sign = 1
    prev = MultiPoly.one(vt)
    for p in range(k - 1):
        pivot_row = next((r for r in range(p, k) if not m[r][p].is_zero()), None)
        if pivot_row is None:
            return MultiPoly.zero(vt)
        if pivot_row != p:
            m[p], m[pivot_row] = m[pivot_row], m[p]
            sign = -sign
        piv = m[p][p]
        for r in range(p + 1, k):
            for c in range(p + 1, k):
                num = _add_products(vt, {}, ((piv.terms, m[r][c].terms, 1),
                                             (m[r][p].terms, m[p][c].terms, -1)))
                m[r][c] = exact_div(_poly(vt, num), prev)
            m[r][p] = MultiPoly.zero(vt)
        prev = piv
    det = m[k - 1][k - 1]
    return det if sign == 1 else -det


# -- substitution --------------------------------------------------------

def _invert_monomial(p: MultiPoly) -> MultiPoly:
    [(key, coeff)] = p.terms.items()
    vt = p.vt
    mono = vt.unpack(key)
    for pos, e in enumerate(mono):
        if e and not vt.is_laurent(pos):
            raise NonInvertibleBinding("cannot invert a monomial in a/t variables")
    inv_c = _cdiv(1, coeff)
    return MultiPoly(vt, {tuple(-e for e in mono): inv_c})


def specialize(p: MultiPoly, bindings: dict[str, MultiPoly]) -> MultiPoly:
    """Simultaneous substitution of whole polynomials for variables.

    Unbound variables pass through.  A variable occurring with negative
    exponents may only be bound to a single invertible monomial
    (NonInvertibleBinding otherwise).  The result is the sum, over the
    distinct products of bound powers, of each product times the unbound
    parts of the terms that use it, formed once each and summed by one
    ``_add_products`` call.  A term whose unbound part leaves the exponent
    range raises ExponentOverflow; of the terms out of range in the sum,
    those that cancel completely give an exact zero, and a surviving one
    raises ExponentOverflow.
    """
    vt = p.vt
    bound: dict[int, MultiPoly] = {}
    for name, b in bindings.items():
        pos = vt.index.get(name)
        if pos is None:
            raise VarTableMismatch(f"unknown variable {name!r}")
        if b.vt is not vt:
            raise VarTableMismatch("binding value uses a different variable table")
        if any(vt.unpack(m)[pos] for m in b.terms):
            raise ValueError(f"binding for {name} must not contain {name}")
        bound[pos] = b
    if not bound or not p.terms:
        return p

    pow_cache: dict[tuple[int, int], MultiPoly] = {}

    def power(pos: int, e: int) -> MultiPoly:
        got = pow_cache.get((pos, e))
        if got is not None:
            return got
        b = bound[pos]
        if e >= 0:
            val = b ** e
        else:
            if len(b.terms) != 1:
                raise NonInvertibleBinding(
                    f"negative exponent of {vt.names[pos]} needs a monomial binding")
            val = _invert_monomial(b) ** (-e)
        pow_cache[(pos, e)] = val
        return val

    slots = [(pos, vt.shifts[pos], vt.units[pos]) for pos in sorted(bound)]
    # a valid key lies in [0, guard bit of the degree field); the unbound
    # part of a term must be one, as _add_products takes valid keys only
    top = _GUARD << (WIDTH * vt.size)
    # bound-power product -> (its terms, the unbound parts of its terms)
    groups: dict[tuple, tuple[dict, dict]] = {}
    for key, c in p.terms.items():
        binds = []
        rest = key
        for pos, shift, unit in slots:
            e = ((key >> shift) & _FIELD) - BIAS
            if e:
                binds.append((pos, e))
                rest -= e * unit
        if not 0 <= rest < top:
            raise ExponentOverflow(f"total degree left [-{BIAS}, {BIAS}) in a substitution")
        binds = tuple(binds)
        group = groups.get(binds)
        if group is None:
            val = MultiPoly.one(vt)
            for pos, e in binds:
                val = val * power(pos, e)
            group = groups[binds] = (val.terms, {})
        group[1][rest] = c
    return _poly(vt, _add_products(vt, {}, ((prod, rests, 1)
                                            for prod, rests in groups.values())))


def at_a_zero(p: MultiPoly) -> MultiPoly:
    """p with every a_k set to 0: its a-free terms, relabelled over the
    table with a_max = 0 (same rank), so no a token is left anywhere.

    One pass over the packed keys, as in ``a_shifted_down``: a term is
    a-free exactly when its a-block equals ``vt.zero``'s under one mask.
    Its new key is its degree, x and y fields shifted down past the
    a-block, with its t field kept in place.  An a-free term keeps its
    degree and every field it keeps is copied verbatim, so no key leaves
    the range, and the map is injective on the terms kept."""
    vt = p.vt
    if not vt.a_max:
        return p
    # the a-block spans the fields of a_max (just above t) up to a_1
    a_bits = WIDTH * vt.a_max
    a_mask = ((1 << a_bits) - 1) << WIDTH
    a_zero = vt.zero & a_mask
    out = {}
    for key, c in p.terms.items():
        if key & a_mask == a_zero:
            out[((key >> a_bits) & ~_FIELD) | (key & _FIELD)] = c
    return _poly(vartable(vt.n, 0), out)


def a_shifted_down(p: MultiPoly) -> MultiPoly:
    """p with a_k -> a_{k-1} for every k (a_0 = 0), as one pass over the
    packed keys: a term with a_1 is dropped, and every other term moves
    its a-fields up one slot and leaves a_max at exponent 0.  The map is
    injective on the terms kept, and the degree and every other field stay
    as they were, so no terms merge and no key leaves the range."""
    vt = p.vt
    if not vt.a_max:
        return p
    # the a-block spans the fields of a_max (just above t) up to a_1;
    # shifting a key up one field moves a_2..a_max into a_1..a_{max-1}
    a1_shift = vt.shifts[vt.a_pos(1)]
    rest = ~(((1 << (WIDTH * vt.a_max)) - 1) << WIDTH)
    moved = ((1 << (WIDTH * (vt.a_max - 1))) - 1) << (2 * WIDTH)
    a_max_zero = BIAS << WIDTH
    out = {}
    for key, c in p.terms.items():
        if (key >> a1_shift) & _FIELD == BIAS:
            out[(key & rest) | ((key << WIDTH) & moved) | a_max_zero] = c
    return _poly(vt, out)


def permute_variables(p: MultiPoly, mapping: dict[str, str]) -> MultiPoly:
    """Relabel variables by permuting exponent slots (exact, no expansion).

    ``mapping`` sends old names to new names and must be injective; names
    not mentioned stay put.
    """
    vt = p.vt
    perm = list(range(vt.size))
    for old, new in mapping.items():
        if old not in vt.index or new not in vt.index:
            raise VarTableMismatch("unknown variable in permutation")
        perm[vt.index[old]] = vt.index[new]
    if len(set(perm)) != vt.size:
        raise ValueError("variable permutation must be injective")
    out = {}
    for key, c in p.terms.items():
        new_mono = [0] * vt.size
        for pos, e in enumerate(vt.unpack(key)):
            if e:
                new_mono[perm[pos]] = e
        out[tuple(new_mono)] = c
    return MultiPoly(vt, out)


# -- truncated series in t -----------------------------------------------

class TruncatedSeries:
    """Polynomial in t with t-free coefficients, cut at ``order``.

    Coefficient k of a product depends only on coefficients 0..k of the
    factors, so truncation commutes with everything this package does.

    The series holds coefficient k as a packed term dict, ``terms[k]``
    (the layout of ``MultiPoly.terms``).  A dict is never mutated once a
    series holds it, so series, their coefficient polynomials and what
    :meth:`coeff` hands out may share dicts.  :meth:`mul_linear` and
    :meth:`mul_geometric` are one shift-merge pass over the coefficients:
    each coefficient the pass updates is copied, then ``_merge_rows`` adds
    into the copy its predecessor shifted and scaled by each term of the
    factor, and the result is checked with ``_check_keys`` before the
    next coefficient reads it, so a key leaving the range raises
    ExponentOverflow before a further shift can carry past a guard bit.

    ``gf_coeff`` runs one pass per geometric or linear factor; the
    parameter factors (1 + t a_k) run through passes only in the cached
    ``_elementary``, once per (order, a_limit, table).
    """

    __slots__ = ("vt", "order", "terms")

    def __init__(self, vt: VarTable, order: int, coeffs):
        if order < 0:
            raise ValueError("series order must be >= 0")
        if len(coeffs) != order + 1:
            raise ValueError("need exactly order+1 coefficients")
        if any(c.vt is not vt for c in coeffs):
            raise VarTableMismatch("series coefficient uses a different variable table")
        self.vt = vt
        self.order = order
        self.terms = [c.terms for c in coeffs]

    @classmethod
    def one(cls, vt: VarTable, order: int) -> "TruncatedSeries":
        return cls(vt, order, [MultiPoly.one(vt)] + [MultiPoly.zero(vt)] * order)

    def coeff(self, m: int) -> MultiPoly:
        if m < 0 or m > self.order:
            return MultiPoly.zero(self.vt)
        return _poly(self.vt, self.terms[m])

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if self.vt is not other.vt or self.order != other.order:
            raise VarTableMismatch("series mismatch in mul")
        vt, order = self.vt, self.order
        out = [MultiPoly.zero(vt)] * (order + 1)
        for i, ti in enumerate(self.terms):
            if not ti:
                continue
            ci = _poly(vt, ti)
            for j in range(order + 1 - i):
                tj = other.terms[j]
                if tj:
                    out[i + j] = out[i + j] + ci * _poly(vt, tj)
        return TruncatedSeries(vt, order, out)

    def _shift_merge(self, v: MultiPoly, ks) -> "TruncatedSeries":
        """The series with coefficient k, for k in ``ks`` in that order,
        replaced by c_k + v*c_{k-1}, where c_{k-1} is read from the result:
        updated already when ``ks`` runs upwards, not yet when it runs
        downwards."""
        vt = self.vt
        if v.vt is not vt:
            raise VarTableMismatch("series factor uses a different variable table")
        if not v.terms:
            return self
        zero = vt.zero
        offs = [(m - zero, c) for m, c in v.terms.items()]
        out = list(self.terms)
        for k in ks:
            src = out[k - 1]
            if not src:
                continue
            dst = _merge_rows(out[k].copy(), src, offs)
            # as in _add_products, a cancelled key had a true zero
            # coefficient, so checking the surviving keys suffices
            _check_keys(vt, dst)
            out[k] = dst
        s = _new(TruncatedSeries)
        s.vt, s.order, s.terms = vt, self.order, out
        return s

    def mul_linear(self, v: MultiPoly) -> "TruncatedSeries":
        """Multiply by (1 + t*v): c_k + v*c_{k-1}, k running downwards so
        each step reads the old c_{k-1}."""
        return self._shift_merge(v, range(self.order, 0, -1))

    def mul_geometric(self, v: MultiPoly) -> "TruncatedSeries":
        """Multiply by 1/(1 - t*v): r_k = c_k + v*r_{k-1}, k running upwards
        so each step reads the new r_{k-1}."""
        return self._shift_merge(v, range(1, self.order + 1))


@lru_cache(maxsize=None)
def _elementary(order: int, a_limit: int, vt: VarTable) -> tuple:
    """The term dicts of e_0..e_order of (a_1..a_{a_limit}): the coefficients
    of prod_{k=1..a_limit} (1+t a_k) up to t^order, formed by one
    ``mul_linear`` pass per factor.  ``gf_coeff`` passes order =
    min(m, a_limit), beyond which every e_j is zero.  The dicts are never
    mutated; ``cache_clear`` drops them."""
    s = TruncatedSeries.one(vt, order)
    for k in range(1, a_limit + 1):
        s = s.mul_linear(av(vt, k))
    return tuple(s.terms)


def gf_coeff(m: int, geometric, linear, a_limit: int, vt: VarTable) -> MultiPoly:
    """[t^m] of prod_u 1/(1-t u) * prod_v (1+t v) * prod_{k=1..a_limit} (1+t a_k)
    over the geometric factors u and the linear factors v.  Zero for
    m < 0; a_limit <= 0 gives no parameter factor.  This is the one
    generating function behind the h, q, f and q-tilde families; each
    family differs only in its factor lists and a_limit.

    Each geometric and linear factor is one shift-merge pass of a
    TruncatedSeries G of order m over the term dicts it holds, with an
    overflow check on every updated coefficient.  The parameter product is
    closed by one sum, [t^m] G * prod (1+t a_k) = sum_j G_{m-j} e_j, with
    e_0..e_min(m, a_limit) taken from the cached ``_elementary`` and the
    products merged by one ``_add_products`` call, which checks the
    finished sum: a surviving term out of range raises ExponentOverflow,
    and out-of-range terms that cancel completely give an exact zero."""
    if m < 0:
        return MultiPoly.zero(vt)
    if a_limit > vt.a_max:
        raise AIndexOutOfRange(
            f"needs a_1..a_{a_limit}, table retains a_max={vt.a_max}")
    s = TruncatedSeries.one(vt, m)
    for u in geometric:
        s = s.mul_geometric(u)
    for v in linear:
        s = s.mul_linear(v)
    if a_limit <= 0:
        return s.coeff(m)
    es = _elementary(min(m, a_limit), a_limit, vt)
    return _poly(vt, _add_products(vt, {}, ((s.terms[m - j], e, 1)
                                            for j, e in enumerate(es))))


# -- canonical serialisation ---------------------------------------------

def poly_to_obj(p: MultiPoly) -> dict:
    """Interchange object: the table's variable names, then per term in
    canonical order (graded-lex, leading term first, which is descending
    order of the packed keys) its coefficient as "numerator/denominator"
    (an int c as "c/1") and its nonzero exponents by name, in table
    order.  Each key's fields are decoded in one loop over the table's
    (name, shift) pairs."""
    vt, terms = p.vt, p.terms
    fields = tuple(zip(vt.names, vt.shifts))
    out = []
    for m in sorted(terms, reverse=True):
        exps = {}
        for name, s in fields:
            e = ((m >> s) & _FIELD) - BIAS
            if e:
                exps[name] = e
        c = terms[m]
        out.append({"c": f"{c.numerator}/{c.denominator}", "e": exps})
    return {"vars": list(vt.names), "terms": out}


def _term_texts(p: MultiPoly, item, sep: str) -> list:
    """(coefficient, exponent text) per term of ``p`` in canonical order,
    the exponent text being ``sep`` joining ``item(name, e)`` over the
    term's nonzero exponents in table order ("" for none).  The one
    decoder behind ``poly_to_json`` and ``poly_to_text``.

    Each key is split into its x part, its y part and its a/t part (the
    degree field is dropped: it follows from the exponents), and each
    distinct part is decoded once per call, in memos local to the call.
    The terms of one value share few distinct parts of each kind (the
    x/y pair is nearly always distinct, its halves are not), so most
    terms cost three dict lookups and one concatenation.  Each part's
    text carries ``sep`` before every item, so the term's text is the
    three concatenated, less the first ``sep``."""
    vt, terms = p.vt, p.terms
    n = vt.n
    low = WIDTH * (vt.size - 2 * n)    # the a- and t-fields
    y_bits = WIDTH * n
    half_mask = (1 << y_bits) - 1
    at_mask = (1 << low) - 1
    names, shifts = vt.names, vt.shifts
    x_fields = [(names[i], shifts[i] - low - y_bits) for i in range(n)]
    y_fields = [(names[i], shifts[i] - low) for i in range(n, 2 * n)]
    at_fields = [(names[i], shifts[i]) for i in range(2 * n, vt.size)]
    cut = len(sep)

    def decode(part: int, fields) -> str:
        items = []
        for name, s in fields:
            e = ((part >> s) & _FIELD) - BIAS
            if e:
                items.append(sep + item(name, e))
        return "".join(items)

    x_memo: dict[int, str] = {}
    y_memo: dict[int, str] = {}
    at_memo: dict[int, str] = {}
    out = []
    for m in sorted(terms, reverse=True):
        xy = m >> low
        x = (xy >> y_bits) & half_mask
        x_text = x_memo.get(x)
        if x_text is None:
            x_text = x_memo[x] = decode(x, x_fields)
        y = xy & half_mask
        y_text = y_memo.get(y)
        if y_text is None:
            y_text = y_memo[y] = decode(y, y_fields)
        at = m & at_mask
        at_text = at_memo.get(at)
        if at_text is None:
            at_text = at_memo[at] = decode(at, at_fields)
        out.append((terms[m], (x_text + y_text + at_text)[cut:]))
    return out


def _json_item(name: str, e: int) -> str:
    # variable names are x<i>, y<i>, a<k> and t: nothing to escape
    return f'"{name}":{e}'


def _text_item(name: str, e: int) -> str:
    return name if e == 1 else f"{name}^{e}"


def poly_to_json(p: MultiPoly) -> str:
    """Compact JSON of the interchange object: exactly
    ``json.dumps(poly_to_obj(p), separators=(",", ":"))``, written
    directly from the texts of ``_term_texts`` without building the
    object."""
    terms = ",".join([f'{{"c":"{c.numerator}/{c.denominator}","e":{{{e}}}}}'
                      for c, e in _term_texts(p, _json_item, ",")])
    names = ",".join(f'"{name}"' for name in p.vt.names)
    return f'{{"vars":[{names}],"terms":[{terms}]}}'


def poly_from_obj(vt: VarTable, obj: dict) -> MultiPoly:
    """Inverse of poly_to_obj.  Refuses what poly_to_obj never writes and
    the constructors never build: a negative exponent on an a or t
    variable, an exponent that is not an integer (2.0 and True pass as
    2 and 1, as parts do), a coefficient other than the "num/den" text of
    a nonzero value, and a monomial listed twice (ValueError)."""
    if list(obj.get("vars", [])) != list(vt.names):
        raise VarTableMismatch("serialised variable list does not match table")
    terms = {}
    for t in obj["terms"]:
        try:
            coeff = Fraction(t["c"])
        except ZeroDivisionError:
            raise ValueError(f"coefficient {t['c']!r} has a zero denominator") from None
        mono = [0] * vt.size
        for name, e in t["e"].items():
            pos = vt.index.get(name)
            if pos is None:
                raise VarTableMismatch(f"unknown variable {name!r}")
            mono[pos] = int(e)
            if mono[pos] != e:
                raise ValueError(f"exponent {e!r} of {name} is not an integer")
        key = vt.pack(mono)
        if key in terms:
            raise ValueError(f"monomial {t['e']} is listed twice")
        if not coeff or t["c"] != f"{coeff.numerator}/{coeff.denominator}":
            raise ValueError(f"coefficient {t['c']!r} is not the text of a "
                             "nonzero reduced fraction")
        terms[key] = _canon_coeff(coeff)
    return _poly(vt, terms)


def poly_from_json(vt: VarTable, text: str) -> MultiPoly:
    return poly_from_obj(vt, json.loads(text))


def poly_to_text(p: MultiPoly) -> str:
    """Human-readable canonical rendering: `c * x1^2 * a3` terms joined
    with ' + ', leading term first, from the texts of ``_term_texts``."""
    if not p.terms:
        return "0"
    # str of an int or Fraction: "3", "-1/2"
    return " + ".join([f"{c!s} * {e}" if e else str(c)
                       for c, e in _term_texts(p, _text_item, " * ")])
