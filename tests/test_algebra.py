"""Exact-arithmetic core: ring axioms, division, determinants, series,
substitution, canonical serialisation."""

import copy
import json
import pickle
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charq import algebra, cli
from charq.algebra import (BIAS, AIndexOutOfRange,
                           ExponentOverflow, MultiPoly, NonExactDivision,
                           NonInvertibleBinding, TruncatedSeries, VarTable,
                           VarTableMismatch, add_a, at_a_zero, av, determinant,
                           exact_div, factorial_power, linear_factor, monomial,
                           permute_variables, poly_from_json, poly_from_obj,
                           poly_to_json, poly_to_obj, poly_to_text,
                           specialize, vartable, vartable_for,
                           xbar, xv, ybar, yv)
from charq.lattice import _edge_weight
from charq.tableaux import Entry, alphabet, cell_weight, tableau_weight_sum

from oracles import perm_determinant

VT = vartable(3, 4)


def _x(i, e=1):
    return MultiPoly.var_at(VT, VT.x_pos(i), e)


def sorted_terms(p):
    """(exponent tuple, coefficient) pairs, descending by packed key."""
    return [(p.vt.unpack(m), p.terms[m]) for m in sorted(p.terms, reverse=True)]


# -- strategies ---------------------------------------------------------------

coeffs = st.integers(min_value=-9, max_value=9)
rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)
exponents = st.integers(min_value=-3, max_value=3)


@st.composite
def polys(draw, max_terms=4, laurent=True, coeff=coeffs):
    n_terms = draw(st.integers(min_value=0, max_value=max_terms))
    terms = {}
    for _ in range(n_terms):
        mono = [0] * VT.size
        for pos in range(VT.size - 1):          # keep t out of random polys
            if draw(st.booleans()):
                e = draw(exponents)
                if e < 0 and not (laurent and VT.is_laurent(pos)):
                    e = -e
                mono[pos] = e
        c = draw(coeff)
        if c:
            terms[tuple(mono)] = c
    return MultiPoly(VT, terms)


@st.composite
def add_operands(draw):
    """Two polynomials of independent sizes with int or Fraction
    coefficients, the second holding some of the first one's monomials,
    some of them with the negated coefficient so that they cancel."""
    coeff = draw(st.sampled_from((coeffs, rationals)))
    p = draw(polys(max_terms=6, coeff=coeff))
    terms = dict(sorted_terms(draw(polys(max_terms=3, coeff=coeff))))
    for m, c in sorted_terms(p):
        if draw(st.booleans()):
            terms[m] = terms.get(m, 0) + draw(st.sampled_from((-c, c)))
    return p, MultiPoly(VT, {m: c for m, c in terms.items() if c})


# -- arithmetic ---------------------------------------------------------------


def test_add_inverse_trivial():
    assert (xv(VT, 1) + (-xv(VT, 1))).is_zero()
    assert (xv(VT, 1) - xv(VT, 1)).is_zero()


def test_difference_of_squares_trivial():
    lhs = (xv(VT, 1) - xv(VT, 2)) * (xv(VT, 1) + xv(VT, 2))
    assert lhs == _x(1, 2) - _x(2, 2)


def test_shifted_product_expansion():
    # (x1 + a1)(x1 + a2) = x1^2 + (a1+a2) x1 + a1 a2
    got = (xv(VT, 1) + av(VT, 1)) * (xv(VT, 1) + av(VT, 2))
    want = _x(1, 2) + (av(VT, 1) + av(VT, 2)) * xv(VT, 1) + av(VT, 1) * av(VT, 2)
    assert got == want
    assert factorial_power(VT, 1, 2) == want


def test_vartable_mismatch_raises():
    other = vartable(2, 4)
    with pytest.raises(VarTableMismatch):
        xv(VT, 1) + xv(other, 1)


def _tuple_sum(p, q):
    """Reference sum on dense exponent tuples."""
    out = dict(sorted_terms(p))
    for m, c in sorted_terms(q):
        out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c}


@given(add_operands())
def test_add_matches_tuple_reference(operands):
    p, q = operands
    before = dict(p.terms), dict(q.terms)
    expected = _tuple_sum(p, q)
    for total in (p + q, q + p):
        assert dict(sorted_terms(total)) == expected
        assert all(total.terms.values())        # no zero coefficient stored
    # neither operand is updated in place
    assert (p.terms, q.terms) == before


def test_vartables_are_interned_and_compared_by_identity():
    assert VarTable(2, 3) is vartable(2, 3)
    assert VarTable(2, 3) is not vartable(2, 4)
    assert VarTable.__eq__ is object.__eq__
    assert VarTable.__hash__ is object.__hash__
    vt = vartable(2, 3)
    assert pickle.loads(pickle.dumps(vt)) is vt
    assert copy.copy(vt) is vt and copy.deepcopy(vt) is vt
    p = xv(vt, 1) + 1
    assert copy.deepcopy(p) == p and copy.deepcopy(p).vt is vt
    for n, a_max in ((0, 1), (1, -1)):
        with pytest.raises(ValueError):
            VarTable(n, a_max)
    with pytest.raises(VarTableMismatch):
        xv(VarTable(3, 4), 1) * xv(vartable(3, 5), 1)


def test_add_a_ignores_nonpositive_index():
    base = xv(VT, 1) + av(VT, 2)
    for k in (0, -1, -5):
        assert add_a(base, k) is base
        assert add_a(base, k, sign=-1) is base


def test_add_a_cancelling_term_leaves_no_key():
    for k in range(1, VT.a_max + 1):
        got = add_a(av(VT, k), k, sign=-1)
        assert got.is_zero() and got.terms == {}
    got = add_a(xv(VT, 2) + av(VT, 3), 3, sign=-1)
    assert got == xv(VT, 2) and len(got.terms) == 1


def test_add_a_beyond_retained_range_raises():
    with pytest.raises(AIndexOutOfRange):
        add_a(xv(VT, 1), VT.a_max + 1)


@given(polys(), st.integers(min_value=1, max_value=VT.a_max),
       st.sampled_from((1, -1)))
def test_add_a_matches_general_add(base, k, sign):
    before = dict(base.terms)
    assert add_a(base, k, sign) == base + sign * av(VT, k)
    assert base.terms == before


def test_table_and_constructor_refusals():
    vt = vartable(2, 2)
    assert repr(vt) == "VarTable(n=2, a_max=2)"
    with pytest.raises(ValueError, match="needs 7 exponents, got 3"):
        vt.pack((0, 0, 0))
    with pytest.raises(ValueError, match="only on x/y variables"):
        MultiPoly.var_at(vt, vt.a_pos(1), -1)


def test_mixed_arithmetic_with_numbers():
    vt = vartable(2, 2)
    x1 = xv(vt, 1)
    # a polynomial never equals a bare number, not even the constant 1
    assert (MultiPoly.one(vt) == 1) is False
    assert repr(x1 + Fraction(1, 2)) == "MultiPoly(1 * x1 + 1/2)"
    assert x1 - 3 == x1 + MultiPoly.const(vt, -3)
    assert poly_to_text(x1 - 3) == "1 * x1 + -3"
    assert 3 - x1 == MultiPoly.const(vt, 3) + (-x1)
    assert poly_to_text(3 - x1) == "-1 * x1 + 3"
    assert x1 * 0 == MultiPoly.zero(vt) and (x1 * 0).is_zero()


# -- linear factors -----------------------------------------------------------


def test_linear_factor_matches_uncached_build_and_is_shared():
    vt = vartable(2, 4)
    bases = {(None, 0): MultiPoly.one(vt)}
    for i in (1, 2):
        bases[vt.x_pos(i), 1] = xv(vt, i)
        bases[vt.x_pos(i), -1] = xbar(vt, i)
        bases[vt.y_pos(i), 1] = yv(vt, i)
        bases[vt.y_pos(i), -1] = ybar(vt, i)
    for (slot, exp), base in bases.items():
        for k in range(-1, vt.a_max + 1):
            for sign in (1, -1):
                got = linear_factor(vt, slot, exp, k, sign)
                assert got == add_a(base, k, sign), (slot, exp, k, sign)
                assert linear_factor(vt, slot, exp, k, sign) is got


def _error(call):
    with pytest.raises(Exception) as info:
        call()
    return type(info.value), str(info.value)


def test_linear_factor_range_errors_are_kept_and_not_cached():
    vt = vartable(2, 4)
    before = linear_factor.cache_info().currsize
    # a_k beyond the table: raised by the constructor, as by add_a
    assert _error(lambda: linear_factor(vt, vt.x_pos(1), 1, 5, 1)) == \
        _error(lambda: add_a(xv(vt, 1), 5)) == \
        (AIndexOutOfRange, "a index 5 exceeds retained range 1..4")
    # x/y index beyond the rank: raised by the callers' x_pos/y_pos, as by xv/yv
    x3 = _error(lambda: xv(vt, 3))
    y3 = _error(lambda: yv(vt, 3))
    assert x3 == (ValueError, "x index 3 out of range 1..2")
    assert _error(lambda: cell_weight(vt, "glChar", 2, Entry(3), 1, 1)) == x3
    assert _error(lambda: cell_weight(vt, "spQ", 2, Entry(3, primed=True), 1, 2)) == y3
    assert _error(lambda: _edge_weight("soQ", 2, Entry(3, barred=True), 2, 1, vt)) == x3
    assert _error(lambda: _edge_weight("glQ", 2, Entry(3, primed=True), 2, 2, vt)) == y3
    assert _error(lambda: cell_weight(vt, "glQ", 2, Entry(1), 1, 6)) == \
        _error(lambda: add_a(xv(vt, 1), 5))
    assert linear_factor.cache_info().currsize == before


def test_directly_built_table_hits_the_same_linear_factor_entry():
    vt = vartable(2, 4)
    first = linear_factor(vt, vt.x_pos(1), 1, 2, 1)
    before = linear_factor.cache_info()
    assert linear_factor(VarTable(2, 4), vt.x_pos(1), 1, 2, 1) is first
    after = linear_factor.cache_info()
    assert after.hits == before.hits + 1
    assert after.currsize == before.currsize


def test_linear_factor_is_a_module_level_lru_cache():
    # the benchmark clears every module attribute with cache_info per pass
    assert vars(algebra)["linear_factor"] is linear_factor
    assert callable(linear_factor.cache_info) and callable(linear_factor.cache_clear)


@settings(max_examples=60)
@given(polys(), polys(), polys())
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p * (q + r) == p * q + p * r
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)


@settings(max_examples=60)
@given(polys(), polys())
def test_exact_div_roundtrip(p, q):
    if q.is_zero():
        with pytest.raises(ZeroDivisionError):
            exact_div(p, q)
    else:
        assert exact_div(p * q, q) == p


def test_exact_div_examples():
    assert exact_div(_x(1, 2) - _x(2, 2), xv(VT, 1) - xv(VT, 2)) == \
        xv(VT, 1) + xv(VT, 2)
    p = xv(VT, 1) + 3 * av(VT, 2)
    assert exact_div(p, MultiPoly.one(VT)) == p


def test_exact_div_rational_coefficients():
    vt = vartable(1, 0)
    p = xv(vt, 1) * Fraction(1, 2) + Fraction(1, 3)
    q = xv(vt, 1) + 1
    assert exact_div(p * q, p) == q
    assert exact_div(p * q, q) == p


def test_exact_div_laurent():
    num = _x(1, 2) - _x(1, -2)
    den = xv(VT, 1) - _x(1, -1)
    assert exact_div(num, den) == xv(VT, 1) + _x(1, -1)


def test_exact_div_bialternant_vandermonde():
    # |x_i^{n-j}| equals the product of (x_i - x_j): quotient is exactly 1
    n = 3
    rows = [[_x(i, n - j) for j in range(1, n + 1)] for i in range(1, n + 1)]
    det = perm_determinant(rows, VT)
    vdm = MultiPoly.one(VT)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            vdm = vdm * (xv(VT, i) - xv(VT, j))
    assert exact_div(det, vdm) == MultiPoly.one(VT)


def test_exact_div_detects_remainder():
    with pytest.raises(NonExactDivision):
        exact_div(xv(VT, 1) + xv(VT, 2), xv(VT, 1) - xv(VT, 2))
    with pytest.raises(NonExactDivision):
        exact_div(xv(VT, 1), xv(VT, 1) * av(VT, 1))


def test_rational_coefficients_stay_reduced():
    p = MultiPoly.const(VT, Fraction(2, 4))
    [(mono, c)] = p.terms.items()
    assert c == Fraction(1, 2)
    q = exact_div(xv(VT, 1), MultiPoly.const(VT, 2))
    assert q == MultiPoly.const(VT, Fraction(1, 2)) * xv(VT, 1)


# -- determinants -------------------------------------------------------------


def test_determinant_identity_trivial():
    one, zero = MultiPoly.one(VT), MultiPoly.zero(VT)
    assert determinant([[one, zero], [zero, one]]) == one


def test_determinant_unit_lower_triangular():
    one, zero = MultiPoly.one(VT), MultiPoly.zero(VT)
    m = [[one, zero, zero], [xv(VT, 1), one, zero],
         [av(VT, 1), xv(VT, 2), one]]
    assert determinant(m) == one


def test_determinant_empty_and_errors():
    assert determinant([], vt=VT) == MultiPoly.one(VT)
    with pytest.raises(ValueError):
        determinant([])
    with pytest.raises(ValueError):
        determinant([[MultiPoly.one(VT)], [MultiPoly.one(VT)]])


@settings(max_examples=30)
@given(st.lists(st.lists(coeffs, min_size=3, max_size=3), min_size=3, max_size=3),
       st.integers(min_value=0, max_value=2), st.integers(min_value=0, max_value=2))
def test_determinant_alternating(entries, r1, r2):
    rows = [[MultiPoly.const(VT, c) * xv(VT, (i + j) % 3 + 1)
             + MultiPoly.const(VT, i - j) for j, c in enumerate(row)]
            for i, row in enumerate(entries)]
    swapped = [list(r) for r in rows]
    swapped[r1], swapped[r2] = swapped[r2], swapped[r1]
    d1, d2 = determinant(rows), determinant(swapped)
    if r1 == r2:
        assert d1 == d2
    else:
        assert d1 == -d2


def test_determinant_refuses_mixed_tables():
    other = vartable(1, 1)
    with pytest.raises(VarTableMismatch, match="different variable tables"):
        determinant([[MultiPoly.one(VT), xv(VT, 1)],
                     [MultiPoly.one(other), xv(VT, 2)]])


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=4, max_value=5), st.data())
def test_bareiss_matches_cofactor(k, data):
    rows = [[MultiPoly.const(VT, data.draw(coeffs)) +
             MultiPoly.const(VT, data.draw(coeffs)) * xv(VT, (i * k + j) % 3 + 1)
             for j in range(k)] for i in range(k)]
    assert algebra._det_bareiss(rows, VT) == algebra._det_cofactor(rows, VT)
    assert algebra._det_cofactor(rows, VT) == perm_determinant(rows, VT)


def test_seven_by_seven_determinant_matches_permutation_sum():
    # 7x7 is expanded by cofactors like every other size
    k = 7
    rows = [[MultiPoly.const(VT, (3 * i + 5 * j + i * j) % 7 - 3) +
             MultiPoly.const(VT, (i * i + j) % 3) * xv(VT, (i + j) % 2 + 1)
             for j in range(k)] for i in range(k)]
    assert determinant(rows) == perm_determinant(rows, VT)


@pytest.mark.parametrize("k", [7, 8])
def test_determinant_expands_by_cofactors_at_every_size(k, monkeypatch):
    rows = [[MultiPoly.const(VT, (3 * i + 5 * j + i * j) % 7 - 3) +
             MultiPoly.const(VT, (i * i + j) % 3) * xv(VT, (i + j) % 2 + 1)
             for j in range(k)] for i in range(k)]
    want = algebra._det_bareiss(rows, VT)

    def refuse(rows, vt):
        raise AssertionError("determinant took fraction-free elimination")

    monkeypatch.setattr(algebra, "_det_bareiss", refuse)
    got = determinant(rows)
    assert got == want
    if k == 7:
        assert got == perm_determinant(rows, VT)


# -- sums of products -----------------------------------------------------------


@st.composite
def product_sums(draw):
    """A starting polynomial and up to four signed products of Laurent
    polynomials with int or Fraction coefficients; some products come
    back with their factors swapped and the sign flipped, so that whole
    products cancel, and the factors share monomials, so terms cancel
    across products."""
    coeff = draw(st.sampled_from((coeffs, rationals)))
    factor = polys(max_terms=4, coeff=coeff)
    start = draw(polys(max_terms=4, coeff=coeff))
    prods = draw(st.lists(st.tuples(factor, factor, st.sampled_from((1, -1))),
                          max_size=4))
    for a, b, sign in list(prods):
        if draw(st.booleans()):
            prods.insert(draw(st.integers(min_value=0, max_value=len(prods))),
                         (b, a, -sign))
    return start, prods


@settings(max_examples=80, deadline=None)
@given(product_sums())
def test_accumulated_sum_of_products_matches_mul_and_add(case):
    start, prods = case
    want = start
    for a, b, sign in prods:
        want = want + a * b if sign == 1 else want - a * b
    held = [start] + [p for a, b, _ in prods for p in (a, b)]
    before = [dict(p.terms) for p in held]
    got = algebra._add_products(VT, dict(start.terms),
                                [(a.terms, b.terms, sign) for a, b, sign in prods])
    assert got == want.terms
    assert all(got.values())                    # no zero coefficient stored
    assert [p.terms for p in held] == before    # no operand updated in place


def test_determinant_with_two_equal_rows_is_exactly_zero():
    r = [xv(VT, 1) + av(VT, 1), xbar(VT, 2) - yv(VT, 1), ybar(VT, 3) + 3]
    s = [yv(VT, 2), _x(1, -2) + av(VT, 2), MultiPoly.const(VT, Fraction(1, 2))]
    assert determinant([r, s, r]).terms == {}
    assert determinant([r[:2], r[:2]]).terms == {}
    k = 7
    big = [[xv(VT, (i + j) % 3 + 1) + MultiPoly.const(VT, i * j % 5)
            for j in range(k)] for i in range(k)]
    big[3] = list(big[1])
    assert algebra._det_bareiss(big, VT).terms == {}
    assert determinant(big).terms == {}


def test_out_of_range_products_that_survive_raise():
    top, x1 = _x(1, BIAS - 1), _x(1)
    # x1^BIAS - x2*x3: the out-of-range term survives the sum
    with pytest.raises(ExponentOverflow):
        determinant([[top, _x(2)], [_x(3), x1]])
    # x1^BIAS cancels against one product but a second copy survives
    with pytest.raises(ExponentOverflow):
        algebra._add_products(VT, {}, [(top.terms, x1.terms, 1),
                                       (x1.terms, top.terms, -1),
                                       ((top + _x(2)).terms, x1.terms, 1)])
    # below the range, and past the range in the total degree only
    low, half = _x(1, -BIAS), BIAS // 2
    for a, b in ((low, _x(1, -1)), (_x(1, half), _x(2, half))):
        with pytest.raises(ExponentOverflow):
            algebra._add_products(VT, {}, [(a.terms, b.terms, 1),
                                           (a.terms, _x(3).terms, 1)])


def test_out_of_range_products_that_cancel_completely_give_zero():
    """Forming x1^(BIAS-1) * x1 alone raises ExponentOverflow, but a sum
    of products in which every out-of-range term cancels is an exact zero
    (``_add_products``: a key stands for one exponent vector across all
    products, so a cancelled key had a true zero coefficient)."""
    top, x1 = _x(1, BIAS - 1), _x(1)
    with pytest.raises(ExponentOverflow):
        top * x1
    assert determinant([[top, top], [x1, x1]]) == MultiPoly.zero(VT)
    low = _x(1, -BIAS)
    assert determinant([[low, low], [_x(1, -1), _x(1, -1)]]).is_zero()
    # a surviving in-range term is kept
    got = algebra._add_products(VT, {}, [(top.terms, x1.terms, 1),
                                         (x1.terms, (top + _x(2)).terms, -1)])
    assert got == (-(x1 * _x(2))).terms


def test_sums_of_products_leave_operands_and_cached_factors_unchanged():
    vt = vartable_for(2, 3)
    factors = [linear_factor(vt, vt.x_pos(1), 1, 1, 1),
               linear_factor(vt, vt.y_pos(2), -1, 2, -1),
               linear_factor(vt, None, 0, 3, -1),
               linear_factor(vt, vt.x_pos(2), -1, 0, 1)]
    cells = [cell_weight(vt, kind, 2, e, i, j) for kind in ("glQ", "soQ")
             for e in alphabet(kind, 2) for i, j in ((1, 1), (1, 2), (2, 2))]
    held = factors + cells
    before = [dict(p.terms) for p in held]
    f = factors
    for rows in ([[f[0]]], [[f[0], f[1]], [f[2], f[3]]],
                 [[f[0], f[1], f[2]], [f[3], f[0], f[1]], [f[2], f[3], f[0]]]):
        determinant(rows)
    algebra._add_products(vt, {}, [(f[0].terms, f[1].terms, 1),
                                   (f[2].terms, f[3].terms, -1)])
    sums = [tableau_weight_sum(kind, (2, 1), 2, vt) for kind in ("glQ", "soQ")]
    assert [p.terms for p in held] == before
    assert [tableau_weight_sum(kind, (2, 1), 2, vt)
            for kind in ("glQ", "soQ")] == sums


# -- factorial powers ----------------------------------------------------------


def test_factorial_power_base_cases():
    assert factorial_power(VT, 1, 0) == MultiPoly.one(VT)
    assert factorial_power(VT, 1, 1, barred=True) == _x(1, -1) + av(VT, 1)


def test_factorial_power_at_zero_parameters_is_power():
    zero = MultiPoly.zero(VT)
    bindings = {f"a{k}": zero for k in range(1, VT.a_max + 1)}
    for m in range(4):
        assert specialize(factorial_power(VT, 2, m), bindings) == _x(2, m)
        assert specialize(factorial_power(VT, 2, m, barred=True), bindings) == _x(2, -m)


def test_factorial_power_index_guard():
    with pytest.raises(AIndexOutOfRange):
        factorial_power(VT, 1, VT.a_max + 1)


def test_negative_orders_and_powers_are_refused():
    with pytest.raises(ValueError, match="needs m >= 0"):
        factorial_power(VT, 1, -1)
    with pytest.raises(ValueError, match="nonnegative integer powers"):
        xv(VT, 1) ** -1


# -- series ---------------------------------------------------------------------


def test_series_geometric_expansion():
    s = TruncatedSeries.one(VT, 2).mul_geometric(xv(VT, 1))
    assert s.coeff(0) == MultiPoly.one(VT)
    assert s.coeff(1) == xv(VT, 1)
    assert s.coeff(2) == _x(1, 2)


def test_series_linear_two_terms():
    s = TruncatedSeries.one(VT, 3).mul_linear(yv(VT, 1))
    assert s.coeff(0) == MultiPoly.one(VT)
    assert s.coeff(1) == yv(VT, 1)
    assert s.coeff(2).is_zero() and s.coeff(3).is_zero()
    for step in (s.mul_linear, s.mul_geometric):
        assert step(MultiPoly.zero(VT)).terms == s.terms


def test_series_defining_property():
    # (1 - t v) * expansion of its inverse = 1 up to the truncation order
    v = xv(VT, 1)
    geo = TruncatedSeries.one(VT, 5).mul_geometric(v)
    lin = TruncatedSeries.one(VT, 5).mul_linear(-v)
    prod = geo * lin
    assert prod.coeff(0) == MultiPoly.one(VT)
    for k in range(1, 6):
        assert prod.coeff(k).is_zero()


def test_coeff_of_t_examples():
    geo = TruncatedSeries.one(VT, 3).mul_geometric(xv(VT, 1))
    assert geo.coeff(0) == MultiPoly.one(VT)
    assert geo.coeff(2) == _x(1, 2)
    assert geo.coeff(-1).is_zero()
    assert geo.coeff(99).is_zero()


def test_coeff_of_t_three_factor_product():
    # [t^1] (1+t) / ((1-t x1)(1-t xbar1)) * (1+t a1) = x1 + 1/x1 + 1 + a1
    s = TruncatedSeries.one(VT, 1)
    s = s.mul_linear(MultiPoly.one(VT))
    s = s.mul_geometric(xv(VT, 1))
    s = s.mul_geometric(xbar(VT, 1))
    s = s.mul_linear(av(VT, 1))
    want = xv(VT, 1) + xbar(VT, 1) + MultiPoly.one(VT) + av(VT, 1)
    assert s.coeff(1) == want


@settings(max_examples=25)
@given(st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3))
def test_coeff_independent_of_truncation_order(k, extra):
    def build(order):
        s = TruncatedSeries.one(VT, order)
        s = s.mul_geometric(xv(VT, 1))
        s = s.mul_linear(av(VT, 1))
        s = s.mul_geometric(xv(VT, 2))
        return s
    assert build(k).coeff(k) == build(k + extra).coeff(k)


@st.composite
def series_factors(draw):
    """(kind, factor) pairs, kind "geo" for 1/(1 - t*v) and "lin" for
    1 + t*v, each factor of 1-3 terms with int or Fraction coefficients;
    one factor is drawn again, negated and of either kind, so that terms
    cancel."""
    coeff = draw(st.sampled_from((coeffs, rationals)))
    factor = polys(max_terms=3, coeff=coeff).filter(lambda p: p.n_terms() >= 1)
    kinds = st.sampled_from(("geo", "lin"))
    out = draw(st.lists(st.tuples(kinds, factor), min_size=1, max_size=4))
    i = draw(st.integers(min_value=0, max_value=len(out) - 1))
    out.insert(draw(st.integers(min_value=0, max_value=len(out))),
               (draw(kinds), -out[i][1]))
    return out


def _brute_series_coeff(m, factors):
    """[t^m] of the product of the factors: the sum over exponent choices
    (e >= 0 for "geo", 0 or 1 for "lin") totalling m of the product of
    the powers, in plain MultiPoly arithmetic."""
    total = MultiPoly.zero(VT)
    stack = [(0, m, MultiPoly.one(VT))]
    while stack:
        i, left, acc = stack.pop()
        if i == len(factors):
            if left == 0:
                total = total + acc
            continue
        kind, v = factors[i]
        for e in range(left + 1 if kind == "geo" else min(left, 1) + 1):
            stack.append((i + 1, left - e, acc * v ** e))
    return total


@settings(max_examples=60, deadline=None)
@given(series_factors(), st.integers(min_value=0, max_value=4))
def test_series_kernel_matches_brute_force(factors, order):
    s = TruncatedSeries.one(VT, order)
    for kind, v in factors:
        s = s.mul_geometric(v) if kind == "geo" else s.mul_linear(v)
    for k in range(order + 1):
        assert s.coeff(k) == _brute_series_coeff(k, factors)
    geo = [v for kind, v in factors if kind == "geo"]
    lin = [v for kind, v in factors if kind == "lin"]
    a_limit = min(order, VT.a_max)
    want = _brute_series_coeff(
        order, [("geo", v) for v in geo] + [("lin", v) for v in lin]
        + [("lin", av(VT, k)) for k in range(1, a_limit + 1)])
    assert algebra.gf_coeff(order, geo, lin, a_limit, VT) == want


def test_series_steps_leave_their_inputs_unchanged():
    v = xv(VT, 1) - av(VT, 2)
    s = TruncatedSeries.one(VT, 3).mul_geometric(xv(VT, 1)).mul_linear(yv(VT, 1))
    got = algebra.gf_coeff(2, [xv(VT, 2)], [v], 1, VT)
    built = TruncatedSeries(VT, 3, [MultiPoly.one(VT), got, s.coeff(1), s.coeff(3)])
    held = [s.coeff(k) for k in range(4)] + [got, v]
    before = [dict(p.terms) for p in held]
    series_before = [dict(d) for d in s.terms] + [dict(d) for d in built.terms]
    for series in (s, built):
        series.mul_linear(v)
        series.mul_geometric(v)
    assert [p.terms for p in held] == before
    assert [dict(d) for d in s.terms] + [dict(d) for d in built.terms] == series_before


def test_series_step_leaving_the_range_raises():
    # x1^(BIAS-1) fits; its square, the order-2 coefficient, does not, and
    # at order 3 a further shift would carry past the guard bit
    for order in (2, 3):
        with pytest.raises(ExponentOverflow):
            TruncatedSeries.one(VT, order).mul_geometric(_x(1, BIAS - 1))
    s = TruncatedSeries.one(VT, 1).mul_geometric(_x(1, BIAS - 1))
    assert s.coeff(1) == _x(1, BIAS - 1)


def test_series_refuses_another_table():
    other = vartable(2, 4)
    with pytest.raises(VarTableMismatch):
        TruncatedSeries(VT, 1, [MultiPoly.one(VT), xv(other, 1)])
    s = TruncatedSeries.one(VT, 2)
    for step in (s.mul_linear, s.mul_geometric):
        with pytest.raises(VarTableMismatch):
            step(xv(other, 1))
        with pytest.raises(VarTableMismatch):
            step(MultiPoly.zero(other))


# gf_coeff against the expansion it replaced: every parameter factor
# (1 + t a_k) one mul_linear pass.  a_max = 8 lets a_limit pass m = 6.
GF_VT = vartable(2, 8)


def _gf_reference(m, geometric, linear, a_limit, vt):
    if m < 0:
        return MultiPoly.zero(vt)
    s = TruncatedSeries.one(vt, m)
    for u in geometric:
        s = s.mul_geometric(u)
    for v in linear:
        s = s.mul_linear(v)
    for k in range(1, a_limit + 1):
        s = s.mul_linear(av(vt, k))
    return s.coeff(m)


@st.composite
def gf_factors(draw):
    """A geometric and a linear factor list over GF_VT, each factor a
    monomial, a binomial, a Laurent binomial or the constant 1, with int
    or Fraction coefficients."""
    vt = GF_VT
    coeff = draw(st.sampled_from((coeffs.filter(bool), rationals.filter(bool))))
    xy = st.sampled_from([xv(vt, 1), xv(vt, 2), yv(vt, 1), yv(vt, 2)])
    inv = st.sampled_from([xbar(vt, 1), xbar(vt, 2), ybar(vt, 1), ybar(vt, 2)])
    a = st.integers(min_value=1, max_value=vt.a_max).map(lambda k: av(vt, k))

    @st.composite
    def factor(draw):
        shape = draw(st.sampled_from(("monomial", "binomial", "laurent", "one")))
        if shape == "one":
            return MultiPoly.one(vt)
        head = draw(coeff) * draw(xy)
        if shape == "monomial":
            return head
        return head + draw(coeff) * draw(inv if shape == "laurent" else a)

    return (draw(st.lists(factor(), max_size=2)),
            draw(st.lists(factor(), max_size=2)))


@settings(max_examples=80, deadline=None)
@given(gf_factors(), st.integers(min_value=0, max_value=6), st.data())
def test_gf_coeff_matches_one_pass_per_parameter_factor(factors, m, data):
    geometric, linear = factors
    # a_limit <= 0, below m, at m and beyond it
    a_limit = data.draw(st.sampled_from(sorted(
        {-1, 0, max(m - 1, 0), m, min(m + 2, GF_VT.a_max), GF_VT.a_max})))
    for order in (m, m - 1, m + 1):
        assert algebra.gf_coeff(order, geometric, linear, a_limit, GF_VT) == \
            _gf_reference(order, geometric, linear, a_limit, GF_VT), order


def test_gf_coeff_raises_and_caches_nothing_it_should_not():
    cache = algebra._elementary
    cache.cache_clear()
    other = vartable(3, 8)
    x1 = MultiPoly.var_at(GF_VT, GF_VT.x_pos(1), BIAS - 1)
    # a factor over another table, and a geometric pass leaving the range:
    # both raise before the parameter coefficients are formed
    for geometric, linear in (([xv(other, 1)], []), ([], [MultiPoly.zero(other)]),
                              ([x1], [])):
        with pytest.raises((VarTableMismatch, ExponentOverflow)):
            algebra.gf_coeff(2, geometric, linear, 2, GF_VT)
        with pytest.raises((VarTableMismatch, ExponentOverflow)):
            _gf_reference(2, geometric, linear, 2, GF_VT)
    with pytest.raises(AIndexOutOfRange):
        algebra.gf_coeff(2, [], [], GF_VT.a_max + 1, GF_VT)
    assert cache.cache_info().currsize == 0
    # x1^(BIAS-1) as a linear factor fits; only its product with e_1 in
    # the closing sum leaves the degree range, as in the per-factor passes
    with pytest.raises(ExponentOverflow):
        algebra.gf_coeff(2, [], [x1], 2, GF_VT)
    with pytest.raises(ExponentOverflow):
        _gf_reference(2, [], [x1], 2, GF_VT)
    # what that call did cache is the parameter coefficients, which hold
    # whatever the other factors are
    assert cache.cache_info().currsize == 1
    want = TruncatedSeries.one(GF_VT, 2)
    for k in (1, 2):
        want = want.mul_linear(av(GF_VT, k))
    assert list(cache(2, 2, GF_VT)) == want.terms
    assert algebra.gf_coeff(1, [], [x1], 2, GF_VT) == \
        _gf_reference(1, [], [x1], 2, GF_VT)


def test_truncated_series_refuses_a_bad_order_or_length():
    vt = vartable(2, 2)
    with pytest.raises(ValueError, match="order must be >= 0"):
        TruncatedSeries(vt, -1, [])
    with pytest.raises(ValueError, match="exactly order\\+1 coefficients"):
        TruncatedSeries(vt, 1, [xv(vt, 1)])


# -- substitution -----------------------------------------------------------------


def test_specialize_basics():
    p = xv(VT, 1) + av(VT, 1)
    assert specialize(p, {"a1": MultiPoly.zero(VT)}) == xv(VT, 1)
    assert specialize(xbar(VT, 1), {"x1": xv(VT, 2)}) == _x(2, -1)
    assert specialize(p, {}) == p


def test_specialize_unbound_pass_through():
    p = xv(VT, 1) * yv(VT, 2) + av(VT, 3)
    got = specialize(p, {"a3": MultiPoly.one(VT)})
    assert got == xv(VT, 1) * yv(VT, 2) + 1


def test_specialize_noninvertible_binding():
    with pytest.raises(NonInvertibleBinding):
        specialize(xbar(VT, 1), {"x1": xv(VT, 2) + av(VT, 1)})


def test_specialize_binding_contains_variable():
    with pytest.raises(ValueError):
        specialize(xv(VT, 1), {"x1": xv(VT, 1) + MultiPoly.one(VT)})


def test_specialize_refuses_unknown_names_and_foreign_tables():
    with pytest.raises(VarTableMismatch, match="unknown variable 'zz'"):
        specialize(xv(VT, 1), {"zz": MultiPoly.one(VT)})
    with pytest.raises(VarTableMismatch, match="different variable table"):
        specialize(xv(VT, 1), {"x1": MultiPoly.one(vartable(1, 1))})


def test_specialize_polynomial_binding():
    p = _x(1, 2)
    got = specialize(p, {"x1": xv(VT, 2) + xv(VT, 3)})
    assert got == _x(2, 2) + 2 * xv(VT, 2) * xv(VT, 3) + _x(3, 2)


def test_specialize_cancels_across_terms():
    # x1 a1 + x2 with a1 -> y1 - x2/x1: the two terms of p give x2 with
    # opposite signs, and the sum is the single term x1 y1
    p = xv(VT, 1) * av(VT, 1) + xv(VT, 2)
    got = specialize(p, {"a1": yv(VT, 1) - xv(VT, 2) * xbar(VT, 1)})
    assert got == xv(VT, 1) * yv(VT, 1)
    assert got.n_terms() == 1
    assert specialize(_x(1, 2) - _x(2, 2), {"x1": xv(VT, 2)}).is_zero()


def test_specialize_leaving_the_range_raises():
    y1_inv = ybar(VT, 1)
    fits = _x(1, BIAS - 2) * y1_inv * xv(VT, 2)
    assert specialize(fits, {"x2": xv(VT, 1)}) == _x(1, BIAS - 1) * y1_inv
    with pytest.raises(ExponentOverflow):
        specialize(_x(1, BIAS - 1) * y1_inv * xv(VT, 2), {"x2": xv(VT, 1)})
    with pytest.raises(ExponentOverflow):
        specialize(_x(1, -BIAS) * xv(VT, 2), {"x2": xbar(VT, 1)})
    # (x1 x2 x3 x4)^(BIAS-1) (y1 y2 y3)^(1-BIAS) with y1, y2, y3 -> 1: every
    # exponent fits, but the total degree 4*(BIAS-1) carries past the
    # degree field's guard bit
    vt = vartable(4, 0)
    e = BIAS - 1
    p = MultiPoly(vt, {(e, e, e, e, -e, -e, -e, 0, 0): 1})
    with pytest.raises(ExponentOverflow):
        specialize(p, {f"y{i}": MultiPoly.one(vt) for i in (1, 2, 3)})


def test_specialize_out_of_range_terms_that_cancel_completely_give_zero():
    """x1^(BIAS-1) y1^-1 (x2 - x3) with x2, x3 -> x1: each term alone
    leaves the range in x1, but the two cancel, so the substitution is
    one exact sum (``_add_products``) and gives zero; a third term that
    survives still raises ExponentOverflow."""
    head = _x(1, BIAS - 1) * ybar(VT, 1)
    to_x1 = {"x2": xv(VT, 1), "x3": xv(VT, 1), "a1": xv(VT, 1)}
    assert specialize(head * (xv(VT, 2) - xv(VT, 3)), to_x1) == MultiPoly.zero(VT)
    assert specialize(head * (xv(VT, 2) - xv(VT, 3)) + yv(VT, 2), to_x1) == yv(VT, 2)
    with pytest.raises(ExponentOverflow):
        specialize(head * (xv(VT, 2) - xv(VT, 3) + av(VT, 1)), to_x1)


def test_permute_variables_relabels():
    p = _x(1, 2) * yv(VT, 1) + xbar(VT, 1)
    got = permute_variables(p, {"x1": "x2", "x2": "x1"})
    assert got == _x(2, 2) * yv(VT, 1) + _x(2, -1)


@pytest.mark.parametrize("name", ["t", "a1"])
def test_negative_exponent_off_x_y_refused_when_packing(name):
    vt = vartable(1, 1)
    mono = [0] * vt.size
    mono[vt.index[name]] = -1
    # a zero coefficient does not excuse the monomial
    for c in (1, 0):
        with pytest.raises(ValueError, match="only on x/y"):
            MultiPoly(vt, {tuple(mono): c})
    with pytest.raises(ValueError, match="only on x/y"):
        permute_variables(xbar(vt, 1), {"x1": name, name: "x1"})
    # moving the inverse onto the other Laurent variable stays valid
    assert permute_variables(xbar(vt, 1), {"x1": "y1", "y1": "x1"}) == ybar(vt, 1)


def test_permute_variables_refuses_unknown_and_non_injective_maps():
    p = xv(VT, 1)
    with pytest.raises(VarTableMismatch, match="unknown variable"):
        permute_variables(p, {"zz": "x1"})
    with pytest.raises(ValueError, match="must be injective"):
        permute_variables(p, {"x1": "x2"})


def test_specialize_refuses_to_invert_a_parameter():
    # x1 occurs with exponent -1, so it may be bound only to an invertible
    # monomial; a1 is an ordinary polynomial variable
    vt = vartable(2, 2)
    with pytest.raises(NonInvertibleBinding):
        specialize(xbar(vt, 1), {"x1": av(vt, 1)})


# -- serialisation -----------------------------------------------------------------


def test_json_round_trip_and_canonical_order():
    p = 2 * _x(1, 2) - MultiPoly.const(VT, Fraction(1, 3)) * av(VT, 2) + xbar(VT, 3)
    text = poly_to_json(p)
    again = poly_from_json(VT, text)
    assert again == p
    obj = poly_to_obj(p)
    assert obj["vars"][:3] == ["x1", "x2", "x3"]
    # exponent maps omit zeros, coefficients are num/den in lowest terms
    for term in obj["terms"]:
        assert all(e != 0 for e in term["e"].values())
        num, den = term["c"].split("/")
        assert Fraction(int(num), int(den)) == Fraction(int(num), int(den))
    # graded-lex, leading first: degree-2 x1 term precedes the others
    assert obj["terms"][0]["e"] == {"x1": 2}


@pytest.mark.parametrize("name", ["t", "a1"])
def test_poly_from_obj_refuses_negative_non_laurent_exponent(name):
    vt = vartable(1, 1)
    for c in ("0/1", "1/1"):
        obj = {"vars": list(vt.names), "terms": [{"c": c, "e": {name: -1}}]}
        with pytest.raises(ValueError, match="only on x/y"):
            poly_from_obj(vt, obj)
    # the same exponent on a Laurent variable is a valid serialisation
    obj["terms"][0]["e"] = {"x1": -1}
    assert poly_from_obj(vt, obj) == xbar(vt, 1)


def test_poly_from_obj_refuses_a_repeated_monomial():
    vt = vartable(1, 0)
    obj = {"vars": list(vt.names), "terms": [{"c": "1/1", "e": {"x1": 1}},
                                             {"c": "2/1", "e": {"x1": 1}}]}
    with pytest.raises(ValueError, match="listed twice"):
        poly_from_obj(vt, obj)
    # a zero exponent names the same monomial as its omission
    obj["terms"][1]["e"] = {"t": 0}
    obj["terms"][0]["e"] = {}
    with pytest.raises(ValueError, match="listed twice"):
        poly_from_obj(vt, obj)


def test_poly_from_obj_refuses_foreign_variables():
    vt = vartable(1, 0)
    with pytest.raises(VarTableMismatch, match="variable list does not match"):
        poly_from_obj(vt, {"vars": ["q"], "terms": []})
    with pytest.raises(VarTableMismatch, match="unknown variable 'zz'"):
        poly_from_obj(vt, {"vars": list(vt.names),
                           "terms": [{"c": "1/1", "e": {"zz": 1}}]})


def test_poly_from_obj_refuses_inexact_numbers():
    vt = vartable(1, 0)
    for e in (1.5, "2"):
        with pytest.raises(ValueError, match="not an integer"):
            poly_from_obj(vt, {"vars": list(vt.names),
                               "terms": [{"c": "1/1", "e": {"x1": e}}]})
    with pytest.raises(ValueError, match="zero denominator"):
        poly_from_obj(vt, {"vars": list(vt.names),
                           "terms": [{"c": "1/0", "e": {}}]})
    # an integral float names the same exponent as its int, as parts do
    assert poly_from_obj(vt, {"vars": list(vt.names),
                              "terms": [{"c": "1/1", "e": {"x1": 2.0}}]}) \
        == xv(vt, 1) * xv(vt, 1)


def test_poly_from_obj_reads_only_written_coefficients():
    vt = vartable(1, 0)

    def read(c):
        return poly_from_obj(vt, {"vars": list(vt.names),
                                  "terms": [{"c": c, "e": {"x1": 1}}]})

    # Fraction() reads each of these; poly_to_obj writes none of them
    for c in ("1_0/1", " 1/1", "+1/1", "1/1 ", "1/0_3", "2/4", "1", "0/1",
              "-0/1"):
        with pytest.raises(ValueError, match="nonzero reduced fraction"):
            read(c)
    for c in ("1/-2", "", "/1", "1/"):
        with pytest.raises(ValueError):
            read(c)
    for c in (Fraction(1), Fraction(-3, 2), Fraction(10, 7)):
        text = f"{c.numerator}/{c.denominator}"
        assert read(text) == MultiPoly.const(vt, c) * xv(vt, 1)


def test_json_bytes_stable():
    p = (xv(VT, 1) + av(VT, 1)) * (xv(VT, 2) + av(VT, 2)) - yv(VT, 3)
    assert poly_to_json(p) == poly_to_json(p + MultiPoly.zero(VT))


def test_text_rendering():
    p = 2 * xv(VT, 1) * av(VT, 3) - MultiPoly.one(VT)
    assert poly_to_text(p) == "2 * x1 * a3 + -1"
    assert poly_to_text(MultiPoly.zero(VT)) == "0"


def test_serialisation_of_fractions_negative_coefficients_and_inverses():
    p = (monomial(VT, Fraction(-3, 4), {"x1": -2, "y2": 1, "a3": 2})
         + monomial(VT, -5, {"x2": -1, "y1": -3})
         + monomial(VT, Fraction(7, 2), {"t": 1}))
    assert poly_to_obj(p) == {
        "vars": list(VT.names),
        "terms": [{"c": "7/2", "e": {"t": 1}},
                  {"c": "-3/4", "e": {"x1": -2, "y2": 1, "a3": 2}},
                  {"c": "-5/1", "e": {"x2": -1, "y1": -3}}]}
    assert poly_to_text(p) == ("7/2 * t + -3/4 * x1^-2 * y2 * a3^2"
                               " + -5 * x2^-1 * y1^-3")
    assert poly_from_json(VT, poly_to_json(p)) == p


def test_monomial_constructor_guards():
    assert monomial(VT, 0, {"x1": 1}).is_zero()
    with pytest.raises(ValueError):
        monomial(VT, 1, {"a1": -1})
    with pytest.raises(VarTableMismatch):
        monomial(VT, 1, {"zz": 1})


def test_constructor_drops_zeros_and_stores_integral_fractions_as_int():
    vt = vartable(1, 0)
    zero = MultiPoly(vt, {(1, 0, 0): 0})
    assert zero.is_zero() and not zero.terms
    assert zero == MultiPoly.zero(vt)
    assert poly_to_json(zero) == poly_to_json(MultiPoly.zero(vt))
    assert MultiPoly(vt, {(1, 0, 0): Fraction(0, 3)}).is_zero()
    mixed = MultiPoly(vt, {(1, 0, 0): Fraction(4, 2), (0, 0, 0): 0,
                           (0, 1, 0): Fraction(1, 2)})
    assert mixed == 2 * xv(vt, 1) + Fraction(1, 2) * yv(vt, 1)
    assert sorted(map(type, mixed.terms.values()), key=str) == [Fraction, int]
    assert poly_to_text(mixed) == "2 * x1 + 1/2 * y1"


# tables for the relabel and writer properties: a_max = 0, small ones, and
# vartable(4, 16), whose 26 fields (degree included) are the most this
# package's tables reach in the tests
_WIDE_TABLES = (vartable(1, 0), vartable(2, 0), vartable(1, 1), vartable(2, 3),
                vartable(3, 5), vartable(4, 16))


@st.composite
def wide_polys(draw):
    """Polynomials over one of _WIDE_TABLES: x/y exponents up to
    +-(BIAS - 1), powers of t, int or Fraction coefficients, and about
    half the terms carrying a's (so at_a_zero drops them).  A term whose
    total degree leaves the range is skipped."""
    vt = draw(st.sampled_from(_WIDE_TABLES))
    xy_exp = st.one_of(exponents, st.sampled_from((BIAS - 1, 1 - BIAS)))
    coeff = draw(st.sampled_from((coeffs, rationals)))
    terms = {}
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        mono = [0] * vt.size
        for pos in range(2 * vt.n):
            if draw(st.booleans()):
                mono[pos] = draw(xy_exp)
        if vt.a_max and draw(st.booleans()):
            for k in draw(st.lists(st.integers(min_value=1, max_value=vt.a_max),
                                   min_size=1, max_size=3)):
                mono[vt.a_pos(k)] = draw(st.integers(min_value=1, max_value=3))
        mono[vt.t_pos] = draw(st.sampled_from((0, 0, 1, 2, 7)))
        if -BIAS <= sum(mono) < BIAS:
            terms[tuple(mono)] = draw(coeff)
    return MultiPoly(vt, terms)


def _at_a_zero_by_unpacking(p):
    """at_a_zero as each term's exponent tuple, rebuilt without the a's."""
    vt = p.vt
    lo, hi = 2 * vt.n, 2 * vt.n + vt.a_max
    out = {}
    for key, c in p.terms.items():
        mono = vt.unpack(key)
        if not any(mono[lo:hi]):
            out[mono[:lo] + (mono[vt.t_pos],)] = c
    return MultiPoly(vartable(vt.n, 0), out)


@given(wide_polys())
@settings(max_examples=200)
def test_packed_at_a_zero_matches_unpacking(p):
    before = dict(p.terms)
    got = at_a_zero(p)
    want = _at_a_zero_by_unpacking(p)
    assert got.vt is vartable(p.vt.n, 0)
    assert got == want
    assert [type(got.terms[m]) for m in sorted(got.terms)] == \
        [type(want.terms[m]) for m in sorted(want.terms)]
    assert p.terms == before


def _named_terms(p):
    """(exponents by name, coefficient) per term, leading term first, each
    key decoded field by field."""
    vt = p.vt
    out = []
    for m in sorted(p.terms, reverse=True):
        exps = {name: e for name, e in zip(vt.names, vt.unpack(m)) if e}
        out.append((exps, p.terms[m]))
    return out


def _text_by_named_terms(p):
    if not p.terms:
        return "0"
    return " + ".join(" * ".join([str(c)] + [name if e == 1 else f"{name}^{e}"
                                             for name, e in exps.items()])
                      for exps, c in _named_terms(p))


_constants = st.builds(MultiPoly.const, st.sampled_from(_WIDE_TABLES),
                       st.one_of(coeffs, rationals))


@given(st.one_of(wide_polys(), _constants,
                 st.builds(MultiPoly.zero, st.sampled_from(_WIDE_TABLES))))
@settings(max_examples=200)
def test_writers_match_the_object_and_the_named_terms(p):
    for q in (p, at_a_zero(p)):
        assert poly_to_json(q) == json.dumps(poly_to_obj(q), separators=(",", ":"))
        assert poly_to_text(q) == _text_by_named_terms(q)
        assert poly_from_json(q.vt, poly_to_json(q)) == q


def test_vartable_for_sizing():
    vt = vartable_for(2, 3)
    assert vt.n == 2 and vt.a_max == 3 + 4
    assert vt.names[-1] == "t"
    assert vt.names[0] == "x1" and vt.names[2] == "y1"


# -- packed exponent range ----------------------------------------------------


def _tuple_product(p, q):
    """Reference product on dense exponent tuples."""
    out = {}
    for ma, ca in sorted_terms(p):
        for mb, cb in sorted_terms(q):
            m = tuple(x + y for x, y in zip(ma, mb))
            out[m] = out.get(m, 0) + ca * cb
    return {m: c for m, c in out.items() if c}


@given(polys(), polys())
def test_packed_product_matches_tuple_reference(p, q):
    expected = _tuple_product(p, q)
    got = sorted_terms(p * q)
    assert dict(got) == expected
    assert [m for m, _ in got] == sorted(expected, key=lambda m: (sum(m), m),
                                         reverse=True)


def test_field_offsets_hash_apart():
    """CPython hashes an int by folding it at the Mersenne modulus
    2**k - 1 (k = 61 on 64-bit builds), which maps bit WIDTH*i of a packed
    key onto bit WIDTH*i mod k.  Two fields on adjacent residues let keys
    differing by +2 in one field and -1 in the other hash equal, so for
    every field count up to 25 the offsets must stay at least 2 apart,
    cyclically.  The largest tables this suite builds have 24 fields
    (n = 3 with a_max = 16, n = 4 with a_max = 14)."""
    k = sys.hash_info.modulus.bit_length()
    for fields in range(2, 26):
        offsets = sorted(algebra.WIDTH * i % k for i in range(fields))
        gaps = [(offsets[(j + 1) % fields] - offsets[j]) % k for j in range(fields)]
        assert min(gaps) >= 2, fields


@pytest.mark.parametrize("kind", ["spQ", "soQ"])
def test_tableau_sum_keys_hash_apart(kind):
    p = tableau_weight_sum(kind, (4, 2, 1), 3, vartable_for(3, 4))
    assert p.n_terms() == 10821
    assert len({hash(k) for k in p.terms}) == p.n_terms()


def test_packing_rejects_out_of_range_exponents():
    top = [0] * VT.size
    top[VT.x_pos(1)] = BIAS - 1
    assert MultiPoly(VT, {tuple(top): 1}) == _x(1, BIAS - 1)
    for pos, e in ((VT.x_pos(1), BIAS), (VT.y_pos(2), -BIAS - 1),
                   (VT.a_pos(1), BIAS)):
        mono = [0] * VT.size
        mono[pos] = e
        with pytest.raises(ExponentOverflow):
            MultiPoly(VT, {tuple(mono): 1})
        with pytest.raises(ExponentOverflow):
            MultiPoly.var_at(VT, pos, e)


def test_product_crossing_top_of_range_raises():
    assert poly_to_obj(_x(1, BIAS - 2) * _x(1))["terms"][0]["e"] == {"x1": BIAS - 1}
    with pytest.raises(ExponentOverflow):
        _x(1, BIAS - 1) * _x(1)
    with pytest.raises(ExponentOverflow):
        (_x(1, BIAS - 1) + _x(2)) * (_x(1) + av(VT, 1))


def test_product_crossing_bottom_of_range_raises():
    # the borrow case: the x1 field goes below zero
    assert poly_to_obj(_x(1, -BIAS + 1) * _x(1, -1))["terms"][0]["e"] == {"x1": -BIAS}
    with pytest.raises(ExponentOverflow):
        _x(1, -BIAS) * _x(1, -1)
    with pytest.raises(ExponentOverflow):
        _x(1, -BIAS) * (_x(2) + _x(1, -1))


def test_product_overflowing_only_in_the_first_row_raises():
    # the first term of the smaller operand gives the first row of products
    p = _x(1, BIAS - 1) + _x(2) + _x(3)
    x1, x2_inv = [0] * VT.size, [0] * VT.size
    x1[VT.x_pos(1)], x2_inv[VT.x_pos(2)] = 1, -1
    q = MultiPoly(VT, {tuple(x1): 1, tuple(x2_inv): 1})
    assert next(iter(q.terms)) == next(iter(_x(1).terms))
    assert (p * _x(2, -1)).n_terms() == 3       # the second row fits
    for a, b in ((p, q), (q, p)):
        with pytest.raises(ExponentOverflow):
            a * b


def test_product_overflowing_only_the_total_degree_raises():
    half = BIAS // 2
    fits = _x(1, half) * _x(2, half - 1)
    assert poly_to_obj(fits)["terms"][0]["e"] == {"x1": half, "x2": half - 1}
    with pytest.raises(ExponentOverflow):
        _x(1, half) * _x(2, half)
    with pytest.raises(ExponentOverflow):
        _x(1, -half) * _x(2, -half - 1)


def test_exponent_overflow_exits_2_through_cli(capsys, monkeypatch):
    # a stand-in for character, default route included: the CLI reads the
    # --method default off its entry point's signature
    def huge_power(kind, parts, vt, method="jt"):
        return xv(vt, 1) ** BIAS

    monkeypatch.setattr(cli, "character", huge_power)
    code = cli.main(["char", "--kind", "gl", "--n", "1", "--lambda", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


def test_exact_div_near_the_ends_of_the_range():
    vt = vartable(1, 0)
    x = xv(vt, 1)
    den = xbar(vt, 1) + 1
    assert exact_div(den * x ** (BIAS - 1), den) == x ** (BIAS - 1)
    low = MultiPoly.var_at(vt, vt.x_pos(1), -BIAS)
    assert exact_div(den * x * low, den) == x * low


def test_exact_div_quotient_leaving_the_range_raises():
    vt = vartable(1, 0)
    x = xv(vt, 1)
    low = MultiPoly.var_at(vt, vt.x_pos(1), -BIAS)
    with pytest.raises(ExponentOverflow):
        exact_div(x ** (BIAS - 1), xbar(vt, 1))
    with pytest.raises(ExponentOverflow):
        exact_div(low, x)


def test_exact_div_operand_span_beyond_the_range_raises():
    # each operand is shifted to minimum exponent 0 per x/y variable, so
    # a span of BIAS in one variable, or a shifted total degree that would
    # carry out of the top field, raises instead of wrapping
    vt = vartable(1, 0)
    span = xv(vt, 1) ** (BIAS - 1) + MultiPoly.var_at(vt, vt.x_pos(1), -1)
    with pytest.raises(ExponentOverflow):
        exact_div(span, MultiPoly.one(vt))
    vt = vartable(2, 0)
    # four terms x1^b (x2 y1 y2)^(b + BIAS - 1) t^3 and their rotations over
    # the x/y slots: every shifted term has degree 3*BIAS, which wraps the
    # degree field without setting its guard bit
    b = -BIAS // 2 - 1
    terms = {}
    for pos in range(4):
        mono = [b + BIAS - 1] * 4 + [3]
        mono[pos] = b
        terms[tuple(mono)] = 1
    num = MultiPoly(vt, terms)
    with pytest.raises(ExponentOverflow):
        exact_div(num, MultiPoly.one(vt))
