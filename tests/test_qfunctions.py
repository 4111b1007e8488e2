"""Q-function routes, generating families, recursions, Tokuyama."""

from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charq.algebra import (AIndexOutOfRange, MultiPoly, a_shifted_down, add_a,
                           at_a_zero, av, determinant, specialize, vartable,
                           vartable_for, xbar, xv, ybar, yv)
from charq.characters import h_factorial
from charq.partitions import enumerate_partitions
from charq.qfunctions import (f_mpqn, prefactor, q_determinantal, q_md,
                              q_tableaux, qfunction, qtilde, staircase,
                              verify_tokuyama)
from charq.tableaux import count_tableaux

from oracles import classical_q_brute


def _zero_a(p, vt):
    zero = MultiPoly.zero(vt)
    return specialize(p, {f"a{k}": zero for k in range(1, vt.a_max + 1)})


# -- tableau route examples -----------------------------------------------------


def test_glq_single_box():
    vt = vartable_for(1, 1)
    assert q_tableaux("glQ", (1,), vt) == xv(vt, 1) + yv(vt, 1)


def test_spq_single_box():
    vt = vartable_for(1, 1)
    want = xv(vt, 1) + yv(vt, 1) + xbar(vt, 1) + ybar(vt, 1)
    assert q_tableaux("spQ", (1,), vt) == want
    assert q_determinantal("spQ", (1,), vt) == want


def test_empty_shape():
    vt = vartable_for(2, 0)
    for kind in ("glQ", "spQ", "soQ"):
        assert q_tableaux(kind, (), vt) == MultiPoly.one(vt)
        assert q_determinantal(kind, (), vt) == MultiPoly.one(vt)


def test_strictness_guard():
    vt = vartable_for(2, 2)
    with pytest.raises(ValueError):
        q_tableaux("glQ", (2, 2), vt)
    with pytest.raises(ValueError):
        q_determinantal("glQ", (2, -1), vt)


# -- qtilde -----------------------------------------------------------------------


def test_qtilde_base_and_small():
    vt = vartable_for(2, 3)
    assert qtilde(0, [xv(vt, 1)], [], vt) == MultiPoly.one(vt)
    assert qtilde(-1, [xv(vt, 1)], [], vt).is_zero()
    # one u, one v: the parameter product is empty (m + 1 - 1 - 1 = 0)
    assert qtilde(1, [xv(vt, 1)], [yv(vt, 1)], vt) == xv(vt, 1) + yv(vt, 1)
    # two u, one v: a single parameter survives
    assert qtilde(1, [xv(vt, 1), xv(vt, 2)], [yv(vt, 1)], vt) == \
        xv(vt, 1) + xv(vt, 2) + yv(vt, 1) + av(vt, 1)


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("s", [0, 1, 2, 3])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_qtilde_recursions(r, s, m):
    vt = vartable_for(3, m + r + 1)
    us = [xv(vt, (k % 3) + 1) for k in range(r)]
    vs = [yv(vt, (k % 3) + 1) for k in range(s)]
    # dropping the last geometric factor
    lhs = qtilde(m, us, vs, vt)
    rhs = qtilde(m, us[:-1], vs, vt) + \
        add_a(us[-1], m + r - s - 1) * qtilde(m - 1, us, vs, vt)
    assert lhs == rhs
    # dropping the last linear factor
    if s:
        rhs = qtilde(m, us, vs[:-1], vt) + \
            add_a(vs[-1], m + r - s, sign=-1) * qtilde(m - 1, us, vs[:-1], vt)
        assert lhs == rhs


# -- q_md and f --------------------------------------------------------------------


def test_q_md_examples():
    vt = vartable_for(2, 2)
    assert q_md("glQ", 0, 1, vt) == MultiPoly.one(vt)
    assert q_md("glQ", 1, 1, vt) == \
        xv(vt, 1) + xv(vt, 2) + yv(vt, 2) + av(vt, 1)
    vt1 = vartable_for(1, 2)
    # the soQ unit factor consumes the first parameter slot: no a_1 here
    assert q_md("soQ", 1, 1, vt1) == \
        xv(vt1, 1) + xbar(vt1, 1) + MultiPoly.one(vt1)
    assert q_md("soQ", 2, 1, vt1) == a_shifted_down(_so_printed_q(2, 1, vt1))


def _so_printed_q(m, d, vt):
    """The odd-orthogonal row function with parameter product running to
    a_m; shifting its parameters down once yields the tableau-consistent
    form, which is what q_md returns."""
    from charq.algebra import TruncatedSeries
    s = TruncatedSeries.one(vt, m)
    for i in range(d, vt.n + 1):
        s = s.mul_geometric(xv(vt, i)).mul_geometric(xbar(vt, i))
    for j in range(d + 1, vt.n + 1):
        s = s.mul_linear(yv(vt, j)).mul_linear(ybar(vt, j))
    s = s.mul_linear(MultiPoly.one(vt))
    for k in range(1, m + 1):
        s = s.mul_linear(av(vt, k))
    return s.coeff(m)


def _q_md_brute(kind, m, d, vt):
    """[t^m] of q_md's generating function, expanded by brute force over
    bounded exponents: each geometric factor 1/(1 - t u) gives u^e for
    some 0 <= e <= m, each linear factor (1 + t v) gives 1 or v, and the
    choices whose exponents add up to m are summed.  The factors are
    stated here from the definition: 1/(1 - t x_i) for i = d..n and
    (1 + t y_j) for j = d+1..n, each joined by its inverse (xbar_i,
    ybar_j) for spQ and soQ; for soQ one (1 + t) for the fixed
    eigenvalue; and (1 + t a_k) for k = 1..m, stopping at m - 1 for soQ."""
    n = vt.n
    pairs = ((xv, yv),) if kind == "glQ" else ((xv, yv), (xbar, ybar))
    geometric = [x(vt, i) for i in range(d, n + 1) for x, _ in pairs]
    linear = [y(vt, j) for j in range(d + 1, n + 1) for _, y in pairs]
    if kind == "soQ":
        linear.append(MultiPoly.one(vt))
    limit = m - 1 if kind == "soQ" else m
    linear += [av(vt, k) for k in range(1, limit + 1)]
    total = MultiPoly.zero(vt)
    for exps in product(range(m + 1), repeat=len(geometric)):
        rest = m - sum(exps)
        if rest < 0:
            continue
        for chosen in combinations(linear, rest):
            term = MultiPoly.one(vt)
            for u, e in zip(geometric, exps):
                term = term * u ** e
            for v in chosen:
                term = term * v
            total = total + term
    return total


@pytest.mark.parametrize("kind", ["glQ", "spQ", "soQ"])
def test_q_md_matches_brute_force_expansion(kind):
    for n in (1, 2):
        vt = vartable_for(n, 3)
        for d in range(1, n + 1):
            for m in range(0, 4):
                assert q_md(kind, m, d, vt) == _q_md_brute(kind, m, d, vt), (n, d, m)


def test_f_examples():
    vt = vartable_for(2, 2)
    # order-1 coefficient of the two-flag family: both parameters survive
    assert f_mpqn("glQ", 1, 1, 2, vt) == \
        xv(vt, 1) + xv(vt, 2) + av(vt, 1) + av(vt, 2)
    with pytest.raises(ValueError):
        f_mpqn("glQ", 1, 2, 1, vt)


def test_q_md_reads_the_f_cache_and_raising_calls_cache_nothing():
    vt = vartable_for(2, 2)
    f_mpqn.cache_clear()
    for bad in (lambda: f_mpqn("glQ", 1, 2, 1, vt),
                lambda: f_mpqn("zzQ", 1, 1, 1, vt),
                lambda: q_md("glQ", 1, 3, vt),
                lambda: q_md("glQ", vt.a_max + 1, 1, vt),
                lambda: f_mpqn("glQ", vt.a_max + 1, 1, 1, vt)):
        with pytest.raises((ValueError, AIndexOutOfRange)):
            bad()
    assert q_md("glQ", -1, 1, vt).is_zero()
    assert f_mpqn.cache_info().currsize == 0
    got = q_md("spQ", 2, 1, vt)
    assert f_mpqn("spQ", 2, 1, 1, vt) is got
    assert f_mpqn.cache_info().hits == 1


def _shift_by_specialize(p, vt):
    """The substitution a_k -> a_{k-1}, a_1 -> 0 as a full ``specialize``
    (a table without parameters has nothing to substitute)."""
    bindings = {f"a{k}": av(vt, k - 1) for k in range(2, vt.a_max + 1)}
    if vt.a_max:
        bindings["a1"] = MultiPoly.zero(vt)
    return specialize(p, bindings)


@st.composite
def polys_with_a_ends(draw):
    """A polynomial over a table with a_max 0, 1 or >= 4, whose terms carry
    Laurent x/y exponents, a t power and, often, a_1 or a_max."""
    vt = vartable(2, draw(st.sampled_from((0, 1, 4, 6))))
    coeff = st.one_of(st.integers(min_value=-9, max_value=9),
                      st.fractions(min_value=-3, max_value=3, max_denominator=4))
    terms = {}
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        mono = [draw(st.integers(min_value=-3, max_value=3)) for _ in range(4)]
        mono += [draw(st.integers(min_value=0, max_value=2)) if draw(st.booleans())
                 else 0 for _ in range(vt.a_max)]
        if vt.a_max and draw(st.booleans()):
            mono[4 + draw(st.sampled_from((0, vt.a_max - 1)))] += 1
        mono.append(draw(st.integers(min_value=0, max_value=2)))
        c = draw(coeff)
        if c:
            terms[tuple(mono)] = c
    return MultiPoly(vt, terms), vt


@settings(max_examples=120, deadline=None)
@given(polys_with_a_ends())
def test_shift_a_down_matches_the_specialize_form(case):
    p, vt = case
    assert a_shifted_down(p) == _shift_by_specialize(p, vt)


def test_a_shifted_down_relabels_each_parameter():
    vt = vartable(2, 4)
    assert a_shifted_down(av(vt, 2) * av(vt, 4) + av(vt, 1)) == av(vt, 1) * av(vt, 3)


@pytest.mark.parametrize("kind", ["glQ", "spQ", "soQ"])
def test_f_reduces_to_q_and_h(kind):
    char_kind = {"glQ": "gl", "spQ": "sp", "soQ": "so"}[kind]
    for n in (1, 2, 3):
        for d in range(1, n + 1):
            for m in range(0, 4):
                vt = vartable_for(n, m + n)
                assert f_mpqn(kind, m, d, d, vt) == q_md(kind, m, d, vt)
                h = h_factorial(char_kind, m, d, vt)
                if kind == "soQ":
                    h = a_shifted_down(h)
                assert f_mpqn(kind, m, d, n, vt) == h


@pytest.mark.parametrize("kind", ["glQ", "spQ", "soQ"])
def test_f_difference_relations(kind):
    for n in (2, 3):
        for p in range(1, n):
            for q in range(p + 1, n + 1):
                for m in range(0, 5):
                    vt = vartable_for(n, m + n)
                    lhs = f_mpqn(kind, m, p, q - 1, vt) - \
                        f_mpqn(kind, m, p + 1, q, vt)
                    pref = xv(vt, p) + yv(vt, q)
                    if kind != "glQ":
                        pref = pref + xbar(vt, p) + ybar(vt, q)
                    assert lhs == pref * f_mpqn(kind, m - 1, p, q, vt)


@pytest.mark.parametrize("kind", ["spQ", "soQ"])
def test_diagonal_bridge(kind):
    for n in (1, 2, 3):
        for i in range(1, n + 1):
            for m in range(0, 4):
                vt = vartable_for(n, m + 2)
                xs = [xv(vt, k) for k in range(i, n + 1)]
                xs1 = [xv(vt, k) for k in range(i + 1, n + 1)]
                xb = [xbar(vt, k) for k in range(i, n + 1)]
                ys1 = [yv(vt, k) for k in range(i + 1, n + 1)]
                yb = [ybar(vt, k) for k in range(i, n + 1)]
                yb1 = [ybar(vt, k) for k in range(i + 1, n + 1)]
                extra = [MultiPoly.one(vt)] if kind == "soQ" else []
                lhs = (xv(vt, i) + yv(vt, i)) * \
                    qtilde(m, xs + xb, ys1 + yb + extra, vt) + \
                    (xbar(vt, i) + ybar(vt, i)) * \
                    qtilde(m, xs1 + xb, ys1 + yb1 + extra, vt)
                rhs = prefactor(kind, i, i, vt) * q_md(kind, m, i, vt)
                assert lhs == rhs, (kind, n, i, m)


# -- route agreement ------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["glQ", "spQ", "soQ"])
@pytest.mark.parametrize("n", [1, 2])
def test_routes_agree(kind, n):
    for lam in enumerate_partitions(3, n, strict=True):
        vt = vartable_for(n, lam.first)
        assert q_tableaux(kind, lam, vt) == q_determinantal(kind, lam, vt), \
            (kind, n, lam.parts)


@pytest.mark.parametrize("kind", ["spQ", "soQ"])
def test_routes_agree_under_two_keyed_cells_of_a_lower_row(kind):
    # row 2 keys two cells for row 3, and the second coordinate is raised
    # to the diagonal-group bound the first carries; past the naive
    # per-tableau sum (57,344 spQ tableaux)
    vt = vartable_for(3, 4)
    assert q_tableaux(kind, (4, 3, 2), vt) == q_determinantal(kind, (4, 3, 2), vt)


def _unfactored_determinantal(kind, parts, vt):
    # the route as its definition reads: every row entry carries its
    # flag's prefactor, and every support's determinant is expanded
    total = MultiPoly.zero(vt)
    for support in combinations(range(1, vt.n + 1), len(parts)):
        rows = [[prefactor(kind, d, d, vt) * q_md(kind, m - 1, d, vt)
                 for m in parts] for d in support]
        total = total + determinant(rows, vt=vt)
    return total


@pytest.mark.parametrize("kind", ["glQ", "spQ", "soQ"])
def test_det_route_equals_the_unfactored_support_sum(kind):
    # q_determinantal takes each flag's prefactor out of its row; that
    # must give the sum of the determinants with the prefactors inside
    cases = [(lam.parts, n) for n in (1, 2, 3)
             for lam in enumerate_partitions(3, n, strict=True) if lam.parts]
    if kind == "glQ":
        cases.append(((4, 3, 2, 1), 4))
    for parts, n in cases:
        vt = vartable_for(n, parts[0])
        assert q_determinantal(kind, parts, vt) == \
            _unfactored_determinantal(kind, parts, vt), (kind, n, parts)
    assert len(cases) == (17 if kind == "glQ" else 16)


@pytest.mark.parametrize("kind", ["glQ", "spQ", "soQ"])
def test_tableau_count_is_the_det_route_at_unit_weights(kind):
    # at a = 0 and x = y = 1 every cell weight is 1, so the det route's value
    # there, the sum of its a-free coefficients, counts the tableaux
    cases = 0
    for n in (1, 2, 3):
        for lam in enumerate_partitions(5, n, strict=True):
            if not lam.parts or lam.size > 5:
                continue
            vt = vartable_for(n, lam.first)
            value = sum(at_a_zero(q_determinantal(kind, lam, vt)).terms.values())
            assert count_tableaux(kind, lam, n) == value, (kind, n, lam.parts)
            cases += 1
    assert cases == 23


def test_glq_221_route_example():
    vt = vartable_for(2, 2)
    lhs = q_tableaux("glQ", (2, 1), vt)
    assert lhs == q_determinantal("glQ", (2, 1), vt)
    want = (xv(vt, 1) + yv(vt, 1)) * (xv(vt, 2) + yv(vt, 2)) * \
        (xv(vt, 1) + yv(vt, 2))
    assert lhs == want


def test_qfunction_dispatcher():
    vt = vartable_for(1, 1)
    assert qfunction("glQ", (1,), vt) == qfunction("glQ", (1,), vt, method="tab")
    with pytest.raises(ValueError):
        qfunction("glQ", (1,), vt, method="zzz")


# -- Schur-Q specialisation -------------------------------------------------------------


def test_schur_q_specialisation_single_box():
    for n in (1, 2, 3):
        vt = vartable_for(n, 1)
        p = q_tableaux("glQ", (1,), vt)
        p = _zero_a(p, vt)
        p = specialize(p, {f"y{i}": xv(vt, i) for i in range(1, n + 1)})
        want = MultiPoly.zero(vt)
        for i in range(1, n + 1):
            want = want + 2 * xv(vt, i)
        assert p == want


@pytest.mark.parametrize("lam,n", [((1,), 2), ((2,), 2), ((2, 1), 2), ((2, 1), 3)])
def test_schur_q_specialisation_matches_brute_force(lam, n):
    vt = vartable_for(n, lam[0])
    p = _zero_a(q_tableaux("glQ", lam, vt), vt)
    p = specialize(p, {f"y{i}": xv(vt, i) for i in range(1, n + 1)})
    assert p == classical_q_brute(lam, n, vt)


# -- Tokuyama ------------------------------------------------------------------------------


def test_staircase():
    assert staircase(3) == (3, 2, 1)


def test_tokuyama_trivial_gl():
    vt = vartable_for(1, 1)
    rep = verify_tokuyama("glQ", (), vt)
    assert rep.equal
    assert rep.lhs == xv(vt, 1) + yv(vt, 1)
    assert rep.rhs == rep.lhs


def test_tokuyama_sp_empty_mu():
    vt = vartable_for(1, 1)
    rep = verify_tokuyama("spQ", (), vt)
    assert rep.equal
    assert rep.lhs == xv(vt, 1) + yv(vt, 1) + xbar(vt, 1) + ybar(vt, 1)


def test_tokuyama_gl_mu1_n2():
    vt = vartable_for(2, 3)
    rep = verify_tokuyama("glQ", (1,), vt)
    assert rep.equal
    assert rep.lhs.n_terms() == rep.rhs.n_terms()


@pytest.mark.parametrize("kind", ["glQ", "spQ", "soQ"])
def test_tokuyama_small_grid(kind):
    for n in (1, 2):
        for mu in enumerate_partitions(2, n):
            if mu.size > 2:
                continue
            vt = vartable_for(n, mu.first + n)
            rep = verify_tokuyama(kind, mu, vt)
            assert rep.equal, (kind, n, mu.parts)
            obj = rep.to_obj()
            assert obj["identity"] == "tokuyama" and obj["equal"] is True


def test_tokuyama_report_guards():
    vt = vartable_for(1, 2)
    with pytest.raises(ValueError):
        verify_tokuyama("glQ", (1, 1), vt)
    with pytest.raises(ValueError):
        verify_tokuyama("gl", (1,), vt)
