"""Character routes, h families, one-part expansions, classical limits."""

import random
from itertools import combinations_with_replacement

import pytest

from charq import characters
from charq.algebra import (AIndexOutOfRange, AlgebraError, MultiPoly,
                           NonExactDivision, add_a, av, determinant, exact_div,
                           factorial_power, permute_variables, specialize,
                           vartable, vartable_for, xbar, xv)
from charq.characters import (_def_entry, _ratio_denominator,
                              char_combinatorial, char_definitional,
                              char_flagged_jt, char_hdet, character,
                              h_factorial, h_one_var, h_range,
                              one_part_expansion, ratio_factors, weyl_factor)
from charq.partitions import enumerate_partitions

from oracles import perm_determinant


def _zero_a(p, vt):
    zero = MultiPoly.zero(vt)
    return specialize(p, {f"a{k}": zero for k in range(1, vt.a_max + 1)})


def _ones_x(p, vt):
    one = MultiPoly.one(vt)
    return specialize(p, {f"x{i}": one for i in range(1, vt.n + 1)})


# -- h families ---------------------------------------------------------------


def test_h_base_cases():
    vt = vartable_for(2, 3)
    for kind in ("gl", "sp", "so"):
        assert h_factorial(kind, 0, 1, vt) == MultiPoly.one(vt)
        assert h_factorial(kind, -2, 1, vt).is_zero()


def test_h_one_row_examples():
    vt = vartable_for(1, 1)
    assert h_factorial("gl", 1, 1, vt) == xv(vt, 1) + av(vt, 1)
    assert h_factorial("sp", 1, 1, vt) == xv(vt, 1) + xbar(vt, 1) + av(vt, 1)
    assert h_factorial("so", 1, 1, vt) == \
        xv(vt, 1) + xbar(vt, 1) + MultiPoly.one(vt) + av(vt, 1)


def test_h_single_variable_is_shifted_power():
    vt = vartable_for(3, 4)
    for m in range(5):
        assert h_factorial("gl", m, vt.n, vt) == factorial_power(vt, vt.n, m)
        assert h_one_var("gl", m, 2, vt) == factorial_power(vt, 2, m)


def test_h_index_guard():
    vt = vartable_for(1, 0)  # a_max = 2
    with pytest.raises(AIndexOutOfRange):
        h_factorial("gl", 5, 1, vt)


def test_h_one_var_so_matches_ratio_form():
    # (x (x|a)^m - (xbar|a)^m) / (x - 1) is the row-scaled one-variable value
    vt = vartable_for(1, 4)
    for m in range(4):
        num = xv(vt, 1) * factorial_power(vt, 1, m) \
            - factorial_power(vt, 1, m, barred=True)
        den = xv(vt, 1) - MultiPoly.one(vt)
        assert h_one_var("so", m, 1, vt) == exact_div(num, den)


def test_flag_and_order_guards():
    with pytest.raises(ValueError, match="flag d=3 out of range 1..2"):
        h_factorial("gl", 1, 3, vartable_for(2, 1))
    with pytest.raises(ValueError, match="m must be >= 0"):
        one_part_expansion("gl", -1, vartable_for(2, 1))


# -- route examples ------------------------------------------------------------


def test_char_empty_partition_is_one():
    for n in (1, 2, 3):
        vt = vartable_for(n, 0)
        for kind in ("gl", "sp", "so"):
            assert char_definitional(kind, (), vt) == MultiPoly.one(vt)
            assert char_flagged_jt(kind, (), vt) == MultiPoly.one(vt)


def test_gl_single_box_at_zero_parameters():
    vt = vartable_for(2, 1)
    got = _zero_a(char_definitional("gl", (1,), vt), vt)
    assert got == xv(vt, 1) + xv(vt, 2)


def test_sp_single_box():
    vt = vartable_for(1, 1)
    assert _zero_a(char_definitional("sp", (1,), vt), vt) == \
        xv(vt, 1) + xbar(vt, 1)
    assert char_definitional("sp", (1,), vt) == \
        xv(vt, 1) + xbar(vt, 1) + av(vt, 1)


def test_hdet_one_row_is_shifted_power():
    vt = vartable_for(1, 2)
    assert char_hdet("gl", (2,), vt) == factorial_power(vt, 1, 2)


def test_jt_one_row_is_h():
    for kind in ("gl", "sp", "so"):
        for n in (1, 2):
            for m in (1, 2, 3):
                vt = vartable_for(n, m)
                assert char_flagged_jt(kind, (m,), vt) == h_factorial(kind, m, 1, vt)


def test_gl_column_at_zero_parameters():
    vt = vartable_for(2, 1)
    assert _zero_a(char_flagged_jt("gl", (1, 1), vt), vt) == \
        xv(vt, 1) * xv(vt, 2)


def test_so_single_box_combinatorial():
    vt = vartable_for(1, 1)
    want = xv(vt, 1) + xbar(vt, 1) + MultiPoly.one(vt) + av(vt, 1)
    assert char_combinatorial("so", (1,), vt) == want


def test_character_dispatcher():
    vt = vartable_for(2, 2)
    assert character("gl", (2,), vt) == char_flagged_jt("gl", (2,), vt)
    with pytest.raises(ValueError):
        character("gl", (2,), vt, method="nope")


def test_partition_guards():
    vt = vartable_for(2, 1)
    with pytest.raises(ValueError):
        char_flagged_jt("gl", (1, 1, 1), vt)
    with pytest.raises(ValueError):
        char_flagged_jt("gl", (1, 2), vt)
    with pytest.raises(AIndexOutOfRange):
        char_flagged_jt("gl", (3,), vt)
    with pytest.raises(ValueError):
        char_flagged_jt("su", (1,), vt)


# -- cross-route agreement (small grid; the full grid runs in acceptance) -------


@pytest.mark.parametrize("kind", ["gl", "sp", "so"])
@pytest.mark.parametrize("n", [1, 2])
def test_four_routes_agree(kind, n):
    for lam in enumerate_partitions(2, n):
        vt = vartable_for(n, lam.first)
        a = char_definitional(kind, lam, vt)
        b = char_hdet(kind, lam, vt)
        c = char_flagged_jt(kind, lam, vt)
        d = char_combinatorial(kind, lam, vt)
        assert a == b == c == d, (kind, n, lam.parts)


# -- one-part expansions ----------------------------------------------------------


def test_one_part_gl_example():
    vt = vartable_for(2, 1)
    assert one_part_expansion("gl", 1, vt) == \
        (xv(vt, 1) + av(vt, 1)) + (xv(vt, 2) + av(vt, 2))


def test_one_part_sp_so_examples():
    vt = vartable_for(1, 2)
    assert one_part_expansion("sp", 1, vt) == \
        xv(vt, 1) + xbar(vt, 1) + av(vt, 1)
    assert one_part_expansion("so", 1, vt) == \
        xv(vt, 1) + xbar(vt, 1) + MultiPoly.one(vt) + av(vt, 1)


def _one_part_brute_force(kind, m, vt):
    """The one-part sum by direct enumeration of its weakly increasing
    words: gl's letters are (x_i, offset i); sp's are x_1, xbar_1, ..,
    x_n, xbar_n with offset the letter's number (from 1) less n, so's the
    same offsets plus one; so adds the words of length m - 1 times
    (1 - a_{m+n})."""
    n = vt.n
    if kind == "gl":
        letters = [(xv(vt, i), i) for i in range(1, n + 1)]
    else:
        seq = [(x, k) for k in range(1, n + 1) for x in (xv, xbar)]
        letters = [(x(vt, k), num - n + (kind == "so"))
                   for num, (x, k) in enumerate(seq, 1)]

    def words(length):
        total = MultiPoly.zero(vt)
        for word in combinations_with_replacement(letters, length):
            w = MultiPoly.one(vt)
            for pos, (v, offset) in enumerate(word):
                w = w * add_a(v, offset + pos)
            total = total + w
        return total

    total = words(m)
    if kind == "so" and m:
        total = total + words(m - 1) * (MultiPoly.one(vt) - av(vt, m + n))
    return total


@pytest.mark.parametrize("kind", ["gl", "sp", "so"])
def test_one_part_matches_h(kind):
    for n in (1, 2, 3):
        for m in range(0, 5):
            vt = vartable_for(n, m)
            got = one_part_expansion(kind, m, vt)
            assert got == h_factorial(kind, m, 1, vt), (kind, n, m)
            assert got == _one_part_brute_force(kind, m, vt), (kind, n, m)


@pytest.mark.parametrize("kind", ["gl", "sp", "so"])
def test_one_part_needs_exactly_its_a_range(kind):
    """gl and sp letters index at most a_{m+n-1}; so's tail is
    1 - a_{m+n}.  At that need the expansion is h; one slot short it
    raises instead of truncating."""
    for n in (1, 2, 3):
        for m in (1, 2, 3):
            need = m + n - (kind != "so")
            vt = vartable(n, need)
            assert one_part_expansion(kind, m, vt) == \
                h_factorial(kind, m, 1, vt), (kind, n, m)
            with pytest.raises(AIndexOutOfRange):
                one_part_expansion(kind, m, vartable(n, need - 1))


# -- difference relations and denominators -----------------------------------------


@pytest.mark.parametrize("kind", ["gl", "sp", "so"])
def test_difference_relations(kind):
    for n in (2, 3):
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                for m in range(0, 5):
                    vt = vartable_for(n, m)
                    lhs = h_range(kind, m, i, j - 1, vt) - \
                        h_range(kind, m, i + 1, j, vt)
                    factor = xv(vt, i) - xv(vt, j)
                    if kind != "gl":
                        factor = factor * (MultiPoly.one(vt)
                                           - xbar(vt, i) * xbar(vt, j))
                    assert lhs == factor * h_range(kind, m - 1, i, j, vt)


def test_gl_recursion_in_last_variable():
    from charq.algebra import add_a
    for n in (1, 2, 3):
        for m in range(0, 5):
            vt = vartable_for(n, m)
            full = h_range("gl", m, 1, n, vt)
            rhs = h_range("gl", m, 1, n - 1, vt) + \
                add_a(xv(vt, n), m + n - 1) * h_range("gl", m - 1, 1, n, vt)
            assert full == rhs


def test_gl_denominator_is_vandermonde():
    for n in (2, 3):
        vt = vartable_for(n, 0)
        det = determinant([[h_one_var("gl", n - j, i, vt)
                            for j in range(1, n + 1)]
                           for i in range(1, n + 1)], vt=vt)
        vdm = MultiPoly.one(vt)
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                vdm = vdm * (xv(vt, i) - xv(vt, j))
        assert det == vdm


@pytest.mark.parametrize("kind", ["sp", "so"])
def test_sp_so_denominator_closed_form(kind):
    for n in (2, 3):
        vt = vartable_for(n, 1)
        det = determinant([[h_one_var(kind, n - j, i, vt)
                            for j in range(1, n + 1)]
                           for i in range(1, n + 1)], vt=vt)
        expect = MultiPoly.one(vt)
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                expect = expect * (xv(vt, i) - xv(vt, j)) * \
                    (MultiPoly.one(vt) - xbar(vt, i) * xbar(vt, j))
        assert det == expect
        ddet = determinant([[_def_entry(kind, n - j, i, vt)
                             for j in range(1, n + 1)]
                            for i in range(1, n + 1)], vt=vt)
        scale = MultiPoly.one(vt)
        for i in range(1, n + 1):
            scale = scale * ((xv(vt, i) - xbar(vt, i)) if kind == "sp"
                             else (xv(vt, i) - MultiPoly.one(vt)))
        assert ddet == scale * expect


# -- symmetry and classical limit ----------------------------------------------------


@pytest.mark.parametrize("kind", ["gl", "sp", "so"])
def test_symmetry_under_variable_swap(kind):
    for n in (2, 3):
        for lam in [(1,), (2, 1), (2, 2)]:
            vt = vartable_for(n, lam[0])
            p = char_flagged_jt(kind, lam, vt)
            for a in range(1, n + 1):
                for b in range(a + 1, n + 1):
                    swapped = permute_variables(p, {f"x{a}": f"x{b}",
                                                    f"x{b}": f"x{a}"})
                    assert swapped == p, (kind, n, lam, a, b)


def test_classical_limit_gl_bialternant():
    for n in (1, 2, 3):
        for lam in [(1,), (2,), (2, 1)][: n + 1]:
            if len(lam) > n:
                continue
            vt = vartable_for(n, lam[0])
            full = lam + (0,) * (n - len(lam))
            num = [[MultiPoly.var_at(vt, vt.x_pos(i), full[j - 1] + n - j)
                    for j in range(1, n + 1)] for i in range(1, n + 1)]
            den = [[MultiPoly.var_at(vt, vt.x_pos(i), n - j)
                    for j in range(1, n + 1)] for i in range(1, n + 1)]
            classical = exact_div(perm_determinant(num, vt),
                                  perm_determinant(den, vt))
            assert _zero_a(char_flagged_jt("gl", lam, vt), vt) == classical


# -- determinant ratios by divided differences ----------------------------------


def _ratio_by_expansion(kind, lam, vt, entry):
    """|entry(lam_j + n - j, x_i)| / |entry(n - j, x_i)| by dividing the
    expanded determinants."""
    n = vt.n
    full = tuple(lam) + (0,) * (n - len(lam))
    num = [[entry(kind, full[j - 1] + n - j, i, vt) for j in range(1, n + 1)]
           for i in range(1, n + 1)]
    den = [[entry(kind, n - j, i, vt) for j in range(1, n + 1)]
           for i in range(1, n + 1)]
    return exact_div(determinant(num, vt=vt), determinant(den, vt=vt))


RATIO_SHAPES = ([(n, lam.parts) for n in (1, 2, 3)
                 for lam in enumerate_partitions(2, n)]
                + [(4, (1,)), (4, (2, 1)), (4, (1, 1, 1, 1))])


@pytest.mark.parametrize("kind", ["gl", "sp", "so"])
@pytest.mark.parametrize("n,lam", RATIO_SHAPES, ids=str)
def test_ratio_routes_equal_the_expanded_quotient(kind, n, lam):
    vt = vartable_for(n, lam[0] if lam else 0)
    assert char_definitional(kind, lam, vt) == \
        _ratio_by_expansion(kind, lam, vt, _def_entry)
    assert char_hdet(kind, lam, vt) == \
        _ratio_by_expansion(kind, lam, vt, h_one_var)


@pytest.mark.parametrize("kind", ["gl", "sp", "so"])
def test_four_routes_agree_at_n4_2211(kind):
    vt = vartable_for(4, 2)
    lam = (2, 2, 1, 1)
    jt = char_flagged_jt(kind, lam, vt)
    assert char_definitional(kind, lam, vt) == jt
    assert char_hdet(kind, lam, vt) == jt
    assert char_combinatorial(kind, lam, vt) == jt


@pytest.mark.parametrize("kind, lam, n", [
    ("gl", (3, 2, 1), 7), ("gl", (1,) * 8, 8), ("sp", (2, 1), 7),
    ("so", (2, 1), 7)])
def test_jt_matches_tab_past_rank_six(kind, lam, n):
    # jt takes a determinant of size n, expanded by cofactors like any other
    vt = vartable_for(n, lam[0])
    assert char_flagged_jt(kind, lam, vt) == char_combinatorial(kind, lam, vt)


@pytest.mark.parametrize("kind, lam", [
    ("gl", (1,)), ("sp", (1,)), ("so", (1,)), ("sp", (2, 1))], ids=str)
def test_ratio_routes_match_jt_past_rank_six(kind, lam):
    # the denominator is checked on its reduced, anti-triangular matrix,
    # so no dense 7 x 7 determinant is expanded
    vt = vartable_for(7, lam[0])
    jt = char_flagged_jt(kind, lam, vt)
    assert char_definitional(kind, lam, vt) == jt
    assert char_hdet(kind, lam, vt) == jt


@pytest.fixture
def fresh_ratio_cache():
    _ratio_denominator.cache_clear()
    yield _ratio_denominator
    _ratio_denominator.cache_clear()


def test_ratio_denominator_cache_is_a_cleared_lru_cache(fresh_ratio_cache):
    cache = fresh_ratio_cache
    vt = vartable_for(2, 2)
    char_definitional("sp", (2, 1), vt)
    char_definitional("sp", (1,), vt)
    char_hdet("sp", (2,), vt)
    info = cache.cache_info()
    assert (info.misses, info.hits, info.currsize) == (2, 1, 2)
    cache.cache_clear()
    assert cache.cache_info().currsize == 0


def _flipped(kind, a, b, vt):
    return -weyl_factor(kind, a, b, vt)


def _without_second_factor(kind, a, b, vt):
    return xv(vt, a) - xv(vt, b)


def _without_row_scales(kind, vt, route):
    return [], ratio_factors(kind, vt, route)[1]


@pytest.mark.parametrize("route,kind,name,fake", [
    (char_definitional, "gl", "weyl_factor", _flipped),
    (char_hdet, "sp", "weyl_factor", _flipped),
    (char_definitional, "sp", "weyl_factor", _without_second_factor),
    (char_hdet, "so", "weyl_factor", _without_second_factor),
    (char_definitional, "sp", "ratio_factors", _without_row_scales),
    (char_definitional, "so", "ratio_factors", _without_row_scales),
], ids=lambda v: getattr(v, "__name__", v))
def test_wrong_or_missing_factor_raises(fresh_ratio_cache, monkeypatch,
                                        route, kind, name, fake):
    monkeypatch.setattr(characters, name, fake)
    with pytest.raises(AlgebraError):
        route(kind, (2, 1), vartable_for(2, 2))
    assert fresh_ratio_cache.cache_info().currsize == 0


def _misplaced(kind, vt, route):
    (s1, s2), pairs = ratio_factors(kind, vt, route)
    return [s1 * s2, MultiPoly.one(vt)], pairs


def test_misplaced_factor_fails_an_entry_division(fresh_ratio_cache,
                                                  monkeypatch):
    # the product still equals the denominator, so only the division by
    # the factor of the wrong row can catch it
    monkeypatch.setattr(characters, "ratio_factors", _misplaced)
    with pytest.raises(NonExactDivision):
        char_definitional("sp", (2, 1), vartable_for(2, 2))


@pytest.mark.parametrize("fake,error", [(_misplaced, NonExactDivision),
                                        (_without_row_scales, AlgebraError)],
                         ids=lambda v: v.__name__)
def test_reduced_columns_are_cleared_with_their_factors(
        fresh_ratio_cache, monkeypatch, fake, error):
    # columns reduced by the true factors must not outlive them: after a
    # clear, wrong factors are checked or divided again, never bypassed
    vt = vartable_for(2, 2)
    char_definitional("sp", (2, 1), vt)
    fresh_ratio_cache.cache_clear()
    monkeypatch.setattr(characters, "ratio_factors", fake)
    with pytest.raises(error):
        char_definitional("sp", (2, 1), vt)


@pytest.mark.parametrize("kind", ["gl", "sp", "so"])
def test_each_ratio_column_is_reduced_once_per_table(fresh_ratio_cache,
                                                     monkeypatch, kind):
    n = 3
    vt = vartable_for(n, 2)
    shapes = [lam.parts for lam in enumerate_partitions(2, n)]
    orders = {m + n - j for lam in shapes
              for j, m in enumerate(lam + (0,) * (n - len(lam)), 1)}
    routes = [(char_definitional, "def", _def_entry),
              (char_hdet, "hdet", h_one_var)]
    expected = {(route, lam): _ratio_by_expansion(kind, lam, vt, entry)
                for lam in shapes for route, _, entry in routes}
    # per column: one division per row scale, one per pair factor
    per_column = sum(len(ratio_factors(kind, vt, name)[0]) + n * (n - 1) // 2
                     for _, name, _ in routes)
    divisions = []

    def counted(num, den):
        divisions.append(1)
        return exact_div(num, den)

    monkeypatch.setattr(characters, "exact_div", counted)
    counts = []
    for seed in (1, 2):
        fresh_ratio_cache.cache_clear()
        divisions.clear()
        calls = [(route, lam) for lam in shapes for route, _, _ in routes]
        random.Random(seed).shuffle(calls)
        for route, lam in calls:
            assert route(kind, lam, vt) == expected[route, lam]
        counts.append(len(divisions))
    assert counts == [len(orders) * per_column] * 2


def _one_pair_doubled(kind, a, b, vt):
    p = weyl_factor(kind, a, b, vt)
    return p + p if (a, b) == (1, 2) else p


@pytest.mark.parametrize("kind", ["gl", "sp", "so"])
@pytest.mark.parametrize("route", [char_definitional, char_hdet],
                         ids=lambda v: v.__name__)
def test_a_doubled_factor_fails_the_reduced_denominator(
        fresh_ratio_cache, monkeypatch, route, kind):
    # every division by 2 p(1, 2) is exact, so only the reduced
    # denominator's determinant, 1/2, can catch it
    monkeypatch.setattr(characters, "weyl_factor", _one_pair_doubled)
    with pytest.raises(AlgebraError) as err:
        route(kind, (2, 1), vartable_for(2, 2))
    assert not isinstance(err.value, NonExactDivision)
    assert fresh_ratio_cache.cache_info().currsize == 0


@pytest.mark.parametrize("kind", ["gl", "sp", "so"])
def test_row_scaled_def_entry_is_h_one_var(kind):
    # the identity that makes def and hdet reduce to one matrix
    checked = 0
    for n in range(1, 5):
        vt = vartable_for(n, 3)
        scales = ratio_factors(kind, vt, "def")[0] or [MultiPoly.one(vt)] * n
        for m in range(n + 3):
            for i in range(1, n + 1):
                assert exact_div(_def_entry(kind, m, i, vt), scales[i - 1]) \
                    == h_one_var(kind, m, i, vt)
                checked += 1
    assert checked == 60


@pytest.fixture
def fresh_ratio_caches(fresh_ratio_cache):
    characters._last_det.cache_clear()
    yield fresh_ratio_cache
    characters._last_det.cache_clear()


@pytest.mark.parametrize("kind", ["gl", "sp", "so"])
def test_hdet_shares_no_determinant_with_a_different_matrix(
        fresh_ratio_caches, monkeypatch, kind):
    # hdet's columns of order m >= n doubled: its denominator (orders < n)
    # still passes, and a memo keyed by (kind, table, orders) rather than by
    # the reduced matrix would return def's value
    n = 3

    def doubled(kind, m, i, vt):
        h = h_one_var(kind, m, i, vt)
        return h + h if m >= n else h

    monkeypatch.setitem(characters._RATIO_ENTRIES, "hdet", doubled)
    vt = vartable_for(n, 2)
    value = char_definitional(kind, (2, 1), vt)
    assert char_hdet(kind, (2, 1), vt) == value + value


@pytest.mark.parametrize("kind", ["gl", "sp", "so"])
def test_def_then_hdet_take_one_numerator_determinant(
        fresh_ratio_caches, monkeypatch, kind):
    vt = vartable_for(3, 2)
    for route in ("def", "hdet"):
        _ratio_denominator(kind, vt, route)
    sizes = []

    def counted(rows, *, vt=None):
        sizes.append(len(rows))
        return determinant(rows, vt=vt)

    monkeypatch.setattr(characters, "determinant", counted)
    for lam in [(2, 1), (2,), (1, 1)]:
        assert char_definitional(kind, lam, vt) == char_hdet(kind, lam, vt)
    assert sizes == [3, 3, 3]
