"""Partitions, the six tableau families, weights, and the fused sum."""

import copy
import hashlib
import json
import pickle
from dataclasses import FrozenInstanceError, replace
from itertools import product

import pytest

from charq.algebra import (MultiPoly, av, vartable_for, xbar, xv, ybar, yv)
from charq import tableaux
from charq.characters import char_flagged_jt
from charq.lattice import _edge_weight
from charq.partitions import (Partition, StrictPartition, as_parts,
                              enumerate_partitions)
from charq.tableaux import (ALL_KINDS, Q_KINDS, Entry, ShapeKindMismatch,
                            Tableau, alphabet, cell_weight, check_shape,
                            count_tableaux, entry_from_token, enumerate_tableaux,
                            letter_factor, row_factors, tableau_from_obj,
                            tableau_weight, tableau_weight_sum, validate_tableau)

from oracles import (brute_force_tableaux, dim_sp, partitions_brute,
                     satisfies_rules)


# -- partitions -----------------------------------------------------------


def test_partition_validation():
    assert Partition((3, 1, 0, 0), 3).parts == (3, 1)
    with pytest.raises(ValueError):
        Partition((1, 2), 3)
    with pytest.raises(ValueError):
        Partition((1, 1, 1), 2)
    with pytest.raises(ValueError):
        StrictPartition((2, 2), 3)
    assert StrictPartition((3, 1), 3).size == 4


def test_enumerate_partitions_examples():
    got = [p.parts for p in enumerate_partitions(1, 2)]
    assert got == [(), (1,), (1, 1)]
    got = [p.parts for p in enumerate_partitions(2, 2, strict=True)]
    assert got == [(), (1,), (2,), (2, 1)]


def test_partition_bounds_and_parts_are_refused():
    with pytest.raises(ValueError, match="n_bound must be positive"):
        Partition((1,), 0)
    with pytest.raises(ValueError, match="parts must be nonnegative"):
        Partition((1, -1), 3)
    with pytest.raises(ValueError, match="strict partitions have positive parts"):
        StrictPartition((2, -1), 3)
    with pytest.raises(ValueError, match="max_part must be >= 0"):
        list(enumerate_partitions(-1, 2))


def test_enumerate_partitions_count_against_brute_force():
    got = [p.parts for p in enumerate_partitions(3, 3)]
    # independent oracle: plain triple loop over ordered part values
    triple = {tuple(p for p in (a, b, c) if p)
              for a in range(4) for b in range(a + 1) for c in range(b + 1)}
    assert len(triple) == 20
    assert set(got) == triple and len(got) == 20
    assert got == partitions_brute(3, 3)
    got_strict = [p.parts for p in enumerate_partitions(4, 3, strict=True)]
    assert got_strict == partitions_brute(4, 3, strict=True)


def test_enumerate_partitions_unique_and_lex():
    for strict in (False, True):
        seen = [p.parts for p in enumerate_partitions(4, 4, strict=strict)]
        assert len(seen) == len(set(seen))
        assert seen == sorted(seen)


# -- alphabets and entries ---------------------------------------------------


def test_alphabet_orders():
    assert [e.token for e in alphabet("glChar", 2)] == ["1", "2"]
    assert [e.token for e in alphabet("spChar", 2)] == ["1", "1bar", "2", "2bar"]
    assert [e.token for e in alphabet("soChar", 1)] == ["1", "1bar", "0"]
    assert [e.token for e in alphabet("glQ", 2)] == ["1prime", "1", "2prime", "2"]
    assert [e.token for e in alphabet("spQ", 1)] == \
        ["1prime", "1", "1barprime", "1bar"]
    assert [e.token for e in alphabet("soQ", 1)][-1] == "0prime"


def test_entry_token_round_trip():
    for kind in ALL_KINDS:
        for e in alphabet(kind, 3):
            assert entry_from_token(e.token) == e


def test_unknown_kind_and_bad_tokens_are_refused():
    with pytest.raises(ValueError, match="unknown tableau kind 'zz'"):
        alphabet("zz", 2)
    with pytest.raises(ValueError, match="unknown tableau kind 'zz'"):
        check_shape("zz", (1,), 2)
    with pytest.raises(ValueError, match="bad entry token '0bar'"):
        entry_from_token("0bar")


def test_letters_are_interned():
    # one object per (k, barred, primed, zero), so letters hash by identity
    bar2 = Entry(2, barred=True)
    assert bar2 is entry_from_token("2bar")
    assert bar2 is alphabet("spChar", 2)[3]
    one_bar = Entry(1, barred=1)
    assert one_bar is Entry(1, barred=True) and one_bar.barred is True
    # flags are normalised when a letter is first built, too
    far = Entry(97, barred=1, primed=0)
    assert far.barred is True and far.primed is False and far.zero is False
    assert Entry(0, primed=True, zero=True) is alphabet("soQ", 2)[-1]
    for e in (bar2, one_bar, alphabet("soQ", 1)[-1]):
        assert copy.copy(e) is e
        assert copy.deepcopy(e) is e
        assert pickle.loads(pickle.dumps(e)) is e


def test_letters_are_immutable():
    e = Entry(1)
    for name in ("k", "barred", "primed", "zero"):
        with pytest.raises(AttributeError):
            setattr(e, name, getattr(e, name))
        with pytest.raises(AttributeError):
            delattr(e, name)
    with pytest.raises(AttributeError):
        e.other = 1
    assert (e.k, e.barred, e.primed, e.zero) == (1, False, False, False)


# -- enumeration counts --------------------------------------------------------


def test_counts_trivial():
    assert count_tableaux("glChar", (1,), 2) == 2
    assert count_tableaux("soChar", (1,), 1) == 3
    assert count_tableaux("glChar", (), 2) == 1
    # rank 0 is refused, not counted as the one empty tableau
    with pytest.raises(ValueError, match="rank n must be >= 1"):
        count_tableaux("glChar", (), 0)


def test_sp_count_is_weyl_dimension():
    assert count_tableaux("spChar", (1, 1), 2) == dim_sp((1, 1), 2) == 5


SMALL_GRID = [
    ("glChar", (2, 1), 2), ("glChar", (1, 1), 3),
    ("spChar", (1, 1), 2), ("spChar", (2,), 1),
    ("soChar", (2, 1), 2), ("soChar", (1,), 1),
    ("glQ", (2, 1), 2), ("glQ", (1,), 1),
    ("spQ", (2,), 1), ("spQ", (2, 1), 2),
    ("soQ", (2,), 1), ("soQ", (2, 1), 2),
]

# lower rows of two cells under the diagonal-group floor
FLOOR_GRID = [("spQ", (3, 2), 2), ("soQ", (3, 2), 2)]


@pytest.mark.parametrize("kind,shape,n", SMALL_GRID + FLOOR_GRID)
def test_enumeration_matches_brute_force(kind, shape, n):
    want = brute_force_tableaux(kind, shape, n)
    got = [tuple(tuple(e.token for e in row) for row in t.rows)
           for t in enumerate_tableaux(kind, shape, n)]
    assert sorted(got) == sorted(want)
    assert len(got) == len(set(got))


def test_enumeration_is_lexicographic():
    for kind, shape, n in SMALL_GRID + FLOOR_GRID:
        alpha_rank = {e.token: r for r, e in enumerate(alphabet(kind, n))}
        keys = [tuple(alpha_rank[e.token] for row in t.rows for e in row)
                for t in enumerate_tableaux(kind, shape, n)]
        assert keys == sorted(keys)


@pytest.mark.parametrize("kind,shape,n", SMALL_GRID + FLOOR_GRID)
def test_validate_accepts_every_enumerated(kind, shape, n):
    for t in enumerate_tableaux(kind, shape, n):
        assert validate_tableau(t)


def test_shape_kind_mismatch():
    with pytest.raises(ShapeKindMismatch):
        next(enumerate_tableaux("glQ", (2, 2), 3))
    with pytest.raises(ShapeKindMismatch):
        next(enumerate_tableaux("glChar", (1, 1), 1))


def test_check_shape_never_caches_a_failure():
    for _ in range(3):
        with pytest.raises(ShapeKindMismatch):
            check_shape("glQ", (2, 2), 3)
        assert check_shape("glChar", (2, 2), 3) == (2, 2)
        with pytest.raises(ShapeKindMismatch):
            check_shape("glChar", (1, 1), 1)
        assert check_shape("glChar", (1, 1), 2) == (1, 1)


def test_check_shape_accepts_every_shape_form():
    for _ in range(2):
        assert check_shape("glChar", (2, 1), 2) == (2, 1)
        assert check_shape("glChar", [2, 1], 2) == (2, 1)
        assert check_shape("glChar", Partition((2, 1), 2), 2) == (2, 1)
        assert check_shape("glQ", StrictPartition((2, 1), 2), 2) == (2, 1)
        assert check_shape("glChar", (2, 1, 0, 0), 2) == (2, 1)
        assert check_shape("soQ", (3, 0), 1) == (3,)


def test_non_integer_parts_are_refused():
    vt = vartable_for(2, 2)
    for parts in ((2.5,), (1.7, 0.2), ("2",)):
        with pytest.raises(ValueError, match="must be integers"):
            check_shape("glChar", parts, 2)
        with pytest.raises(ValueError, match="must be integers"):
            Partition(parts, 2)
        with pytest.raises(ValueError, match="must be integers"):
            StrictPartition(parts, 2)
        with pytest.raises(ValueError, match="must be integers"):
            char_flagged_jt("gl", parts, vt)
    # an integral float names the same shape as its int
    assert check_shape("glChar", (2.0,), 2) == (2,)
    assert Partition((2.0,), 2).parts == (2,)
    assert StrictPartition((2.0,), 2).parts == (2,)
    assert char_flagged_jt("gl", (2.0,), vt) == char_flagged_jt("gl", (2,), vt)


# -- validation negatives --------------------------------------------------------


def _tab(kind, n, rows):
    shape = tuple(len(r) for r in rows)
    return Tableau(kind, n, shape,
                   tuple(tuple(entry_from_token(tok) for tok in row)
                         for row in rows))


def test_paper_display_tableaux_are_valid():
    t = _tab("glChar", 4, [("1", "1", "2", "4"), ("2", "3", "3"), ("4", "4", "4")])
    assert validate_tableau(t)
    t = _tab("spChar", 4, [("1", "1bar", "2", "4bar"), ("3bar", "4", "4"),
                           ("4", "4bar", "4bar")])
    assert validate_tableau(t)
    t = _tab("soChar", 4, [("1", "1bar", "2", "4bar"), ("3bar", "4", "0"),
                           ("4", "4bar", "0")])
    assert validate_tableau(t)


def test_column_repeat_is_t3():
    t = _tab("glChar", 2, [("1",), ("1",)])
    rep = validate_tableau(t)
    assert not rep and rep.rule == "T3" and rep.cell == (2, 1)


def test_sp_letter_below_its_row_is_t4():
    t = _tab("spChar", 2, [("1",), ("1bar",)])
    rep = validate_tableau(t)
    assert not rep and rep.rule == "T4" and rep.cell == (2, 1)


def test_so_zero_rules():
    # zeros may stack in a column but not repeat in a row
    col = _tab("soChar", 2, [("1", "0"), ("2", "0")])
    assert validate_tableau(col)
    row = _tab("soChar", 2, [("0", "0")])
    rep = validate_tableau(row)
    assert not rep and rep.rule == "T5"


def test_q_rule_violations():
    rep = validate_tableau(_tab("glQ", 2, [("1prime", "1prime")]))
    assert not rep and rep.rule == "Q4"
    rep = validate_tableau(_tab("glQ", 2, [("1", "1"), ("1",)]))
    assert not rep and rep.rule == "Q3"
    rep = validate_tableau(_tab("spQ", 2, [("1", "1barprime"), ("1bar",)]))
    assert not rep and rep.rule == "Q5"
    rep = validate_tableau(_tab("soQ", 1, [("0prime",)]))
    assert not rep and rep.rule == "Q6"
    # primed entries may stack in a column
    assert validate_tableau(_tab("glQ", 3, [("1", "2prime"), ("2prime",)]))


def test_valid_reports_are_shared_and_invalid_ones_their_own():
    reports = [validate_tableau(t) for t in enumerate_tableaux("spQ", (2, 1), 2)]
    assert len(reports) > 1 and all(r is reports[0] for r in reports)
    valid = reports[0]
    assert valid and valid.ok and valid.rule is None and valid.cell is None
    weak = validate_tableau(_tab("glChar", 2, [("2", "1")]))
    repeat = validate_tableau(_tab("glChar", 2, [("1",), ("1",)]))
    assert not weak and (weak.rule, weak.cell) == ("T1", (1, 2))
    assert not repeat and (repeat.rule, repeat.cell) == ("T3", (2, 1))


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_enumerated_tableaux_are_the_constructors_records(kind):
    # enumeration builds its records without the dataclass __init__
    for t in enumerate_tableaux(kind, (2, 1), 2):
        u = Tableau(t.kind, t.n, t.shape, t.rows)
        assert type(t) is Tableau and vars(t) == vars(u)
        assert t == u and hash(t) == hash(u) and repr(t) == repr(u)
        assert replace(t) == u and replace(t, n=3) == replace(u, n=3)
        for rec in (t, u):
            with pytest.raises(FrozenInstanceError):
                rec.n = 3
            with pytest.raises(FrozenInstanceError):
                del rec.rows


def test_row_decrease_is_flagged():
    rep = validate_tableau(_tab("glChar", 2, [("2", "1")]))
    assert not rep and rep.rule == "T1"


def test_letters_outside_the_alphabet_and_short_rows():
    rep = validate_tableau(_tab("glChar", 2, [("3",)]))
    assert not rep and rep.rule == "alphabet" and rep.cell == (1, 1)
    rep = validate_tableau(_tab("glChar", 2, [("0",)]))
    assert not rep and rep.rule == "alphabet" and rep.cell == (1, 1)
    short = Tableau("glChar", 2, (2,), ((entry_from_token("1"),),))
    rep = validate_tableau(short)
    assert not rep and rep.rule == "shape"
    with pytest.raises(ShapeKindMismatch):
        tableau_from_obj({"kind": "glChar", "shape": [2], "n": 2,
                          "cells": [["1"]]})


def test_entry_from_token_refuses_inexact_tokens():
    # a token is read only if it is exactly the token of the letter it names
    for token in ("01", " 1", "+1", "1_0", "1 bar", "01prime"):
        with pytest.raises(ValueError, match="bad entry token"):
            entry_from_token(token)


def test_tableau_from_obj_refuses_a_non_integer_rank():
    with pytest.raises(ValueError, match="not an integer"):
        tableau_from_obj({"kind": "glChar", "shape": [1], "n": 2.7,
                          "cells": [["1"]]})
    # an integral float names the same rank as its int, as parts do
    assert tableau_from_obj({"kind": "glChar", "shape": [1], "n": 2.0,
                             "cells": [["1"]]}).n == 2


def _fillings(kind, n, shape):
    alpha = alphabet(kind, n)
    for combo in product(alpha, repeat=sum(shape)):
        rows, pos = [], 0
        for length in shape:
            rows.append(tuple(combo[pos:pos + length]))
            pos += length
        yield tuple(rows)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_validate_matches_oracle_on_every_filling(kind):
    # valid or not, every filling of every shape with <= 3 cells, n <= 2
    checked = rejected = 0
    for n in (1, 2):
        for lam in enumerate_partitions(3, n, strict=kind in Q_KINDS):
            if lam.size > 3:
                continue
            for rows in _fillings(kind, n, lam.parts):
                want = satisfies_rules(kind, n, lam.parts,
                                       [[e.token for e in row] for row in rows])
                got = validate_tableau(Tableau(kind, n, lam.parts, rows))
                assert bool(got) == want, (n, rows, got)
                assert (got.rule is None) == want
                checked += 1
                rejected += not want
    assert 0 < rejected < checked


def test_enumeration_output_pinned():
    # every tableau of every shape with parts <= 3 at n <= 3, in order
    h, count = hashlib.sha256(), 0
    for kind in ALL_KINDS:
        for n in (1, 2, 3):
            for lam in enumerate_partitions(3, n, strict=kind in Q_KINDS):
                for t in enumerate_tableaux(kind, lam.parts, n):
                    h.update((json.dumps(t.to_obj(), separators=(",", ":"))
                              + "\n").encode())
                    count += 1
    assert count == 41154
    assert h.hexdigest() == \
        "3b863ef64b6e1c48377c20fe1dbecba17c38698c2d0d5ecb6a9d29851929af82"


def test_validation_reports_pinned():
    # the rule, cell and message of every filling of <= 4 cells at n <= 2
    h, count = hashlib.sha256(), 0
    for kind in ALL_KINDS:
        for n in (1, 2):
            for lam in enumerate_partitions(3, n, strict=kind in Q_KINDS):
                if lam.size > 4:
                    continue
                for rows in _fillings(kind, n, lam.parts):
                    r = validate_tableau(Tableau(kind, n, lam.parts, rows))
                    h.update(repr((r.ok, r.rule, r.cell, r.message)).encode())
                    count += 1
    assert count == 16315
    assert h.hexdigest() == \
        "aaeefac45d4fbd079f718063271aef44fbe897d2a60a6eca0cff61bc756a848f"


# -- weights ------------------------------------------------------------------


def test_figure_weights_gl():
    vt = vartable_for(4, 4)
    t = _tab("glChar", 4, [("1", "1", "2", "4"), ("2", "3", "3"), ("4", "4", "4")])
    want = {
        (1, 1): xv(vt, 1) + av(vt, 1), (1, 2): xv(vt, 1) + av(vt, 2),
        (1, 3): xv(vt, 2) + av(vt, 4), (1, 4): xv(vt, 4) + av(vt, 7),
        (2, 1): xv(vt, 2) + av(vt, 1), (2, 2): xv(vt, 3) + av(vt, 3),
        (2, 3): xv(vt, 3) + av(vt, 4),
        (3, 1): xv(vt, 4) + av(vt, 2), (3, 2): xv(vt, 4) + av(vt, 3),
        (3, 3): xv(vt, 4) + av(vt, 4),
    }
    for (i, j), e in t.cells():
        assert cell_weight(vt, "glChar", 4, e, i, j) == want[(i, j)], (i, j)
    total = MultiPoly.one(vt)
    for w in want.values():
        total = total * w
    assert tableau_weight(t, vt) == total


def test_figure_weights_sp():
    vt = vartable_for(4, 4)
    t = _tab("spChar", 4, [("1", "1bar", "2", "4bar"), ("3bar", "4", "4"),
                           ("4", "4bar", "4bar")])
    want = {
        (1, 1): xv(vt, 1), (1, 2): xbar(vt, 1),
        (1, 3): xv(vt, 2) + av(vt, 1), (1, 4): xbar(vt, 4) + av(vt, 7),
        (2, 1): xbar(vt, 3) + av(vt, 1), (2, 2): xv(vt, 4) + av(vt, 3),
        (2, 3): xv(vt, 4) + av(vt, 4),
        (3, 1): xv(vt, 4) + av(vt, 1), (3, 2): xbar(vt, 4) + av(vt, 3),
        (3, 3): xbar(vt, 4) + av(vt, 4),
    }
    for (i, j), e in t.cells():
        assert cell_weight(vt, "spChar", 4, e, i, j) == want[(i, j)], (i, j)


def test_figure_weights_so():
    vt = vartable_for(4, 4)
    t = _tab("soChar", 4, [("1", "1bar", "2", "4bar"), ("3", "4", "0"),
                           ("4", "4bar", "0")])
    one = MultiPoly.one(vt)
    want = {
        (1, 1): xv(vt, 1), (1, 2): xbar(vt, 1),
        (1, 3): xv(vt, 2) + av(vt, 2), (1, 4): xbar(vt, 4) + av(vt, 8),
        (2, 1): xv(vt, 3) + av(vt, 1), (2, 2): xv(vt, 4) + av(vt, 4),
        (2, 3): one - av(vt, 6),
        (3, 1): xv(vt, 4) + av(vt, 2), (3, 2): xbar(vt, 4) + av(vt, 4),
        (3, 3): one - av(vt, 5),
    }
    for (i, j), e in t.cells():
        assert cell_weight(vt, "soChar", 4, e, i, j) == want[(i, j)], (i, j)


def test_figure_weights_glq():
    vt = vartable_for(4, 6)
    t = _tab("glQ", 4, [("1prime", "1", "2prime", "2", "3prime", "4"),
                        ("2", "3prime", "3", "3"), ("4prime", "4", "4")])
    want = {
        (1, 1): yv(vt, 1), (1, 2): xv(vt, 1) + av(vt, 1),
        (1, 3): yv(vt, 2) - av(vt, 2), (1, 4): xv(vt, 2) + av(vt, 3),
        (1, 5): yv(vt, 3) - av(vt, 4), (1, 6): xv(vt, 4) + av(vt, 5),
        (2, 2): xv(vt, 2), (2, 3): yv(vt, 3) - av(vt, 1),
        (2, 4): xv(vt, 3) + av(vt, 2), (2, 5): xv(vt, 3) + av(vt, 3),
        (3, 3): yv(vt, 4), (3, 4): xv(vt, 4) + av(vt, 1),
        (3, 5): xv(vt, 4) + av(vt, 2),
    }
    for (i, j), e in t.cells():
        assert cell_weight(vt, "glQ", 4, e, i, j) == want[(i, j)], (i, j)


def test_figure_weights_spq():
    vt = vartable_for(4, 6)
    t = _tab("spQ", 4, [("1", "1bar", "2prime", "2barprime", "3", "3"),
                        ("2bar", "2bar", "3", "4prime"), ("4prime", "4", "4bar")])
    assert validate_tableau(t)
    want = [
        [xv(vt, 1), xbar(vt, 1) + av(vt, 1), yv(vt, 2) - av(vt, 2),
         ybar(vt, 2) - av(vt, 3), xv(vt, 3) + av(vt, 4), xv(vt, 3) + av(vt, 5)],
        [xbar(vt, 2), xbar(vt, 2) + av(vt, 1), xv(vt, 3) + av(vt, 2),
         yv(vt, 4) - av(vt, 3)],
        [yv(vt, 4), xv(vt, 4) + av(vt, 1), xbar(vt, 4) + av(vt, 2)],
    ]
    for (i, j), e in t.cells():
        assert cell_weight(vt, "spQ", 4, e, i, j) == want[i - 1][j - i], (i, j)


def test_figure_weights_soq():
    vt = vartable_for(4, 6)
    t = _tab("soQ", 4, [("1", "1bar", "2prime", "2barprime", "3", "0prime"),
                        ("2barprime", "2bar", "3", "4prime"),
                        ("4prime", "4", "0prime")])
    assert validate_tableau(t)
    one = MultiPoly.one(vt)
    want = [
        [xv(vt, 1), xbar(vt, 1) + av(vt, 1), yv(vt, 2) - av(vt, 2),
         ybar(vt, 2) - av(vt, 3), xv(vt, 3) + av(vt, 4), one - av(vt, 5)],
        [ybar(vt, 2), xbar(vt, 2) + av(vt, 1), xv(vt, 3) + av(vt, 2),
         yv(vt, 4) - av(vt, 3)],
        [yv(vt, 4), xv(vt, 4) + av(vt, 1), one - av(vt, 2)],
    ]
    for (i, j), e in t.cells():
        assert cell_weight(vt, "soQ", 4, e, i, j) == want[i - 1][j - i], (i, j)


def test_a_letter_is_marked_when_primed_or_zero():
    for kind in ALL_KINDS:
        for e in alphabet(kind, 3):
            assert e.marked is (e.primed or e.zero), (kind, e)
    assert "marked" in Entry.__slots__


def test_letter_factor_is_a_module_level_lru_cache():
    # the benchmark clears every module attribute with cache_info per pass
    assert vars(tableaux)["letter_factor"] is letter_factor
    assert callable(letter_factor.cache_info) and callable(letter_factor.cache_clear)


@pytest.mark.parametrize("kind", ["glchar", "foo", "bogus"])
def test_weights_refuse_an_unknown_kind(kind):
    vt = vartable_for(2, 2)
    with pytest.raises(ValueError, match="unknown tableau kind"):
        cell_weight(vt, kind, 2, Entry(1), 1, 2)
    with pytest.raises(ValueError, match="unknown tableau kind"):
        _edge_weight(kind, 2, Entry(1), 1, 2, vt)
    with pytest.raises(ValueError, match="unknown tableau kind"):
        row_factors(kind, 2, 1, (Entry(1), Entry(2)), vt)


def test_tableau_weight_rejects_invalid():
    vt = vartable_for(2, 2)
    with pytest.raises(ValueError):
        tableau_weight(_tab("glChar", 2, [("2", "1")]), vt)


# -- fused sum ------------------------------------------------------------------


@pytest.mark.parametrize("kind,shape,n", SMALL_GRID + [
    ("glChar", (), 2), ("soQ", (3, 1), 2), ("spChar", (2, 2, 1), 3),
    # multi-row shapes at n = 3; for spQ/soQ the diagonal-group rule is
    # folded into each row's floors, so keys carry no group coordinate
    ("spQ", (3, 2, 1), 3), ("soQ", (3, 2), 3), ("soChar", (2, 2, 2), 3),
    ("glQ", (3, 1), 3),
    # lower rows of width 3: prefix sums over three rank coordinates, in
    # every family
    ("spChar", (3, 3), 3), ("soChar", (3, 3), 3), ("glQ", (4, 3), 3),
    ("spQ", (4, 3), 2), ("soQ", (4, 3), 2)] + [
    # one-row shapes: row 1's cell-by-cell sum is the whole total
    (kind, (width,), n) for kind in ALL_KINDS for n, width in ((2, 3), (3, 4))] + [
    # 0' is the last soQ letter and may not repeat, so only a one-cell
    # first row could put it on the diagonal
    ("soQ", (1,), 2),
    # first rows with two or more cells past the ones keyed for row 2
    ("glChar", (4, 1), 3), ("spChar", (4, 1), 2), ("soChar", (3, 1), 3),
    ("glQ", (4, 1), 3), ("spQ", (4, 1), 2), ("soQ", (4, 1), 2)] + FLOOR_GRID + [
    # lower rows with a row below them: their threshold keys are formed
    # cell by cell along with their weights
    ("glChar", (3, 2, 1), 4), ("glQ", (4, 2, 1), 3), ("soQ", (3, 2, 1), 3)])
def test_weight_sum_matches_per_tableau_sum(kind, shape, n):
    vt = vartable_for(n, shape[0] if shape else 0)
    naive = MultiPoly.zero(vt)
    for t in enumerate_tableaux(kind, shape, n):
        naive = naive + tableau_weight(t, vt)
    assert tableau_weight_sum(kind, shape, n, vt) == naive


# -- serialisation ----------------------------------------------------------------


def test_tableau_json_round_trip():
    t = _tab("spChar", 4, [("1", "1bar", "2", "4bar"), ("3bar", "4", "4"),
                           ("4", "4bar", "4bar")])
    obj = t.to_obj()
    assert obj["kind"] == "spChar" and obj["shape"] == [4, 3, 3]
    assert obj["cells"][0] == ["1", "1bar", "2", "4bar"]
    assert tableau_from_obj(json.loads(json.dumps(obj))) == t


def test_as_parts_accepts_objects_and_sequences():
    assert as_parts(Partition((2, 1), 3)) == (2, 1)
    assert as_parts([3, 2, 0]) == (3, 2)
