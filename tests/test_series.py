"""Tests for the series arithmetic: `series.TatePolynomial`, and the in-place
products and quotients by a factor 1 + L^a t^b (`stable._times_factor`) that
the stable table is built with.

A series is a table {t_degree: {L_exponent: coeff}}.  The oracle is an
independent dict-based convolution: geometric expansions are written out
literally and convolved in the test, never through the code under test.
"""

import copy
import random

import pytest

from hyperstab import stable
from hyperstab.ffcount import euler_identity_check
from hyperstab.series import TatePolynomial
from hyperstab.stable import StableCohomologyTable, cohomology_table


# --------------------------------------------------------------------------
# oracle: plain dict convolution of {t_degree: {L_exponent: coeff}} tables
# --------------------------------------------------------------------------

def convolve(a, b, truncation):
    out = {}
    for ta, pa in a.items():
        for tb, pb in b.items():
            t = ta + tb
            if t > truncation:
                continue
            bucket = out.setdefault(t, {})
            for ea, ca in pa.items():
                for eb, cb in pb.items():
                    e = ea + eb
                    bucket[e] = bucket.get(e, 0) + ca * cb
    return {
        t: {e: c for e, c in poly.items() if c}
        for t, poly in out.items()
        if any(poly.values())
    }


def factor(twist, step):
    """1 + L^twist t^step as a table."""
    return {0: {0: 1}, step: {twist: 1}}


def apply(table, top, *factors, divide=False):
    """``table`` times (or over) each (twist, step) factor through ``top``,
    by `stable._times_factor` on a copy, zero entries dropped."""
    rows = copy.deepcopy(table)
    for twist, step in factors:
        stable._times_factor(rows, top, twist, step, divide)
    return {
        t: {e: c for e, c in row.items() if c}
        for t, row in rows.items()
        if any(row.values())
    }


def random_table(rng, truncation, unit=False):
    table = {}
    if unit:
        table[0] = {0: 1}
    for t in range(1 if unit else 0, truncation + 1):
        if rng.random() < 0.6:
            poly = {
                rng.randrange(-6, 7): rng.randrange(-1000, 1001)
                for _ in range(rng.randrange(1, 4))
            }
            table.setdefault(t, {}).update({e: c for e, c in poly.items() if c})
    return {t: poly for t, poly in table.items() if poly}


# --------------------------------------------------------------------------
# TatePolynomial
# --------------------------------------------------------------------------

def test_tate_polynomial_arithmetic():
    L = TatePolynomial({1: 1})
    one = TatePolynomial({0: 1})
    assert L * L == TatePolynomial({2: 1})
    assert (L + one) * (L - one) == TatePolynomial({2: 1, 0: -1})
    assert TatePolynomial({-2: 3}) * TatePolynomial({2: 1}) == TatePolynomial({0: 3})
    assert TatePolynomial({}) == TatePolynomial({5: 0})


def test_tate_polynomial_allows_negative_exponents():
    p = TatePolynomial({-3: 1, 2: -4})
    assert p.coefficient(-3) == 1
    assert p.coefficient(0) == 0


def test_tate_polynomial_division_and_evaluation_refuse_what_is_not_integral():
    num = TatePolynomial({3: 2, 0: 1})
    with pytest.raises(ValueError, match="top coefficient 1 or -1"):
        num.divmod(TatePolynomial())
    with pytest.raises(ValueError, match="top coefficient 1 or -1"):
        num.divide_exact(TatePolynomial({1: 2, 0: 1}))
    with pytest.raises(ValueError, match="negative exponent"):
        TatePolynomial({-1: 1, 2: 1})(3)
    for q in (True, 3.0):
        with pytest.raises(ValueError, match="integer only"):
            num(q)
    assert num(3) == 55 and TatePolynomial()(5) == 0
    assert num.divmod(TatePolynomial({1: -1, 0: 1})) == (
        TatePolynomial({2: -2, 1: -2, 0: -2}),
        TatePolynomial({0: 3}),
    )


# --------------------------------------------------------------------------
# multiplication by 1 + L^a t^b, in decreasing t
# --------------------------------------------------------------------------

def test_multiply_examples():
    T = 4
    one = {0: {0: 1}}
    assert apply(one, T, (1, 1)) == {0: {0: 1}, 1: {1: 1}}
    assert apply(one, T, (1, 1), (1, 1)) == {0: {0: 1}, 1: {1: 2}, 2: {2: 1}}
    assert apply(one, T, (1, 1), (2, 3)) == {0: {0: 1}, 1: {1: 1}, 3: {2: 1}, 4: {3: 1}}
    with_t2 = {0: {0: 1}, 2: {1: 1}}
    assert apply(with_t2, T, (1, 2)) == {0: {0: 1}, 2: {1: 2}, 4: {2: 1}}


def test_multiply_respects_truncation():
    T = 2
    a = {0: {0: 1}, 2: {1: 5}}
    assert apply(a, T, (1, 2)) == convolve(a, factor(1, 2), T) == {0: {0: 1}, 2: {1: 6}}
    assert apply(a, T, (2, 3)) == a
    # nothing is written beyond the truncation
    b = {1: {0: 1}, 2: {2: 7}}
    assert apply(b, T, (1, 1), (3, 2)) == convolve(
        convolve(b, factor(1, 1), T), factor(3, 2), T
    )


def test_multiply_truncation_mismatch_rejected():
    # the Euler check reads the truncation off the table's max_degree and
    # refuses one short of twice its window
    short = StableCohomologyTable(max_degree=5, rows={0: {0: 1}})
    with pytest.raises(ValueError, match="truncation >= 6"):
        euler_identity_check(2, short)
    euler_identity_check(2, StableCohomologyTable(max_degree=6, rows={0: {0: 1}}))


def test_terms_beyond_truncation_rejected(monkeypatch):
    """The assembly pairs no layer beyond the truncation, and no table has a
    row beyond it, in either regime."""
    pairings = stable.type_pairings
    tops = []

    def recording(k1, k2, h, top_layer=None):
        tops.append(3 * k1 + k2 + 4 * h + top_layer)
        return pairings(k1, k2, h, top_layer)

    monkeypatch.setattr(stable, "type_pairings", recording)
    for T in (0, 3, 8, 13):
        del tops[:]
        for n in (0, 1):
            table = cohomology_table(n, T)
            assert table.max_degree == T
            assert set(table.rows) <= set(range(T + 1)), (n, T)
        assert set(tops) <= {T}, T


def test_a_bool_truncation_is_rejected():
    for n in (0, 1):
        with pytest.raises(ValueError, match="max_degree must be a nonnegative integer"):
            cohomology_table(n, True)


def test_multiply_associative_commutative_random():
    rng = random.Random(20260816)
    for _ in range(40):
        T = rng.randrange(1, 21)
        a = random_table(rng, T)
        f = (rng.randrange(-3, 4), rng.randrange(1, 4))
        g = (rng.randrange(-3, 4), rng.randrange(1, 4))
        fg = apply(a, T, f, g)
        assert fg == apply(a, T, g, f)
        assert fg == convolve(a, convolve(factor(*f), factor(*g), T), T)


# --------------------------------------------------------------------------
# division by 1 + L^a t^b, in increasing t
# --------------------------------------------------------------------------

def test_invert_unit_geometric_examples():
    one = {0: {0: 1}}
    assert apply(one, 3, (1, 1), divide=True) == {
        0: {0: 1}, 1: {1: -1}, 2: {2: 1}, 3: {3: -1}
    }
    assert apply(one, 6, (2, 3), divide=True) == {0: {0: 1}, 3: {2: -1}, 6: {4: 1}}


def test_invert_unit_product_denominator():
    """1/((1+Lt)(1+L^2 t^3)) in place == product of literal expansions."""
    T = 8
    geo1 = {k: {k: (-1) ** k} for k in range(T + 1)}           # sum (-L)^k t^k
    geo2 = {3 * b: {2 * b: (-1) ** b} for b in range(T // 3 + 1)}  # sum (-L^2)^b t^3b
    expected = convolve(geo1, geo2, T)
    inv = apply({0: {0: 1}}, T, (1, 1), (2, 3), divide=True)
    assert inv == expected
    # spot check the t^4 coefficient: L^3 + L^4
    assert inv[4] == {3: 1, 4: 1}


def test_invert_then_multiply_is_one_random():
    rng = random.Random(20260816)
    for _ in range(100):
        T = rng.randrange(1, 16)
        a = random_table(rng, T, unit=rng.random() < 0.5)
        factors = [(rng.randrange(-3, 4), rng.randrange(1, 4)) for _ in range(2)]
        quotient = apply(a, T, *factors, divide=True)
        assert apply(quotient, T, *factors) == a
        assert convolve(quotient, convolve(*(factor(*f) for f in factors), T), T) == a


# --------------------------------------------------------------------------
# evaluation at t = -1, in the Euler check
# --------------------------------------------------------------------------

def test_evaluate_t_examples():
    # (1 + L) times the table at t = -1, through the window L^0..L^2
    one_plus_Lt = StableCohomologyTable(max_degree=4, rows={0: {0: 1}, 1: {1: 1}})
    assert euler_identity_check(1, one_plus_Lt)["lhs"] == {0: 1, 1: 0, 2: -1}
    one = StableCohomologyTable(max_degree=12, rows={0: {0: 1}})
    assert euler_identity_check(4, one)["lhs"] == {0: 1, 1: 1, 2: 0, 3: 0, 4: 0, 5: 0, 6: 0}
