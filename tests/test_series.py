"""Tests for truncated series in t with Laurent-polynomial coefficients in L.

The inversion oracle here is an independent dict-based convolution: geometric
expansions are written out literally and convolved in the test, never through
the module under test.
"""

import random

import pytest

from hyperstab import series
from hyperstab.series import GradedTateSeries, TatePolynomial


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


def as_table(s: GradedTateSeries):
    return {t: dict(p.coeffs) for t, p in s.terms.items()}


def from_table(table, truncation):
    return GradedTateSeries(
        truncation, {t: TatePolynomial(poly) for t, poly in table.items()}
    )


def random_series(rng, truncation, max_t=None, unit=False):
    table = {}
    if unit:
        table[0] = {0: 1}
    top = truncation if max_t is None else max_t
    for t in range(1 if unit else 0, top + 1):
        if rng.random() < 0.6:
            poly = {
                rng.randrange(-6, 7): rng.randrange(-1000, 1001)
                for _ in range(rng.randrange(1, 4))
            }
            table.setdefault(t, {}).update(poly)
    return from_table(table, truncation)


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
# multiplication
# --------------------------------------------------------------------------

def test_multiply_examples():
    T = 4
    one_plus_Lt = from_table({0: {0: 1}, 1: {1: 1}}, T)
    one_minus_Lt = from_table({0: {0: 1}, 1: {1: -1}}, T)
    assert as_table(series.multiply(one_plus_Lt, one_minus_Lt)) == {0: {0: 1}, 2: {2: -1}}

    one = GradedTateSeries.one(T)
    with_t2 = from_table({0: {0: 1}, 2: {1: 1}}, T)
    assert series.multiply(with_t2, one) == with_t2

    one_plus_L2t3 = from_table({0: {0: 1}, 3: {2: 1}}, T)
    product = series.multiply(one_plus_Lt, one_plus_L2t3)
    assert as_table(product) == {0: {0: 1}, 1: {1: 1}, 3: {2: 1}, 4: {3: 1}}


def test_multiply_respects_truncation():
    T = 2
    a = from_table({0: {0: 1}, 2: {1: 5}}, T)
    b = from_table({1: {0: 1}, 2: {2: 7}}, T)
    expected = convolve(as_table(a), as_table(b), T)
    assert as_table(series.multiply(a, b)) == expected


def test_multiply_truncation_mismatch_rejected():
    a = GradedTateSeries.one(3)
    b = GradedTateSeries.one(4)
    with pytest.raises(ValueError):
        series.multiply(a, b)


def test_terms_beyond_truncation_rejected():
    with pytest.raises(ValueError):
        from_table({5: {0: 1}}, 4)
    with pytest.raises(ValueError):
        from_table({-1: {0: 1}}, 4)


def test_a_bool_truncation_is_rejected():
    with pytest.raises(ValueError, match="truncation must be a nonnegative integer"):
        GradedTateSeries(True, {})


def test_a_bool_t_degree_is_rejected():
    with pytest.raises(ValueError, match="t-degree True"):
        GradedTateSeries(3, {True: {1: 1}})


def test_multiply_associative_commutative_random():
    rng = random.Random(20260816)
    for _ in range(40):
        T = rng.randrange(1, 21)
        a = random_series(rng, T)
        b = random_series(rng, T)
        c = random_series(rng, T)
        ab = series.multiply(a, b)
        assert ab == series.multiply(b, a)
        assert series.multiply(ab, c) == series.multiply(a, series.multiply(b, c))


# --------------------------------------------------------------------------
# inversion
# --------------------------------------------------------------------------

def test_invert_unit_geometric_examples():
    inv = series.invert_unit(from_table({0: {0: 1}, 1: {1: 1}}, 3))
    assert as_table(inv) == {0: {0: 1}, 1: {1: -1}, 2: {2: 1}, 3: {3: -1}}

    inv = series.invert_unit(from_table({0: {0: 1}, 3: {2: 1}}, 6))
    assert as_table(inv) == {0: {0: 1}, 3: {2: -1}, 6: {4: 1}}


def test_invert_unit_product_denominator():
    """1/((1+Lt)(1+L^2 t^3)) via the module == product of literal expansions."""
    T = 8
    geo1 = {k: {k: (-1) ** k} for k in range(T + 1)}           # sum (-L)^k t^k
    geo2 = {3 * b: {2 * b: (-1) ** b} for b in range(T // 3 + 1)}  # sum (-L^2)^b t^3b
    expected = convolve(geo1, geo2, T)
    denominator = convolve({0: {0: 1}, 1: {1: 1}}, {0: {0: 1}, 3: {2: 1}}, T)
    inv = series.invert_unit(from_table(denominator, T))
    assert as_table(inv) == expected
    # spot check the t^4 coefficient: L^3 + L^4
    assert inv.terms[4] == TatePolynomial({3: 1, 4: 1})


def test_invert_unit_requires_unit_constant_term():
    with pytest.raises(ValueError):
        series.invert_unit(from_table({0: {0: 2}}, 3))
    with pytest.raises(ValueError):
        series.invert_unit(from_table({1: {0: 1}}, 3))
    with pytest.raises(ValueError):
        series.invert_unit(from_table({0: {0: 1, 1: 1}}, 3))


def test_invert_then_multiply_is_one_random():
    rng = random.Random(20260816)
    for _ in range(100):
        T = rng.randrange(1, 16)
        a = random_series(rng, T, unit=True)
        inv = series.invert_unit(a)
        assert series.multiply(a, inv) == GradedTateSeries.one(T)


# --------------------------------------------------------------------------
# evaluation at integer t
# --------------------------------------------------------------------------

def test_evaluate_t_examples():
    one_plus_Lt = from_table({0: {0: 1}, 1: {1: 1}}, 4)
    assert series.evaluate_t(one_plus_Lt, -1) == TatePolynomial({0: 1, 1: -1})
    assert series.evaluate_t(GradedTateSeries.one(7), 12345) == TatePolynomial({0: 1})


def test_evaluate_t_refuses_a_non_integer_t():
    # 1.5 raised AttributeError before, which no exit code of the CLI covers
    one_plus_Lt = from_table({0: {0: 1}, 1: {1: 1}}, 4)
    for t0 in (1.5, True):
        with pytest.raises(ValueError, match="integer t only"):
            series.evaluate_t(one_plus_Lt, t0)


def test_evaluate_t_ring_homomorphism_below_half_truncation():
    rng = random.Random(20260816)
    for _ in range(30):
        T = rng.randrange(2, 17)
        a = random_series(rng, T, max_t=T // 2)
        b = random_series(rng, T, max_t=T - T // 2 - (T % 2 == 0))
        t0 = rng.randrange(-3, 4)
        lhs = series.evaluate_t(series.multiply(a, b), t0)
        rhs = series.evaluate_t(a, t0) * series.evaluate_t(b, t0)
        assert lhs == rhs

