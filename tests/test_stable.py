"""Tests for the stable cohomology table, the series built in one pass.

The 19-row table frozen below is the reference ground truth this assembly
must hit exactly; everything else (the completeness of the type enumeration,
truncation consistency, the positive-n factor) is checked against independent
recomputation, chiefly the literal expansion: the numerator from
`type_pairings` convolved with the geometric series of 1/(1+Lt) and
1/(1+L^2 t^3) written out term by term.
"""

import hashlib

import pytest

from test_series import convolve

from hyperstab import cli, linalg, m0n, spectral, stable
from hyperstab.series import TatePolynomial
from hyperstab.stable import cohomology_table, stable_series, type_pairings
from hyperstab.symfunc import CharacterVector, hall_inner_product_induced, partitions

# degree -> {twist exponent: multiplicity}; omitted degrees are zero
REFERENCE_ROWS = {
    0: {0: 1},
    8: {6: 1},
    9: {7: 1},
    12: {9: 1, 10: 1},
    13: {10: 1, 11: 1},
    14: {11: 1},
    15: {12: 2},
    16: {12: 2, 13: 2, 14: 1},
    17: {13: 3, 14: 2, 15: 1},
    18: {14: 2, 15: 3},
}


STABLE_30_SHA256 = "c9e64685d9d51c3953e639dfd3607e570aab4b315bf11286f9d539be69f96f69"


def literal_expansion(n: int, top: int, numerator: dict) -> dict:
    """1 + numerator / ((1+Lt)(1+L^2 t^3)), times 1+Lt^2 when n > 0, through
    t = top, from the geometric sums written out literally."""
    geo1 = {k: {k: (-1) ** k} for k in range(top + 1)}              # sum (-L)^k t^k
    geo2 = {3 * b: {2 * b: (-1) ** b} for b in range(top // 3 + 1)}  # sum (-L^2)^b t^3b
    quotient = convolve(convolve(numerator, geo1, top), geo2, top)
    series = {0: {0: 1}, **quotient}  # the numerator starts at t^3
    if n > 0:
        series = convolve(series, {0: {0: 1}, 2: {1: 1}}, top)
    return series


def numerator_through(top: int) -> dict:
    """The numerator: layer i of each type (k1, k2, h) with n = k1+k2+h >= 3,
    at t^{3k1+k2+4h+i} L^{2k1+k2+3h+i}, every layer paired."""
    numerator = {}
    for k1 in range(top // 3 + 1):
        for k2 in range(top + 1):
            for h in range(top // 4 + 1):
                if k1 + k2 + h < 3 or 3 * k1 + k2 + 4 * h > top:
                    continue
                for i, mult in type_pairings(k1, k2, h).items():
                    t, e = 3 * k1 + k2 + 4 * h + i, 2 * k1 + k2 + 3 * h + i
                    if t <= top:
                        row = numerator.setdefault(t, {})
                        row[e] = row.get(e, 0) + mult
    return numerator


# --------------------------------------------------------------------------
# numerator terms
# --------------------------------------------------------------------------

def test_type_pairings_equal_the_layer_route():
    """Every type with n <= 8: the Hall pairing of each M_{0,n} layer."""
    for n in range(3, 9):
        layers = m0n.equivariant_poincare_m0n(n)
        for k1 in range(n + 1):
            for k2 in range(n + 1 - k1):
                h = n - k1 - k2
                pairs = {
                    i: hall_inner_product_induced(layer, k1, k2, h)
                    for i, layer in layers.items()
                }
                expected = {i: mult for i, mult in pairs.items() if mult}
                assert type_pairings(k1, k2, h) == expected, (k1, k2, h)
                for top in range(-1, n - 2):
                    assert type_pairings(k1, k2, h, top) == {
                        i: mult for i, mult in expected.items() if i <= top
                    }, (k1, k2, h, top)


def test_layer_zero_pairings_need_no_layers(monkeypatch):
    """With top_layer 0, every type with n <= 12 pairs the trivial character
    as it pairs H^0 of the layer route, without calling that route."""
    expected = {}
    for n in range(3, 13):
        h0 = m0n.equivariant_poincare_m0n(n)[0]
        for k1 in range(n + 1):
            for k2 in range(n + 1 - k1):
                mult = hall_inner_product_induced(h0, k1, k2, n - k1 - k2)
                expected[k1, k2, n - k1 - k2] = {0: mult} if mult else {}

    def no_layers(n):
        raise AssertionError(f"the layers of M_(0,{n}) were asked for")

    monkeypatch.setattr(stable, "equivariant_poincare_m0n", no_layers)
    for (k1, k2, h), pairings in expected.items():
        assert type_pairings(k1, k2, h, 0) == pairings, (k1, k2, h)


def test_type_pairings_reject_invalid_types():
    with pytest.raises(ValueError, match="nonnegative"):
        type_pairings(-1, 2, 2)
    with pytest.raises(ValueError, match="fewer than 3"):
        type_pairings(1, 1, 0)


def test_type_pairings_reject_bools_and_non_integers():
    for components in ((1.0, 1, 1), (True, 1, 1), (1, 1, 1.5)):
        with pytest.raises(ValueError, match="nonnegative integers"):
            type_pairings(*components)


def test_numerator_term_examples():
    """The numerator terms of three types: (1,1,1) gives L^6 t^8, (2,2,0)
    L^7 t^9, and (0,3,0) nothing; with (0,1,2), also at L^7 t^9, they are
    the numerator through t^9."""
    assert type_pairings(1, 1, 1) == {0: 1}
    assert type_pairings(0, 3, 0) == {}
    assert type_pairings(2, 2, 0) == {1: 1}
    assert type_pairings(0, 1, 2) == {0: 1}
    assert numerator_through(9) == {8: {6: 1}, 9: {7: 2}}


def test_numerator_term_rejects_a_negative_pairing(monkeypatch):
    monkeypatch.setattr(stable, "hall_inner_product_induced", lambda *args: -1)
    with pytest.raises(ArithmeticError, match="negative layer multiplicity"):
        type_pairings(1, 1, 1)
    with pytest.raises(ArithmeticError, match="negative layer multiplicity"):
        stable_series(8)


# --------------------------------------------------------------------------
# the stable series, n = 0
# --------------------------------------------------------------------------

def test_stable_series_low_degree_coefficients():
    s = stable_series(12)
    assert s.classes(0) == {0: 1}
    for t in range(1, 8):
        assert s.classes(t) == {}, t
    assert s.classes(8) == {6: 1}
    assert s.classes(12) == {9: 1, 10: 1}


def test_stable_series_rejects_a_bool_degree():
    # True passed as an int before, and the series came back truncated at True
    with pytest.raises(ValueError, match="max_degree must be a nonnegative integer"):
        stable_series(True)


def test_reference_example_rows_exact():
    table = cohomology_table(0, 18)
    assert table.max_degree == 18
    for i in range(19):
        assert table.rows.get(i, {}) == REFERENCE_ROWS.get(i, {}), f"degree {i}"


def test_evaluate_at_minus_one_low_degrees():
    value = {}
    for t, row in stable_series(10).rows.items():
        for e, mult in row.items():
            value[e] = value.get(e, 0) + (-1) ** t * mult
    assert TatePolynomial(value) == TatePolynomial({0: 1, 6: 1, 7: -1})


def test_configuration_types_are_complete_for_the_truncation():
    """Every type with 3k1+k2+4h <= 10 enters stable_series(10); a type with
    10 < 3k1+k2+4h <= 14 is left out and would add nothing."""
    def types(low, high):
        return {
            (k1, k2, h)
            for k1 in range(high // 3 + 1)
            for k2 in range(high + 1)
            for h in range(high // 4 + 1)
            if k1 + k2 + h >= 3 and low < 3 * k1 + k2 + 4 * h <= high
        }

    assert set(stable._configuration_types(10)) == types(-1, 10)
    beyond = types(10, 14)
    assert len(beyond) == 45
    # the literal expansion over every type through 14, cut at 10, is the table
    numerator = numerator_through(14)
    cut = {t: row for t, row in numerator.items() if t <= 10}
    assert stable_series(10).rows == literal_expansion(0, 10, cut)


def test_truncation_consistency():
    big = stable_series(18)
    small = stable_series(12)
    for t in range(13):
        assert big.classes(t) == small.classes(t), t


# --------------------------------------------------------------------------
# the n > 0 variant
# --------------------------------------------------------------------------

def test_positive_n_series():
    psn = cohomology_table(1, 10)
    assert psn.classes(0) == {0: 1}
    assert psn.classes(2) == {1: 1}
    base = stable_series(10)
    expected = TatePolynomial({1: 1}) * TatePolynomial(base.classes(8)) + TatePolynomial(
        base.classes(10)
    )
    assert TatePolynomial(psn.classes(10)) == expected


def test_stable_series_equals_the_literal_expansion():
    numerator = numerator_through(30)
    for top in (*range(13), 18, 24, 30):
        cut = {t: row for t, row in numerator.items() if t <= top}
        for n in (0, 1):
            assert cohomology_table(n, top).rows == literal_expansion(n, top, cut), (n, top)


def test_cohomology_table_rejects_a_bool_or_fractional_surface_index():
    # True and 0.5 returned the n > 0 table before
    for n in (True, 0.5, -1):
        with pytest.raises(ValueError, match="surface index must be a nonnegative integer"):
            cohomology_table(n, 4)


# --------------------------------------------------------------------------
# tables
# --------------------------------------------------------------------------

def test_cohomology_table_named_rows():
    table = cohomology_table(0, 18)
    assert table.rows[16] == {12: 2, 13: 2, 14: 1}
    assert table.rows[18] == {14: 2, 15: 3}


def test_cohomology_table_positive_n_degree_zero():
    table = cohomology_table(3, 6)
    assert table.rows[0] == {0: 1}
    assert table.rows[2] == {1: 1}


def test_negative_multiplicity_is_internal_error(monkeypatch):
    # one class at t^3 L^3: dividing by 1+Lt leaves -L^4 t^4
    monkeypatch.setattr(
        stable, "type_pairings",
        lambda k1, k2, h, top_layer=None: {0: 1} if (k1, k2, h) == (0, 3, 0) else {},
    )
    assert stable_series(3).rows == {0: {0: 1}, 3: {3: 1}}
    with pytest.raises(ArithmeticError, match="degree 4: invalid class L\\^4 x -1"):
        stable_series(4)


def test_all_multiplicities_nonnegative_to_degree_30():
    for n in (0, 3):
        table = cohomology_table(n, 30)
        assert table.rows[0] == {0: 1}
        assert all(
            mult > 0 for row in table.rows.values() for mult in row.values()
        )
        if n == 0:
            # the bytes `stable --max-deg 30 --format json` writes
            text = cli._stable_report(table, "n0", "json")
            assert hashlib.sha256(text.encode()).hexdigest() == STABLE_30_SHA256


def test_stable_series_shares_the_layer_cache_with_spectral():
    """The assembly and the column code call the layers with one key shape."""
    stable_series(9)  # asks for the layers of every n <= 8, as the columns below do
    misses = m0n.equivariant_poincare_m0n.cache_info().misses
    for L in range(3, 9):
        spectral.column_rows(L)
        spectral.type_cells(spectral.ConfigurationType(1, 0, L - 1))
    spectral.five_point_configuration_table()
    assert m0n.equivariant_poincare_m0n.cache_info().misses == misses


def test_stable_series_from_loaded_layers_equals_the_cold_series(layer_cache, monkeypatch):
    """A warm run reads every layer from disk and pairs exactly as a cold one."""
    calls = []
    pairing = stable.hall_inner_product_induced

    def counting(*args):
        calls.append(args[1:])
        return pairing(*args)

    monkeypatch.setattr(stable, "hall_inner_product_induced", counting)
    cold = stable_series(24)
    assert len(calls) == 1283
    # types up to degree 24 meet M_{0,24} only in H^0, the trivial character
    written = {path.name for path in layer_cache.glob("m0n_*.json")}
    assert written == {f"m0n_{n}.json" for n in range(3, 24)}

    def no_recompute(m):
        raise AssertionError("a layer was recomputed, not loaded")

    monkeypatch.setattr(m0n, "_twisted_counts", no_recompute)
    m0n.equivariant_poincare_m0n.cache_clear()
    del calls[:]
    warm = stable_series(24)
    assert warm == cold
    assert len(calls) == 1283


def test_a_warm_table_parses_only_the_layers_it_pairs(layer_cache):
    """Through t-degree 24 the table pairs layer i of M_{0,n} only for i <= 24 - n,
    so a warm run converts those layers to characters and no others."""
    stable_series(24)
    m0n.equivariant_poincare_m0n.cache_clear()
    stable_series(24)
    values = 0
    for n in range(3, 24):
        layers = m0n.equivariant_poincare_m0n(n)  # the lru cache's copy, as the table left it
        assert isinstance(layers, m0n._LoadedLayers)
        parsed = {i for i, layer in layers._layers.items() if isinstance(layer, CharacterVector)}
        assert parsed == set(range(min(n - 3, 24 - n) + 1)), n
        values += len(parsed) * len(partitions(n))
    assert values == 28370  # of the 102,032 traces in the files


# --------------------------------------------------------------------------
# the stable range
# --------------------------------------------------------------------------

def test_the_boundary_degree_is_where_the_rank_bound_first_refuses_a_type():
    """With d = g+1+n, the least t-degree among the types the rank lemma
    does not cover (d <= ``_degree_bound``) is ceil((g-n+2)/2), attained by
    (0, ceil((g-n+2)/2), 0) alone: the reduction the module docstring states.
    No type below that degree has jet degree D > d (``linalg._jet_degree``,
    from which on every configuration has full rank), and at it only
    (0, (g+3)/2, 0) at n = 0 with g odd does."""
    cases, jet_refused = 0, []
    for g in range(2, 41):
        for n in range(g + 2):
            d = g + 1 + n
            boundary = -(-(g - n + 2) // 2)
            types = [
                spectral.ConfigurationType(k1, k2, h)
                for k1 in range(boundary // 3 + 1)
                for k2 in range(boundary + 1)
                for h in range(boundary // 4 + 1)
                if 0 < 3 * k1 + k2 + 4 * h <= boundary
            ]
            refused = [
                (config.k1, config.k2, config.h)
                for config in types
                if d <= linalg._degree_bound(config, n)
            ]
            assert refused == [(0, boundary, 0)], (g, n)
            jet_refused.extend(
                (g, n, (config.k1, config.k2, config.h))
                for config in types
                if linalg._jet_degree(config, n) > d
            )
            cases += 1
    assert cases == 897
    # 19 cases, each at t-degree (g+3)/2, the boundary at n = 0
    assert jet_refused == [(g, 0, (0, (g + 3) // 2, 0)) for g in range(3, 41, 2)]
