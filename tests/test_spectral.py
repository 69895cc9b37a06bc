"""Tests for the discriminant-strata column bookkeeping.

The column contents for L = 3..6, the small-type columns, and both five-point
example tables are frozen from the reference tabulation; the differential scan
is checked against an exhaustive independent enumeration done here in the test.
The cell formula `type_cells` is checked against a frozen copy of the route it
replaced, which built each block as twisted Borel-Moore homology, shifted it by
twice the section-space dimension v and subtracted 2v back out per row.

The reference tabulation itself is imperfect, and the tests pin this down
exactly rather than glossing over it: its L=5 column is off in two cells
(rows -18 and -22) in a way that violates the two-orbit-classes-per-level
pairing every column must satisfy, and its L=6 column is truncated below row
-23.  See the strict entrywise test at the bottom of the merged-columns
section for the full accounting.
"""

import pytest

from hyperstab import m0n, spectral, stable
from hyperstab.series import TatePolynomial
from hyperstab.spectral import (
    ConfigurationType,
    column_rows,
    five_point_configuration_table,
    five_point_stratum_table,
    scan_differential_system,
    type_cells,
    type_sort_key,
    types_with_sites,
)
from hyperstab.symfunc import hall_inner_product_induced

CT = ConfigurationType

# reference main-table columns: {row: {twist exponent: multiplicity}}
COLUMN_L3 = {
    -11: {6: 1},
    -12: {7: 1},
    -14: {8: 2},
    -15: {9: 2},
    -17: {10: 1},
    -18: {11: 1},
}
COLUMN_L4 = {
    -13: {7: 1},
    -14: {8: 1},
    -16: {9: 3},
    -17: {10: 3},
    -19: {11: 3},
    -20: {12: 3},
    -22: {13: 1},
    -23: {14: 1},
}
COLUMN_L5 = {
    -17: {10: 1},
    -18: {10: 2},
    -19: {11: 2},
    -20: {12: 3},
    -21: {12: 4, 13: 2},
    -22: {13: 2, 14: 4},
    -23: {14: 3},
    -24: {14: 5, 15: 1},
    -25: {15: 6},
    -26: {16: 1},
    -27: {16: 2},
    -28: {17: 2},
}
COLUMN_L6 = {
    -19: {11: 1},
    -20: {12: 1},
    -21: {12: 2},
    -22: {13: 5},
    -23: {13: 3, 14: 4},
    -24: {14: 7, 15: 1},
    -25: {15: 8},
    -26: {15: 6, 16: 6},
    -27: {16: 8, 17: 2},
    -28: {17: 5},
    -29: {17: 3, 18: 4},
    -30: {18: 3, 19: 1},
    -31: {19: 1},
    -32: {20: 1},
}
REFERENCE_COLUMNS = {3: COLUMN_L3, 4: COLUMN_L4, 5: COLUMN_L5, 6: COLUMN_L6}

# Corrected values for the two inconsistent reference cells at L=5; every other
# row of that column matches the computation.  The reference prints Q(-10) for
# the second class in row -18 (it must be Q(-11)) and splits row -22 as
# Q(-13)^2 + Q(-14)^4 (it must be Q(-13)^6): the orbit-pairing test below shows
# the reference values cannot arise from any two-classes-per-level column.
L5_CORRECTED_ROWS = {-18: {10: 1, 11: 1}, -22: {13: 6}}


def column_cells(L):
    """{(row, twist): multiplicity} of the merged site-count-``L`` column."""
    return {
        (row, m): mult for row, classes in column_rows(L).items() for m, mult in classes.items()
    }


def pairing_chains_consistent(cells):
    """Whether ``{(row, m): mult}`` splits into pairs (row, m), (row-3, m+2).

    Each stratum level contributes its two orbit classes as such a pair, so
    a column is structurally possible only if it decomposes this way with
    nonnegative multiplicities.  Walk each maximal chain under the step
    (row, m) -> (row - 3, m + 2), peeling off the forced pair counts.
    """
    starts = [cell for cell in cells if (cell[0] + 3, cell[1] - 2) not in cells]
    seen = set()
    for start in sorted(starts, reverse=True):
        carried = 0
        node = start
        while node in cells:
            seen.add(node)
            carried = cells[node] - carried
            if carried < 0:
                return False
            node = (node[0] - 3, node[1] + 2)
        if carried != 0:
            return False
    return seen == set(cells)


# --------------------------------------------------------------------------
# frozen oracle: the Borel-Moore route the cell formula replaced
# --------------------------------------------------------------------------

# Each PGL2-orbit factor carries a pair of classes: (weight drop, degree shift).
O_ORBIT_CLASSES = ((1, 3), (3, 6))
O_FIVE_POINT_COLUMNS = (CT(1, 0, 2), CT(0, 1, 2), CT(2, 1, 1), CT(1, 2, 1))


def o_twisted_config_homology(config):
    """Twisted Borel-Moore homology of a configuration block, as {t: TatePolynomial}.

    The coefficient of ``L^(-w)`` in term ``t`` is the multiplicity of the
    weight ``-2w`` piece in homological degree ``t``.
    """
    L = config.site_count
    base_degree = 2 * config.k2 + 2 * config.h
    base_weight = config.k2 + config.h
    terms = {}
    for i, mult in stable.type_pairings(config.k1, config.k2, config.h).items():
        j = L - 3 - i
        for weight_drop, degree_shift in O_ORBIT_CLASSES:
            t = base_degree + (L - 3) + j + degree_shift
            w = -(base_weight + j + weight_drop)
            terms[t] = terms.get(t, TatePolynomial()) + TatePolynomial({w: mult})
    return terms


def o_stratum_homology(config, v):
    """(bm_degree, twist, multiplicity) of one stratum, ambient dimension ``v``."""
    L = config.site_count
    degree_shift = 2 * v - 8 * config.h - 5 * config.k1 - 5 * config.k2 - L
    classes = [
        (t + degree_shift, config.codimension + w, mult)
        for t, poly in o_twisted_config_homology(config).items()
        for w, mult in poly.coeffs.items()
    ]
    return sorted(classes, key=lambda cls: (-cls[0], cls[1]))


def o_column_cells(L, v):
    """(bm_degree, twist) -> [multiplicity, contributing types], rows descending."""
    cells = {}
    for config in sorted(types_with_sites(L), key=type_sort_key):
        for bm, twist, mult in o_stratum_homology(config, v):
            entry = cells.setdefault((bm, twist), [0, []])
            entry[0] += mult
            entry[1].append(config)
    return dict(sorted(cells.items(), key=lambda item: (-item[0][0], item[0][1])))


def o_five_point_configuration_table():
    positions = {config: pos for pos, config in enumerate(O_FIVE_POINT_COLUMNS, start=1)}
    table = {}
    for k1 in range(6):
        for k2 in range(6 - k1):
            if (5 - k1 - k2) % 2 == 0:
                config = CT(k1, k2, (5 - k1 - k2) // 2)
                for t, poly in sorted(o_twisted_config_homology(config).items()):
                    for w, mult in poly.coeffs.items():
                        assert mult == 1
                        table.setdefault(t - positions[config], []).append((config, -w))
    for row in table:
        table[row].sort(key=lambda entry: positions[entry[0]])
    return table


def o_five_point_stratum_table():
    positions = {config: pos for pos, config in enumerate(O_FIVE_POINT_COLUMNS, start=1)}
    table = {}
    for config in O_FIVE_POINT_COLUMNS:
        L = config.site_count
        for bm, twist, _ in o_stratum_homology(config, 0):
            row = bm + (L + 1) - (positions[config] + 2)
            table.setdefault(row, []).append((config, -twist))
    for row in table:
        table[row].sort(key=lambda entry: positions[entry[0]])
    return dict(sorted(table.items(), reverse=True))


@pytest.mark.parametrize("v", [40, 77])
def test_columns_equal_the_borel_moore_route(v):
    for L in range(3, 10):
        expected = {
            (bm - 2 * v, twist): entry for (bm, twist), entry in o_column_cells(L, v).items()
        }
        cells = spectral.column_cells(L)
        assert list(cells.items()) == list(expected.items()), L
        rows = {}
        for (row, twist), (mult, _) in expected.items():
            rows.setdefault(row, {})[twist] = mult
        assert column_rows(L) == rows, L


def test_five_point_tables_equal_the_borel_moore_route():
    assert list(five_point_configuration_table().items()) == list(
        o_five_point_configuration_table().items()
    )
    assert list(five_point_stratum_table().items()) == list(
        o_five_point_stratum_table().items()
    )


# --------------------------------------------------------------------------
# types and their order
# --------------------------------------------------------------------------

def test_codimension_examples():
    assert CT(1, 0, 0).codimension == 3
    assert CT(0, 0, 1).codimension == 5
    assert CT(1, 1, 1).codimension == 11


def test_configuration_type_validation():
    with pytest.raises(ValueError):
        CT(0, 0, 0)
    with pytest.raises(ValueError):
        CT(-1, 1, 0)


def test_configuration_type_rejects_bools_and_non_integers():
    for components in ((True, 1, 1), (1, False, 1), (1, 1, 1.0)):
        with pytest.raises(ValueError, match="nonnegative integer"):
            CT(*components)


def test_type_order_examples():
    assert type_sort_key(CT(1, 0, 0)) < type_sort_key(CT(0, 0, 1))
    assert type_sort_key(CT(2, 0, 0)) == type_sort_key(CT(2, 0, 0))
    # inverse lexicographic among equal codimension and point count
    assert sorted([CT(0, 2, 0), CT(2, 0, 0), CT(1, 1, 0)], key=type_sort_key) == [
        CT(2, 0, 0),
        CT(1, 1, 0),
        CT(0, 2, 0),
    ]
    # a big pile of points on the section comes before one fewer double line
    for N in (3, 5, 8):
        assert type_sort_key(CT(N, 0, 0)) < type_sort_key(CT(0, 0, N - 1))


def test_type_order_matches_listed_sequence():
    listed = [
        CT(1, 0, 0), CT(0, 1, 0), CT(0, 0, 1),
        CT(2, 0, 0), CT(1, 1, 0), CT(0, 2, 0),
        CT(1, 0, 1), CT(0, 1, 1), CT(0, 0, 2),
    ]
    assert sorted(listed, key=type_sort_key) == listed


# --------------------------------------------------------------------------
# the cells of one configuration type
# --------------------------------------------------------------------------

def block_homology(config):
    """{homological degree: {-weight: multiplicity}} of a type's block, from its cells."""
    table = {}
    for row, twist, mult in type_cells(config):
        degree = row + 5 * config.k1 + 5 * config.k2 + 8 * config.h + config.site_count
        table.setdefault(degree, {})[twist - config.codimension] = mult
    return table


def test_twisted_config_homology_examples():
    assert block_homology(CT(1, 1, 1)) == {
        7: {-3: 1},
        10: {-5: 1},
    }
    assert block_homology(CT(0, 0, 3)) == {
        9: {-4: 1},
        12: {-6: 1},
    }
    assert type_cells(CT(3, 0, 0)) == ()


def test_five_point_configuration_table():
    """Reference five-point table: four live columns, everything else zero."""
    table = five_point_configuration_table()
    assert table == {
        10: [(CT(0, 1, 2), 6)],
        9: [(CT(1, 0, 2), 5), (CT(1, 2, 1), 6)],
        8: [(CT(2, 1, 1), 5)],
        7: [(CT(0, 1, 2), 4)],
        6: [(CT(1, 0, 2), 3), (CT(1, 2, 1), 4)],
        5: [(CT(2, 1, 1), 3)],
    }


def test_five_point_table_rejects_a_repeated_class(monkeypatch):
    monkeypatch.setattr(stable, "hall_inner_product_induced", lambda *args: 2)
    with pytest.raises(ArithmeticError, match="multiplicity"):
        five_point_configuration_table()


def test_five_point_cancellation_pairing():
    """Arrow-paired columns cancel: they differ by one homological degree."""
    shifted = {t + 1: weights for t, weights in block_homology(CT(0, 1, 2)).items()}
    assert block_homology(CT(1, 2, 1)) == shifted
    shifted = {t + 1: weights for t, weights in block_homology(CT(1, 0, 2)).items()}
    assert block_homology(CT(2, 1, 1)) == shifted


# --------------------------------------------------------------------------
# strata classes
# --------------------------------------------------------------------------

def test_stratum_homology_examples():
    cells = {(row, twist): mult for row, twist, mult in type_cells(CT(0, 1, 2))}
    assert cells == {(-12, 7): 1, (-15, 9): 1}

    cells = {(row, twist): mult for row, twist, mult in type_cells(CT(1, 1, 1))}
    assert cells == {(-11, 6): 1, (-14, 8): 1}


def test_type_cells_multiplicities_are_positive():
    for L in range(3, 9):
        for config in types_with_sites(L):
            assert all(mult >= 1 for _, _, mult in type_cells(config)), config


def test_stratum_total_dimension_preserves_product_structure():
    """Total class count = (PGL2 classes) x (sum of layer multiplicities)."""
    for L in range(3, 7):
        layers = m0n.equivariant_poincare_m0n(L)
        for k1 in range(L + 1):
            for k2 in range(L + 1 - k1):
                h = L - k1 - k2
                c = CT(k1, k2, h)
                inner = sum(
                    hall_inner_product_induced(layer, k1, k2, h)
                    for layer in layers.values()
                )
                total = sum(mult for _, _, mult in type_cells(c))
                assert total == 2 * inner == 2 * sum(stable.type_pairings(k1, k2, h).values()), c


def test_five_point_stratum_table():
    assert five_point_stratum_table() == {
        -12: [(CT(0, 1, 2), -7)],
        -13: [(CT(1, 0, 2), -8)],
        -15: [(CT(0, 1, 2), -9), (CT(1, 2, 1), -8)],
        -16: [(CT(1, 0, 2), -10), (CT(2, 1, 1), -9)],
        -18: [(CT(1, 2, 1), -10)],
        -19: [(CT(2, 1, 1), -11)],
    }


# --------------------------------------------------------------------------
# merged columns
# --------------------------------------------------------------------------

def test_reference_columns_exact_L3_L4():
    for L in (3, 4):
        assert column_rows(L) == REFERENCE_COLUMNS[L], f"L={L}"


def test_reference_column_L5_deviates_in_exactly_two_cells():
    computed = column_rows(5)
    reference = REFERENCE_COLUMNS[5]
    assert set(computed) == set(reference)
    differing = {row for row in computed if computed[row] != reference[row]}
    assert differing == set(L5_CORRECTED_ROWS)
    for row, expected in L5_CORRECTED_ROWS.items():
        assert computed[row] == expected
    assert sum(m for row in computed.values() for m in row.values()) == sum(
        m for row in reference.values() for m in row.values()
    )


def test_orbit_pairing_validates_computed_L5_and_refutes_reference():
    assert pairing_chains_consistent(column_cells(5))
    reference_cells = {
        (row, m): mult
        for row, classes in REFERENCE_COLUMNS[5].items()
        for m, mult in classes.items()
    }
    assert not pairing_chains_consistent(reference_cells)


def test_all_computed_columns_satisfy_orbit_pairing():
    for L in range(3, 8):
        assert pairing_chains_consistent(column_cells(L)), L


def test_reference_column_L6_is_truncation_of_computed():
    computed = column_rows(6)
    reference = REFERENCE_COLUMNS[6]
    # the rows the reference lists completely agree entry-for-entry
    for row in (-19, -20, -21, -22, -23):
        assert computed[row] == reference[row], row
    # below that, the reference is a cellwise subset of the computation
    for row, classes in reference.items():
        for m, mult in classes.items():
            assert mult <= computed[row].get(m, 0), (row, m)
    assert sum(m for row in reference.values() for m in row.values()) == 72
    assert sum(m for row in computed.values() for m in row.values()) == 104


def test_reference_columns_strict_entrywise():
    """Literal entry-for-entry comparison of computed columns for L = 3..6.

    L=3 and L=4 agree exactly.  L=5 and L=6 deviate in precisely the
    documented cells (reference inconsistencies/truncation; see the tests
    above).  The deviation set is asserted exactly, so any drift in either
    direction turns this test red; the remaining known gap is recorded as an
    expected failure rather than silently accepted.
    """
    deviations = {}
    for L, reference in REFERENCE_COLUMNS.items():
        computed = column_rows(L)
        if computed != reference:
            deviations[L] = sorted(
                row
                for row in set(computed) | set(reference)
                if computed.get(row) != reference.get(row)
            )
    if not deviations:
        return
    assert set(deviations) == {5, 6}
    assert deviations[5] == [-22, -18]
    assert deviations[6] == list(range(-34, -23))
    pytest.xfail(
        "reference tabulation is inconsistent at L=5 rows -18/-22 (orbit "
        "pairing fails there) and truncated below row -23 at L=6; the "
        "computed columns are the self-consistent values"
    )


def test_e1_column_requires_L_at_least_3():
    with pytest.raises(ValueError, match="at least three sites"):
        column_rows(2)
    with pytest.raises(ValueError, match="at least three sites"):
        spectral.column_cells(2)


# --------------------------------------------------------------------------
# differential admissibility scan
# --------------------------------------------------------------------------

def test_differential_scan_families_a_to_e_empty():
    scan = scan_differential_system(8)
    for family in "abcde":
        assert scan[family] == [], family


def test_differential_scan_f_g_structure():
    scan = scan_differential_system(8)
    assert scan["f"] and scan["g"]
    for sol in scan["f"]:
        assert sol.r == 1
        assert sol.j_target == sol.j_source + 1
        src, tgt = sol.source, sol.target
        assert (tgt.k1, tgt.k2, tgt.h) == (src.k1 + 1, src.k2 - 1, src.h)
    for sol in scan["g"]:
        assert sol.r == 1
        assert sol.j_target == sol.j_source
        src, tgt = sol.source, sol.target
        assert (tgt.k1, tgt.k2, tgt.h) == (src.k1, src.k2 - 2, src.h + 1)


def test_differential_candidate_examples():
    # kind I candidates are the family-f solutions, kind II the family-g ones
    scan = scan_differential_system(8)
    assert (CT(1, 3, 1), CT(2, 2, 1)) in {(s.source, s.target) for s in scan["f"]}
    assert (CT(2, 3, 1), CT(2, 1, 2)) in {(s.source, s.target) for s in scan["g"]}
    # no pure-double-line type is ever a source
    assert not any(s.source.k1 == 0 and s.source.k2 == 0 for s in scan["f"] + scan["g"])


def test_differential_scan_matches_independent_enumeration():
    """Re-derive the full solution set by brute force over both equations."""
    bound = 6
    families = {
        "a": lambda k1, k2, h, r: (k1, k2, h - r),
        "b": lambda k1, k2, h, r: (k1 - r, k2, h),
        "c": lambda k1, k2, h, r: (k1, k2 - r, h),
        "d": lambda k1, k2, h, r: (k1 + r, k2, h - r),
        "e": lambda k1, k2, h, r: (k1, k2 + r, h - r),
        "f": lambda k1, k2, h, r: (k1 + r, k2 - r, h),
        "g": lambda k1, k2, h, r: (k1, k2 - 2 * r, h + r),
    }
    expected = {name: set() for name in families}
    for L in range(3, bound + 1):
        for k1 in range(L + 1):
            for k2 in range(L + 1 - k1):
                h = L - k1 - k2
                if k1 + k2 + 2 * h < 1:
                    continue
                for name, move in families.items():
                    for r in range(1, L + 1):
                        t1, t2, t3 = move(k1, k2, h, r)
                        if min(t1, t2, t3) < 0 or t1 + t2 + t3 < 3:
                            continue
                        Lp = t1 + t2 + t3
                        for j in range(L - 2):
                            for jp in range(Lp - 2):
                                eq1 = 4 * t3 + 3 * t1 + 2 * t2 - jp == 4 * h + 3 * k1 + 2 * k2 - j
                                eq2 = -5 * t3 - 4 * t1 - 2 * t2 - 3 + jp == -5 * h - 4 * k1 - 2 * k2 - 4 + j
                                if eq1 and eq2:
                                    expected[name].add(
                                        ((k1, k2, h), (t1, t2, t3), r, j, jp)
                                    )
    scan = scan_differential_system(bound)
    for name in families:
        got = {
            (
                (s.source.k1, s.source.k2, s.source.h),
                (s.target.k1, s.target.k2, s.target.h),
                s.r,
                s.j_source,
                s.j_target,
            )
            for s in scan[name]
        }
        assert got == expected[name], name
