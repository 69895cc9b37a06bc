"""End-to-end acceptance checks, one test per criterion.

Each test prints one ``[criterion N] PASS/FAIL`` line.  Runtime envelopes
are asserted where stated.  The two documented reference inconsistencies —
the L = 5/6 column cells and the parity of the degree-0 correction term in
the closed counting forms — are re-asserted exactly (any drift turns the
tests red) and then reported as expected failures of the literal clauses;
see the corresponding tests in test_spectral.py and test_ffcount.py.
"""

import json
import math
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

import hyperstab
import oracles
from hyperstab import m0n
from hyperstab import symfunc as sf
from hyperstab.cli import (
    COUNT_CASES_FULL,
    L5_CORRECTED_ROWS,
    REFERENCE_COLUMNS,
    REFERENCE_FIVE_POINT_CONFIGURATION,
    REFERENCE_FIVE_POINT_STRATA,
    REFERENCE_STABLE_ROWS,
    suite_diffscan,
    suite_euler,
    suite_ranks,
)
from hyperstab.ffcount import (
    closed_form_count,
    enumerate_count,
    psi_roundtrip_check,
    stratified_count,
)
from hyperstab.spectral import (
    column_rows,
    five_point_configuration_table,
    five_point_stratum_table,
)


def _report(criterion: int, status: str, detail: str) -> None:
    print(f"[criterion {criterion}] {status} - {detail}")


# --------------------------------------------------------------------------
# criterion 1: the 19-row table through the command line, fresh cache
# --------------------------------------------------------------------------

def test_criterion_1_example_reproduction(tmp_path):
    src = str(Path(hyperstab.__file__).resolve().parents[1])
    env = dict(os.environ, HYPERSTAB_CACHE=str(tmp_path), PYTHONPATH=src)
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "hyperstab.cli", "stable", "--max-deg", "18",
         "--regime", "n0", "--format", "json"],
        capture_output=True, text=True, env=env,
    )
    elapsed = time.perf_counter() - started
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    rows = {row["i"]: row["classes"] for row in payload["rows"]}
    expected = {
        i: [{"mult": m, "twist": t}
            for t, m in sorted(REFERENCE_STABLE_ROWS.get(i, {}).items())]
        for i in range(19)
    }
    assert len(rows) == 19
    for i in range(19):
        assert rows[i] == expected[i], f"degree {i}"
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    _report(1, "PASS", f"19/19 rows exact in {elapsed:.1f}s with a fresh cache")


# --------------------------------------------------------------------------
# criterion 2: main-table columns and the five-point example tables
# --------------------------------------------------------------------------

def test_criterion_2_main_table_and_example_columns():
    computed = {L: column_rows(L) for L in (3, 4, 5, 6)}
    for L in (3, 4):
        assert computed[L] == REFERENCE_COLUMNS[L], f"L={L}"
    assert five_point_configuration_table() == REFERENCE_FIVE_POINT_CONFIGURATION
    assert five_point_stratum_table() == REFERENCE_FIVE_POINT_STRATA

    # the L = 5 deviation is exactly the two documented cells
    deviating = {
        row
        for row in set(computed[5]) | set(REFERENCE_COLUMNS[5])
        if computed[5].get(row) != REFERENCE_COLUMNS[5].get(row)
    }
    assert deviating == set(L5_CORRECTED_ROWS)
    for row, cells in L5_CORRECTED_ROWS.items():
        assert computed[5][row] == cells
    # the L = 6 reference is complete on rows -19..-23 and a truncated
    # cellwise subset below them
    for row in (-19, -20, -21, -22, -23):
        assert computed[6][row] == REFERENCE_COLUMNS[6][row], row
    for row, cells in REFERENCE_COLUMNS[6].items():
        for m, mult in cells.items():
            assert mult <= computed[6][row].get(m, 0), (row, m)
    assert sum(m for r in REFERENCE_COLUMNS[6].values() for m in r.values()) == 72
    assert sum(m for r in computed[6].values() for m in r.values()) == 104
    _report(2, "PASS", "L=3/L=4 and both five-point tables entry-for-entry; "
                       "L=5/L=6 deviations are exactly the documented cells")


def test_criterion_2_literal_entrywise_clause():
    computed = {L: column_rows(L) for L in (5, 6)}
    if all(computed[L] == REFERENCE_COLUMNS[L] for L in (5, 6)):
        _report(2, "PASS", "L=5/L=6 also match entry-for-entry")
        return
    deviations = {
        L: sorted(
            row
            for row in set(computed[L]) | set(REFERENCE_COLUMNS[L])
            if computed[L].get(row) != REFERENCE_COLUMNS[L].get(row)
        )
        for L in (5, 6)
    }
    assert deviations[5] == [-22, -18]
    assert deviations[6] == list(range(-34, -23))
    _report(2, "FAIL", "literal entry-for-entry match at L=5/L=6: the reference "
                       "cells at rows -18/-22 are orbit-pairing-inconsistent and "
                       "the L=6 tail is truncated; computed columns carry the "
                       "self-consistent values")
    pytest.xfail("reference tabulation inconsistent at L=5 rows -18/-22 and "
                 "truncated below row -23 at L=6")


# --------------------------------------------------------------------------
# criterion 3: twisted-count oracle equivalence and layer structure
# --------------------------------------------------------------------------

def test_criterion_3_m0n_oracle_equivalence():
    for n in range(1, 6):
        for mu in sf.partitions(n):
            for q in (3, 5, 7):
                assert oracles.twisted_count_config_p1(n, mu)(q) == \
                    oracles.brute_twisted_count(n, mu, q), (mu, q)
    for mu in sf.partitions(6):
        if math.lcm(*mu) <= 6:
            assert oracles.twisted_count_config_p1(6, mu)(3) == \
                oracles.brute_twisted_count(6, mu, 3), mu

    for n in range(3, 11):
        layers = m0n.equivariant_poincare_m0n(n)
        coeffs = [1]
        for j in range(2, n - 1):
            coeffs = [c + (j * coeffs[i - 1] if i else 0)
                      for i, c in enumerate(coeffs)] + [j * coeffs[-1]]
        assert {i: layer.dimension() for i, layer in layers.items()} == \
            {i: c for i, c in enumerate(coeffs)}, n
        for i, layer in layers.items():
            assert all(m >= 0 for m in sf.schur_expand(layer).values()), (n, i)
    _report(3, "PASS", "closed twisted counts equal brute enumeration "
                       "(n <= 5 at q = 3,5,7; n = 6 with lcm <= 6 at q = 3); "
                       "identity-layer products and Schur nonnegativity hold "
                       "for n <= 10")


# --------------------------------------------------------------------------
# criterion 4: evaluation-matrix ranks
# --------------------------------------------------------------------------

def test_criterion_4_codimension_lemma():
    result = suite_ranks(trials=100)
    assert Counter(check.status for check in result) == {"pass": 39}
    _report(4, "PASS", "full rank on 100 exact trials for all 19 types at two "
                       "(d, n) pairs each, plus the below-bound rank-drop witness")


# --------------------------------------------------------------------------
# criterion 5: differential-constraint scan
# --------------------------------------------------------------------------

def test_criterion_5_differential_scan():
    result = suite_diffscan()
    assert Counter(check.status for check in result) == {"pass": 8}
    _report(5, "PASS", "scan to eight sites: families a-e empty; only the "
                       "kind I (twist offset 1) and kind II (twist preserved) "
                       "moves admit r = 1 solutions")


# --------------------------------------------------------------------------
# criteria 6 and 8: the enumeration grid
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def full_grid():
    records = {}
    timings = {}
    for g, l, q, variant in COUNT_CASES_FULL:
        started = time.perf_counter()
        records[(g, l, q)] = enumerate_count(g, l, q, variant=variant)
        timings[(g, l, q)] = time.perf_counter() - started
    return records, timings


def test_criterion_6_point_counts(full_grid):
    records, timings = full_grid
    for g, l, q, variant in COUNT_CASES_FULL:
        expected = closed_form_count(g, l, q, variant=variant)
        assert records[(g, l, q)].stack_count == expected, (g, l, q)
    assert sum(timings.values()) < 3600.0
    assert max(timings.values()) < 600.0
    _report(6, "PASS", f"{len(records)}/{len(records)} closed forms reproduced "
                       f"by exhaustive enumeration (l = 0 through the marked "
                       f"l = g+1 families; slowest case "
                       f"{max(timings.values()):.1f}s)")


def test_criterion_6_reference_parity_clause(full_grid):
    records, _ = full_grid
    measured = {case: records[case].stack_count
                for case in ((2, 2, 3), (3, 2, 3), (2, 3, 3))}
    assert measured == {(2, 2, 3): 323, (3, 2, 3): 2916, (2, 3, 3): 968}
    reference_variant = {(2, 2, 3): 324, (3, 2, 3): 2915, (2, 3, 3): 972}
    deltas = {case: reference_variant[case] - measured[case]
              for case in measured}
    assert deltas == {(2, 2, 3): 1, (3, 2, 3): -1, (2, 3, 3): 4}
    _report(6, "FAIL", "the reference statement of the degree-0 correction "
                       "(active at odd genus) predicts 324/2915/972 at "
                       "(2,2,3)/(3,2,3)/(2,3,3); exhaustive enumeration gives "
                       "323/2916/968, the even-genus values the package "
                       "implements")
    pytest.xfail("the degree-0 correction term applies at even genus; the "
                 "odd-genus variant is refuted by exhaustive enumeration")


# --------------------------------------------------------------------------
# criterion 7: Euler-characteristic identity
# --------------------------------------------------------------------------

def test_criterion_7_euler_identity():
    result = suite_euler()
    assert Counter(check.status for check in result) == {"pass": 5}
    window = next(c for c in result if c.id == "euler-l4-window")
    assert "1 + L + L^6" in window.actual
    _report(7, "PASS", "series and counting routes agree for l = 1..4; the "
                       "l = 4 window reaches L^6 with both sides 1 + L + L^6")


# --------------------------------------------------------------------------
# criterion 8: stratification and the substitution round-trip
# --------------------------------------------------------------------------

def test_criterion_8_stratification(full_grid):
    records, _ = full_grid
    for (g, l, q), record in records.items():
        strata = stratified_count(g, l, q)
        assert sum(strata.values()) == record.raw_count, (g, l, q)
        assert all(count > 0 for count in strata.values())
    roundtrip = psi_roundtrip_check(2, 1, 3)
    assert roundtrip["ok"]
    assert roundtrip["failures"] == 0
    assert roundtrip["members"] == records[(2, 1, 3)].raw_count == 279936
    _report(8, "PASS", f"stratified counts partition the raw count on all "
                       f"{len(records)} grid cases; substitution round-trip "
                       f"is the identity on all 279936 members at (g, l) = (2, 1)")
