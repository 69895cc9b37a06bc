"""Tests for the command-line front end: parsing, suites, files, exit codes."""

import hashlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from importlib.metadata import version
from pathlib import Path

import numpy
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hyperstab
from hyperstab import cli, ffcount, linalg, m0n, spectral, symfunc
from hyperstab.cli import Check, main

# the package's parent directory, for the PYTHONPATH of child processes
_SRC = str(Path(hyperstab.__file__).resolve().parents[1])

# whether CPython has a built-in SHA-256 module, so that no command needs hashlib
_BUILTIN_SHA256 = any(importlib.util.find_spec(name) for name in ("_sha256", "_sha2"))


# --------------------------------------------------------------------------
# check bookkeeping
# --------------------------------------------------------------------------

def test_check_validates_status_and_source():
    with pytest.raises(ValueError):
        Check("x", "maybe", "1", "1", "oracle")
    with pytest.raises(ValueError):
        Check("x", "pass", "1", "1", "guesswork")


def test_verify_tallies_and_writes_the_checks_a_suite_returns(monkeypatch, tmp_path, capsys):
    checks = (
        Check("a", "pass", "1", "1", "identity"),
        Check("b", "fail", "1", "2", "oracle"),
        Check("c", "skipped", "1", "-", "tabulated"),
    )
    monkeypatch.setattr(cli, "suite_euler", lambda: checks)
    assert main(["verify", "euler", "--out", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "suite euler: 1 passed, 1 failed, 1 skipped" in out
    assert "total: 1 failing check(s) across 1 suite(s)" in out
    [payload] = json.loads((tmp_path / "verify.json").read_text())
    assert payload["suite"] == "euler"
    assert [c["id"] for c in payload["checks"]] == ["a", "b", "c"]
    assert payload["checks"][1] == {
        "id": "b", "status": "fail", "expected": "1", "actual": "2", "source": "oracle",
    }


def test_render_helpers():
    assert cli._render_classes({}) == "0"
    assert cli._render_classes({0: 1, 12: 2}) == "Q(0) + 2Q(-12)"
    assert cli._render_tate({0: 1, 1: 1, 6: 1}) == "1 + L + L^6"
    assert cli._render_tate({2: 3}) == "3L^2"


# --------------------------------------------------------------------------
# stable
# --------------------------------------------------------------------------

def test_stable_markdown_reproduces_reference_rows(capsys):
    assert main(["stable", "--max-deg", "18", "--regime", "n0"]) == 0
    out = capsys.readouterr().out
    assert "| 0 | Q(0) |" in out
    assert "| 12 | Q(-9) + Q(-10) |" in out
    assert "| 17 | 3Q(-13) + 2Q(-14) + Q(-15) |" in out
    assert "| 18 | 2Q(-14) + 3Q(-15) |" in out
    assert out.count("\n| ") + out.startswith("| ") == 21  # header + 19 degree rows


def test_stable_max_deg_zero_single_row(capsys):
    assert main(["stable", "--max-deg", "0", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rows"] == [{"i": 0, "classes": [{"mult": 1, "twist": 0}]}]


def test_stable_positive_regime_adds_degree_two_class(capsys):
    assert main(["stable", "--max-deg", "2", "--regime", "npos",
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    rows = {row["i"]: row["classes"] for row in payload["rows"]}
    assert rows[2] == [{"mult": 1, "twist": 1}]
    assert payload["surface_index_regime"] == "n>0"


def test_stable_csv_lists_nonzero_cells(capsys):
    assert main(["stable", "--max-deg", "9", "--format", "csv"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "degree,twist,multiplicity"
    assert out[1:] == ["0,0,1", "8,6,1", "9,7,1"]


def test_stable_json_shape(capsys):
    assert main(["stable", "--max-deg", "9", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["surface_index_regime"] == "n=0"
    assert payload["max_degree"] == 9
    rows = {entry["i"]: entry["classes"] for entry in payload["rows"]}
    assert rows[8] == [{"twist": 6, "mult": 1}]
    assert "stable_range_note" in payload

    assert main(["stable", "--max-deg", "4", "--regime", "npos", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["surface_index_regime"] == "n>0"


# --------------------------------------------------------------------------
# verify
# --------------------------------------------------------------------------

def test_verify_example19_all_pass(capsys):
    assert main(["verify", "example19"]) == 0
    out = capsys.readouterr().out
    assert "suite example19: 19 passed, 0 failed, 0 skipped" in out


def test_verify_tables_passes_with_documented_skips(capsys):
    assert main(["verify", "tables"]) == 0
    out = capsys.readouterr().out
    assert "SKIP tables/e1-L5-entrywise" in out
    assert "SKIP tables/e1-L6-entrywise" in out
    assert "suite tables: 8 passed, 0 failed, 2 skipped" in out


def test_suite_tables_computes_each_five_point_table_once(monkeypatch):
    calls = []
    for name in ("five_point_configuration_table", "five_point_stratum_table"):
        real = getattr(cli, name)

        def counted(real=real, name=name):
            calls.append(name)
            return real()

        monkeypatch.setattr(cli, name, counted)
    result = cli.suite_tables()
    assert sorted(calls) == ["five_point_configuration_table", "five_point_stratum_table"]
    five_point = [c for c in result if c.id.startswith("five-point-")]
    assert [(c.status, c.actual) for c in five_point] == [("pass", "equal")] * 2


def test_suite_tables_walks_each_L5_pairing_chain_once(monkeypatch):
    walked = []
    real = cli._pairing_chains_consistent

    def counted(rows):
        walked.append(rows)
        return real(rows)

    monkeypatch.setattr(cli, "_pairing_chains_consistent", counted)
    result = cli.suite_tables()
    assert walked == [cli.column_rows(5), cli.REFERENCE_COLUMNS[5]]
    [pairing] = [c for c in result if c.id == "e1-L5-orbit-pairing"]
    assert (pairing.status, pairing.actual) == ("pass", "computed decomposes, reference fails")


def test_a_missing_L5_row_fails_the_deviation_check(monkeypatch, capsys):
    # the computed L = 5 column loses row -18 and keeps {13: 6} at row -22
    real = cli.column_rows

    def without_row(L):
        return {row: c for row, c in real(L).items() if (L, row) != (5, -18)}

    monkeypatch.setattr(cli, "column_rows", without_row)
    assert main(["verify", "tables"]) == 1
    assert "FAIL tables/e1-L5-deviation-set" in capsys.readouterr().out


def test_a_changed_row_fails_its_entrywise_check(monkeypatch, capsys):
    # L = 3 gains a class at row -11 and L = 6 loses its row -20
    real = cli.column_rows

    def changed(L):
        rows = dict(real(L))
        if L == 3:
            rows[-11] = {6: 2}
        if L == 6:
            del rows[-20]
        return rows

    monkeypatch.setattr(cli, "column_rows", changed)
    assert main(["verify", "tables"]) == 1
    out = capsys.readouterr().out
    assert ("FAIL tables/e1-L3-entrywise [tabulated] expected reference column "
            "entry-for-entry; got differs at rows -11") in out
    assert "PASS tables/e1-L4-entrywise" in out
    assert ("FAIL tables/e1-L6-rows-19-23 [tabulated] expected reference rows -19..-23 "
            "entry-for-entry; got differs at rows -20") in out


def test_verify_counts_small_budget(capsys):
    assert main(["verify", "counts"]) == 0
    out = capsys.readouterr().out
    assert "PASS counts/count-g2-l1-q3 [tabulated] expected stack count 108" in out
    assert "PASS counts/count-g2-l2-q3 [tabulated] expected stack count 323" in out
    assert "PASS counts/count-g2-l3-q3 [tabulated] expected stack count 968" in out
    assert "PASS counts/psi-roundtrip-g2-l1-q3" in out
    assert " 0 failed" in out


def test_verify_counts_full_budget_adds_one_invariance_check_per_genus_and_field(monkeypatch):
    grid = cli.COUNT_CASES_SMALL[:2] + ((2, 1, 5, None),)
    monkeypatch.setattr(cli, "COUNT_CASES_FULL", grid)
    small = cli.suite_counts("small")
    assert not [c for c in small if c.id.startswith("invariance-")]
    full = cli.suite_counts("full")
    assert not [c for c in full if c.id.startswith("orbit-")]
    invariance = [c for c in full if c.id.startswith("invariance-")]
    assert [c.id for c in invariance] == ["invariance-g2-q3", "invariance-g2-q5"]
    assert all(c.status == "pass" and c.source == "identity" for c in invariance)
    assert invariance[0].expected == (
        "square-freeness of all 2187 forms of degree 6 kept by each of the 3 "
        "generators of GL_2(F_3)"
    )
    assert invariance[0].actual == "0 (form, generator) pairs change it"
    assert full[-1].id == "psi-roundtrip-g2-l1-q3"


def test_verify_counts_takes_one_census_per_case(monkeypatch, capsys):
    # the census is the one walk over the alpha orbits, so each walk is one
    # census; enumerate_count and stratified_count of a case share it
    real = ffcount._alpha_orbits
    walks = []

    def counting(l, q):
        walks.append((l, q))
        return real(l, q)

    monkeypatch.setattr(ffcount, "_alpha_orbits", counting)
    ffcount._coset_census.cache_clear()
    assert main(["verify", "counts"]) == 0
    assert walks == [(1, 3), (2, 3), (3, 3), (0, 3)]
    capsys.readouterr()


def test_verify_euler_window(capsys):
    assert main(["verify", "euler"]) == 0
    out = capsys.readouterr().out
    assert "lhs 1 + L + L^6, rhs 1 + L + L^6" in out
    assert "suite euler: 5 passed, 0 failed, 0 skipped" in out


def test_verify_ranks_reduced_trials(capsys):
    assert main(["verify", "ranks", "--trials", "3"]) == 0
    out = capsys.readouterr().out
    assert "suite ranks: 39 passed, 0 failed, 0 skipped" in out
    assert "PASS ranks/rank-below-bound-witness" in out


def test_verify_diffscan(capsys):
    assert main(["verify", "diffscan"]) == 0
    out = capsys.readouterr().out
    assert "suite diffscan: 8 passed, 0 failed, 0 skipped" in out


def test_verify_diffscan_fails_without_a_required_pair(monkeypatch, capsys):
    real = cli.scan_differential_system

    def without_131(bound):
        scan = real(bound)
        scan["f"] = [sol for sol in scan["f"] if sol.source != cli.CT(1, 3, 1)]
        return scan

    monkeypatch.setattr(cli, "scan_differential_system", without_131)
    assert main(["verify", "diffscan"]) == 1
    out = capsys.readouterr().out
    pair = (cli.CT(1, 3, 1), cli.CT(2, 2, 1), "I")
    assert "FAIL diffscan/diffscan-candidates [tabulated] expected candidate pairs" in out
    assert f"got missing {[pair]}" in out
    assert "PASS diffscan/diffscan-kind-I-structure" in out
    assert "suite diffscan: 7 passed, 1 failed, 0 skipped" in out


def test_verify_unknown_suite_is_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", "nonsense"])
    assert excinfo.value.code == 2


def test_verify_failing_check_exits_one(monkeypatch, capsys):
    failing = (Check("euler-l1", "fail", "equal sides", "unequal", "oracle"),)
    monkeypatch.setattr(cli, "suite_euler", lambda: failing)
    assert main(["verify", "euler"]) == 1
    out = capsys.readouterr().out
    assert "FAIL euler/euler-l1 [oracle] expected equal sides; got unequal" in out
    assert "total: 1 failing check(s)" in out


def test_verify_out_writes_suite_payload(tmp_path, capsys):
    assert main(["verify", "euler", "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "verify.json").read_text())
    assert payload[0]["suite"] == "euler"
    ids = [check["id"] for check in payload[0]["checks"]]
    assert ids == ["euler-l1", "euler-l2", "euler-l3", "euler-l4", "euler-l4-window"]
    assert all(check["status"] == "pass" for check in payload[0]["checks"])
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["command"] == "verify"
    assert manifest["inputs"]["suite"] == "euler"
    assert manifest["seeds"] == {"seed": 20260816}


# --------------------------------------------------------------------------
# e1
# --------------------------------------------------------------------------

def test_e1_markdown_columns(capsys):
    assert main(["e1", "--L", "3..4"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "| row | L=3 | L=4 |"
    assert "| -11 | Q(-6) |  |" in out


def test_e1_csv_and_list_syntax(capsys):
    assert main(["e1", "--L", "3,5", "--format", "csv"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "L,row,twist,multiplicity,contributing_types"
    assert set(line.split(",")[0] for line in out[1:]) == {"3", "5"}


def test_e1_csv_renderer(capsys):
    assert main(["e1", "--L", "3,4", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "L,row,twist,multiplicity,contributing_types"
    assert any(line.startswith("3,-12,7,1,") and "(0,1,2)" in line for line in lines)
    assert any(line.startswith("4,-16,9,3,") for line in lines)


def test_e1_markdown_renderer(capsys):
    assert main(["e1", "--L", "3..6"]) == 0
    text = capsys.readouterr().out
    assert "| L=3 |" in text or "L=3" in text
    assert "Q(-9)^2" in text
    assert "-32" in text


def test_e1_rejects_an_empty_range(capsys):
    assert main(["e1", "--L", "4..3"]) == 2
    assert capsys.readouterr().err == "error: no L values in '4..3'\n"


def test_e1_names_the_flag_of_a_malformed_L(capsys):
    for text in ("..4", "3..x", "3,,4"):
        assert main(["e1", "--L", text]) == 2
        assert capsys.readouterr().err == (
            "error: --L wants a range like 3..6, a list like 3,4,5 or one value "
            f"like 4: {text!r}\n"
        )


# --------------------------------------------------------------------------
# m0n
# --------------------------------------------------------------------------

def test_m0n_layer_table(capsys):
    assert main(["m0n", "--n", "4"]) == 0
    out = capsys.readouterr().out
    assert "| 1 | [2, 2] | 1 |" in out


def test_m0n_json_layers(capsys):
    assert main(["m0n", "--n", "5", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n"] == 5
    layers = {layer["i"]: layer["classes"] for layer in payload["layers"]}
    assert layers[0] == {"[5]": 1}
    assert layers[1] == {"[3, 2]": 1}
    assert layers[2] == {"[3, 1, 1]": 1}


# --------------------------------------------------------------------------
# count
# --------------------------------------------------------------------------

def test_count_brute_reproduces_stack_count(capsys):
    assert main(["count", "--g", "2", "--l", "1", "--q", "3",
                 "--method", "brute"]) == 0
    out = capsys.readouterr().out
    assert "| 2 | 1 | 3 | brute | full | 279936 | 2592 | 108 | 108 | True |" in out


def test_count_csv_row(capsys):
    assert main(["count", "--g", "2", "--l", "3", "--q", "3",
                 "--format", "csv"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "g,l,q,method,variant,raw,group_order,stack,closed_form,match"
    assert out[1] == "2,3,3,coset,g0prime,278784,288,968,968,True"


def test_count_closed_only(capsys):
    for g, l, q, stack in ((3, 2, 3, 2916), (2, 0, 3, 27)):
        assert main(["count", "--g", str(g), "--l", str(l), "--q", str(q),
                     "--method", "closed", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["stack"] == ffcount.closed_form_count(g, l, q) == stack
        assert payload["raw"] is None and payload["match"] is None


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this interpreter converts ints of any length")
@pytest.mark.parametrize("fmt", ["md", "csv", "json"])
def test_count_closed_prints_a_count_past_the_int_digit_limit(capsys, fmt):
    # the count at g = 4507 is the first past CPython's default 4300 digits;
    # the report lifts the limit for itself and puts it back after
    limit = sys.get_int_max_str_digits()
    assert main(["count", "--g", "4507", "--l", "1", "--q", "3",
                 "--method", "closed", "--format", fmt]) == 0
    assert sys.get_int_max_str_digits() == limit
    sys.set_int_max_str_digits(0)
    try:
        digits = str(ffcount.closed_form_count(4507, 1, 3))
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(digits) > limit > 0
    assert capsys.readouterr().out.count(digits) == 2  # stack and closed_form


def test_count_g0_divides_the_g0prime_closed_form_by_q_plus_one(capsys):
    for method in ("coset", "closed"):
        assert main(["count", "--g", "2", "--l", "3", "--q", "3", "--variant", "g0",
                     "--method", method, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["closed_form"] == 242 and payload["stack"] == 242
        assert payload["match"] is (True if method == "coset" else None)


@pytest.mark.parametrize(
    "g, l, q, message",
    [
        (2, 1, 9, "field size must be a prime: 9"),
        (5, 5, 3, ffcount._UNSUPPORTED_HINT),
        # q is checked before the case is looked up
        (5, 5, 9, "field size must be a prime: 9"),
    ],
    ids=["q-not-prime", "no-closed-form", "q-before-the-form"],
)
def test_count_closed_usage_errors(capsys, g, l, q, message):
    assert main(["count", "--g", str(g), "--l", str(l), "--q", str(q),
                 "--method", "closed"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and message in captured.err
    assert captured.out == ""


def test_count_enumeration_without_a_closed_form_leaves_the_cell_blank(capsys):
    assert main(["count", "--g", "4", "--l", "4", "--q", "3", "--format", "csv"]) == 0
    row = dict(zip(*(line.split(",") for line in capsys.readouterr().out.splitlines())))
    assert row["closed_form"] == "" and row["match"] == ""
    assert row["stack"] != ""


def test_count_rejects_out_of_family_l(capsys):
    assert main(["count", "--g", "2", "--l", "9", "--q", "3"]) == 2
    assert "l must satisfy" in capsys.readouterr().err


def test_count_over_the_tuple_budget_is_usage_error():
    env = dict(os.environ, PYTHONPATH=_SRC)
    done = subprocess.run(
        [sys.executable, "-m", "hyperstab.cli", "count", "--g", "9", "--l", "1", "--q", "3"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith("error: (g=9, l=1, q=3) spans q^(3g+6)")
    assert "feasible grid at this budget: q=3: g<=4" in done.stderr
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize("g", [3003, 100000000])
def test_count_guard_names_the_power_without_building_it(g):
    # q^(3g+6) at g = 3003 has more digits than int-to-str allows, and at
    # g = 10^8 building it takes minutes; the guard prints q^(3g+6) as a power
    env = dict(os.environ, PYTHONPATH=_SRC)
    done = subprocess.run(
        [sys.executable, "-m", "hyperstab.cli", "count", "--g", str(g), "--l", "1", "--q", "3"],
        capture_output=True, text=True, env=env, timeout=20,
    )
    assert done.returncode == 2
    assert done.stderr.startswith(
        f"error: (g={g}, l=1, q=3) spans q^(3g+6) = 3^{3 * g + 6} tuples, over the budget"
    )
    assert "feasible grid at this budget: q=3: g<=4" in done.stderr


# --------------------------------------------------------------------------
# rankcheck
# --------------------------------------------------------------------------

def test_rankcheck_report(capsys):
    assert main(["rankcheck", "--type", "2,0,0", "--d", "7", "--n", "1",
                 "--trials", "5"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["type"] == [2, 0, 0]
    assert report["expected_rank"] == 15
    assert report["failures"] == []
    assert report["seed"] == 20260816


# the report the integer (Bareiss) route gives for type 2,0,0 at d = 7, n = 1
RANKCHECK_200_D7_N1 = {
    "d": 7, "expected_rank": 15, "failures": [], "n": 1, "seed": 20260816,
    "trials": 100, "type": [2, 0, 0], "v": 21,
}


@pytest.mark.parametrize("modulus", ["101", "2147483659", "2305843009213693951"])
def test_rankcheck_modulus(capsys, modulus):
    # ranks are certified over Q, with no second, uncertified F_p route: the
    # flag is refused, and the certified report is the one the route gave
    argv = ["rankcheck", "--type", "2,0,0", "--d", "7", "--n", "1"]
    with pytest.raises(SystemExit) as excinfo:
        main(argv + ["--modulus", modulus])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert "--modulus" in captured.err
    assert captured.out == ""
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out) == RANKCHECK_200_D7_N1


def test_rankcheck_modulus_beyond_the_prime_test_is_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["rankcheck", "--type", "1,1,1", "--d", "9", "--n", "1",
              "--modulus", str(2**89 - 1)])
    assert excinfo.value.code == 2
    assert "--modulus" in capsys.readouterr().err


def test_rankcheck_witness(capsys):
    assert main(["rankcheck", "--witness", "--trials", "6", "--format", "md"]) == 0
    out = capsys.readouterr().out
    assert "| failures | 6 trial(s) |" in out


def test_rankcheck_witness_manifest_records_the_inputs_it_ran_at(tmp_path, capsys):
    witness = tmp_path / "witness"
    assert main(["rankcheck", "--witness", "--trials", "6", "--out", str(witness)]) == 0
    inputs = json.loads((witness / "manifest.json").read_text())["inputs"]
    assert inputs == {
        "d": 3, "format": "json", "n": 1, "seed": 20260816, "trials": 6,
        "type": "2,0,0", "witness": True,
    }
    report = json.loads((witness / "rankcheck.json").read_text())
    assert [report["type"], report["d"], report["n"]] == [[2, 0, 0], 3, 1]
    # without --witness an omitted --n is the default twist 0
    plain = tmp_path / "plain"
    assert main(["rankcheck", "--type", "2,0,0", "--d", "7", "--trials", "3",
                 "--out", str(plain)]) == 0
    inputs = json.loads((plain / "manifest.json").read_text())["inputs"]
    assert (inputs["type"], inputs["d"], inputs["n"], inputs["witness"]) == ("2,0,0", 7, 0, False)


@pytest.mark.parametrize(
    "extra, flag",
    [
        (["--type", "1,1,1", "--d", "2"], "--type, --d"),
        (["--d", "3"], "--d"),
        (["--n", "1"], "--n"),
        (["--n", "0", "--trials", "3"], "--n"),
    ],
    ids=["type-and-d", "d", "n", "n-zero"],
)
def test_rankcheck_witness_refuses_its_fixed_flags(capsys, extra, flag):
    assert main(["rankcheck", "--witness"] + extra) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: --witness")
    assert captured.err.rstrip().endswith(flag)
    assert captured.out == ""


def test_rankcheck_below_bound_is_usage_error(capsys):
    assert main(["rankcheck", "--type", "2,0,0", "--d", "4", "--n", "1"]) == 2
    assert "bound" in capsys.readouterr().err


def test_rankcheck_below_the_jet_degree_is_usage_error(capsys):
    # d = 4 exceeds the bound 10/3 of type 0,1,2 at n = 0 but not D = 5;
    # some configurations drop rank there (test_linalg pins one)
    assert main(["rankcheck", "--type", "0,1,2", "--d", "4", "--n", "0"]) == 2
    assert capsys.readouterr().err == (
        "error: degree 4 is below the jet degree D = max(2k1+h+2n-1, k1+k2+2h+n-1, "
        "2k2+2h-1, 2n) = 5 for type (0, 1, 2) at n=0; from D up every configuration "
        "has full rank\n"
    )
    assert main(["rankcheck", "--type", "0,1,2", "--d", "5", "--n", "0", "--trials", "5"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["rankcheck", "--type", "2,0,0", "--d", "7", "--n", "1", "--trials", "-5"],
        ["rankcheck", "--witness", "--trials", "0"],
        ["verify", "ranks", "--trials", "0"],
    ],
    ids=["rankcheck-negative", "rankcheck-witness-zero", "verify-ranks-zero"],
)
def test_no_trials_is_usage_error(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: trials must be at least 1")
    assert "Traceback" not in captured.err
    assert "PASS" not in captured.out


def test_rankcheck_requires_type_or_witness(capsys):
    assert main(["rankcheck", "--d", "7"]) == 2


def test_rankcheck_names_the_flag_of_a_malformed_type(capsys):
    for text in ("a,b,c", "1,2", "1,2,3,4", "1,,2", ""):
        assert main(["rankcheck", "--type", text, "--d", "7"]) == 2
        assert capsys.readouterr().err == (
            f"error: --type wants three comma-separated integers: {text!r}\n"
        )


def test_default_seed_is_the_one_of_linalg():
    assert cli.DEFAULT_SEED is linalg.DEFAULT_SEED == 20260816
    witness = inspect.signature(linalg.rank_drop_witness).parameters["seed"]
    assert witness.default == linalg.DEFAULT_SEED
    assert not hasattr(ffcount, "DEFAULT_SEED")


# --------------------------------------------------------------------------
# broken internal invariants
# --------------------------------------------------------------------------

@pytest.mark.parametrize("error", [ArithmeticError, AssertionError])
def test_broken_invariant_exits_three(monkeypatch, layer_cache, capsys, error):
    def broken(count):
        raise error("inexact division by q^3 - q")

    monkeypatch.setattr(m0n, "_divide_by_pgl2", broken)
    assert main(["m0n", "--n", "5"]) == 3
    captured = capsys.readouterr()
    assert captured.err == "error: internal invariant: inexact division by q^3 - q\n"
    assert captured.out == ""
    assert list(layer_cache.iterdir()) == []


def test_broken_stratification_invariant_exits_three(monkeypatch, capsys):
    factor_form = ffcount._factor_form

    def squared(coeffs, q, irreducibles):
        return [(pi, 2 * e) for pi, e in factor_form(coeffs, q, irreducibles)]

    monkeypatch.setattr(ffcount, "_factor_form", squared)
    # a census kept from an earlier test would not factor again, and one made
    # here must not outlive the patch
    ffcount._coset_census.cache_clear()
    try:
        assert main(["verify", "counts"]) == 3
    finally:
        ffcount._coset_census.cache_clear()
    captured = capsys.readouterr()
    assert captured.err == (
        "error: internal invariant: a repeated factor of the leading form "
        "divides a square-free discriminant\n"
    )


def test_a_layer_that_is_not_a_virtual_character_exits_three(monkeypatch, capsys):
    # the indicator of the identity of S_2 pairs to 1/2 with each irreducible
    layer = symfunc.CharacterVector(2, [0, 1])
    monkeypatch.setattr(cli, "equivariant_poincare_m0n", lambda n: {0: layer})
    assert main(["m0n", "--n", "5"]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("error: internal invariant: multiplicity of chi^")
    assert captured.out == ""


def test_a_five_point_type_without_a_column_exits_three(monkeypatch, capsys):
    # a wrong layer that still loads, such as layer 1 of M_{0,4} with the sign
    # character added, gives classes to the five-point type (0, 3, 1)
    real = spectral.type_pairings

    def widened(k1, k2, h):
        pairings = real(k1, k2, h)
        return {**pairings, 1: 1} if (k1, k2, h) == (0, 3, 1) else pairings

    monkeypatch.setattr(spectral, "type_pairings", widened)
    assert main(["verify", "tables"]) == 3
    assert capsys.readouterr().err == (
        "error: internal invariant: five-point type ConfigurationType(0, 3, 1) "
        "has classes, but the table has no column for it\n"
    )


def test_cache_with_a_cycle_type_spelled_twice_is_a_usage_error(layer_cache, capsys):
    m0n.equivariant_poincare_m0n(5)
    path = layer_cache / "m0n_5.json"
    payload = json.loads(path.read_text())
    payload["cycle_types"].append(["1", "1", "3"])
    for layer in payload["layers"]:
        layer["values"].append({"trace": "99"})
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="delete the file to recompute it"):
        m0n._load_cache(path, 5)

    m0n.equivariant_poincare_m0n.cache_clear()  # so that stable reads the edited file
    assert main(["stable", "--max-deg", "8"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {path}: ")
    assert captured.err.endswith("delete the file to recompute it\n")
    assert captured.out == ""


def _previous_layout(payload):
    # the layout of older versions: a label in every value, no cycle_types
    labels = payload.pop("cycle_types")
    for layer in payload["layers"]:
        for label, item in zip(labels, layer["values"]):
            item["cycle_type"] = label
    return payload


def _without(key):
    def edit(payload):
        del payload[key]
        return payload
    return edit


def _edit_layer(i, edit_values):
    def edit(payload):
        edit_values(payload["layers"][i]["values"])
        return payload
    return edit


def _set_first_trace(value):
    def edit_values(values):
        values[0]["trace"] = value
    return _edit_layer(0, edit_values)


def _repeat_first_label(payload):
    payload["cycle_types"].append(payload["cycle_types"][0])
    for layer in payload["layers"]:
        layer["values"].append({"trace": "0"})
    return payload


def _layers_of(n):
    def edit(payload):
        return json.loads(m0n._cache_text(n, m0n.equivariant_poincare_m0n(n)))
    return edit


LAYOUT_EDITS = {
    "n-only": lambda payload: {"n": "4"},
    "layer-without-values": lambda payload: {"n": "4", "layers": [{"i": "0"}]},
    "previous-layout": _previous_layout,
    "no-layers": _without("layers"),
    "no-n": _without("n"),
    "no-trace": _edit_layer(1, lambda values: values[0].pop("trace")),
    "top-level-list": lambda payload: [payload],
    "layers-object": lambda payload: {**payload, "layers": {"0": []}},
    "cycle-types-string": lambda payload: {**payload, "cycle_types": "4"},
    "trace-list": _set_first_trace(["1"]),
    "trace-float": _set_first_trace(1.0),
    "trace-short": _edit_layer(1, lambda values: values.pop()),
    "trace-long": _edit_layer(0, lambda values: values.append({"trace": "1"})),
    "label-repeated": _repeat_first_label,
    "layer-repeated": lambda payload: {**payload, "layers": payload["layers"] * 2},
    "trace-integer": _set_first_trace(1),
    "trace-zero-padded": _set_first_trace("01"),
    "trace-minus-zero": _edit_layer(1, lambda values: values[0].update(trace="-0")),
    "extra-key": lambda payload: {**payload, "note": "0"},
    "keys-reordered": lambda payload: dict(reversed(payload.items())),
}


# every file that does not re-encode to the writer's bytes gets one message;
# "another-n" is m0n_7.json's payload saved as m0n_6.json
@pytest.mark.parametrize(
    "n, edit",
    [(4, edit) for edit in LAYOUT_EDITS.values()] + [(6, _layers_of(7))],
    ids=[*LAYOUT_EDITS, "another-n"],
)
def test_malformed_layer_cache_is_a_usage_error(layer_cache, capsys, n, edit):
    m0n.equivariant_poincare_m0n(n)
    path = layer_cache / f"m0n_{n}.json"
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    with pytest.raises(ValueError) as raised:
        m0n._load_cache(path, n)
    assert str(raised.value) == (
        f"{path}: not the layers of n={n} in the layout this version writes (an older "
        "version's layout, or a damaged file): delete the file to recompute it"
    )

    m0n.equivariant_poincare_m0n.cache_clear()  # so that stable reads the edited file
    assert main(["stable", "--max-deg", "8"]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {raised.value}\n"
    assert captured.out == ""


# a degree-24 table pairs layers 0 and 1 of M_{0,23}, and never the top layer 20
@pytest.mark.parametrize(
    "edit",
    [
        _edit_layer(-1, lambda values: values[0].update(trace="01")),
        _edit_layer(-1, lambda values: values[0].update(trace="-0")),
        _edit_layer(-1, lambda values: values.pop()),
        _edit_layer(-1, lambda values: values.append({"trace": "1"})),
    ],
    ids=["zero-padded", "minus-zero", "trace-dropped", "trace-added"],
)
def test_damage_in_a_layer_the_table_never_pairs_is_refused_at_load(layer_cache, capsys, edit):
    m0n.equivariant_poincare_m0n(23)
    path = layer_cache / "m0n_23.json"
    payload = json.loads(path.read_text())
    assert payload["layers"][-1]["i"] == "20"
    # the writer's bytes but for the edit
    path.write_text(json.dumps(edit(payload), separators=(",", ":")))

    m0n.equivariant_poincare_m0n.cache_clear()  # so that stable reads the edited file
    assert main(["stable", "--max-deg", "24"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {path}: ")
    assert captured.err.endswith("delete the file to recompute it\n")
    assert captured.out == ""


def test_a_degree_d_table_reads_no_layer_file_of_n_d(layer_cache, capsys):
    # the table through degree 8 meets M_{0,8} only in H^0, the trivial character
    assert main(["stable", "--max-deg", "8"]) == 0
    table = capsys.readouterr().out
    written = {path.name for path in layer_cache.iterdir()}
    assert written == {f"m0n_{n}.json" for n in range(3, 8)}

    path = layer_cache / "m0n_8.json"
    path.write_text("garbage")
    m0n.equivariant_poincare_m0n.cache_clear()
    assert main(["stable", "--max-deg", "8"]) == 0
    assert capsys.readouterr().out == table
    assert path.read_text() == "garbage"

    assert main(["stable", "--max-deg", "9"]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {path}: Expecting value: line 1 column 1 (char 0)\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "damage, message",
    [
        (lambda data: b"", "Expecting value: line 1 column 1 (char 0)"),
        (lambda data: data[:300], "Expecting value: line 1 column 301 (char 300)"),
        (lambda data: b"\xff\xfe" + data,
         "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    ],
    ids=["empty", "cut", "not-utf-8"],
)
def test_damaged_layer_cache_is_a_usage_error(layer_cache, capsys, damage, message):
    m0n.equivariant_poincare_m0n(7)
    path = layer_cache / "m0n_7.json"
    path.write_bytes(damage(path.read_bytes()))
    m0n.equivariant_poincare_m0n.cache_clear()
    assert main(["stable", "--max-deg", "8"]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {path}: {message}\n"
    assert captured.out == ""


# --------------------------------------------------------------------------
# output files and manifests
# --------------------------------------------------------------------------

def test_out_files_are_byte_identical_across_reruns(tmp_path, capsys):
    first = tmp_path / "first"
    second = tmp_path / "second"
    for out_dir in (first, second):
        assert main(["count", "--g", "2", "--l", "2", "--q", "3",
                     "--out", str(out_dir)]) == 0
    for name in ("count.md", "manifest.json"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_manifest_hashes_match_written_files(tmp_path, capsys, monkeypatch):
    assert main(["stable", "--max-deg", "8", "--format", "csv",
                 "--out", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    digest = hashlib.sha256((tmp_path / "stable.csv").read_bytes()).hexdigest()
    assert manifest["outputs"]["stable.csv"] == f"sha256:{digest}"
    assert manifest["inputs"] == {
        "format": "csv", "max_deg": 8, "regime": "n0",
    }
    # stable never loads numpy, so its manifest does not name it
    assert manifest["versions"].keys() == {"hyperstab", "python"}

    # verify has loaded numpy and reads its version from the module; the
    # manifest bytes are those of the installed package metadata's version
    out = tmp_path / "verify"
    assert main(["verify", "euler", "--seed", "11", "--out", str(out)]) == 0
    text = (out / "manifest.json").read_text()
    manifest = json.loads(text)
    digest = hashlib.sha256((out / "verify.json").read_bytes()).hexdigest()
    assert manifest["outputs"] == {"verify.json": f"sha256:{digest}"}
    assert manifest["inputs"] == {
        "budget": "small", "seed": 11, "suite": "euler", "trials": 100,
    }
    assert manifest["seeds"] == {"seed": 11}
    assert manifest["versions"]["numpy"] == numpy.__version__ == version("numpy")
    args = cli._build_parser().parse_args(["verify", "euler", "--seed", "11"])
    report = (out / "verify.json").read_text()
    assert cli._manifest(args, "verify.json", report) == text
    monkeypatch.delitem(sys.modules, "numpy")
    assert cli._manifest(args, "verify.json", report) == text


@settings(max_examples=200, deadline=None)
@given(st.binary() | st.text().map(str.encode))
def test_manifest_sha256_is_hashlibs(data):
    assert cli.sha256(data).hexdigest() == hashlib.sha256(data).hexdigest()


def test_unwritable_out_is_usage_error(tmp_path, capsys):
    (tmp_path / "file").write_text("")
    out = tmp_path / "file" / "out"
    assert main(["stable", "--max-deg", "4", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert str(out) in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_unwritable_layer_cache_is_usage_error(tmp_path):
    (tmp_path / "file").write_text("")
    cache = tmp_path / "file" / "cache"
    env = dict(os.environ, PYTHONPATH=_SRC, HYPERSTAB_CACHE=str(cache))
    done = subprocess.run(
        [sys.executable, "-m", "hyperstab.cli", "stable", "--max-deg", "6"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 2
    assert done.stderr.startswith("error: ")
    assert str(cache) in done.stderr
    assert "Traceback" not in done.stderr
    assert done.stdout == ""


def test_stable_e1_and_m0n_never_import_numpy(tmp_path):
    # Each step asserts in the child, so a failure names the step that
    # loaded numpy, the package metadata reader or OpenSSL (through hashlib);
    # each writes its manifest under --out, and the layer cache is the
    # session's, inherited through env.  count loads numpy, and still no OpenSSL.
    script = "\n".join([
        "import sys",
        "import hyperstab.cli",
        "assert 'numpy' not in sys.modules, 'import hyperstab.cli'",
        f"builtin_sha256 = {_BUILTIN_SHA256}",
        f"out = {str(tmp_path)!r} + '/'",
        "for argv in (['stable', '--max-deg', '8'], ['e1', '--L', '3..4'],",
        "             ['m0n', '--n', '6']):",
        "    argv += ['--out', out + argv[0]]",
        "    assert hyperstab.cli.main(argv) == 0, argv",
        "    assert 'numpy' not in sys.modules, argv",
        "    assert 'importlib.metadata' not in sys.modules, argv",
        "    assert not builtin_sha256 or '_hashlib' not in sys.modules, argv",
        "argv = ['count', '--g', '2', '--l', '1', '--q', '3', '--out', out + 'count']",
        "assert hyperstab.cli.main(argv) == 0, argv",
        "assert not builtin_sha256 or '_hashlib' not in sys.modules, argv",
    ])
    env = dict(os.environ, PYTHONPATH=_SRC)
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr


def test_a_run_that_loads_numpy_starts_no_blas_thread():
    if not Path("/proc/self/task").is_dir():
        pytest.skip("no /proc/self/task to count threads in")
    script = "\n".join([
        "import os, sys",
        "from hyperstab.cli import main",
        "assert main(['count', '--g', '2', '--l', '1', '--q', '3']) == 0",
        "assert 'numpy' in sys.modules",
        "threads = os.listdir('/proc/self/task')",
        "assert len(threads) == 1, threads",
    ])
    env = dict(os.environ, PYTHONPATH=_SRC)
    env.pop("OPENBLAS_NUM_THREADS", None)
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr


def test_main_sets_one_blas_thread_whatever_the_environment_says(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
    assert main(["stable", "--max-deg", "2"]) == 0
    assert os.environ["OPENBLAS_NUM_THREADS"] == "1"


# SHA-256 of each report file; the hashes were recorded before the F_q
# kernels were shared, and every refactor must keep them.
PINNED_OUT_HASHES = [
    (["stable", "--max-deg", "24", "--format", "json"], "stable.json",
     "6ee147a5cbd378c6400f2e3a090cf0eba9de2f69793adad1dd33ef68fb17786c"),
    (["stable", "--max-deg", "18", "--format", "md"], "stable.md",
     "b0ded0f4d58016a4ae922cdafb15486bb72317240b1224af0633b898657f6dca"),
    (["stable", "--max-deg", "20", "--regime", "npos", "--format", "csv"], "stable.csv",
     "0ae61fe13e64c3787a4a455ebcceeaebd9d66a9fc8d81fdf55ea596dae849338"),
    (["e1", "--L", "3..6"], "e1.md",
     "08498592ffe2ab2492fff1159b1d0d73a3d8fbc3e6ebc345d28507f791ee57c0"),
    (["e1", "--L", "3..6", "--format", "csv"], "e1.csv",
     "863f55139c8b5d4174778afc8b14d1de01a5ad16be2d2112c31eeda0ef1abea0"),
    (["m0n", "--n", "7"], "m0n.md",
     "96cdc29139d19f62e4fd0c05239b1dac2d7006079fd1bb275416f29aed35483f"),
    (["m0n", "--n", "7", "--format", "json"], "m0n.json",
     "9d37feeb520ee381ce619b518a3ac8b5c733e3a0682b983e6af1eb37b40b921a"),
    (["count", "--g", "2", "--l", "1", "--q", "3"], "count.md",
     "65f11b92f5eb520fae754eea22923f9b70665c7efc59f6517075894e1012c576"),
    (["count", "--g", "2", "--l", "1", "--q", "3", "--format", "csv"], "count.csv",
     "8a276c0b5a339236ecea180e6ac4175d127fefcb03fa6545c5ed53bfe34368f6"),
    (["count", "--g", "2", "--l", "1", "--q", "3", "--format", "json"], "count.json",
     "9f60978d1db7cd030734070126f07dd5edb4ba57b528b72fdc7f65c96e093569"),
    (["count", "--g", "3", "--l", "4", "--q", "3", "--format", "csv"], "count.csv",
     "6d04defc9d16e42e7242b47406c4355c9fe7c650026e5a572ba727c10f334854"),
    (["count", "--g", "3", "--l", "4", "--q", "3", "--format", "json"], "count.json",
     "5454492bce2bd0d80475451b0bcf0ab4aeff9fed2e57f7b1206256078c9d226f"),
    # no closed form at (4, 4, 3): blank CSV cells and JSON nulls
    (["count", "--g", "4", "--l", "4", "--q", "3", "--format", "csv"], "count.csv",
     "972c7f861b8cb643e5bb8c3a8a9f875e2b7583ae098d50dbb1095ea2436545b9"),
    (["count", "--g", "4", "--l", "4", "--q", "3", "--format", "json"], "count.json",
     "9309e182a5b4178f83c3cba6f06e6a3665d1daf867d2bb2b82d070a3d0a1355a"),
    (["rankcheck", "--type", "1,1,1", "--d", "9", "--n", "1", "--format", "md"],
     "rankcheck.md",
     "ef7fdfea6b40ecadba7a82f57844423bc992c4fcb6a2ec0f0a10948412c9968b"),
    (["stable", "--max-deg", "20", "--regime", "npos", "--format", "md"], "stable.md",
     "6680d294d2c8f759657419e2c34ddca719da8c687a19f2c39b6caccb94a5f8a1"),
    (["stable", "--max-deg", "30", "--regime", "npos", "--format", "json"], "stable.json",
     "8b85c6ca010082c15e6e60473472603bbbad1ee3d2deddfdf206101faa1c8d4a"),
    (["stable", "--max-deg", "30", "--format", "json"], "stable.json",
     "c9e64685d9d51c3953e639dfd3607e570aab4b315bf11286f9d539be69f96f69"),
    (["rankcheck", "--type", "2,0,0", "--d", "7", "--n", "1"], "rankcheck.json",
     "e2db1c00a95de53f15f232f956f40f5f4513feb7c1c333dd9487fb130cd6161c"),
    # two blocks of 128 + 22 trials, certified by the fiber pairs
    (["rankcheck", "--type", "0,1,2", "--d", "12", "--n", "0", "--trials", "150",
      "--seed", "11"], "rankcheck.json",
     "505f95729b1e945ad35cba42eec1d804b7107679a804ed256b2ae4ba67aa27aa"),
    (["rankcheck", "--witness", "--format", "md"], "rankcheck.md",
     "c6e336329b4bce15f4e9daa488fdb2bbcc0a5f689a26dda973b8832a390041d9"),
    (["verify", "all", "--budget", "small", "--seed", "11"], "verify.json",
     "1ee1d7d5b5332b6de39274b58bbc2a4232f8ca6f6df38d8ab80fab400b44d249"),
    (["verify", "counts", "--budget", "full"], "verify.json",
     "8e8e7230e7c32d30fc54892bdfe4ba0ce7a7e68a658bf0a12146fb932d943c31"),
    (["verify", "all", "--budget", "full"], "verify.json",
     "db493fb3c2f466ef1a862661a213e06f1867fbcf109abbee17a2ca39e393d3d3"),
]


def test_out_hashes_are_pinned(tmp_path, capsys):
    for i, (argv, name, digest) in enumerate(PINNED_OUT_HASHES):
        out = tmp_path / str(i)
        assert main(argv + ["--out", str(out)]) == 0, argv
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, argv
