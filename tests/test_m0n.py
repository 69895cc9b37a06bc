"""Tests for twisted point counts and the equivariant layers of M_{0,n}.

Oracles:
* the sparse route through Moebius sums with rational coefficients
  (`oracles.twisted_count_config_p1` on `oracles.QPolynomial`) for the
  integer counts and layers;
* the frozen product of cycle factors per cycle type
  (`oracles.o_integer_twisted_count`) for the counts built one part at a
  time, at sizes the rational route is too slow for;
* brute-force counts of monic irreducible polynomials over small prime fields
  for its closed-point polynomials a_d;
* the Frobenius-orbit enumerator `oracles.brute_twisted_count`, which shares
  no formulas with the two product routes it checks;
* the classical identity-layer Poincare product prod_{j=2}^{n-2} (1 + j t).
"""

import hashlib
import itertools
import json
import math
import os
import random
import string
from collections.abc import Mapping

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from hyperstab import m0n
from hyperstab import symfunc as sf
from hyperstab.ffcount import ResourceGuardError
from oracles import QPolynomial, o_qpoly_floordiv


# --------------------------------------------------------------------------
# oracles
# --------------------------------------------------------------------------

def brute_monic_irreducible_count(degree, q):
    """Count monic irreducible degree-d polynomials over F_q by trial division."""

    def polys(d, monic):
        head = [1] if monic else list(range(1, q))
        for lead in head:
            for tail in itertools.product(range(q), repeat=d):
                yield (lead,) + tail  # coefficients, descending degree

    def poly_mod(a, b):
        # remainder of a / b over F_q, coefficients descending
        a = list(a)
        while len(a) >= len(b) and any(a):
            if a[0] == 0:
                a.pop(0)
                continue
            factor = a[0] * pow(b[0], -1, q) % q
            for i in range(len(b)):
                a[i] = (a[i] - factor * b[i]) % q
            a.pop(0)
        return a

    count = 0
    for f in polys(degree, True):
        divisible = False
        for d2 in range(1, degree // 2 + 1):
            for g in polys(d2, True):
                rem = poly_mod(f, g)
                if not any(rem):
                    divisible = True
                    break
            if divisible:
                break
        if not divisible:
            count += 1
    return count


# --------------------------------------------------------------------------
# QPolynomial
# --------------------------------------------------------------------------

def test_qpolynomial_arithmetic():
    q = QPolynomial({1: 1})
    one = QPolynomial({0: 1})
    assert (q + one) * (q - one) == QPolynomial({2: 1, 0: -1})
    assert (q * q - q)(3) == 6
    assert QPolynomial({}) == QPolynomial({2: 0})
    assert (q ** 3 - q).divide_exact(q) == q * q - one


def test_qpolynomial_exact_division_error():
    q = QPolynomial({1: 1})
    with pytest.raises(ArithmeticError):
        (q + QPolynomial({0: 1})).divide_exact(q)


def test_qpolynomial_rejects_negative_exponent():
    with pytest.raises(ValueError):
        QPolynomial({-1: 2})


def _qpolynomials(nonzero=False):
    coeffs = st.one_of(
        st.integers(-12, 12),
        st.fractions(min_value=-12, max_value=12, max_denominator=7),
    )
    polys = st.dictionaries(st.integers(0, 5), coeffs, max_size=6).map(QPolynomial)
    return polys.filter(lambda p: p.coeffs) if nonzero else polys


@settings(max_examples=120, deadline=None)
@given(_qpolynomials(), _qpolynomials(nonzero=True), st.sampled_from((3, 5, 7, 11)))
def test_qpolynomial_divmod_matches_the_frozen_floordiv(num, den, q):
    quot, rem = num.divmod(den)
    assert (quot, rem) == o_qpoly_floordiv(num, den)
    assert rem.degree() < den.degree()
    assert (den * quot + rem)(q) == num(q)
    assert (num * den).divide_exact(den) == num


# --------------------------------------------------------------------------
# closed_point_count
# --------------------------------------------------------------------------

def test_closed_point_count_degree_one():
    a1 = oracles.closed_point_count(1)
    assert a1 == QPolynomial({1: 1, 0: 1})


def test_closed_point_count_matches_brute_irreducible_counts():
    for q in (3, 5):
        for d in (2, 3):
            assert oracles.closed_point_count(d)(q) == brute_monic_irreducible_count(d, q)


def test_closed_point_count_closed_forms():
    q = QPolynomial({1: 1})
    assert oracles.closed_point_count(2) * QPolynomial({0: 2}) == q * q - q
    assert oracles.closed_point_count(3) * QPolynomial({0: 3}) == q ** 3 - q


# --------------------------------------------------------------------------
# twisted counts
# --------------------------------------------------------------------------

def test_twisted_count_examples():
    q = QPolynomial({1: 1})
    one = QPolynomial({0: 1})
    assert oracles.twisted_count_config_p1(3, (1, 1, 1)) == (q + one) * q * (q - one)
    assert oracles.twisted_count_config_p1(2, (2,)) == q * q - q
    a2 = oracles.closed_point_count(2)
    assert oracles.twisted_count_config_p1(4, (2, 2)) == QPolynomial({0: 4}) * a2 * (a2 - one)


def test_brute_twisted_count_examples():
    assert oracles.brute_twisted_count(3, (1, 1, 1), 5) == 120
    assert oracles.brute_twisted_count(4, (2, 2), 3) == 24
    assert oracles.brute_twisted_count(2, (1, 1), 3) == 12


def test_brute_twisted_count_resource_guard():
    with pytest.raises(ResourceGuardError):
        oracles.brute_twisted_count(6, (6,), 11, max_points=1000)


@pytest.mark.parametrize("q", [4, 6, 9])
def test_brute_twisted_count_rejects_a_field_size_that_is_not_prime(q):
    # Z/q[x] is no field here: at 4 and 6 the orbit walk never ends, at 9
    # it counted 0 where the twisted count is 720
    with pytest.raises(ValueError, match="prime"):
        oracles.brute_twisted_count(3, (2, 1), q)


def test_twisted_count_matches_brute_enumeration():
    """Closed product formula == direct Frobenius-orbit enumeration."""
    for n in range(1, 6):
        for mu in sf.partitions(n):
            for q in (3, 5, 7):
                assert oracles.twisted_count_config_p1(n, mu)(q) == oracles.brute_twisted_count(n, mu, q), (mu, q)
    for mu in sf.partitions(6):
        if math.lcm(*mu) <= 6:
            assert oracles.twisted_count_config_p1(6, mu)(3) == oracles.brute_twisted_count(6, mu, 3), mu


# --------------------------------------------------------------------------
# equivariant layers
# --------------------------------------------------------------------------

def test_m0n_divisibility_by_pgl2_count():
    pgl2 = QPolynomial({3: 1, 1: -1})
    for n in range(3, 11):
        for mu in sf.partitions(n):
            oracles.twisted_count_config_p1(n, mu).divide_exact(pgl2)


def test_integer_layers_match_qpolynomial_route():
    """Dense integer counts and quotients == the sparse rational route, n <= 12."""
    pgl2 = QPolynomial({3: 1, 1: -1})
    for n in range(3, 13):
        for mu, count in zip(sf.partitions(n), m0n._twisted_counts(n), strict=True):
            oracle = oracles.twisted_count_config_p1(n, mu)
            assert list(count) == [oracle.coefficient(e) for e in range(n + 1)], mu
            quotient = oracle.divide_exact(pgl2)
            assert m0n._divide_by_pgl2(count) == [
                quotient.coefficient(e) for e in range(n - 2)
            ], mu


def test_integer_counts_match_brute_enumeration():
    for n in range(1, 6):
        for mu, count in zip(sf.partitions(n), m0n._twisted_counts(n), strict=True):
            for q in (3, 5):
                assert sum(c * q**e for e, c in enumerate(count)) == \
                    oracles.brute_twisted_count(n, mu, q), (mu, q)


def test_recursive_counts_match_one_product_per_cycle_type():
    """The counts built one part at a time == the frozen product of cycle factors, n <= 20."""
    for n in range(0, 21):
        for mu, count in zip(sf.partitions(n), m0n._twisted_counts(n), strict=True):
            assert list(count) == oracles.o_integer_twisted_count(mu), mu


def test_division_by_pgl2_rejects_a_remainder():
    assert m0n._divide_by_pgl2([0, -1, 0, 1]) == [1]
    with pytest.raises(ArithmeticError, match="inexact"):
        m0n._divide_by_pgl2([1, 0, 0, 1])


def test_equivariant_poincare_small_cases(layer_cache):
    layers3 = m0n.equivariant_poincare_m0n(3)
    assert set(layers3) == {0}
    assert layers3[0] == sf.CharacterVector.trivial(3)

    layers4 = m0n.equivariant_poincare_m0n(4)
    assert layers4[0] == sf.CharacterVector.trivial(4)
    assert layers4[1] == oracles.irreducible((2, 2))

    layers5 = m0n.equivariant_poincare_m0n(5)
    dims = [layers5[i].dimension() for i in range(3)]
    assert dims == [1, 5, 6]


def test_identity_layer_poincare_product(layer_cache):
    """Identity traces must expand prod_{j=2}^{n-2} (1 + j t)."""
    for n in range(3, 11):
        layers = m0n.equivariant_poincare_m0n(n)
        coeffs = [1]
        for j in range(2, n - 1):
            coeffs = [c + (j * coeffs[i - 1] if i else 0) for i, c in enumerate(coeffs)] + [j * coeffs[-1]]
        expected = {i: c for i, c in enumerate(coeffs)}
        actual = {i: layer.dimension() for i, layer in layers.items()}
        assert actual == expected, n


def test_layers_are_honest_characters(layer_cache):
    for n in range(3, 11):
        layers = m0n.equivariant_poincare_m0n(n)
        assert set(layers) <= set(range(n - 2))
        for i, layer in layers.items():
            mults = sf.schur_expand(layer)
            assert all(m >= 0 for m in mults.values()), (n, i)


def test_layer_zero_forced_trivial(layer_cache):
    for n in range(3, 9):
        layers = m0n.equivariant_poincare_m0n(n)
        assert layers[0] == sf.CharacterVector.trivial(n)


# --------------------------------------------------------------------------
# disk cache
# --------------------------------------------------------------------------

def test_cache_roundtrip(layer_cache, monkeypatch):
    layers = m0n.equivariant_poincare_m0n(6)
    path = layer_cache / "m0n_6.json"
    assert path.exists()
    payload = json.loads(path.read_text())
    assert payload["n"] == "6"
    for label in payload["cycle_types"]:
        assert all(isinstance(p, str) for p in label)
    for layer in payload["layers"]:
        int(layer["i"])
        assert len(layer["values"]) == len(payload["cycle_types"])
        for entry in layer["values"]:
            assert list(entry) == ["trace"]
            int(entry["trace"])
    # a reload must parse the cache, not recompute
    monkeypatch.setattr(m0n, "_twisted_counts", _no_recompute)
    m0n.equivariant_poincare_m0n.cache_clear()
    again = m0n.equivariant_poincare_m0n(6)
    assert again == layers


def _no_recompute(m):
    raise AssertionError("the cache file was not read")


def test_cache_file_is_compact_and_indented_files_still_load(layer_cache, monkeypatch):
    layers = m0n.equivariant_poincare_m0n(5)
    path = layer_cache / "m0n_5.json"
    text = path.read_text()
    assert "\n" not in text and ": " not in text
    payload = json.loads(text)
    traces = [[int(v["trace"]) for v in layer["values"]] for layer in payload["layers"]]
    cycle_types = [tuple(int(p) for p in label) for label in payload["cycle_types"]]
    assert cycle_types == sorted(sf.partitions(5), reverse=True)
    # each label is written exactly once in the file
    for label in payload["cycle_types"]:
        assert text.count(json.dumps(label, separators=(",", ":"))) == 1, label
    values = [dict(zip(sf.partitions(5), layers[i].vector)) for i in range(3)]
    assert traces == [[layer[mu] for mu in cycle_types] for layer in values]

    path.write_text(json.dumps(payload, indent=1))
    monkeypatch.setattr(m0n, "_twisted_counts", _no_recompute)
    m0n.equivariant_poincare_m0n.cache_clear()
    assert m0n.equivariant_poincare_m0n(5) == layers


def test_cache_env_var(layer_cache):
    assert os.environ["HYPERSTAB_CACHE"] == str(layer_cache)
    m0n.equivariant_poincare_m0n(4)
    assert (layer_cache / "m0n_4.json").exists()


def test_cache_defaults_to_the_home_directory(tmp_path, monkeypatch):
    monkeypatch.delenv("HYPERSTAB_CACHE")
    monkeypatch.setenv("HOME", str(tmp_path))
    assert m0n._cache_path(4) == tmp_path / ".cache" / "hyperstab" / "m0n_4.json"


def test_corrupt_cache_rejected(layer_cache):
    path = layer_cache / "m0n_4.json"
    path.write_text(json.dumps({"n": "4", "layers": []}))
    with pytest.raises(ValueError):
        m0n.equivariant_poincare_m0n(4)


def _rewritten_cache(layer_cache, edited, n, edit, indent=None):
    """The directory ``edited``, holding the written m0n_<n>.json after ``edit(payload)``."""
    m0n.equivariant_poincare_m0n(n)
    payload = json.loads((layer_cache / f"m0n_{n}.json").read_text())
    edit(payload)
    edited.mkdir(exist_ok=True)
    (edited / f"m0n_{n}.json").write_text(json.dumps(payload, indent=indent))
    return edited


def _relabel(label_of):
    def edit(payload):
        payload["cycle_types"] = [label_of(label) for label in payload["cycle_types"]]
    return edit


@pytest.mark.parametrize(
    "indent", [2, None, "\t"], ids=["indented", "spaced", "tabs"]
)
def test_loader_accepts_every_label_spelling(layer_cache, tmp_path, monkeypatch, indent):
    # the labels must be written as the writer spells them; only the JSON
    # whitespace around them may differ
    computed = m0n.equivariant_poincare_m0n(6)
    cache = _rewritten_cache(layer_cache, tmp_path, 6, lambda payload: None, indent)
    monkeypatch.setattr(m0n, "_twisted_counts", _no_recompute)
    decoded, loads = [], json.loads

    def counted_loads(text, **kwargs):
        decoded.append(text)
        return loads(text, **kwargs)

    monkeypatch.setattr(m0n.json, "loads", counted_loads)
    assert m0n._load_cache(cache / "m0n_6.json", 6) == computed
    assert len(decoded) == 1  # not the writer's bytes, so read through json


def _shuffle_cycle_types(payload):
    order = list(range(len(payload["cycle_types"])))
    random.Random(7).shuffle(order)
    payload["cycle_types"] = [payload["cycle_types"][j] for j in order]
    for layer in payload["layers"]:
        layer["values"] = [layer["values"][j] for j in order]


def _add_stray_cycle_type(payload):
    payload["cycle_types"].append(["7"])
    for layer in payload["layers"]:
        layer["values"].append({"trace": "1"})


def _drop_first_cycle_type(payload):
    del payload["cycle_types"][0]
    for layer in payload["layers"]:
        del layer["values"][0]


# the partitions of 6 as the writer spells them, in `partitions(6)` order
WRITTEN_LABELS_OF_6 = [
    ["6"], ["5", "1"], ["4", "2"], ["4", "1", "1"], ["3", "3"], ["3", "2", "1"],
    ["3", "1", "1", "1"], ["2", "2", "2"], ["2", "2", "1", "1"],
    ["2", "1", "1", "1", "1"], ["1", "1", "1", "1", "1", "1"],
]


@pytest.mark.parametrize(
    "edit",
    [
        _relabel(lambda label: label[::-1]),  # ["1", "2"] for (2, 1)
        _relabel(lambda label: ["0" + p for p in label]),  # "01"
        _relabel(lambda label: [int(p) for p in label]),  # [2, 1]
        _shuffle_cycle_types,
        _add_stray_cycle_type,
        _drop_first_cycle_type,
    ],
    ids=["reordered", "zero-padded", "integers", "shuffled", "stray", "missing"],
)
def test_loader_rejects_any_other_cycle_types_list(layer_cache, tmp_path, monkeypatch, edit):
    cache = _rewritten_cache(layer_cache, tmp_path, 6, edit)
    path = cache / "m0n_6.json"
    written = json.loads((layer_cache / "m0n_6.json").read_text())["cycle_types"]
    assert written == WRITTEN_LABELS_OF_6
    assert json.loads(path.read_text())["cycle_types"] != WRITTEN_LABELS_OF_6
    monkeypatch.setattr(m0n, "_twisted_counts", _no_recompute)
    with pytest.raises(ValueError, match="delete the file to recompute it") as raised:
        m0n._load_cache(path, 6)
    assert str(path) in str(raised.value)


# SHA-256 of the layer files as written before characters were stored densely;
# the benchmark harness edits m0n_{5,6,7}.json, so their bytes must not move.
PINNED_CACHE_HASHES = {
    5: "26f6ca432dc3509a66615b10372b91bceba89a94febd90740c3289209a3cfdeb",
    6: "03edb99f6a9be4c875b561cf8d857eb99eb35143f6eccf2c83311b99e8fba036",
    7: "162153752830f63647561f4e881ac3a4862b204be7ed45011da97a87ae3db0fa",
}


@pytest.mark.parametrize("n", sorted(PINNED_CACHE_HASHES))
def test_written_cache_files_keep_their_bytes(layer_cache, n):
    m0n.equivariant_poincare_m0n(n)
    digest = hashlib.sha256((layer_cache / f"m0n_{n}.json").read_bytes()).hexdigest()
    assert digest == PINNED_CACHE_HASHES[n]


def test_written_cache_through_degree_24_keeps_its_bytes(layer_cache):
    # SHA-256 of m0n_3.json .. m0n_24.json concatenated in n order, as written
    # by json.dumps: this covers two-digit labels and negative traces
    digest = hashlib.sha256()
    for n in range(3, 25):
        m0n.equivariant_poincare_m0n(n)
        digest.update((layer_cache / f"m0n_{n}.json").read_bytes())
    assert digest.hexdigest() == "6e1a91e9576adb17bcd2cdcaca5d4a9a62b922d662147cd028f9a2c92e655520"


def test_loader_keeps_the_character_errors(layer_cache, tmp_path):
    def untrivial(payload):
        payload["layers"][0]["values"][0]["trace"] = "2"

    cache = _rewritten_cache(layer_cache, tmp_path / "untrivial", 5, untrivial)
    with pytest.raises(ValueError, match="layer 0 is not the trivial character"):
        m0n._load_cache(cache / "m0n_5.json", 5)

    def layer_dropped(payload):
        del payload["layers"][-1]

    cache = _rewritten_cache(layer_cache, tmp_path / "dropped", 5, layer_dropped)
    with pytest.raises(ValueError, match=r"expected layers 0..2, found \[0, 1\]"):
        m0n._load_cache(cache / "m0n_5.json", 5)


def test_loaded_layers_equal_the_computed_layers(layer_cache, monkeypatch):
    # every file the writer writes is read in its own bytes, not through json
    computed = {n: m0n.equivariant_poincare_m0n(n) for n in range(3, 25)}

    def no_json(*args, **kwargs):
        raise AssertionError("a written file went through json.loads")

    monkeypatch.setattr(m0n.json, "loads", no_json)
    for n, layers in computed.items():
        assert m0n._load_cache(layer_cache / f"m0n_{n}.json", n) == layers


@pytest.fixture(scope="module")
def written_m0n_7(tmp_path_factory):
    """The text `_save_cache` writes for n = 7, and a directory to edit copies of it in."""
    directory = tmp_path_factory.mktemp("edited-m0n-7")
    m0n._save_cache(directory / "m0n_7.json", 7, m0n.equivariant_poincare_m0n(7))
    return (directory / "m0n_7.json").read_text(), directory


def _load_outcome(path, n):
    try:
        return m0n._load_cache(path, n)
    except ValueError as exc:
        return str(exc)


_EDIT_CHARS = string.digits + '-+_ ,:{}[]".e' + string.whitespace
_EDITS = st.lists(
    st.tuples(
        st.sampled_from(["replace", "insert", "delete"]),
        st.integers(0, 1 << 12),
        st.sampled_from(_EDIT_CHARS),
    ),
    min_size=1,
    max_size=3,
)


def _edited(text, edits):
    for kind, position, char in edits:
        position %= len(text) + (kind == "insert")
        tail = text[position:] if kind == "insert" else text[position + 1:]
        text = text[:position] + ("" if kind == "delete" else char) + tail
    return text


def _frozen_outcome(text, n):
    try:
        return oracles.o_parse_layer_file(text, n)
    except (KeyError, TypeError, ValueError) as exc:
        return exc


# character 541 is the first trace of layer 1, "0": a changed digit is the
# writer's rendering of other layers, and "-0" is not, so it no longer loads
@settings(max_examples=300, deadline=None)
@given(_EDITS)
@example([("replace", 541, "2")])
@example([("insert", 541, "-")])
@example([("insert", 541, " ")])
def test_loaded_files_parse_alike_in_the_frozen_parser(written_m0n_7, edits):
    # the loader accepts no text that the frozen structural parser rejects or
    # reads otherwise, and every text that decodes to the written payload
    text, directory = written_m0n_7
    edited = _edited(text, edits)
    path = directory / "m0n_7.json"
    path.write_text(edited)
    outcome = _load_outcome(path, 7)
    if isinstance(outcome, Mapping):  # a dict, or the loader's read-only layers
        assert _frozen_outcome(edited, 7) == outcome
    else:
        assert outcome.startswith(f"{path}: ")
    try:
        decodes_alike = json.loads(edited) == json.loads(text)
    except ValueError:
        decodes_alike = False
    if decodes_alike:
        assert outcome == m0n.equivariant_poincare_m0n(7)


_JSON_WHITESPACE = st.lists(
    st.tuples(st.integers(0, 1 << 12), st.text(" \t\n\r", min_size=1, max_size=3)),
    min_size=1,
    max_size=12,
)


@settings(max_examples=100, deadline=None)
@given(_JSON_WHITESPACE)
def test_whitespace_variants_of_the_written_bytes_load(written_m0n_7, insertions):
    # JSON whitespace may stand before and after every structural character;
    # the written file has no such character inside a string
    text, directory = written_m0n_7
    gaps = sorted({0, len(text)} | {
        i + after for i, char in enumerate(text) if char in "{}[],:" for after in (0, 1)
    })
    placed = sorted(((gaps[k % len(gaps)], blank) for k, blank in insertions), reverse=True)
    for position, blank in placed:  # from the end, so each gap is still where it was
        text = text[:position] + blank + text[position:]
    path = directory / "m0n_7.json"
    path.write_text(text)
    assert m0n._load_cache(path, 7) == m0n.equivariant_poincare_m0n(7)
