"""Tests for partitions, symmetric-group characters, and Hall pairings.

The oracle routes live in this file and are deliberately independent of the
library internals:

* Euler's pentagonal-number recurrence for p(n), and the recursive generator
  that listed the partitions before they were built from memoised suffixes;
* explicit enumeration of S_n for class sizes and centralizer orders;
* the character table rebuilt from permutation characters of Young subgroups
  by Gram-Schmidt orthonormalization;
* Pieri-rule expansion of e_{k1} e_{k2} h_h in the Schur basis for the
  product pairing;
* the walk over partition triples that the Hall pairing used to take for
  every class function (`o_hall_inner_product_induced`), for the memoised
  power-sum weights that replaced it.

The single irreducible and sign characters built on the package's
Murnaghan-Nakayama recursion (`oracles.irreducible_character`,
`oracles.irreducible`, `oracles.sign_character`) are checked against the
Gram-Schmidt table here, and then serve as oracles of the dense class
functions.
"""

import itertools
import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from hyperstab import m0n
from hyperstab import symfunc as sf


# --------------------------------------------------------------------------
# oracles
# --------------------------------------------------------------------------

def pentagonal_p(upto):
    """Partition numbers p(0..upto) via Euler's pentagonal recurrence."""
    p = [1] + [0] * upto
    for n in range(1, upto + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > n and g2 > n:
                break
            sign = -1 if k % 2 == 0 else 1
            if g1 <= n:
                total += sign * p[n - g1]
            if g2 <= n:
                total += sign * p[n - g2]
            k += 1
        p[n] = total
    return p


def cycle_type_of(perm):
    """Cycle type of a permutation given as a tuple (image of 0..n-1)."""
    n = len(perm)
    seen = [False] * n
    lengths = []
    for start in range(n):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def brute_class_sizes(n):
    sizes = Counter()
    for perm in itertools.permutations(range(n)):
        sizes[cycle_type_of(perm)] += 1
    return sizes


def oracle_partitions(n):
    """All partitions of n in reverse lexicographic order, (n,) first.

    The recursive generator the library used before it built `partitions(n)`
    from the memoised suffixes of `partitions(n - part)`.
    """

    def gen(remaining, largest):
        if remaining == 0:
            yield ()
            return
        for part in range(min(remaining, largest), 0, -1):
            for rest in gen(remaining - part, part):
                yield (part,) + rest

    return list(gen(n, n))


def perm_character(lam, mu):
    """Permutation character of the Young subgroup S_lam at class mu.

    Counts assignments of the (distinguishable) cycles of a permutation of
    type mu to the rows of lam such that each row's lengths sum to its part.
    """
    rows = list(lam)
    cycles = list(mu)
    count = 0
    for assignment in itertools.product(range(len(rows)), repeat=len(cycles)):
        sums = [0] * len(rows)
        for cyc, row in zip(cycles, assignment):
            sums[row] += cyc
        if sums == rows:
            count += 1
    return count


def gram_schmidt_character_table(n):
    """Character table of S_n from permutation characters.

    Processing partitions in lex-descending order, each permutation character
    phi^lam equals chi^lam plus irreducibles indexed by dominance-larger
    partitions, all of which come earlier; subtracting those projections
    leaves exactly chi^lam.
    """
    parts = oracle_partitions(n)  # lex descending: [n] first
    class_size = brute_class_sizes(n)
    fact = math.factorial(n)

    def inner(f, g):
        total = sum(class_size[mu] * f[mu] * g[mu] for mu in parts)
        assert total % fact == 0
        return total // fact

    table = {}
    for lam in parts:
        f = {mu: perm_character(lam, mu) for mu in parts}
        for nu, chi in table.items():
            m = inner(f, chi)
            if m:
                f = {mu: f[mu] - m * chi[mu] for mu in parts}
        table[lam] = f
    return table


# --- Pieri-rule Schur expansion of e_{k1} e_{k2} h_h ----------------------

def _add_horizontal_strips(lam, k):
    """All partitions obtained from lam by adding a horizontal k-strip."""
    lam = list(lam)
    results = []
    rows = len(lam) + 1
    padded = lam + [0]

    def rec(i, remaining, built):
        if i == rows:
            if remaining == 0:
                results.append(tuple(p for p in built if p > 0))
            return
        low = padded[i]
        # horizontal strip interlacing: lam_{i-1} >= mu_i >= lam_i
        high = padded[i - 1] if i > 0 else low + remaining
        for new in range(low, min(high, low + remaining) + 1):
            rec(i + 1, remaining - (new - low), built + [new])

    rec(0, k, [])
    return results


def _conjugate(lam):
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p > j) for j in range(lam[0]))


def _add_vertical_strips(lam, k):
    return [_conjugate(m) for m in _add_horizontal_strips(_conjugate(lam), k)]


def _pieri_multiply(expansion, k, kind):
    """Multiply a {partition: coeff} Schur expansion by e_k or h_k."""
    if k == 0:
        return dict(expansion)
    out = Counter()
    for lam, coeff in expansion.items():
        strips = _add_vertical_strips(lam, k) if kind == "e" else _add_horizontal_strips(lam, k)
        for mu in strips:
            out[mu] += coeff
    return dict(out)


def ekh_schur_expansion(k1, k2, h):
    """Schur expansion of e_{k1} * e_{k2} * h_h via Pieri rules."""
    expansion = {(): 1}
    expansion = _pieri_multiply(expansion, k1, "e")
    expansion = _pieri_multiply(expansion, k2, "e")
    expansion = _pieri_multiply(expansion, h, "h")
    return expansion


def o_hall_inner_product_induced(char, k1, k2, h):
    """<char, e_{k1} e_{k2} h_h> summed over every partition triple, term by term.

    The weights are its own: z_mu = prod d^c_d c_d! from the part
    multiplicities c_d, and the sign (-1)^(|mu| - len(mu)).
    """
    def z_order(mu):
        return math.prod(d**c * math.factorial(c) for d, c in Counter(mu).items())

    def sign(mu):
        return (-1) ** (sum(mu) - len(mu))

    if min(k1, k2, h) < 0:
        raise ValueError("block sizes must be nonnegative")
    n = k1 + k2 + h
    if char.degree != n:
        raise ValueError(f"character degree {char.degree} != k1+k2+h = {n}")
    f1, f2, f3 = math.factorial(k1), math.factorial(k2), math.factorial(h)
    values = dict(zip(sf.partitions(n), char.vector))
    total = 0
    for mu1 in sf.partitions(k1):
        w1 = sign(mu1) * (f1 // z_order(mu1))
        for mu2 in sf.partitions(k2):
            w12 = w1 * sign(mu2) * (f2 // z_order(mu2))
            for mu3 in sf.partitions(h):
                mu = oracles.canonical_partition(mu1 + mu2 + mu3)
                total += w12 * (f3 // z_order(mu3)) * values[mu]
    denom = f1 * f2 * f3
    if total % denom:
        raise ArithmeticError(
            f"pairing of degree-{n} class function is not integral: {total}/{denom}"
        )
    return total // denom


def keyed_character(n, values):
    """The class function with the value ``values[mu]`` at each partition mu of n."""
    return sf.CharacterVector(n, [values[mu] for mu in sf.partitions(n)])


def splits(n):
    """Every (k1, k2, h) with k1 + k2 + h = n."""
    return [(k1, k2, n - k1 - k2) for k1 in range(n + 1) for k2 in range(n + 1 - k1)]


# --------------------------------------------------------------------------
# partitions
# --------------------------------------------------------------------------

def test_partition_counts_match_pentagonal_recurrence():
    p = pentagonal_p(30)
    for n in range(31):
        assert len(sf.partitions(n)) == p[n]


def test_partitions_match_the_recursive_generator():
    for n in range(31):
        assert list(sf.partitions(n)) == oracle_partitions(n), n
    assert len(sf.partitions(24)) == 1575
    assert len(sf.partitions(30)) == 5604


def test_partition_count_examples():
    assert sf.partitions(0) == ((),)
    assert len(sf.partitions(4)) == 5
    assert len(sf.partitions(10)) == 42


@pytest.mark.parametrize("n", [True, False, 2.0, -1])
def test_partitions_refuse_bools_and_non_integers(n):
    with pytest.raises(ValueError, match="nonnegative integer"):
        sf.partitions(n)


def test_partitions_reverse_lex_order():
    assert sf.partitions(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
    for n in range(1, 12):
        parts = sf.partitions(n)
        assert len(set(parts)) == len(parts)
        for lam in parts:
            assert all(a >= b for a, b in zip(lam, lam[1:]))
            assert sum(lam) == n
        # reverse lexicographic: strictly decreasing in tuple comparison
        assert all(a > b for a, b in zip(parts, parts[1:]))
        assert set(parts) == set(oracle_partitions(n))


# --------------------------------------------------------------------------
# centralizer orders and signs of cycle types
# --------------------------------------------------------------------------

# the z's and signs of the package's table, keyed by cycle type
def table_z_sign(n):
    _, zs, signs = sf._cycle_types(n)
    return dict(zip(sf.partitions(n), zip(zs, signs)))


def test_z_order_against_brute_enumeration():
    for n in range(1, 7):
        sizes = brute_class_sizes(n)
        table = table_z_sign(n)
        for mu in sf.partitions(n):
            assert oracles._z_sign(mu)[0] * sizes[mu] == math.factorial(n)
            assert table[mu][0] * sizes[mu] == math.factorial(n)


def test_sign_against_permutation_parity():
    for n in range(1, 7):
        table = table_z_sign(n)
        for perm in itertools.permutations(range(n)):
            inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
            mu = cycle_type_of(perm)
            assert oracles._z_sign(mu)[1] == table[mu][1] == (-1) ** inversions, perm


def test_cycle_type_table_matches_the_one_pass_formula_to_degree_30():
    for n in range(31):
        codes, zs, signs = sf._cycle_types(n)
        parts = sf.partitions(n)
        assert len(codes) == len(zs) == len(signs) == len(parts)
        for mu, code, z, sign in zip(parts, codes, zs, signs):
            assert code == sum(1 << (16 * (d - 1)) for d in mu), mu
            assert (z, sign) == oracles._z_sign(mu), mu


def test_block_weights_are_factorial_over_z_with_sign():
    for k in range(25):
        f = math.factorial(k)
        codes = sf._cycle_types(k)[0]
        for signed in (False, True):
            expected = []
            for code, mu in zip(codes, sf.partitions(k)):
                z, sign = oracles._z_sign(mu)
                expected.append((code, (sign if signed else 1) * (f // z)))
            assert sf._block_weights(k, signed) == tuple(expected), (k, signed)


@pytest.mark.parametrize("parts", [(1.5, 1.5), (2.5, 0.5), (2, 1.0), (True, 1), ("2", 1)])
def test_canonical_partition_rejects_non_integer_parts(parts):
    with pytest.raises(ValueError, match="integers"):
        oracles.canonical_partition(parts)
    with pytest.raises(ValueError, match="integers"):
        oracles.irreducible_character(parts, (3,))
    with pytest.raises(ValueError, match="integers"):
        oracles.irreducible_character((3,), parts)


def test_z_order_examples():
    assert oracles._z_sign((1, 1, 1)) == table_z_sign(3)[(1, 1, 1)] == (6, 1)
    assert oracles._z_sign((2, 2)) == table_z_sign(4)[(2, 2)] == (8, 1)
    for n in range(1, 9):
        assert oracles._z_sign((n,)) == table_z_sign(n)[(n,)] == (n, (-1) ** (n - 1))


def test_class_sizes_partition_symmetric_group():
    # the derived class sizes n!/z must sum to n!
    for n in range(1, 11):
        fact = math.factorial(n)
        for zs in ([oracles._z_sign(mu)[0] for mu in sf.partitions(n)], sf._cycle_types(n)[1]):
            assert all(fact % z == 0 for z in zs)
            assert sum(fact // z for z in zs) == fact


# --------------------------------------------------------------------------
# irreducible characters
# --------------------------------------------------------------------------

def test_characters_match_gram_schmidt_table():
    for n in range(1, 6):
        table = gram_schmidt_character_table(n)
        for lam in sf.partitions(n):
            for mu in sf.partitions(n):
                assert oracles.irreducible_character(lam, mu) == table[lam][mu], (lam, mu)


def test_character_examples():
    for n in range(1, 9):
        for mu in sf.partitions(n):
            assert oracles.irreducible_character((n,), mu) == 1
    assert oracles.irreducible_character((2, 2), (2, 2)) == 2
    assert oracles.irreducible_character((1, 1, 1), (2, 1)) == -1


def test_character_sign_representation():
    for n in range(1, 8):
        lam = (1,) * n
        for mu in sf.partitions(n):
            assert oracles.irreducible_character(lam, mu) == oracles._z_sign(mu)[1]


def test_character_size_mismatch_rejected():
    with pytest.raises(ValueError):
        oracles.irreducible_character((2, 1), (2, 2))


def test_orthogonality_to_degree_12():
    for n in range(1, 13):
        parts = sf.partitions(n)
        fact = math.factorial(n)
        cls = {mu: fact // oracles._z_sign(mu)[0] for mu in parts}
        table = {lam: [oracles.irreducible_character(lam, mu) for mu in parts] for lam in parts}
        for i, lam in enumerate(parts):
            for nu in parts[: i + 1]:
                total = sum(c * a * b for c, a, b in zip(cls.values(), table[lam], table[nu]))
                assert total == (fact if lam == nu else 0), (lam, nu)


def test_sum_of_squares_of_dimensions():
    for n in range(1, 13):
        ident = (1,) * n
        total = sum(oracles.irreducible_character(lam, ident) ** 2 for lam in sf.partitions(n))
        assert total == math.factorial(n)


# --------------------------------------------------------------------------
# CharacterVector
# --------------------------------------------------------------------------

def test_character_vector_constructors():
    triv = sf.CharacterVector.trivial(4)
    assert triv.degree == 4
    assert triv.vector == (1,) * len(sf.partitions(4))
    sign = dict(zip(sf.partitions(4), oracles.sign_character(4).vector))
    assert sign[(2, 1, 1)] == -1
    chi = dict(zip(sf.partitions(4), oracles.irreducible((2, 2)).vector))
    assert chi[(1, 1, 1, 1)] == 2
    assert chi[(2, 2)] == 2


def test_character_vector_requires_full_support():
    with pytest.raises(ValueError, match="1 values for the 3 cycle types"):
        sf.CharacterVector(3, (1,))


def test_character_vector_rejects_bools_and_misshapen_vectors():
    with pytest.raises(ValueError, match=r"at \(2,\) must be an integer"):
        sf.CharacterVector(2, (True, 1))
    with pytest.raises(ValueError, match=r"at \(1, 1\) must be an integer"):
        sf.CharacterVector(2, (1, 1.0))
    with pytest.raises(ValueError, match=r"at \(1, 1, 1\) must be an integer: 0.5"):
        sf.CharacterVector(3, (-1, 0, 0.5))
    with pytest.raises(ValueError, match="3 values for the 2 cycle types"):
        sf.CharacterVector(2, (1, 1, 1))
    chi = sf.CharacterVector(2, [-1, 1])
    assert chi.vector == (-1, 1)
    assert chi == oracles.sign_character(2)


@pytest.mark.parametrize("degree", [True, 1.0])
def test_character_vector_refuses_a_bool_or_non_integer_degree(degree):
    with pytest.raises(ValueError, match="nonnegative integer"):
        sf.CharacterVector(degree, (1,))


@st.composite
def _dense_vector(draw):
    """A random class function of degree <= 8 as its dense vector."""
    n = draw(st.integers(0, 8))
    size = len(sf.partitions(n))
    return n, draw(st.lists(st.integers(-10**6, 10**6), min_size=size, max_size=size))


@settings(max_examples=80, deadline=None)
@given(_dense_vector())
def test_character_vector_equality_and_hash_follow_the_vector(case):
    n, vector = case
    chi = sf.CharacterVector(n, vector)
    again = sf.CharacterVector(n, iter(vector))
    assert chi == again and hash(chi) == hash(again)
    assert chi.vector == tuple(vector)


# --------------------------------------------------------------------------
# hall_inner_product_induced and schur_expand
# --------------------------------------------------------------------------

def test_hall_examples():
    triv3 = sf.CharacterVector.trivial(3)
    assert sf.hall_inner_product_induced(triv3, 1, 1, 1) == 1
    assert sf.hall_inner_product_induced(triv3, 0, 3, 0) == 0
    chi22 = oracles.irreducible((2, 2))
    assert sf.hall_inner_product_induced(chi22, 2, 2, 0) == 1


def test_hall_degree_mismatch_rejected():
    with pytest.raises(ValueError):
        sf.hall_inner_product_induced(sf.CharacterVector.trivial(3), 1, 1, 2)


@pytest.mark.parametrize("blocks", [(True, 1, 1), (1.0, 1, 1), (1, 1, True), (1, 1, -1)])
def test_hall_pairing_refuses_bool_and_non_integer_blocks(blocks):
    with pytest.raises(ValueError, match="nonnegative integers"):
        sf.hall_inner_product_induced(sf.CharacterVector.trivial(3), *blocks)


def nonzero(expansion):
    return {lam: c for lam, c in expansion.items() if c}


def test_schur_expand_examples():
    n = 5
    assert nonzero(sf.schur_expand(sf.CharacterVector.trivial(n))) == {(n,): 1}
    # regular character of S_3: n! at the identity, 0 elsewhere
    reg = keyed_character(3, {(1, 1, 1): 6, (2, 1): 0, (3,): 0})
    assert nonzero(sf.schur_expand(reg)) == {(3,): 1, (2, 1): 2, (1, 1, 1): 1}
    chi22 = oracles.irreducible((2, 2))
    assert nonzero(sf.schur_expand(chi22)) == {(2, 2): 1}


def test_schur_expand_rejects_non_virtual_class_function():
    # indicator of the identity in S_2 has multiplicity 1/2 on each irreducible
    bad = keyed_character(2, {(1, 1): 1, (2,): 0})
    with pytest.raises(ArithmeticError, match="not integral"):
        sf.schur_expand(bad)


def test_hall_matches_pieri_route_for_irreducibles():
    """<chi, e_{k1} e_{k2} h_h> must agree with the Pieri/Schur expansion."""
    for n in range(1, 9):
        parts = sf.partitions(n)
        for k1, k2, h in splits(n):
            expansion = ekh_schur_expansion(k1, k2, h)
            for lam in parts:
                chi = oracles.irreducible(lam)
                expected = expansion.get(lam, 0)
                assert sf.hall_inner_product_induced(chi, k1, k2, h) == expected, (lam, k1, k2, h)


def test_hall_matches_pieri_route_for_random_virtual_characters():
    rng = random.Random(20260816)
    for n in range(2, 7):
        parts = sf.partitions(n)
        for _ in range(10):
            coeffs = {lam: rng.randint(-3, 3) for lam in parts}
            values = {
                mu: sum(c * oracles.irreducible_character(lam, mu) for lam, c in coeffs.items())
                for mu in parts
            }
            char = keyed_character(n, values)
            assert nonzero(sf.schur_expand(char)) == {lam: c for lam, c in coeffs.items() if c}
            k1 = rng.randint(0, n)
            k2 = rng.randint(0, n - k1)
            h = n - k1 - k2
            expansion = ekh_schur_expansion(k1, k2, h)
            expected = sum(coeffs[lam] * expansion.get(lam, 0) for lam in parts)
            assert sf.hall_inner_product_induced(char, k1, k2, h) == expected


def test_hall_rejects_non_integral_result():
    bad = keyed_character(2, {(1, 1): 1, (2,): 0})
    with pytest.raises(ArithmeticError):
        sf.hall_inner_product_induced(bad, 2, 0, 0)


@st.composite
def _virtual_character(draw):
    """A random integer combination of the irreducible characters of degree <= 9."""
    n = draw(st.integers(0, 9))
    parts = sf.partitions(n)
    coeffs = draw(st.lists(st.integers(-4, 4), min_size=len(parts), max_size=len(parts)))
    values = {
        mu: sum(c * oracles.irreducible_character(lam, mu) for lam, c in zip(parts, coeffs))
        for mu in parts
    }
    return keyed_character(n, values)


@settings(max_examples=60, deadline=None)
@given(_virtual_character())
def test_hall_pairing_agrees_with_the_triple_walk(char):
    n = char.degree
    identity = (1,) * n
    for k1, k2, h in splits(n):
        assert sf.hall_inner_product_induced(char, k1, k2, h) == (
            o_hall_inner_product_induced(char, k1, k2, h)
        ), (k1, k2, h)
    if n == 0:
        return
    # one more at the identity adds 1/(k1! k2! h!) to every pairing, so it is
    # a virtual character's pairing exactly when the denominator is 1
    values = dict(zip(sf.partitions(n), char.vector))
    bumped = keyed_character(n, {**values, identity: values[identity] + 1})
    for k1, k2, h in splits(n):
        denom = math.factorial(k1) * math.factorial(k2) * math.factorial(h)
        if denom == 1:
            assert sf.hall_inner_product_induced(bumped, k1, k2, h) == (
                o_hall_inner_product_induced(bumped, k1, k2, h)
            )
            continue
        for route in (sf.hall_inner_product_induced, o_hall_inner_product_induced):
            with pytest.raises(ArithmeticError, match="not integral"):
                route(bumped, k1, k2, h)


def test_hall_pairing_agrees_with_the_triple_walk_on_every_m0n_layer():
    for n in range(3, 13):
        layers = m0n.equivariant_poincare_m0n(n)
        for k1, k2, h in splits(n):
            for i, layer in layers.items():
                assert sf.hall_inner_product_induced(layer, k1, k2, h) == (
                    o_hall_inner_product_induced(layer, k1, k2, h)
                ), (n, i, k1, k2, h)


def test_induced_weights_are_positions_into_the_partitions():
    positions, weights = sf._induced_weights(2, 1, 3)
    parts = sf.partitions(6)
    assert all(type(i) is int and 0 <= i < len(parts) for i in positions)
    assert len(set(positions)) == len(positions)
    assert 0 not in weights
    assert sf._induced_weights(1, 2, 3) == (positions, weights)
    # k1! k2! h! e_{k1} e_{k2} h_h at the identity class is the single triple of all-ones
    assert dict(zip(positions, weights))[parts.index((1,) * 6)] == 1
