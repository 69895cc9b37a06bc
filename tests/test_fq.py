"""Tests for the prime test and the shared polynomial kernels over F_q.

Oracles: trial division for the prime test; the Frobenius-orbit oracle's own
arithmetic, frozen as it stood before it moved onto these kernels:
multiplication reduced modulo a monic polynomial, and, from `oracles.py`, a
divisibility test and the search for a monic irreducible by trial division
by every monic polynomial of at most half the degree.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperstab import fq
from oracles import o_find_irreducible, o_poly_remainder_zero

PRIMES = (3, 5, 7, 11)


# --------------------------------------------------------------------------
# prime test
# --------------------------------------------------------------------------

def o_is_prime(n):
    """Trial division."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@settings(max_examples=2000, deadline=None)
@given(st.integers(-5, 10**6))
def test_is_prime_agrees_with_trial_division(n):
    assert fq.is_prime(n) == o_is_prime(n)


def test_is_prime_on_large_primes_and_strong_pseudoprimes():
    for p in (2**31 - 1, 2147483659, 2**61 - 1):
        assert fq.is_prime(p)
    composites = (
        (2**31 - 1) * 2147483659,
        3215031751,  # strong pseudoprime to the bases 2, 3, 5, 7
        3825123056546413051,  # strong pseudoprime to the first nine prime bases
        318665857834031151167461,  # strong pseudoprime to the first twelve
    )
    for n in composites:
        assert not fq.is_prime(n)
    assert not fq.is_prime(True) and not fq.is_prime(7.0)


def test_is_prime_refuses_beyond_the_deterministic_bound():
    assert not fq.is_prime(fq._MILLER_RABIN_BOUND - 1)  # even
    with pytest.raises(ValueError, match="bound"):
        fq.is_prime(fq._MILLER_RABIN_BOUND)
    with pytest.raises(ValueError, match="bound"):
        fq.is_prime(2**127 - 1)


# --------------------------------------------------------------------------
# polynomial kernels
# --------------------------------------------------------------------------


def o_poly_mul_mod(a, b, modulus, q):
    """Product of coefficient tuples (ascending) reduced mod (modulus, q)."""
    d = len(modulus) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % q
    # reduce: modulus is monic of degree d
    for top in range(len(prod) - 1, d - 1, -1):
        c = prod[top]
        if c:
            prod[top] = 0
            for j in range(d):
                prod[top - d + j] = (prod[top - d + j] - c * modulus[j]) % q
    out = prod[:d]
    out += [0] * (d - len(out))
    return tuple(out)


@st.composite
def _field_and_degree(draw, low=1):
    return draw(st.sampled_from(PRIMES)), draw(st.integers(low, 5))


def _residues(q, length):
    return st.lists(st.integers(0, q - 1), min_size=length, max_size=length).map(tuple)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_reduced_product_matches_the_frozen_oracle(data):
    q, d = data.draw(_field_and_degree())
    modulus = data.draw(_residues(q, d)) + (1,)
    a, b = data.draw(_residues(q, d)), data.draw(_residues(q, d))
    rem = fq.poly_mod(fq.mul(a, b, q), modulus, q)
    assert tuple(rem) + (0,) * (d - len(rem)) == o_poly_mul_mod(a, b, modulus, q)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_remainder_zero_matches_the_frozen_oracle(data):
    q, d = data.draw(_field_and_degree(low=0))
    lead = data.draw(st.integers(1, q - 1))
    b = data.draw(_residues(q, d)) + (lead,)
    a = data.draw(_residues(q, data.draw(st.integers(0, 11))))
    if data.draw(st.booleans()):
        a = fq.mul(b, a, q) if a else b  # a multiple of b
    assert (not fq.poly_mod(a, b, q)) == o_poly_remainder_zero(a, b, q)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_divmod_has_a_fixed_length_quotient_and_a_short_remainder(data):
    q, d = data.draw(_field_and_degree(low=0))
    b = data.draw(_residues(q, d)) + (data.draw(st.integers(1, q - 1)),)
    a = data.draw(_residues(q, data.draw(st.integers(0, 11))))
    quot, rem = fq.divmod(a, b, q)
    assert len(quot) == max(len(a) - len(b) + 1, 0)
    assert len(rem) < len(b) and (not rem or rem[-1])
    assert rem == fq.poly_mod(a, b, q)
    product = fq.mul(b, quot, q) if quot else ()
    recombined = [0] * max(len(a), len(product), len(rem))
    for part in (product, rem):
        for i, c in enumerate(part):
            recombined[i] = (recombined[i] + c) % q
    assert recombined == list(a) + [0] * (len(recombined) - len(a))


def test_monic_irreducibles_are_the_necklace_count_in_search_order():
    for q in (3, 5):
        listed = fq.monic_irreducibles(q, 4)
        for d in range(1, 5):
            of_degree = [p for p in listed if len(p) == d + 1]
            necklaces = sum(
                mobius * q ** (d // e)
                for e, mobius in ((1, 1), (2, -1), (3, -1), (4, 0))
                if d % e == 0
            )
            assert len(of_degree) * d == necklaces, (q, d)
            monic = [t + (1,) for t in itertools.product(range(q), repeat=d)]
            assert of_degree == [p for p in monic if fq.is_irreducible(p, q)]
            assert of_degree[0] == o_find_irreducible(d, q)
