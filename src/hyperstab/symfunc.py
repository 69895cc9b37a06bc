"""Partitions, symmetric-group characters, and Hall inner products.

Partitions double as cycle types: a partition of n read as cycle lengths
indexes a conjugacy class of S_n.  Characters are stored as class functions
(`CharacterVector`), which keeps every pairing exact and integral; Schur-basis
data is recovered from them on demand.  A class function of degree n is one
tuple of integers, dense in the order of `partitions(n)`, so a pairing reads
its values by position and never hashes a cycle type.

Each degree n has one table of cycle-type data, `_cycle_types(n)`: the code,
centralizer order z_mu and sign of each partition of n, in `partitions(n)`
order, built in the same recursion as the partitions.  The power-sum weights
of the Hall pairings and the Schur expansion read it.  Its oracle is the
one-pass formula `_z_sign` in `tests/oracles.py`, and the irreducible and
sign characters that the tests check these routes with are built there from
`_mn` and `_z_sign`.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache

__all__ = [
    "partitions",
    "CharacterVector",
    "hall_inner_product_induced",
    "schur_expand",
]


def partitions(n: int) -> tuple:
    """All partitions of n in reverse lexicographic order, (n,) first.

    Reverse lexicographic means plain tuple comparison descending, so the
    sequence starts at (n,) and ends at (1,)*n.  The result is cached and
    must not be mutated.  A bool, a float or a negative n raises ValueError.
    """
    if type(n) is not int or n < 0:
        raise ValueError(f"n must be a nonnegative integer: {n!r}")
    return _partitions(n)


@lru_cache(maxsize=None)
def _partitions(n: int) -> tuple:
    """`partitions` past its check, memoised.

    The partitions with first part p are p followed by the partitions of
    n - p whose parts are at most p, a suffix of `_partitions(n - p)`.
    """
    if n == 0:
        return ((),)
    out = []
    for part in range(n, 0, -1):
        rest = _partitions(n - part)
        out.extend([(part, *mu) for mu in rest[_bounded_start(n - part, part):]])
    return tuple(out)


def _bounded_start(m: int, part: int) -> int:
    """Index of the first partition of m with no part above ``part``.

    `_partitions(m)` descends by first part, so those partitions are its suffix
    from this index on.
    """
    if m <= part:
        return 0
    return bisect_left(_partitions(m), -part, key=lambda mu: -mu[0])


@lru_cache(maxsize=None)
def _mn(lam: tuple, mu: tuple) -> int:
    """Murnaghan-Nakayama recursion on canonical tuples."""
    if not mu:
        return 1 if not lam else 0
    strip = mu[0]
    rest = mu[1:]
    k = len(lam)
    beta = [lam[i] + (k - 1 - i) for i in range(k)]
    beta_set = set(beta)
    total = 0
    for b in beta:
        nb = b - strip
        if nb < 0 or nb in beta_set:
            continue
        height = sum(1 for x in beta if nb < x < b)
        new_beta = sorted((x for x in beta if x != b), reverse=True)
        new_beta.append(nb)
        new_beta.sort(reverse=True)
        new_lam = tuple(
            p for p in (new_beta[i] - (k - 1 - i) for i in range(k)) if p > 0
        )
        term = _mn(new_lam, rest)
        total += -term if height % 2 else term
    return total


class CharacterVector:
    """Integer class function on S_n, stored densely by cycle type.

    ``vector`` holds one int per partition of the degree, in the order of
    `partitions(degree)`, and is read by position only: the value at the
    cycle type ``partitions(degree)[j]`` is ``vector[j]``.
    """

    __slots__ = ("degree", "vector")

    def __init__(self, degree: int, vector):
        """The class function whose value at ``partitions(degree)[j]`` is ``vector[j]``."""
        vector = tuple(vector)
        parts = partitions(degree)
        if len(vector) != len(parts):
            raise ValueError(
                f"{len(vector)} values for the {len(parts)} cycle types of degree {degree}"
            )
        if not set(map(type, vector)) <= {int}:
            for mu, v in zip(parts, vector):
                if type(v) is not int:
                    raise ValueError(f"character value at {mu} must be an integer: {v!r}")
        self.degree = degree
        self.vector = vector

    def __eq__(self, other):
        return (
            isinstance(other, CharacterVector)
            and self.degree == other.degree
            and self.vector == other.vector
        )

    def __hash__(self):
        return hash((self.degree, self.vector))

    def __repr__(self):
        return f"CharacterVector(degree={self.degree}, dim={self.dimension()})"

    def dimension(self) -> int:
        """Value at the identity class, the last cycle type (1,)*n."""
        return self.vector[-1]

    @classmethod
    def trivial(cls, n: int) -> "CharacterVector":
        return cls(n, (1,) * len(partitions(n)))


# A cycle type is also coded as one integer: a 16-bit field per part length d
# counts the parts equal to d.  The code of a merged cycle type mu1 u mu2 is then
# the sum of the two codes, and no field overflows below degree 2^16.
_FIELD_BITS = 16


@lru_cache(maxsize=None)
def _cycle_types(n: int) -> tuple:
    """(codes, z's, signs) of the cycle types of n, each in `partitions(n)` order.

    Built in the recursion of `_partitions`, at O(1) per partition: the
    partition (p, *mu) has code code(mu) + 2^(16(p-1)), centralizer order
    z_mu p (r+1), where r counts the parts of mu equal to p, and sign
    sgn(mu) (-1)^(p-1) (Macdonald, Symmetric Functions and Hall Polynomials,
    I.2).  No part of mu exceeds p, so r is all of code(mu) above the field
    of p.
    """
    if n == 0:
        return (0,), (1,), (1,)
    codes, zs, signs = [], [], []
    for part in range(n, 0, -1):
        start = _bounded_start(n - part, part)
        rest_codes, rest_zs, rest_signs = (t[start:] for t in _cycle_types(n - part))
        shift = _FIELD_BITS * (part - 1)
        codes.extend([code + (1 << shift) for code in rest_codes])
        zs.extend([z * part * ((code >> shift) + 1) for code, z in zip(rest_codes, rest_zs)])
        signs.extend(rest_signs if part & 1 else [-s for s in rest_signs])
    return tuple(codes), tuple(zs), tuple(signs)


@lru_cache(maxsize=None)
def _code_positions(n: int) -> dict:
    """The code of each partition of n mapped to its index in `partitions(n)`."""
    return {code: i for i, code in enumerate(_cycle_types(n)[0])}


@lru_cache(maxsize=None)
def _block_weights(k: int, signed: bool) -> tuple:
    """k! e_k (signed) or k! h_k in the power-sum basis, as (code, weight) pairs.

    k! h_k = sum_mu (k!/z_mu) p_mu and k! e_k = sum_mu sgn(mu) (k!/z_mu) p_mu
    (Macdonald, Symmetric Functions and Hall Polynomials, I.2).
    """
    f = math.factorial(k)
    codes, zs, signs = _cycle_types(k)
    if signed:
        return tuple(zip(codes, [s * (f // z) for z, s in zip(zs, signs)]))
    return tuple(zip(codes, [f // z for z in zs]))


def _times(table, block) -> dict:
    """Product of two power-sum expansions, p_a p_b = p_(a u b), keyed by code."""
    out = {}
    for c1, w1 in table:
        for c2, w2 in block:
            c = c1 + c2
            out[c] = out.get(c, 0) + w1 * w2
    return out


@lru_cache(maxsize=8)
def _induced_weights(k1: int, k2: int, h: int) -> tuple:
    """k1! k2! h! e_{k1} e_{k2} h_h in the power-sum basis: (positions, weights).

    The positions index the cycle types of nonzero weight in
    `partitions(k1 + k2 + h)`, the order of `CharacterVector.vector`; the
    weight at mu is the sum over all triples merging to mu that the
    Frobenius-reciprocity pairing walks.  The two shortest of the three blocks
    are merged first, so the larger product runs over the fewest terms.
    Callers pair every layer of one type back to back, so a small memo
    suffices.
    """
    small, middle, large = sorted(
        (_block_weights(k1, True), _block_weights(k2, True), _block_weights(h, False)), key=len
    )
    position = _code_positions(k1 + k2 + h)
    # the identity class has weight 1, so some weight is nonzero
    positions, weights = zip(
        *[(position[c], w) for c, w in _times(_times(small, middle).items(), large).items() if w]
    )
    return positions, weights


def hall_inner_product_induced(char: CharacterVector, k1: int, k2: int, h: int) -> int:
    """Hall pairing <char, e_{k1} e_{k2} h_h> by Frobenius reciprocity.

    Sums sgn(mu1) sgn(mu2) char(mu1 + mu2 + mu3) / (z(mu1) z(mu2) z(mu3))
    over partition triples; the result of pairing an honest virtual character
    is always an integer, and anything else raises.  The triples are summed
    once per type into the power-sum weights of k1! k2! h! e_{k1} e_{k2} h_h
    (`_induced_weights`), so each pairing is one integer dot product with the
    character's dense values, divided once by k1! k2! h!.
    """
    # before the memo of `_induced_weights`, which takes True for 1
    if any(type(k) is not int or k < 0 for k in (k1, k2, h)):
        raise ValueError(f"block sizes must be nonnegative integers, got ({k1},{k2},{h})")
    n = k1 + k2 + h
    if char.degree != n:
        raise ValueError(f"character degree {char.degree} != k1+k2+h = {n}")
    positions, weights = _induced_weights(k1, k2, h)
    total = sum(map(operator.mul, weights, map(char.vector.__getitem__, positions)))
    denom = math.factorial(k1) * math.factorial(k2) * math.factorial(h)
    if total % denom:
        raise ArithmeticError(
            f"pairing of degree-{n} class function is not integral: {total}/{denom}"
        )
    return total // denom


def schur_expand(char: CharacterVector) -> dict:
    """Multiplicities <char, chi^lam> for every lam of the character's degree.

    Raises ArithmeticError if any multiplicity is non-integral (i.e. the
    class function is not a virtual character).
    """
    n = char.degree
    fact = math.factorial(n)
    parts = partitions(n)
    weighted = [(fact // z) * v for z, v in zip(_cycle_types(n)[1], char.vector)]
    out = {}
    for lam in parts:
        total = sum(w * _mn(lam, mu) for w, mu in zip(weighted, parts))
        if total % fact:
            raise ArithmeticError(
                f"multiplicity of chi^{lam} is not integral: {Fraction(total, fact)}"
            )
        out[lam] = total // fact
    return out
