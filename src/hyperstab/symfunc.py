"""Partitions, symmetric-group characters, and Hall inner products.

Partitions double as cycle types: a partition of n read as cycle lengths
indexes a conjugacy class of S_n.  Characters are stored as class functions
(`CharacterVector`), which keeps every pairing exact and integral; Schur-basis
data is recovered from them on demand.  A class function of degree n is one
tuple of integers, dense in the order of `partitions(n)`, so a pairing reads
its values by position and never hashes a cycle type.  The irreducible and
sign characters that the tests check these routes with are built from
`_mn` and `_z_sign` in `tests/oracles.py`.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache

__all__ = [
    "canonical_partition",
    "partitions",
    "CharacterVector",
    "hall_inner_product_induced",
    "schur_expand",
]


def canonical_partition(parts) -> tuple:
    """Sort into weakly decreasing order and validate the parts.

    Every part must be a positive int; a bool, a float or any other number
    raises ValueError, so the exact routes never see a non-integer part.
    """
    parts = tuple(parts)
    for p in parts:
        if type(p) is not int:
            raise ValueError(f"partition parts must be integers: {parts!r}")
    out = tuple(sorted(parts, reverse=True))
    if out and out[-1] <= 0:
        raise ValueError(f"partition parts must be positive: {parts!r}")
    return out


@lru_cache(maxsize=None)
def partitions(n: int) -> tuple:
    """All partitions of n in reverse lexicographic order, (n,) first.

    Reverse lexicographic means plain tuple comparison descending, so the
    sequence starts at (n,) and ends at (1,)*n.  The partitions with first
    part p are p followed by the partitions of n - p whose parts are at most
    p, which are a suffix of the memoised `partitions(n - p)`.  The result is
    cached and must not be mutated.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return ((),)
    out = []
    for part in range(n, 0, -1):
        rest = partitions(n - part)
        if n - part > part:
            # rest descends by first part: drop the prefix whose first part exceeds part
            rest = rest[bisect_left(rest, -part, key=lambda mu: -mu[0]):]
        out.extend([(part, *mu) for mu in rest])
    return tuple(out)


@lru_cache(maxsize=None)
def _positions(n: int) -> dict:
    """Each partition of n mapped to its index in `partitions(n)`."""
    return {mu: i for i, mu in enumerate(partitions(n))}


def _z_sign(mu: tuple) -> tuple:
    """(z_mu, sgn(mu)) for a canonical cycle type, in one pass over its parts.

    z_mu = prod_d d^c_d c_d! is the centralizer order, and the sign is
    (-1)^(number of even parts).
    """
    z = 1
    even = 0
    run_value = None
    run_length = 0
    for d in mu:
        if d == run_value:
            run_length += 1
        else:
            run_value, run_length = d, 1
        z *= d * run_length
        even += not d & 1
    return z, -1 if even & 1 else 1


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
    `partitions(degree)`; ``values`` derives the same data as a fresh dict
    keyed by those partitions.  Lookups accept any ordering of the cycle
    lengths.
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

    @property
    def values(self) -> dict:
        """The values keyed by the partitions of the degree (a fresh dict)."""
        return dict(zip(partitions(self.degree), self.vector))

    def __getitem__(self, mu) -> int:
        return self.vector[_positions(self.degree)[canonical_partition(mu)]]

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
def _codes(n: int) -> tuple:
    """The code of each partition of n, in the order of `partitions(n)`."""
    return tuple(sum([1 << (_FIELD_BITS * (d - 1)) for d in mu]) for mu in partitions(n))


@lru_cache(maxsize=None)
def _code_positions(n: int) -> dict:
    """The code of each partition of n mapped to its index in `partitions(n)`."""
    return {code: i for i, code in enumerate(_codes(n))}


@lru_cache(maxsize=None)
def _block_weights(k: int, signed: bool) -> tuple:
    """k! e_k (signed) or k! h_k in the power-sum basis, as (code, weight) pairs.

    k! h_k = sum_mu (k!/z_mu) p_mu and k! e_k = sum_mu sgn(mu) (k!/z_mu) p_mu
    (Macdonald, Symmetric Functions and Hall Polynomials, I.2).
    """
    f = math.factorial(k)
    out = []
    for code, mu in zip(_codes(k), partitions(k)):
        z, s = _z_sign(mu)
        out.append((code, (s if signed else 1) * (f // z)))
    return tuple(out)


def _times(table, block) -> dict:
    """Product of two power-sum expansions, p_a p_b = p_(a u b), keyed by code."""
    out = {}
    for c1, w1 in table:
        for c2, w2 in block:
            c = c1 + c2
            out[c] = out.get(c, 0) + w1 * w2
    return out


@lru_cache(maxsize=64)
def _e_pair_weights(k1: int, k2: int) -> tuple:
    """k1! k2! e_{k1} e_{k2} in the power-sum basis, as (code, weight) pairs."""
    return tuple(_times(_block_weights(k1, True), _block_weights(k2, True)).items())


@lru_cache(maxsize=8)
def _induced_weights(k1: int, k2: int, h: int) -> tuple:
    """k1! k2! h! e_{k1} e_{k2} h_h in the power-sum basis: (positions, weights).

    The positions index the cycle types of nonzero weight in
    `partitions(k1 + k2 + h)`, the order of `CharacterVector.vector`; the
    weight at mu is the sum over all triples merging to mu that the
    Frobenius-reciprocity pairing walks.  Callers pair every layer of one type
    back to back, so a small memo suffices.
    """
    pair = _e_pair_weights(min(k1, k2), max(k1, k2))
    position = _code_positions(k1 + k2 + h)
    nonzero = [
        (position[c], w) for c, w in _times(pair, _block_weights(h, False)).items() if w
    ]
    return tuple(i for i, _ in nonzero), tuple(w for _, w in nonzero)


def hall_inner_product_induced(char: CharacterVector, k1: int, k2: int, h: int) -> int:
    """Hall pairing <char, e_{k1} e_{k2} h_h> by Frobenius reciprocity.

    Sums sgn(mu1) sgn(mu2) char(mu1 + mu2 + mu3) / (z(mu1) z(mu2) z(mu3))
    over partition triples; the result of pairing an honest virtual character
    is always an integer, and anything else raises.  The triples are summed
    once per type into the power-sum weights of k1! k2! h! e_{k1} e_{k2} h_h
    (`_induced_weights`), so each pairing is one integer dot product with the
    character's dense values, divided once by k1! k2! h!.
    """
    if min(k1, k2, h) < 0:
        raise ValueError("block sizes must be nonnegative")
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

    Raises if any multiplicity is non-integral (i.e. the class function is
    not a virtual character).
    """
    n = char.degree
    fact = math.factorial(n)
    parts = partitions(n)
    weighted = [(fact // _z_sign(mu)[0]) * v for mu, v in zip(parts, char.vector)]
    out = {}
    for lam in parts:
        total = sum(w * _mn(lam, mu) for w, mu in zip(weighted, parts))
        if total % fact:
            raise ValueError(
                f"multiplicity of chi^{lam} is not integral: {Fraction(total, fact)}"
            )
        out[lam] = total // fact
    return out
