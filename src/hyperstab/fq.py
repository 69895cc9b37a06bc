"""Polynomial arithmetic over a prime field F_q.

A polynomial is a tuple of residues in ascending order of the exponent.
These kernels are shared by the square-free sieve of `ffcount` and the
Frobenius-orbit oracle of `m0n`.  Irreducibility is decided in one place:
trial division by the memoised monic irreducibles of at most half the degree.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

__all__ = ["first_irreducible", "is_irreducible", "monic_irreducibles", "mul", "poly_mod"]


def mul(a, b, q):
    """Product of a and b, with as many coefficients as the degrees give."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                if cb:
                    out[i + j] = (out[i + j] + ca * cb) % q
    return tuple(out)


def poly_mod(a, b, q):
    """Remainder of a modulo b, top zeros stripped; b has a nonzero top coefficient."""
    a = list(a)
    inv = pow(b[-1], q - 2, q)
    while a and len(a) >= len(b):
        if a[-1] == 0:
            a.pop()
            continue
        c = a[-1] * inv % q
        off = len(a) - len(b)
        for i, bc in enumerate(b):
            a[off + i] = (a[off + i] - c * bc) % q
        a.pop()
    while a and a[-1] == 0:
        a.pop()
    return a


def _monic(d, q):
    """Monic polynomials of degree d, in lexicographic order of the lower coefficients."""
    return (tail + (1,) for tail in itertools.product(range(q), repeat=d))


def is_irreducible(p, q) -> bool:
    """Whether a monic polynomial of positive degree is irreducible over F_q."""
    return all(poly_mod(p, low, q) for low in monic_irreducibles(q, (len(p) - 1) // 2))


@lru_cache(maxsize=None)
def monic_irreducibles(q, max_deg) -> tuple:
    """Monic irreducibles of degree 1..max_deg, by degree, each in `_monic` order."""
    if max_deg < 1:
        return ()
    found = tuple(p for p in _monic(max_deg, q) if is_irreducible(p, q))
    return monic_irreducibles(q, max_deg - 1) + found


def first_irreducible(d, q) -> tuple:
    """The first monic irreducible of degree d >= 1 in `_monic` order.

    Only the irreducibles of degree <= d/2 are listed; the candidates of
    degree d are tested one at a time until the first one passes.
    """
    for p in _monic(d, q):
        if is_irreducible(p, q):
            return p
    raise AssertionError(f"no monic irreducible of degree {d} over F_{q}")
