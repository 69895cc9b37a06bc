"""Prime fields F_q and polynomial arithmetic over them.

A polynomial is a tuple of residues in ascending order of the exponent.
These kernels are shared by the square-free sieve and the one division of
binary forms in `ffcount`, and by the Frobenius-orbit oracle of the tests.
Primality is decided in one place, `is_prime`, and irreducibility in one
place: trial division by the memoised monic irreducibles of at most half the
degree.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

__all__ = [
    "divmod", "is_irreducible", "is_prime",
    "monic_irreducibles", "mul", "poly_mod",
]

# The first 13 primes as Miller-Rabin bases decide primality of every n below
# _MILLER_RABIN_BOUND (Sorenson and Webster, Math. Comp. 86, 2017).
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MILLER_RABIN_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; ValueError at or above the proven bound."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 2:
        return False
    if n >= _MILLER_RABIN_BOUND:
        raise ValueError(
            f"{n} is beyond the deterministic primality bound {_MILLER_RABIN_BOUND}"
        )
    for a in _MILLER_RABIN_BASES:
        if n % a == 0:
            return n == a
    odd, twos = n - 1, 0
    while odd % 2 == 0:
        odd //= 2
        twos += 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, odd, n)
        if x in (1, n - 1):
            continue
        for _ in range(twos - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def mul(a, b, q):
    """Product of a and b, with as many coefficients as the degrees give."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                if cb:
                    out[i + j] = (out[i + j] + ca * cb) % q
    return tuple(out)


def divmod(a, b, q):
    """Euclidean division of a by b: (quotient, remainder).

    b has a nonzero top coefficient.  The quotient has len(a) - len(b) + 1
    coefficients (none when a is shorter than b), top zeros included; the
    remainder is a list with its top zeros stripped.
    """
    rem = list(a)
    inv = pow(b[-1], q - 2, q)
    quot = [0] * max(len(a) - len(b) + 1, 0)
    for off in range(len(quot) - 1, -1, -1):
        c = rem[off + len(b) - 1] * inv % q
        quot[off] = c
        if c:
            for i, bc in enumerate(b):
                rem[off + i] = (rem[off + i] - c * bc) % q
    del rem[len(b) - 1 :]
    while rem and rem[-1] == 0:
        rem.pop()
    return tuple(quot), rem


def poly_mod(a, b, q):
    """Remainder of a modulo b, top zeros stripped; b has a nonzero top coefficient."""
    return divmod(a, b, q)[1]


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
