"""The stable cohomology table for hyperelliptic loci, built in one pass.

The generating series is 1 plus a sum over configuration types (k1, k2, h)
of L^{2k1+k2+3h} t^{3k1+k2+4h} shifted copies of the equivariant layer
multiplicities of M_{0,k1+k2+h}, divided by (1+Lt)(1+L^2 t^3).  The n > 0
variant multiplies by (1+Lt^2).  The table holds the series itself: row t
is the multiset of Tate twists in cohomological degree t.  The numerator is
summed into the rows, and each factor is divided out or multiplied in place.

The layer multiplicities come from `type_pairings`, the one place that pairs
M_{0,n} layers with a type.  Its two callers are `stable_series` here and
`spectral.type_cells`, which reads the discriminant-column cells of a type
off the same multiplicities.  A table through t-degree D meets M_{0,n}
only in its layers i <= D - n, and `type_pairings` reads those by index.
A warm run checks each layer file whole but converts only those layers:
28,370 of the 102,032 traces in the files at D = 24.  The table meets
M_{0,D} only in layer 0 of type (0, D, 0).  H^0 is the trivial character,
so `type_pairings` pairs it without the layers of M_{0,D}, and
`stable_series(D)` reads or writes no layer file of n = D.

The module computes the table and its stable-range note, `BOUNDARY_NOTE`;
``cli`` writes them out in each report format.  The note's range ends where
the rank bound first refuses a type: with d = g+1+n (``linalg``'s degrees
d-2n, d-n, d are ``ffcount``'s l, g+1, 2g+2-l), the least t-degree 3k1+k2+4h
of a type with ``linalg._degree_bound`` >= d is ceil((g-n+2)/2) for g = 2..40
and n = 0..g+1, and only (0, ceil((g-n+2)/2), 0) attains it.  Over the same
range no type below that t-degree has jet degree ``linalg._jet_degree`` > d,
and at it only (0, (g+3)/2, 0) at n = 0 with g odd does.  That is
evidence, not a proof: the paper may need more than independence there.
"""

from __future__ import annotations

from dataclasses import dataclass

from .m0n import equivariant_poincare_m0n
from .symfunc import CharacterVector, hall_inner_product_induced

__all__ = [
    "BOUNDARY_NOTE",
    "StableCohomologyTable",
    "type_pairings",
    "stable_series",
    "cohomology_table",
]

BOUNDARY_NOTE = (
    "rows in cohomological degree <= (g-n+2)/2 are genus-independent; whether "
    "the boundary degree itself is included is boundary-inclusive-unverified"
)


@dataclass
class StableCohomologyTable:
    """Per-degree multisets of Tate twists: rows[i][w] copies of Q(-w) in H^i."""

    max_degree: int
    rows: dict

    def classes(self, degree: int) -> dict:
        return dict(self.rows.get(degree, {}))


def type_pairings(k1: int, k2: int, h: int, top_layer: int | None = None) -> dict:
    """{i: <H^i(M_{0,n}), e_{k1} e_{k2} h_h>} for the nonzero pairings, n = k1+k2+h.

    Only the layers i <= ``top_layer`` are paired (every layer by default),
    and only those are read: a loaded layer becomes a character when first
    paired.  With ``top_layer`` 0, H^0 is the trivial character, so no layer
    of M_{0,n} is loaded or computed.
    """
    if any(not isinstance(c, int) or isinstance(c, bool) or c < 0 for c in (k1, k2, h)):
        raise ValueError(f"type components must be nonnegative integers, got ({k1},{k2},{h})")
    n = k1 + k2 + h
    if n < 3:
        raise ValueError(f"type ({k1},{k2},{h}) has fewer than 3 singular points")
    if top_layer == 0:
        # H^0(M_{0,n}) is the trivial character, which every load and every
        # computation of the layers checks: layer 0 alone needs no layer file
        layers = {0: CharacterVector.trivial(n)}
    else:
        layers = equivariant_poincare_m0n(n)
    top = n - 3 if top_layer is None else min(top_layer, n - 3)
    out = {}
    for i in range(top + 1):
        mult = hall_inner_product_induced(layers[i], k1, k2, h)
        if mult < 0:
            raise ArithmeticError(f"negative layer multiplicity for type ({k1},{k2},{h})")
        if mult:
            out[i] = mult
    return out


def _configuration_types(bound: int):
    """All (k1, k2, h) with k1+k2+h >= 3 and 3k1+k2+4h <= bound.

    The bound is complete for a table truncated at `bound`: every layer of a
    type enters at t-degree >= 3k1+k2+4h and dividing by the denominator only
    raises t-degrees further.
    """
    for k1 in range(bound // 3 + 1):
        for h in range((bound - 3 * k1) // 4 + 1):
            for k2 in range(bound - 3 * k1 - 4 * h + 1):
                if k1 + k2 + h >= 3:
                    yield k1, k2, h


def _times_factor(rows: dict, top: int, twist: int, step: int, divide: bool = False) -> None:
    """Multiply ``rows`` by 1 + L^twist t^step in place, or divide by it, through t = top.

    Rows are {t: {twist: mult}}.  The product runs in decreasing t, so that
    row t - step is still the factor's input; the quotient runs in increasing
    t, so that it is already the output.  Zero entries are left in place.
    """
    sign = -1 if divide else 1
    for t in range(step, top + 1) if divide else range(top, step - 1, -1):
        lower = rows.get(t - step)
        if lower:
            row = rows.setdefault(t, {})
            for w, mult in lower.items():
                row[w + twist] = row.get(w + twist, 0) + sign * mult


def stable_series(max_degree: int) -> StableCohomologyTable:
    """The table of the surface-index-zero regime through t-degree ``max_degree``.

    The numerator sums every type's layer pairings, layer i of type
    (k1, k2, h) at t-degree 3k1+k2+4h+i with twist 2k1+k2+3h+i; it is divided
    in place by 1+Lt and then by 1+L^2 t^3, and 1 is added at t = 0.  A
    negative multiplicity or twist raises ArithmeticError.
    """
    if not isinstance(max_degree, int) or isinstance(max_degree, bool) or max_degree < 0:
        raise ValueError(f"max_degree must be a nonnegative integer: {max_degree!r}")
    rows: dict = {}
    for k1, k2, h in _configuration_types(max_degree):
        degree, twist = 3 * k1 + k2 + 4 * h, 2 * k1 + k2 + 3 * h
        for i, mult in type_pairings(k1, k2, h, max_degree - degree).items():
            row = rows.setdefault(degree + i, {})
            row[twist + i] = row.get(twist + i, 0) + mult
    _times_factor(rows, max_degree, 1, 1, divide=True)
    _times_factor(rows, max_degree, 2, 3, divide=True)
    rows[0] = {0: 1}  # no type reaches t = 0
    table = {}
    for t, row in rows.items():
        row = {w: mult for w, mult in row.items() if mult}
        for w, mult in row.items():
            if mult < 0 or w < 0:
                raise ArithmeticError(
                    f"degree {t}: invalid class L^{w} x {mult} "
                    "(assembly produced a non-effective term)"
                )
        if row:
            table[t] = row
    return StableCohomologyTable(max_degree=max_degree, rows=table)


def cohomology_table(n: int, max_degree: int) -> StableCohomologyTable:
    """Stable cohomology table for surface index n: the n = 0 table, times
    1+Lt^2 when n > 0."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ValueError(f"surface index must be a nonnegative integer: {n!r}")
    table = stable_series(max_degree)
    if n > 0:
        _times_factor(table.rows, max_degree, 1, 2)
    return table
