"""Assembly of the stable cohomology series for hyperelliptic loci.

The generating series is 1 plus a sum over configuration types (k1, k2, h)
of L^{2k1+k2+3h} t^{3k1+k2+4h} shifted copies of the equivariant layer
multiplicities of M_{0,k1+k2+h}, divided by (1+Lt)(1+L^2 t^3).  The n > 0
variant multiplies by (1+Lt^2).  Expanding the result per degree into
multisets of Tate twists gives the cohomology table.

The layer multiplicities come from `type_pairings`, the one place that pairs
M_{0,n} layers with a type.  Its two callers are `numerator_term` here and
`spectral.type_cells`, which reads the discriminant-column cells of a type
off the same multiplicities.  The module computes the table and its
stable-range note, `BOUNDARY_NOTE`; ``cli`` writes them out in each report
format.
"""

from __future__ import annotations

from dataclasses import dataclass

from .m0n import equivariant_poincare_m0n
from .series import GradedTateSeries, TatePolynomial, invert_unit, multiply
from .symfunc import hall_inner_product_induced

__all__ = [
    "BOUNDARY_NOTE",
    "StableCohomologyTable",
    "type_pairings",
    "numerator_term",
    "stable_series",
    "stable_series_positive_n",
    "table_from_series",
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

    Only the layers i <= ``top_layer`` are paired (every layer by default).
    """
    if any(not isinstance(c, int) or isinstance(c, bool) or c < 0 for c in (k1, k2, h)):
        raise ValueError(f"type components must be nonnegative integers, got ({k1},{k2},{h})")
    n = k1 + k2 + h
    if n < 3:
        raise ValueError(f"type ({k1},{k2},{h}) has fewer than 3 singular points")
    out = {}
    for i, layer in equivariant_poincare_m0n(n).layers.items():
        if top_layer is not None and i > top_layer:
            continue
        mult = hall_inner_product_induced(layer, k1, k2, h)
        if mult < 0:
            raise ArithmeticError(f"negative layer multiplicity for type ({k1},{k2},{h})")
        if mult:
            out[i] = mult
    return out


def numerator_term(
    k1: int,
    k2: int,
    h: int,
    *,
    truncation: int | None = None,
) -> GradedTateSeries:
    """Contribution of one configuration type to the numerator sum.

    Layer i of M_{0,k1+k2+h} enters with t-degree 3k1+k2+4h+i, Tate weight
    2k1+k2+3h+i, and multiplicity <layer_i, e_{k1} e_{k2} h_h>; only the
    layers with t-degree <= ``truncation`` are paired.
    """
    base_weight = 2 * k1 + k2 + 3 * h
    base_degree = 3 * k1 + k2 + 4 * h
    top = truncation if truncation is not None else base_degree + (k1 + k2 + h - 3)
    terms = {
        base_degree + i: TatePolynomial({base_weight + i: mult})
        for i, mult in type_pairings(k1, k2, h, top - base_degree).items()
    }
    return GradedTateSeries(top, terms)


def _denominator(truncation: int) -> GradedTateSeries:
    """(1+Lt)(1+L^2 t^3) at the requested truncation."""
    factor1 = {0: TatePolynomial.one(), 1: TatePolynomial({1: 1})}
    factor2 = {0: TatePolynomial.one(), 3: TatePolynomial({2: 1})}
    a = GradedTateSeries(truncation, {t: p for t, p in factor1.items() if t <= truncation})
    b = GradedTateSeries(truncation, {t: p for t, p in factor2.items() if t <= truncation})
    return multiply(a, b)


def _configuration_types(bound: int):
    """All (k1, k2, h) with k1+k2+h >= 3 and 3k1+k2+4h <= bound.

    The bound is complete for a series truncated at `bound`: every layer of a
    type enters at t-degree >= 3k1+k2+4h and dividing by the denominator only
    raises t-degrees further.
    """
    for k1 in range(bound // 3 + 1):
        for h in range((bound - 3 * k1) // 4 + 1):
            for k2 in range(bound - 3 * k1 - 4 * h + 1):
                if k1 + k2 + h >= 3:
                    yield k1, k2, h


def stable_series(max_degree: int) -> GradedTateSeries:
    """The stable series for the surface-index-zero regime, truncated exactly."""
    if not isinstance(max_degree, int) or isinstance(max_degree, bool) or max_degree < 0:
        raise ValueError(f"max_degree must be a nonnegative integer: {max_degree!r}")
    numerator = GradedTateSeries.zero(max_degree)
    for k1, k2, h in _configuration_types(max_degree):
        numerator = numerator + numerator_term(k1, k2, h, truncation=max_degree)
    inverse = invert_unit(_denominator(max_degree))
    return GradedTateSeries.one(max_degree) + multiply(numerator, inverse)


def stable_series_positive_n(max_degree: int) -> GradedTateSeries:
    """The stable series for positive surface index: (1+Lt^2) times the base series."""
    base = stable_series(max_degree)
    factor = {0: TatePolynomial.one(), 2: TatePolynomial({1: 1})}
    modifier = GradedTateSeries(
        max_degree, {t: p for t, p in factor.items() if t <= max_degree}
    )
    return multiply(modifier, base)


def table_from_series(s: GradedTateSeries) -> StableCohomologyTable:
    """Expand a series into per-degree twist multisets, validating positivity."""
    rows = {}
    for t, poly in s.terms.items():
        row = {}
        for exponent, mult in poly.coeffs.items():
            if mult < 0 or exponent < 0:
                raise ArithmeticError(
                    f"degree {t}: invalid class L^{exponent} x {mult} "
                    "(assembly produced a non-effective term)"
                )
            row[exponent] = mult
        if row:
            rows[t] = row
    return StableCohomologyTable(max_degree=s.truncation, rows=rows)


def cohomology_table(n: int, max_degree: int) -> StableCohomologyTable:
    """Stable cohomology table for surface index n (n = 0 and n > 0 regimes)."""
    if n < 0:
        raise ValueError("surface index must be nonnegative")
    if n == 0:
        s = stable_series(max_degree)
    else:
        s = stable_series_positive_n(max_degree)
    return table_from_series(s)

