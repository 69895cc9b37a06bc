"""Truncated series in t whose coefficients are integer Laurent polynomials in L.

L is the Tate symbol (the class of Q(-1)), so coefficients live in Z[L, L^-1]:
negative exponents appear on the Borel-Moore side, nonnegative ones in
cohomology.  A series carries its truncation explicitly; combining series
with different truncations is an error rather than a silent re-truncation.
All values are immutable and all arithmetic is exact.
"""

from __future__ import annotations

__all__ = [
    "TatePolynomial",
    "GradedTateSeries",
    "multiply",
    "invert_unit",
    "evaluate_t",
]


class TatePolynomial:
    """Integer Laurent polynomial in L, stored sparsely as {exponent: coeff}.

    The closed-form point counts of `ffcount` are polynomials of the same
    kind in q, the field size, which a point count puts in place of L; they
    are divided by `divmod` and evaluated by calling them at an integer q.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict | None = None):
        out = {}
        for e, c in (coeffs or {}).items():
            if not isinstance(e, int) or isinstance(e, bool):
                raise ValueError(f"L-exponent must be an integer: {e!r}")
            if not isinstance(c, int) or isinstance(c, bool):
                raise ValueError(f"coefficient must be an integer: {c!r}")
            if c:
                out[e] = c
        self.coeffs = out

    @classmethod
    def one(cls) -> "TatePolynomial":
        return cls({0: 1})

    def coefficient(self, e: int) -> int:
        return self.coeffs.get(e, 0)

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int | None:
        """The top exponent; None for the zero polynomial."""
        return max(self.coeffs, default=None)

    def divmod(self, other: "TatePolynomial") -> tuple:
        """Euclidean division: (quotient, remainder), the remainder of lower degree.

        The divisor's top coefficient must be 1 or -1, so that both parts
        stay integral; any other divisor, zero included, raises ValueError.
        """
        top = other.degree()
        if top is None or other.coeffs[top] not in (1, -1):
            raise ValueError(f"divisor must have top coefficient 1 or -1: {other!r}")
        sign = other.coeffs[top]
        rem = dict(self.coeffs)
        quot = {}
        while rem:
            e = max(rem)
            if e < top:
                break
            f = rem[e] * sign
            quot[e - top] = f
            for e2, c2 in other.coeffs.items():
                e3 = e2 + e - top
                c = rem.get(e3, 0) - f * c2
                if c:
                    rem[e3] = c
                else:
                    del rem[e3]
        return TatePolynomial(quot), TatePolynomial(rem)

    def divide_exact(self, other: "TatePolynomial") -> "TatePolynomial":
        """The quotient by ``other``; ArithmeticError when a remainder is left."""
        quot, rem = self.divmod(other)
        if rem.coeffs:
            raise ArithmeticError(f"inexact division: remainder {rem!r}")
        return quot

    def __call__(self, q: int) -> int:
        """The value at an integer q; a negative exponent raises ValueError."""
        if not isinstance(q, int) or isinstance(q, bool):
            raise ValueError(f"a polynomial is evaluated at an integer only: {q!r}")
        if min(self.coeffs, default=0) < 0:
            raise ValueError(f"{self!r} has a negative exponent, so no integer value")
        return sum(c * q**e for e, c in self.coeffs.items())

    def __add__(self, other: "TatePolynomial") -> "TatePolynomial":
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return TatePolynomial(out)

    def __neg__(self) -> "TatePolynomial":
        return TatePolynomial({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other: "TatePolynomial") -> "TatePolynomial":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return TatePolynomial({e: c * other for e, c in self.coeffs.items()})
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return TatePolynomial(out)

    def __rmul__(self, other):
        if isinstance(other, int):
            return self * other
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, TatePolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(tuple(sorted(self.coeffs.items())))

    def __repr__(self):
        if not self.coeffs:
            return "TatePolynomial(0)"
        terms = " + ".join(
            f"{c}*L^{e}" for e, c in sorted(self.coeffs.items(), reverse=True)
        )
        return f"TatePolynomial({terms})"


class GradedTateSeries:
    """Series sum_t p_t(L) t^t truncated at an explicit t-degree."""

    __slots__ = ("truncation", "terms")

    def __init__(self, truncation: int, terms: dict | None = None):
        if not isinstance(truncation, int) or isinstance(truncation, bool) or truncation < 0:
            raise ValueError(f"truncation must be a nonnegative integer: {truncation!r}")
        clean = {}
        for t, poly in (terms or {}).items():
            if not isinstance(t, int) or isinstance(t, bool) or t < 0 or t > truncation:
                raise ValueError(
                    f"t-degree {t!r} outside the truncation range 0..{truncation}"
                )
            if not isinstance(poly, TatePolynomial):
                poly = TatePolynomial(poly)
            if not poly.is_zero():
                clean[t] = poly
        self.truncation = truncation
        self.terms = clean

    @classmethod
    def one(cls, truncation: int) -> "GradedTateSeries":
        return cls(truncation, {0: TatePolynomial.one()})

    @classmethod
    def zero(cls, truncation: int) -> "GradedTateSeries":
        return cls(truncation, {})

    def term(self, t: int) -> TatePolynomial:
        return self.terms.get(t, TatePolynomial())

    def __add__(self, other: "GradedTateSeries") -> "GradedTateSeries":
        _check_truncations(self, other)
        out = dict(self.terms)
        for t, poly in other.terms.items():
            out[t] = out.get(t, TatePolynomial()) + poly
        return GradedTateSeries(self.truncation, out)

    def __sub__(self, other: "GradedTateSeries") -> "GradedTateSeries":
        _check_truncations(self, other)
        out = dict(self.terms)
        for t, poly in other.terms.items():
            out[t] = out.get(t, TatePolynomial()) - poly
        return GradedTateSeries(self.truncation, out)

    def __mul__(self, other: "GradedTateSeries") -> "GradedTateSeries":
        return multiply(self, other)

    def __eq__(self, other):
        if not isinstance(other, GradedTateSeries):
            return NotImplemented
        return self.truncation == other.truncation and self.terms == other.terms

    def __hash__(self):
        return hash((self.truncation, tuple(sorted((t, p) for t, p in self.terms.items()))))

    def __repr__(self):
        return f"GradedTateSeries(T={self.truncation}, terms={self.terms!r})"


def _check_truncations(a: GradedTateSeries, b: GradedTateSeries) -> None:
    if a.truncation != b.truncation:
        raise ValueError(
            f"truncation mismatch: {a.truncation} vs {b.truncation}"
        )


def multiply(a: GradedTateSeries, b: GradedTateSeries) -> GradedTateSeries:
    """Cauchy product truncated at the common truncation."""
    _check_truncations(a, b)
    out: dict = {}
    for ta, pa in a.terms.items():
        for tb, pb in b.terms.items():
            t = ta + tb
            if t > a.truncation:
                continue
            prod = pa * pb
            out[t] = out.get(t, TatePolynomial()) + prod
    return GradedTateSeries(a.truncation, out)


def invert_unit(a: GradedTateSeries) -> GradedTateSeries:
    """Inverse of a series with constant term exactly 1, up to the truncation."""
    if a.term(0) != TatePolynomial.one():
        raise ValueError("invert_unit requires constant term exactly 1")
    inverse = {0: TatePolynomial.one()}
    for t in range(1, a.truncation + 1):
        acc = TatePolynomial()
        for k in range(1, t + 1):
            ak = a.term(k)
            if ak.is_zero():
                continue
            bk = inverse.get(t - k)
            if bk is None:
                continue
            acc = acc + ak * bk
        if not acc.is_zero():
            inverse[t] = -acc
    return GradedTateSeries(a.truncation, inverse)


def evaluate_t(a: GradedTateSeries, t0: int) -> TatePolynomial:
    """Evaluate at an integer t; the result depends on the truncation."""
    if not isinstance(t0, int) or isinstance(t0, bool):
        raise ValueError(f"a series is evaluated at an integer t only: {t0!r}")
    total = TatePolynomial()
    for t, poly in a.terms.items():
        total = total + poly * (t0 ** t)
    return total
