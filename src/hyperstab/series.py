"""Integer Laurent polynomials in L, the Tate symbol (the class of Q(-1)).

Coefficients live in Z[L, L^-1]: negative exponents appear on the
Borel-Moore side, nonnegative ones in cohomology.  The closed-form point
counts of `ffcount` are such polynomials in q.  Values are immutable and all
arithmetic is exact.  The stable series itself is a table of rows, built in
`stable`.
"""

from __future__ import annotations

__all__ = ["TatePolynomial"]


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

    def coefficient(self, e: int) -> int:
        return self.coeffs.get(e, 0)

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

    def __mul__(self, other: "TatePolynomial") -> "TatePolynomial":
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return TatePolynomial(out)

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
