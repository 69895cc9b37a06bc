"""Finite-field counts of hyperelliptic sections on ruled surfaces.

A genus-g hyperelliptic curve sitting on the Hirzebruch surface of index
n = g+1-l is cut out by a section alpha z^2 + beta z + gamma, where alpha,
beta, gamma are binary forms of degrees l, g+1, 2g+2-l and the discriminant
beta^2 - 4 alpha gamma is square-free.  This module enumerates such triples
over odd prime fields, divides by the order of the acting group to get stack
counts, evaluates the known closed-form answers, stratifies the triples by
how the leading form meets the discriminant, and checks the Euler
characteristic of the stable series against the closed-form count
polynomials, reversed.

Enumeration never walks all q^(3g+6) tuples one by one: for a fixed nonzero
alpha the map gamma -> beta^2 - 4 alpha gamma is a bijection onto a coset of
the subspace alpha * (forms of complementary degree), so counting admissible
gamma reduces to bucketing square-free forms by coset label, which is the
remainder by alpha.  `_divide` is the one division of binary forms here, for
labels, divisibility, factoring and psi; it is linear in the numerator, so
the quotients and remainders of many forms are products with those of the
basis forms, which `_division_matrices` alone divides.  Nor does it visit
every alpha.  Let G = GL_2(F_q) x F_q^* act by alpha -> c (alpha o g).
Substituting g in all three forms maps triples bijectively and the
discriminant to its composite with g, square-free exactly when it is, and
(alpha, gamma) -> (c alpha, gamma / c) keeps the discriminant; so the members
with leading form alpha, and their strata (m, lambda), depend only on the
G-orbit of alpha, and one representative per orbit, weighted by the orbit
size, stands for all of it.  The strata come from the same pass,
`_coset_census`: a factor pi of alpha divides every form of a coset delta +
alpha * h or none, so the stratum is one per label.  The naive loop over
every triple survives as ``method="naive"`` (`_naive_raw`) and doubles as an
oracle at the smallest sizes; it decides square-freeness by gcd with the
derivative, while the fast route uses a sieve over irreducible squares, so
the two routes differ in strategy and share only the F_q polynomial kernels
of `fq`.

A binary form of degree D is the tuple of its D+1 coefficients, ascending
in x: entry i multiplies x^i y^(D-i), so the degree is the length minus one
and top zeros encode roots at [1:0]; the tables of forms are indexed by
their codes, whose layout `_codes` states.  A section triple is the tuple
(alpha, beta, gamma) of three such forms.  `is_squarefree` is the oracle
test of the naive route.  The orbit walk is exact only if the square-free
bitmap is invariant under delta -> delta o g; `orbit_invariance_check`,
which `verify counts --budget full` runs, certifies that over every form
for each generator the walk uses, and both substitute a generator by the
one matrix of `_substitution_matrix`.
`psi_roundtrip_check` inverts the paper's substitution psi once per
(alpha, gamma), since every member's numerator beta^2 - delta is
4 alpha gamma, through the quotient and remainder matrices of
`_division_matrices`.  The closed forms are integer polynomials in q
(`series.TatePolynomial`) divided only by monic divisors.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import fq
from .series import TatePolynomial

__all__ = [
    "CountRecord",
    "ResourceGuardError",
    "DEFAULT_TUPLE_BUDGET",
    "closed_form_count",
    "enumerate_count",
    "euler_identity_check",
    "gl2_order",
    "group_order",
    "is_squarefree",
    "orbit_invariance_check",
    "psi_roundtrip_check",
    "stratified_count",
]

DEFAULT_TUPLE_BUDGET = 10**9
# (gamma, beta) rows per block of psi_roundtrip_check.  It bounds the memory
# of a block: 2^15-row blocks raised the peak RSS of `verify all --budget small`
# from 40 to 47 MB and saved no time.
_PSI_BLOCK_ROWS = 1024
# forms per gather of orbit_invariance_check.  One gather over all 3^11 forms
# at (g, q) = (4, 3) took 31 MB of int64 temporaries and raised the peak RSS
# of `verify counts --budget full` from 63 to 69 MB; blocks of 2^14 forms
# take 3 MB and no longer.
_INVARIANCE_BLOCK_FORMS = 1 << 14


class ResourceGuardError(RuntimeError):
    """Raised when a brute-force enumeration would exceed its budget."""


def _validate_prime(q) -> None:
    if not fq.is_prime(q):
        raise ValueError(f"field size must be a prime: {q!r}")


def _validate_odd_prime(q) -> None:
    _validate_prime(q)
    if q == 2:
        raise ValueError("square-freeness of the discriminant needs odd characteristic")


def _validate_genus_pair(g, l) -> None:
    """Validate a (genus, divisor-degree) pair: integers that index a
    section family, g >= 2 and 0 <= l <= g+1."""
    for name, value in (("g", g), ("l", l)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"{name} must be an integer: {value!r}")
    if g < 2:
        raise ValueError(f"genus must be at least 2: {g}")
    if not 0 <= l <= g + 1:
        raise ValueError(f"l must satisfy 0 <= l <= g+1 = {g + 1}: {l}")


def _resolve_variant(n, variant):
    """The acting group on the index-n surface; the (g, l) family has n = g+1-l.

    For n >= 1 (l <= g) the group is pinned to ``full``; at n = 0 (l = g+1)
    the index-0 surface offers the larger ``g0`` and the section-preserving
    ``g0prime``, so the caller must choose.
    """
    if n == 0:
        if variant not in ("g0", "g0prime"):
            raise ValueError(
                "l = g+1 lands on the index-0 surface: choose the g0 or g0prime variant"
            )
        return variant
    if variant not in (None, "full"):
        raise ValueError(
            f"for l <= g the acting group is the full index-{n} group; got the variant {variant!r}"
        )
    return "full"


# --------------------------------------------------------------------------
# domain types
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class CountRecord:
    """One enumeration outcome: raw tuple count and its stack normalization."""

    raw_count: int
    group_order: int
    stack_count: object  # int when integral, Fraction otherwise — never rounded


# --------------------------------------------------------------------------
# coefficient-tuple arithmetic (ascending x-exponent)
# --------------------------------------------------------------------------

def _divide(num, den, q):
    """(quotient, remainder) of the form num by the nonzero form den.

    A divisor with top zeros is a y-power times its x-part: the top
    coefficients of num under that y-power go into the remainder unchanged,
    and the others are divided by the x-part.  The remainder is linear in
    num, has min(deg den, deg num + 1) entries, and vanishes exactly when
    den divides num; it is the coset label of num modulo den * (forms of the
    complementary degree).
    """
    top = max(i for i, c in enumerate(den) if c % q)
    cut = max(len(num) - (len(den) - 1 - top), 0)
    num = [c % q for c in num]
    quot, rem = fq.divmod(num[:cut], [c % q for c in den[: top + 1]], q)
    return quot, tuple(rem) + (0,) * (min(top, cut) - len(rem)) + tuple(num[cut:])


def _gcd_with_derivative_is_constant(u, q):
    """Whether gcd(u, u') is a nonzero constant; u nonzero, top coefficient set."""
    du = [(i * c) % q for i, c in enumerate(u)][1:]
    while du and du[-1] == 0:
        du.pop()
    a, b = list(u), du
    while b:
        a, b = b, fq.poly_mod(a, b, q)
    return len(a) == 1


def is_squarefree(coeffs, q) -> bool:
    """Whether the form has no repeated root on the projective line over the closure.

    The coefficients are reduced mod q first.  Checks the root at [1:0]
    through the top coefficients and the finite roots through
    gcd(f(x,1), d/dx f(x,1)); the zero form is not square-free.
    """
    _validate_odd_prime(q)
    coeffs = [c % q for c in coeffs]
    if not any(coeffs):
        return False
    top = max(i for i, c in enumerate(coeffs) if c)
    if len(coeffs) - 1 - top >= 2:
        return False
    return _gcd_with_derivative_is_constant(coeffs[: top + 1], q)


# --------------------------------------------------------------------------
# irreducible forms and the square-free sieve
# --------------------------------------------------------------------------

def _monic_irreducible_forms(q, max_deg):
    """Monic irreducible forms of degree 1..max_deg: the form y, then the univariate ones."""
    return ((1, 0),) + fq.monic_irreducibles(q, max_deg)


def _factor_form(coeffs, q, irreducibles):
    """[(irreducible form, exponent)] for a nonzero form; the unit is dropped."""
    rest = tuple(c % q for c in coeffs)
    out = []
    for pi in irreducibles:
        exponent = 0
        while True:
            quotient, remainder = _divide(rest, pi, q)
            if any(remainder):
                break
            rest = quotient
            exponent += 1
        if exponent:
            out.append((pi, exponent))
    if any(rest[1:]) or not rest[0]:
        raise AssertionError("factorization left a non-unit cofactor")
    return out


def _times_matrix(form, cofactor_deg):
    """Matrix of h -> form * h on forms h of degree cofactor_deg (row vectors)."""
    import numpy as np

    out = np.zeros((cofactor_deg + 1, cofactor_deg + len(form)), dtype=np.int64)
    for i in range(cofactor_deg + 1):
        out[i, i : i + len(form)] = form
    return out


@lru_cache(maxsize=None)
def _digit_matrix(length, q):
    """All base-q digit rows of the given length: shape (q^length, length)."""
    import numpy as np

    idx = np.arange(q**length, dtype=np.int64)
    out = np.empty((q**length, length), dtype=np.int16)
    for j in range(length):
        out[:, j] = (idx // q**j) % q
    out.flags.writeable = False
    return out


def _codes(rows, matrix, q):
    """The code of each row's image under ``matrix``, reduced mod q.

    The code of a form (c_0, ..., c_D) is sum(c_i q^i): its row number in
    `_digit_matrix` and its index in `_squarefree_bitmap`.
    """
    import numpy as np

    return rows @ matrix % q @ q ** np.arange(matrix.shape[1], dtype=np.int64)


@lru_cache(maxsize=None)
def _squarefree_bitmap(degree, q):
    """Boolean array over all q^(degree+1) forms, indexed by their `_codes`.

    Sieve route: a form fails to be square-free exactly when the square of
    some monic irreducible form divides it, so the failures are the images
    of the multiplication maps h -> pi^2 h.
    """
    import numpy as np

    _validate_odd_prime(q)
    size = q ** (degree + 1)
    bad = np.zeros(size, dtype=bool)
    for pi in _monic_irreducible_forms(q, degree // 2):
        pisq = fq.mul(pi, pi, q)
        cofactor_deg = degree - (len(pisq) - 1)
        digits = _digit_matrix(cofactor_deg + 1, q)
        bad[_codes(digits, _times_matrix(pisq, cofactor_deg), q)] = True
    good = ~bad
    good[0] = False
    good.flags.writeable = False
    return good


# --------------------------------------------------------------------------
# group orders
# --------------------------------------------------------------------------

def gl2_order(q: int) -> int:
    """Order of GL_2 over the prime field of size q."""
    _validate_prime(q)
    return (q * q - 1) * (q * q - q)


def group_order(n: int, q: int, variant: str | None = None) -> int:
    """Order of the group acting on section triples on the index-n surface.

    ``full`` (n >= 1): coordinate changes of the base, fiber rescalings, and
    translations by a degree-n form.  ``g0``: both rulings of the index-0
    surface, modulo the shared scalar.  ``g0prime``: the subgroup of ``g0``
    preserving the distinguished section, which degenerates to affine maps
    of the fiber coordinate.  Which variants an index allows is
    `_resolve_variant`'s rule.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ValueError(f"surface index must be a nonnegative integer: {n!r}")
    _validate_prime(q)
    variant = _resolve_variant(n, variant)
    if variant == "full":
        return gl2_order(q) * (q - 1) * q ** (n + 1)
    if variant == "g0":
        return gl2_order(q) ** 2 // (q - 1)
    return q * (q - 1) * gl2_order(q)


# --------------------------------------------------------------------------
# enumeration
# --------------------------------------------------------------------------

def _stack_value(raw: int, order: int):
    value = Fraction(raw, order)
    return int(value) if value.denominator == 1 else value


def _feasible_grid(budget: int) -> str:
    notes = []
    for q in (3, 5, 7):
        best = None
        g = 2
        while q ** (3 * g + 6) <= budget:
            best = g
            g += 1
        notes.append(f"q={q}: " + (f"g<={best}" if best else "none"))
    return ", ".join(notes)


def _validate_case(g, l, q, tuple_budget):
    """Check a (g, l, q) case of the census: the pair, then q, then the budget."""
    _validate_genus_pair(g, l)
    _validate_odd_prime(q)
    # q > 2, so an exponent past the budget's bit length is over the budget
    # without building q^(3g+6), whose digits pass int-to-str's limit at q = 3
    # from g = 3003 on
    exponent = 3 * g + 6
    if exponent > tuple_budget.bit_length() or q ** exponent > tuple_budget:
        raise ResourceGuardError(
            f"(g={g}, l={l}, q={q}) spans q^(3g+6) = {q}^{exponent} tuples, over the "
            f"budget {tuple_budget}; feasible grid at this budget: {_feasible_grid(tuple_budget)}"
        )


def _division_matrices(den, width, q):
    """(Q, R): quotients and remainders by den of the width basis forms.

    `_divide` is linear in the numerator, so the quotient and remainder of
    any rows of that width are their products with Q and R, mod q.
    """
    import numpy as np

    basis = np.eye(width, dtype=np.int64).tolist()
    quot, rem = zip(*[_divide(e, den, q) for e in basis])
    return np.array(quot, dtype=np.int64), np.array(rem, dtype=np.int64)


def _labels(rows, form, q):
    """Coset label of each row modulo form * (forms of the complementary degree).

    The label is the code of the row's remainder by form (see `_divide`),
    so it is 0 exactly when form divides the row.  By linearity the
    remainders of all rows are one product with R, the remainders of the
    basis forms from `_division_matrices`.
    """
    return _codes(rows, _division_matrices(form, rows.shape[1], q)[1], q)


def _beta_square_rows(g, q):
    import numpy as np

    betas = itertools.product(range(q), repeat=g + 2)
    return np.array([fq.mul(b, b, q) for b in betas], dtype=np.int16)


def _alpha_orbits(l, q):
    """Orbits of the nonzero forms of degree l under alpha -> c (alpha o g).

    g runs over GL_2(F_q) and c over F_q^*.  Returns [(representative,
    orbit size)], each representative the form of least `_codes` in its
    orbit, in that order.  Each form takes the least code reached along the
    generators (elementary matrices, diag(a, 1), scalars c) until none drops.
    """
    import numpy as np

    forms = _digit_matrix(l + 1, q)
    maps = [_substitution_matrix(m, l, q) for m in _gl2_generators(q)]
    maps += [c * np.eye(l + 1, dtype=np.int64) for c in range(2, q)]
    steps = np.array([_codes(forms, m, q) for m in maps])
    first = np.arange(len(forms))
    while True:
        lower = np.minimum(first, first[steps].min(axis=0))
        if (lower == first).all():
            break
        first = lower
    reps, sizes = np.unique(first[first > 0], return_counts=True)
    if sizes.sum() != q ** (l + 1) - 1:
        raise AssertionError("the alpha orbits do not partition the nonzero forms")
    return [(tuple(int(c) for c in forms[r]), int(size)) for r, size in zip(reps, sizes)]


@lru_cache(maxsize=1)
def _coset_census(g, l, q):
    """{(m, lambda): raw members} of the (g, l) family, one pass per alpha orbit.

    The members with leading form alpha and a given coset label number (betas
    whose square has the label) times (square-free discriminants with it).  A
    factor of alpha divides a whole coset or none of it, so each label's
    stratum is read off one discriminant that carries it.  The one census
    kept serves both `enumerate_count` and `stratified_count` of a case.
    """
    import numpy as np

    disc_degree = 2 * g + 2
    digits = _digit_matrix(disc_degree + 1, q)
    squarefree = _squarefree_bitmap(disc_degree, q)
    beta_squares = _beta_square_rows(g, q)
    identity = np.eye(disc_degree + 1, dtype=np.int64)
    if squarefree[_codes(beta_squares, identity, q)].any():
        raise AssertionError("a pure square discriminant tested square-free")
    irreducibles = _monic_irreducible_forms(q, max(l, 1))
    census = {}
    for alpha, size in _alpha_orbits(l, q):
        # the labels of `_labels`, from one remainder matrix for both tables
        rem = _division_matrices(alpha, disc_degree + 1, q)[1]
        labels = _codes(digits, rem, q)
        members = np.bincount(_codes(beta_squares, rem, q), minlength=q**l)
        members *= np.bincount(labels[squarefree], minlength=q**l)
        carrier = np.zeros(q**l, dtype=np.int64)  # a discriminant of each label
        carrier[labels] = np.arange(len(labels))
        factors = _factor_form(alpha, q, irreducibles)
        pattern = np.zeros(q**l, dtype=np.int64)
        for i, (pi, _) in enumerate(factors):
            pattern += (_labels(digits[carrier], pi, q) == 0).astype(np.int64) << i
        for bits in range(1 << len(factors)):
            count = int(members[pattern == bits].sum())
            if count == 0:
                continue
            meeting_degree = 0
            coprime_parts = []
            for i, (pi, exponent) in enumerate(factors):
                if bits >> i & 1:
                    if exponent != 1:
                        raise AssertionError(
                            "a repeated factor of the leading form divides a "
                            "square-free discriminant"
                        )
                    meeting_degree += len(pi) - 1
                else:
                    coprime_parts.extend([exponent] * (len(pi) - 1))
            key = (meeting_degree, tuple(sorted(coprime_parts, reverse=True)))
            census[key] = census.get(key, 0) + size * count
    return census


def _naive_raw(g, l, q):
    """Raw count of triples with square-free discriminant, one triple at a time."""
    disc_degree = 2 * g + 2
    squarefree_cache = {}

    def seen_squarefree(delta):
        cached = squarefree_cache.get(delta)
        if cached is None:
            cached = squarefree_cache[delta] = is_squarefree(delta, q)
        return cached

    betas = [fq.mul(b, b, q) for b in itertools.product(range(q), repeat=g + 2)]
    total = 0
    for alpha in itertools.product(range(q), repeat=l + 1):
        if not any(alpha):
            # beta^2 alone: every root is doubled, so nothing to count —
            # but keep the loop honest and let the test run.
            for bsq in betas:
                if seen_squarefree(bsq):
                    raise AssertionError("a pure square tested square-free")
            continue
        for gamma in itertools.product(range(q), repeat=disc_degree - l + 1):
            prod = fq.mul(alpha, gamma, q)
            scaled = tuple(4 * c % q for c in prod)
            for bsq in betas:
                delta = tuple((x - y) % q for x, y in zip(bsq, scaled))
                if seen_squarefree(delta):
                    total += 1
    return total


def enumerate_count(
    g: int,
    l: int,
    q: int,
    *,
    variant: str | None = None,
    method: str = "coset",
    tuple_budget: int = DEFAULT_TUPLE_BUDGET,
) -> CountRecord:
    """Count triples with square-free discriminant and divide by the group.

    The group is ``full`` for l <= g; at l = g+1 ``variant`` must name
    ``g0`` or ``g0prime`` (see `_resolve_variant`).  The stack count is an
    exact Fraction collapsed to int when integral.
    """
    if method not in ("coset", "naive"):
        raise ValueError(f"unknown method {method!r}: expected 'coset' or 'naive'")
    _validate_case(g, l, q, tuple_budget)
    order = group_order(g + 1 - l, q, variant)
    if method == "naive":
        raw = _naive_raw(g, l, q)
    else:
        raw = sum(_coset_census(g, l, q).values())
    return CountRecord(raw_count=raw, group_order=order, stack_count=_stack_value(raw, order))


# --------------------------------------------------------------------------
# closed forms
# --------------------------------------------------------------------------

_UNSUPPORTED_HINT = (
    "supported: l in {0, 1, 2, 3} for any genus, l = 4 when 12 divides g, "
    "and l = g+1 for g in {2, 3, 4}"
)


def _stable_l4_form(g: int) -> TatePolynomial:
    numerator = TatePolynomial({2 * g: 1}) * TatePolynomial(
        {6: 1, 5: 2, 4: 2, 3: 2, 2: 1, 0: 1}
    )
    denominator = TatePolynomial({2: 1, 0: 1}) * TatePolynomial({1: 1, 0: 1})
    quotient, remainder = numerator.divmod(denominator)
    if denominator * quotient + remainder != numerator:
        raise AssertionError("Euclidean division dropped mass")
    if remainder.coeffs and remainder.degree() >= denominator.degree():
        raise AssertionError("Euclidean remainder too large")
    return quotient


def closed_form_count(g: int, l: int, q: int | None = None, *, variant: str | None = None):
    """The closed-form stack count as a `TatePolynomial` in q, or its value at q.

    Takes the (g, l, q, variant) of `enumerate_count` and, wherever a form
    exists, equals that call's ``stack_count``: l in {0, 1, 2, 3} for any
    genus, l = 4 when 12 divides g, and l = g+1 for g in {2, 3, 4}.  The
    l = 4 total is the Euclidean quotient `_stable_l4_form` (remainder
    discarded) plus its unstable part.  The forms at l = g+1 count the
    ``g0prime`` stack; ``g0`` is q+1 times larger, so its form is the exact
    quotient by q+1.  Inputs are checked in the order pair, q, variant.
    """
    _validate_genus_pair(g, l)
    if q is not None:
        _validate_odd_prime(q)
    variant = _resolve_variant(g + 1 - l, variant)
    poly = _total_form(g, l)
    if variant == "g0":
        poly = poly.divide_exact(TatePolynomial({1: 1, 0: 1}))
    return poly if q is None else poly(q)


def _total_form(g: int, l: int) -> TatePolynomial:
    """The stack count of the (g, l) family; at l = g+1 that of ``g0prime``.

    The degree-0 correction term in the l = 2 and l = 3 forms applies at
    even genus only; see ``delta_sq``.
    """
    # The correction term is nonzero exactly at even genus.  The opposite
    # parity would predict stack counts 324, 2915, 972 at (g, l, q) =
    # (2, 2, 3), (3, 2, 3), (2, 3, 3); exhaustive enumeration by three
    # independent strategies gives 323, 2916, 968, matching the even-genus
    # rule at every measured point (q in {3, 5}, genera 2 through 5).
    delta_sq = 0 if g % 2 else 1
    q_plus_one = TatePolynomial({1: 1, 0: 1})
    if l == 0:
        return TatePolynomial({2 * g - 1: 1})
    if l == g + 1 and g in (3, 4):
        if g == 3:
            return TatePolynomial({8: 1}) * q_plus_one
        return (
            q_plus_one
            * TatePolynomial({2: 1})
            * TatePolynomial({9: 1, 3: 1, 2: -1, 1: -1, 0: -1})
        )
    if l == 1:
        return q_plus_one * TatePolynomial({2 * g - 1: 1})
    if l == 2:
        return q_plus_one * TatePolynomial({2 * g: 1}) - TatePolynomial({0: delta_sq})
    if l == 3:
        return q_plus_one * (
            TatePolynomial({2 * g + 1: 1}) - TatePolynomial({0: delta_sq})
        )
    if l == 4 and g % 12 == 0:
        unstable = TatePolynomial(
            {
                3: -3 * g * g - g,
                2: 6 * g * g - g - 1,
                1: 3 * g * g - 4 * g - 1,
                0: -6 * g * g + 5 * g,
            }
        )
        return _stable_l4_form(g) + unstable
    raise ValueError(f"no closed form for (g, l) = ({g}, {l}); {_UNSUPPORTED_HINT}")


# --------------------------------------------------------------------------
# stratification by contact with the discriminant
# --------------------------------------------------------------------------

def stratified_count(
    g: int, l: int, q: int, *, tuple_budget: int = DEFAULT_TUPLE_BUDGET
) -> dict:
    """Raw member counts by stratum (m, lambda).

    m is the degree of the part of alpha dividing the discriminant (always
    square-free for actual members) and lambda is the multiplicity partition
    of the coprime part, one entry per geometric root, so lambda ⊢ l - m.
    A factor pi of alpha divides delta + alpha * h exactly when it divides
    delta, so the stratum is one per coset label and the values split the
    raw count of `enumerate_count`, read from the same census.
    """
    _validate_case(g, l, q, tuple_budget)
    return dict(_coset_census(g, l, q))


# --------------------------------------------------------------------------
# the discriminant substitution and its inverse
# --------------------------------------------------------------------------

def psi_roundtrip_check(g: int, l: int, q: int) -> dict:
    """Apply the substitution and its printed inverse to every member of the family.

    A member (alpha, beta, gamma) has delta = beta^2 - 4 alpha gamma
    square-free, and the inverse recovers gamma as (beta^2 - delta) / (4 alpha).
    That numerator is 4 alpha gamma whatever beta is, so one division per
    (alpha, gamma) decides the check for all of its members.  For each
    nonzero alpha, one product with `_times_matrix` forms every numerator
    4 alpha gamma, and their products with the quotient and remainder
    matrices of `_division_matrices` mark a gamma wrong where the remainder
    is not zero or the quotient is not gamma; the members of a wrong gamma
    are failures.  The members, the betas that make delta square-free, are
    found by looking up the code of every discriminant in the square-free
    bitmap, in blocks of whole runs of gammas times all betas, at most
    ``_PSI_BLOCK_ROWS`` rows but at least one gamma a block.  They are not
    read from the coset census, so their total is a second derivation of
    the raw enumeration count, by neither coset labels nor alpha orbits.
    """
    import numpy as np

    _validate_case(g, l, q, DEFAULT_TUPLE_BUDGET)
    disc_degree = 2 * g + 2
    squarefree = _squarefree_bitmap(disc_degree, q)
    powers = q ** np.arange(disc_degree + 1, dtype=np.int64)
    beta_squares = _beta_square_rows(g, q).astype(np.int64)
    # terms[i, c] is, for each beta, the x^i term of the code of beta^2 - c x^i,
    # so the code of a discriminant is a sum of rows, one per coefficient
    terms = (beta_squares.T[:, None] - np.arange(q)[:, None]) % q * powers[:, None, None]
    coefficient = np.arange(disc_degree + 1)
    gammas = _digit_matrix(disc_degree - l + 1, q)
    step = max(1, _PSI_BLOCK_ROWS // len(beta_squares))
    members = 0
    failures = 0
    for alpha in itertools.product(range(q), repeat=l + 1):
        if not any(alpha):
            continue
        den = tuple(4 * c % q for c in alpha)
        quot, rem = _division_matrices(den, disc_degree + 1, q)
        numerators = gammas @ _times_matrix(den, disc_degree - l) % q
        wrong = (numerators @ rem % q).any(axis=1)
        wrong |= (numerators @ quot % q != gammas).any(axis=1)
        for g0 in range(0, len(gammas), step):
            codes = terms[coefficient, numerators[g0 : g0 + step]].sum(axis=1)
            found = squarefree[codes].sum(axis=1)
            members += int(found.sum())
            failures += int(found[wrong[g0 : g0 + step]].sum())
    return {
        "g": g,
        "l": l,
        "q": q,
        "members": members,
        "failures": failures,
        "ok": failures == 0,
    }


# --------------------------------------------------------------------------
# the coordinate changes of the base
# --------------------------------------------------------------------------

def _gl2_generators(q):
    """Generators of GL_2(F_q) for the orbit walk and its check: the elementary
    matrix and its conjugate by the swap generate SL_2, and the swap and
    diag(a, 1) reach every determinant."""
    return [((1, 1), (0, 1)), ((0, 1), (1, 0))] + [((a, 0), (0, 1)) for a in range(2, q)]


def _substitution_matrix(matrix, degree, q):
    """Matrix of f -> f(a x + b y, c x + d y) on forms of the given degree (row vectors).

    Row i is the image of x^i y^(degree-i), (a x + b y)^i (c x + d y)^(degree-i),
    from one table of the powers of the two linear forms.
    """
    import numpy as np

    (a, b), (c, d) = matrix
    u, v = [(1,)], [(1,)]
    for _ in range(degree):
        u.append(fq.mul(u[-1], (b % q, a % q), q))
        v.append(fq.mul(v[-1], (d % q, c % q), q))
    rows = [fq.mul(u[i], v[degree - i], q) for i in range(degree + 1)]
    return np.array(rows, dtype=np.int64)


def orbit_invariance_check(g: int, q: int) -> dict:
    """Whether the square-free bitmap of degree 2g+2 is invariant under GL_2(F_q).

    The census stands one leading form alpha for its orbit, exact when alpha,
    alpha o M and c alpha lead equally many members.  (beta, gamma) ->
    (beta o M, gamma o M) and (beta, gamma / c) are bijections taking the
    discriminant delta to delta o M and to itself, so that holds exactly
    when delta o M is square-free with delta.  For each generator of
    `_gl2_generators`, gathers over the codes of all q^(2g+3) forms, in
    blocks of ``_INVARIANCE_BLOCK_FORMS``, compare the bitmap at delta o M
    with the bitmap at delta.
    """
    _validate_genus_pair(g, 0)
    _validate_odd_prime(q)
    degree = 2 * g + 2
    squarefree = _squarefree_bitmap(degree, q)
    digits = _digit_matrix(degree + 1, q)
    generators = _gl2_generators(q)
    mismatches = 0
    for matrix in generators:
        image = _substitution_matrix(matrix, degree, q)
        for start in range(0, len(digits), _INVARIANCE_BLOCK_FORMS):
            block = slice(start, start + _INVARIANCE_BLOCK_FORMS)
            codes = _codes(digits[block], image, q)
            mismatches += int((squarefree[codes] != squarefree[block]).sum())
    return {
        "g": g,
        "q": q,
        "forms": len(squarefree),
        "generators": len(generators),
        "mismatches": mismatches,
        "ok": mismatches == 0,
    }


# --------------------------------------------------------------------------
# Euler characteristic identity
# --------------------------------------------------------------------------

def euler_identity_check(l: int, table) -> dict:
    """Compare (1+L) times the stable series at t = -1 with the reversed count.

    ``table`` is the n = 0 stable table: its ``rows`` {t: {twist: mult}}
    through t-degree ``max_degree``; the series at t = -1 is the sum of
    (-1)^t mult L^twist over its classes.  The comparison window runs over
    L^0..L^ceil(3l/2).  The right-hand side reverses the genus-12 count
    polynomial of degree 23+l: rhs[e] is its coefficient of q^(23+l-e).
    Genus 12 is the smallest with a total form for every l <= 4, and its
    terms whose q-exponent does not grow with g (the parity constants, the
    unstable q^0..q^3 at l = 4) reverse to exponents beyond every window.
    The window is trustworthy only when the table's truncation reaches twice
    the window, since a degree-i term can carry L-exponents as low as i/2.
    """
    if not isinstance(l, int) or isinstance(l, bool) or not 1 <= l <= 4:
        raise ValueError(f"closed-form counts feed this check for l = 1..4 only: {l!r}")
    window = (3 * l + 1) // 2
    if table.max_degree < 2 * window:
        raise ValueError(
            f"the window L^0..L^{window} needs series truncation >= {2 * window}, got {table.max_degree}"
        )
    value = {}
    for t, row in table.rows.items():
        for twist, mult in row.items():
            value[twist] = value.get(twist, 0) + (-1) ** t * mult
    product = TatePolynomial({0: 1, 1: 1}) * TatePolynomial(value)
    lhs = {e: product.coefficient(e) for e in range(window + 1)}
    count = closed_form_count(12, l)
    rhs = {e: count.coefficient(23 + l - e) for e in range(window + 1)}
    return {"l": l, "window": window, "lhs": lhs, "rhs": rhs, "match": lhs == rhs}
