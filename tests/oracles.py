"""Oracles of the tests: the independent routes that check the package.

No command runs these; each one checks a fast route of the package from a
route that does not share the primitive under test.  Keep them as they
are when the package changes, so that a change cannot move its own check.

* ``QPolynomial``, a polynomial in q with rational coefficients, and the
  twisted point counts of M_{0,n} built on it through Moebius sums
  (`closed_point_count`, `twisted_count_config_p1`; Kisin-Lehrer,
  J. Algebra 2002), the oracle of the integer layer counts of `m0n`;
* `o_integer_twisted_count`, the same counts as one dense integer product
  of cycle factors per cycle type, the oracle of the recursion that builds
  them one part at a time, at sizes the rational route is too slow for;
* `brute_twisted_count`, which counts the same configurations by walking
  the Frobenius orbits of explicit extension fields, built from the
  trial-division search `o_find_irreducible` rather than `fq.is_irreducible`;
* `_z_sign`, the centralizer order and sign of one cycle type in one pass
  over its parts, the oracle of the per-degree table `symfunc._cycle_types`
  that builds them in the recursion of the partitions;
* single irreducible characters of S_n (`irreducible_character`,
  `irreducible`) and the sign character, built on the Murnaghan-Nakayama
  recursion `symfunc._mn` and the signs of `_z_sign`, the oracles of the
  dense class functions, the Hall pairings and the M_{0,n} layers;
* `psi_forward`, the paper's substitution psi, the discriminant
  beta^2 - 4 alpha gamma of one triple by `o_mul`, and `psi_inverse`, its
  inverse, which divides with the frozen long division `o_exact_div` rather
  than `ffcount._divide`;
* `o_apply_group_element`, the action of the surface automorphisms on
  section triples (coordinate changes of the base by `o_substitute`, fiber
  rescalings and translations), and `o_random_images`, which moves random
  members of a family by random elements of it: the oracle of the orbit
  walk's invariance, with the translations that its certificate,
  `ffcount.orbit_invariance_check`, leaves out;
* `o_qpoly_floordiv`, the Euclidean division of polynomials in q that the
  closed forms used before `series.TatePolynomial.divmod`;
* `o_parse_layer_file`, the structural parser of decoded layer files that
  `m0n` kept beside its writer before every file had to re-encode to the
  writer's bytes: looser than the loader, so whatever the loader accepts,
  it accepts with the same layers.

The oracles take a cycle type in any order of its parts and sort it with
`canonical_partition`; the package reads class functions by position only.
"""

import itertools
import json
import math
import operator
from fractions import Fraction
from functools import lru_cache

from hyperstab import fq
from hyperstab.ffcount import ResourceGuardError
from hyperstab.symfunc import CharacterVector, _mn, partitions


def canonical_partition(parts) -> tuple:
    """Sort into weakly decreasing order and validate the parts.

    Every part must be a positive int; a bool, a float or any other number
    raises ValueError, so the oracles never see a non-integer part.
    """
    parts = tuple(parts)
    for p in parts:
        if type(p) is not int:
            raise ValueError(f"partition parts must be integers: {parts!r}")
    out = tuple(sorted(parts, reverse=True))
    if out and out[-1] <= 0:
        raise ValueError(f"partition parts must be positive: {parts!r}")
    return out


# --------------------------------------------------------------------------
# polynomials in q and the twisted point counts of M_{0,n}
# --------------------------------------------------------------------------

def _normalize_coeff(c):
    if isinstance(c, bool):
        raise ValueError(f"coefficient must be a number: {c!r}")
    if isinstance(c, int):
        return c
    if isinstance(c, Fraction):
        return int(c) if c.denominator == 1 else c
    raise ValueError(f"coefficient must be an int or Fraction: {c!r}")


class QPolynomial:
    """Exact polynomial in the point-count variable q.

    Stored sparsely as {exponent: coefficient} with exponents >= 0.
    Coefficients are integers whenever possible; rationals such as the
    closed-point count (q^2 - q)/2 are carried as Fractions and collapse
    back to int the moment a product clears the denominator.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict | None = None):
        out = {}
        for e, c in (coeffs or {}).items():
            if not isinstance(e, int) or isinstance(e, bool) or e < 0:
                raise ValueError(f"exponent must be a nonnegative integer: {e!r}")
            c = _normalize_coeff(c)
            if c:
                out[e] = c
        self.coeffs = out

    def is_integral(self) -> bool:
        return all(isinstance(c, int) for c in self.coeffs.values())

    def coefficient(self, e: int) -> int:
        return self.coeffs.get(e, 0)

    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return max(self.coeffs, default=-1)

    def _coerce(self, other):
        if isinstance(other, QPolynomial):
            return other
        if isinstance(other, int):
            return QPolynomial({0: other})
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return QPolynomial(out)

    __radd__ = __add__

    def __neg__(self):
        return QPolynomial({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return QPolynomial(out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        result = QPolynomial({0: 1})
        for _ in range(k):
            result = result * self
        return result

    def __call__(self, q: int):
        total = sum(c * q ** e for e, c in self.coeffs.items())
        return _normalize_coeff(Fraction(total)) if total else 0

    def divmod(self, other: "QPolynomial") -> tuple:
        """Euclidean division: (quotient, remainder), the remainder of lower degree."""
        other = self._coerce(other)
        if not other.coeffs:
            raise ZeroDivisionError("division by the zero polynomial")
        lead_e = other.degree()
        lead_c = Fraction(other.coeffs[lead_e])
        rem = dict(self.coeffs)
        quot = {}
        while rem:
            e = max(rem)
            if e < lead_e:
                break
            f = rem[e] / lead_c
            quot[e - lead_e] = f
            for e2, c2 in other.coeffs.items():
                e3 = e2 + e - lead_e
                rem[e3] = rem.get(e3, 0) - f * c2
                if rem[e3] == 0:
                    del rem[e3]
        return QPolynomial(quot), QPolynomial(rem)

    def divide_exact(self, other: "QPolynomial") -> "QPolynomial":
        """Polynomial long division; raises unless the remainder is zero."""
        quot, rem = self.divmod(other)
        if rem.coeffs:
            raise ArithmeticError(f"inexact division: remainder {rem.coeffs}")
        return quot

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(tuple(sorted(self.coeffs.items())))

    def __repr__(self):
        if not self.coeffs:
            return "QPolynomial(0)"
        terms = " + ".join(f"{c}*q^{e}" for e, c in sorted(self.coeffs.items(), reverse=True))
        return f"QPolynomial({terms})"


def _moebius(k: int) -> int:
    if k < 1:
        raise ValueError("moebius argument must be positive")
    out = 1
    p = 2
    while p * p <= k:
        if k % p == 0:
            k //= p
            if k % p == 0:
                return 0
            out = -out
        else:
            p += 1
    if k > 1:
        out = -out
    return out


@lru_cache(maxsize=None)
def closed_point_count(d: int) -> QPolynomial:
    """Number of closed points of degree d on P^1 over F_q, as a polynomial a_d(q).

    a_1 = q + 1; for d >= 2, a_d = (1/d) * sum_{e | d} moebius(d/e) q^e,
    with the division checked to be exact.
    """
    if d < 1:
        raise ValueError("degree must be >= 1")
    if d == 1:
        return QPolynomial({1: 1, 0: 1})
    total = QPolynomial()
    for e in range(1, d + 1):
        if d % e == 0:
            total = total + QPolynomial({e: _moebius(d // e)})
    if not total.is_integral():
        raise ArithmeticError(f"closed point count for d={d}: non-integral Moebius sum")
    return QPolynomial({e: Fraction(c, d) for e, c in total.coeffs.items()})


@lru_cache(maxsize=None)
def _falling_product(d: int, count: int) -> QPolynomial:
    """a_d (a_d - 1) ... (a_d - count + 1), memoized across cycle types."""
    if count == 0:
        return QPolynomial({0: 1})
    return _falling_product(d, count - 1) * (closed_point_count(d) - (count - 1))


def twisted_count_config_p1(n: int, mu) -> QPolynomial:
    """Fixed points of (sigma o Frobenius) on ordered n-point configurations of P^1.

    For sigma of cycle type mu, the count is prod_d d^{c_d} a_d (a_d-1) ...
    (a_d - c_d + 1) over cycle lengths d with multiplicity c_d: each d-cycle
    occupies a degree-d closed point (d possible alignments), distinct cycles
    of equal length occupying distinct points.
    """
    mu = canonical_partition(mu)
    if sum(mu) != n:
        raise ValueError(f"cycle type {mu} does not have weight {n}")
    result = QPolynomial({0: 1})
    for d in set(mu):
        c = mu.count(d)
        result = result * QPolynomial({0: d ** c}) * _falling_product(d, c)
    if not result.is_integral():
        raise ArithmeticError(f"twisted count for mu={mu} is not integral: {result!r}")
    return result


def o_dense_mul(a, b) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, c1 in enumerate(a):
        for j, c2 in enumerate(b):
            out[i + j] += c1 * c2
    return out


@lru_cache(maxsize=None)
def o_cycle_factor(d: int, c: int) -> tuple:
    """prod_{k<c} (d a_d - d k), the share of c cycles of length d, as dense integers.

    Frozen from ``m0n._cycle_factor`` as it stood before the counts were
    built one part at a time; d a_d comes from the Moebius sum of
    `closed_point_count` rather than from ``m0n._exact_degree_points``.
    """
    if c == 0:
        return (1,)
    points = closed_point_count(d) * QPolynomial({0: d})
    factor = [points.coefficient(e) for e in range(d + 1)]
    factor[0] -= d * (c - 1)
    return tuple(o_dense_mul(o_cycle_factor(d, c - 1), factor))


def o_integer_twisted_count(mu) -> list:
    """N_mu(q) as dense integer coefficients: one product of cycle factors per mu.

    Frozen from ``m0n._integer_twisted_count``, the oracle of the recursion
    ``m0n._twisted_counts`` at sizes the rational route is too slow for.
    """
    count = [1]
    for d in set(mu):
        count = o_dense_mul(count, o_cycle_factor(d, mu.count(d)))
    return count


# --------------------------------------------------------------------------
# brute-force oracle: explicit Frobenius orbits in small extension fields
# --------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _closed_point_orbits(d: int, q: int):
    """Frobenius orbits of size exactly d on P^1(F_{q^d}), each verified.

    Returns the number of orbits.  F_{q^d} is F_q[x] modulo the first monic
    irreducible of degree d, found by `o_find_irreducible`.  Each orbit is
    walked explicitly: we check that the Frobenius x -> x^q returns to the
    start after exactly d steps.
    """
    if d == 1:
        # P^1(F_q): every point is its own orbit
        return q + 1
    modulus = o_find_irreducible(d, q)

    def reduce(poly):
        rem = fq.poly_mod(poly, modulus, q)
        return tuple(rem) + (0,) * (d - len(rem))

    # Frobenius is F_q-linear and a ring map: it sends x^i to (x^q)^i
    xq = reduce((0,) * q + (1,))
    images = [(1,) + (0,) * (d - 1)]
    for _ in range(d - 1):
        images.append(reduce(fq.mul(images[-1], xq, q)))

    def frob(elem):
        out = [0] * d
        for coeff, img in zip(elem, images):
            if coeff:
                for j in range(d):
                    out[j] = (out[j] + coeff * img[j]) % q
        return tuple(out)

    seen = set()
    orbits = 0
    for elem in itertools.product(range(q), repeat=d):
        if elem in seen:
            continue
        orbit = [elem]
        current = frob(elem)
        while current != elem:
            orbit.append(current)
            current = frob(current)
        for pt in orbit:
            seen.add(pt)
        if len(orbit) == d:
            orbits += 1
    # the point at infinity is Frobenius-fixed, so it never has orbit size d >= 2
    return orbits


def brute_twisted_count(n: int, mu, q: int, max_points: int = 2 ** 20) -> int:
    """Count (sigma o Frobenius)-fixed ordered configurations by direct orbit search.

    Independent of the closed product formula: extension fields are built
    explicitly, orbits enumerated, and cycle-to-orbit assignments counted by
    recursion over the cycles, d alignments per cycle of length d (verified
    by the explicit orbit walk).
    """
    mu = canonical_partition(mu)
    if sum(mu) != n:
        raise ValueError(f"cycle type {mu} does not have weight {n}")
    if n > 6:
        raise ValueError("brute enumeration supports n <= 6 only")
    if q > 11:
        raise ValueError("brute enumeration supports q <= 11 only")
    if not fq.is_prime(q):
        raise ValueError(f"brute enumeration needs a prime field size: {q!r}")
    if n == 0:
        return 1
    lcm = math.lcm(*mu)
    if q ** lcm > max_points:
        raise ResourceGuardError(
            f"q^lcm(mu) = {q}^{lcm} exceeds the enumeration budget {max_points}"
        )
    available = {d: _closed_point_orbits(d, q) for d in set(mu)}
    used = dict.fromkeys(available, 0)

    def assign(cycles):
        if not cycles:
            return 1
        d = cycles[0]
        free = available[d] - used[d]
        if free <= 0:
            return 0
        used[d] += 1
        rest = assign(cycles[1:])
        used[d] -= 1
        return d * free * rest

    return assign(list(mu))


# --------------------------------------------------------------------------
# characters of the symmetric group
# --------------------------------------------------------------------------

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


def irreducible_character(lam, mu) -> int:
    """Value chi^lam(mu) of the irreducible S_n character at cycle type mu."""
    lam = canonical_partition(lam)
    mu = canonical_partition(mu)
    if sum(lam) != sum(mu):
        raise ValueError(f"|lam|={sum(lam)} != |mu|={sum(mu)}")
    return _mn(lam, mu)


def irreducible(lam) -> CharacterVector:
    """The irreducible character chi^lam as a class function."""
    lam = canonical_partition(lam)
    n = sum(lam)
    return CharacterVector(n, (_mn(lam, mu) for mu in partitions(n)))


def sign_character(n: int) -> CharacterVector:
    """The sign character of S_n as a class function."""
    return CharacterVector(n, (_z_sign(mu)[1] for mu in partitions(n)))


# --------------------------------------------------------------------------
# binary forms over F_q and the inverse of the substitution psi
# --------------------------------------------------------------------------
# Forms of degree D are coefficient tuples (c_0, ..., c_D) with c_i the
# coefficient of x^i y^(D-i); leading zeros encode roots at [1:0].

def o_mul(a, b, q):
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] = (out[i + j] + ca * cb) % q
    return tuple(out)


def o_exact_div(num, den, q):
    """Quotient form of num/den, or None when den does not divide num.

    Frozen copy of ``ffcount._exact_div`` as it stood before its long
    division moved to ``fq.divmod``.
    """
    num = [c % q for c in num]
    top = None
    for i in range(len(den) - 1, -1, -1):
        if den[i] % q:
            top = i
            break
    if top is None:
        return None
    y_power = len(den) - 1 - top
    if y_power >= len(num):
        # y^y_power exceeds the degree of num, so only zero is divisible
        return None if any(num) else ()
    if y_power:
        if any(num[len(num) - y_power:]):
            return None
        del num[len(num) - y_power:]
    quot_deg = len(num) - 1 - top
    if quot_deg < 0:
        return None if any(num) else ()
    inv = pow(den[top] % q, q - 2, q)
    quot = [0] * (quot_deg + 1)
    for i in range(quot_deg, -1, -1):
        c = (num[top + i] * inv) % q
        quot[i] = c
        if c:
            for j in range(top + 1):
                num[i + j] = (num[i + j] - c * den[j]) % q
    if any(num):
        return None
    return tuple(quot)


def psi_forward(alpha, beta, gamma, q) -> tuple:
    """Discriminant beta^2 - 4 alpha gamma of a section triple."""
    bsq = o_mul(beta, beta, q)
    prod = o_mul(alpha, gamma, q)
    return tuple((x - 4 * y) % q for x, y in zip(bsq, prod))


def psi_inverse(alpha, beta, delta, q) -> tuple:
    """Recover the triple from (alpha, beta, discriminant): gamma = (beta^2-delta)/(4 alpha).

    Forms are coefficient tuples ascending in x, of degree their length
    minus one; the result is (alpha, beta, gamma).
    """
    if not any(c % q for c in alpha):
        raise ValueError("the inverse needs a nonzero leading form")
    g = len(beta) - 2
    if len(delta) != 2 * g + 3:
        raise ValueError(
            f"the discriminant must have degree {2 * g + 2}, got {len(delta) - 1}"
        )
    bsq = o_mul(beta, beta, q)
    num = tuple((x - y) % q for x, y in zip(bsq, delta))
    den = tuple(4 * c % q for c in alpha)
    gamma = o_exact_div(num, den, q)
    if gamma is None:
        raise ValueError("beta^2 - delta is not divisible by 4 alpha")
    return alpha, beta, gamma


# --------------------------------------------------------------------------
# the group acting on section triples
# --------------------------------------------------------------------------

def o_substitute(coeffs, matrix, q):
    """f(a x + b y, c x + d y) for the form f with the given coefficients.

    Each term x^i y^(D-i) is expanded by repeated `o_mul` of the linear
    forms a x + b y and c x + d y.
    """
    (a, b), (c, d) = matrix
    degree = len(coeffs) - 1
    out = [0] * (degree + 1)
    for i, cf in enumerate(coeffs):
        term = (1,)
        for _ in range(i):
            term = o_mul(term, (b, a), q)
        for _ in range(degree - i):
            term = o_mul(term, (d, c), q)
        for j, t in enumerate(term):
            out[j] = (out[j] + cf * t) % q
    return tuple(out)


def o_apply_group_element(triple, matrix, scale: int, translation, q) -> tuple:
    """Substitute (x, y) -> matrix (x, y) and z -> scale z + translation(x, y).

    ``triple`` is (alpha, beta, gamma) and so is the result.
    ``translation`` is a form of degree n = g+1-l = len(beta) - len(alpha)
    (a constant at n = 0, where this is the section-preserving subgroup of
    the product group).  The discriminant transforms by scale^2 times the
    coordinate change, so membership is preserved.
    """
    (a, b), (c, d) = matrix
    if (a * d - b * c) % q == 0:
        raise ValueError("the coordinate change must be invertible")
    scale %= q
    if scale == 0:
        raise ValueError("the fiber rescaling must be a unit")
    n = len(triple[1]) - len(triple[0])
    shift = tuple(t % q for t in translation)
    if len(shift) != n + 1:
        raise ValueError(f"the translation must be a form of degree {n}")
    alpha, beta, gamma = (o_substitute(form, matrix, q) for form in triple)
    shift_alpha = o_mul(shift, alpha, q)
    new_alpha = tuple(scale * scale * v % q for v in alpha)
    new_beta = tuple(scale * (2 * x + y) % q for x, y in zip(shift_alpha, beta))
    new_gamma = tuple(
        (x + y + z) % q
        for x, y, z in zip(o_mul(shift, shift_alpha, q), o_mul(shift, beta, q), gamma)
    )
    return new_alpha, new_beta, new_gamma


def o_random_images(g, l, q, rng, is_member) -> list:
    """(member, image) pairs: 25 random members of the (g, l) family, each
    moved by the same 20 random group elements.

    The members are drawn from uniform triples with a nonzero leading form
    and kept where ``is_member(triple)``; each element is a random
    invertible matrix, a fiber rescaling and a translation by a form of
    degree n = g+1-l, applied by `o_apply_group_element`.
    """
    def random_form(degree):
        return tuple(rng.randrange(q) for _ in range(degree + 1))

    found = []
    while len(found) < 25:
        triple = (random_form(l), random_form(g + 1), random_form(2 * g + 2 - l))
        if any(triple[0]) and is_member(triple):
            found.append(triple)
    pairs = []
    for _ in range(20):
        matrix = ((0, 0), (0, 0))
        while (matrix[0][0] * matrix[1][1] - matrix[0][1] * matrix[1][0]) % q == 0:
            matrix = (random_form(1), random_form(1))
        scale = rng.randrange(1, q)
        shift = random_form(g + 1 - l)
        pairs.extend(
            (triple, o_apply_group_element(triple, matrix, scale, shift, q)) for triple in found
        )
    return pairs


# --------------------------------------------------------------------------
# polynomials over F_q: the search for a monic irreducible
# --------------------------------------------------------------------------

def o_tuples(length, q):
    if length == 0:
        yield ()
        return
    for rest in o_tuples(length - 1, q):
        for c in range(q):
            yield rest + (c,)


def o_poly_remainder_zero(a, b, q):
    a = list(a)
    db = len(b) - 1
    inv_lead = pow(b[-1], -1, q)
    for top in range(len(a) - 1, db - 1, -1):
        c = a[top]
        if c:
            f = c * inv_lead % q
            for j in range(db + 1):
                a[top - db + j] = (a[top - db + j] - f * b[j]) % q
    return not any(a)


def o_find_irreducible(d, q):
    """Monic irreducible polynomial of degree d over F_q, coefficients ascending."""
    if d == 1:
        return (0, 1)

    def is_irreducible(poly):
        # trial division by all monic polynomials of degree <= d/2
        for deg in range(1, d // 2 + 1):
            for tail in o_tuples(deg, q):
                divisor = tail + (1,)
                if o_poly_remainder_zero(poly, divisor, q):
                    return False
        return True

    for tail in o_tuples(d, q):
        poly = tail + (1,)
        if is_irreducible(poly):
            return poly
    raise AssertionError(f"no irreducible polynomial of degree {d} over F_{q}")


# --------------------------------------------------------------------------
# Euclidean division of polynomials in q
# --------------------------------------------------------------------------

def o_qpoly_floordiv(num, den):
    """Euclidean division of polynomials in q: (quotient, remainder).

    Frozen copy of ``ffcount._qpoly_floordiv``, which ``QPolynomial.divmod``
    replaced, and ``TatePolynomial.divmod`` after it.
    """
    quot = QPolynomial({})
    rem = num
    dd = den.degree()
    lead = den.coefficient(dd)
    while rem.coeffs and rem.degree() >= dd:
        e = rem.degree()
        term = QPolynomial({e - dd: Fraction(rem.coefficient(e), lead)})
        quot = quot + term
        rem = rem - term * den
    return quot, rem


# --------------------------------------------------------------------------
# layer files of M_{0,n}
# --------------------------------------------------------------------------

def _o_no_float(text: str):
    raise ValueError(f"a number is not an integer: {text}")


def o_parse_layer_file(text: str, n: int) -> dict:
    """The layers of a layer file; raises KeyError, TypeError or ValueError.

    Frozen copy of ``m0n._parse_cache`` on ``json.loads(text)``, floats
    refused.  ``cycle_types`` must be spelled and ordered as the writer
    writes it; then every layer holds its traces in `partitions(n)` order
    and goes to the `CharacterVector` constructor as it stands.  Integer,
    zero-padded and ``"-0"`` traces load, and so do extra and reordered
    top-level keys.
    """
    payload = json.loads(text, parse_float=_o_no_float)
    if not isinstance(payload, dict):
        raise TypeError(f"the file holds a JSON {type(payload).__name__}, not an object")
    if "cycle_types" not in payload:
        raise ValueError("no top-level cycle_types list")
    if int(payload["n"]) != n:
        raise ValueError(f"the file is for n={payload['n']}, not {n}")
    labels = payload["cycle_types"]
    if labels != [list(map(str, mu)) for mu in partitions(n)]:
        raise ValueError(f"cycle_types is not the list of the partitions of {n}")
    layers = {}
    trace = operator.itemgetter("trace")
    for entry in payload["layers"]:
        i = int(entry["i"])
        if i in layers:
            raise ValueError(f"layer {i} is listed more than once")
        traces = list(map(int, map(trace, entry["values"])))
        if len(traces) != len(labels):
            raise ValueError(
                f"layer {i} has {len(traces)} traces for {len(labels)} cycle types"
            )
        layers[i] = CharacterVector(n, traces)
    return layers
