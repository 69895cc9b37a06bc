"""Equivariant cohomology layers of M_{0,n} via twisted point counts.

The trace of a permutation sigma acting on the cohomology of M_{0,n} is read
off from the number of fixed points of (sigma o Frobenius) acting on ordered
configurations of n points of P^1: the count N_mu(q) is a polynomial in q,
divisible by #PGL_2(F_q) = q^3 - q, and the quotient's coefficients carry the
traces layer by layer.

The layers are computed in integers only (Kisin-Lehrer, J. Algebra 2002).
With b_d = d * a_d the number of points of P^1(F_{q^d}) of exact degree d, the
share d^c a_d (a_d - 1) ... (a_d - c + 1) of c cycles of length d is the
integer polynomial prod_{k<c} (b_d - d*k); b_d itself is q^d minus the b_e of
the proper divisors e of d, plus 1 at d = 1 for the point at infinity.  Each
N_mu is a dense product of memoised factors, divided by q^3 - q by integer
synthetic division.  The sparse `QPolynomial` route (`closed_point_count`,
`twisted_count_config_p1`), which goes through Moebius sums and rational
coefficients, is kept as the oracle for this one, and `brute_twisted_count`
checks both by walking Frobenius orbits; no command calls these three oracles.
`brute_twisted_count` builds F_{q^d} with the shared F_q kernels of `fq` but
walks and counts the orbits itself; it never counts irreducibles.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
import os
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

from . import fq
from .symfunc import CharacterVector, canonical_partition, partitions

__all__ = [
    "QPolynomial",
    "EquivariantPoincare",
    "ResourceGuardError",
    "closed_point_count",
    "twisted_count_config_p1",
    "brute_twisted_count",
    "equivariant_poincare_m0n",
    "default_cache_dir",
]


class ResourceGuardError(RuntimeError):
    """Raised when a brute-force enumeration would exceed its budget."""


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


# --------------------------------------------------------------------------
# brute-force oracle: explicit Frobenius orbits in small extension fields
# --------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _closed_point_orbits(d: int, q: int):
    """Frobenius orbits of size exactly d on P^1(F_{q^d}), each verified.

    Returns the number of orbits.  F_{q^d} is F_q[x] modulo the first monic
    irreducible of degree d.  Each orbit is walked explicitly: we check that
    the Frobenius x -> x^q returns to the start after exactly d steps.
    """
    if d == 1:
        # P^1(F_q): every point is its own orbit
        return q + 1
    modulus = fq.first_irreducible(d, q)

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
# integer twisted counts: dense coefficient tuples, ascending in q
# --------------------------------------------------------------------------

def _dense_mul(a, b) -> list:
    out = [0] * (len(a) + len(b) - 1)
    terms = [(j, c) for j, c in enumerate(b) if c]
    for i, c1 in enumerate(a):
        if c1:
            for j, c2 in terms:
                out[i + j] += c1 * c2
    return out


@lru_cache(maxsize=None)
def _exact_degree_points(d: int) -> tuple:
    """Points of A^1(F_{q^d}) of exact degree d: q^d minus those of the proper subfields."""
    coeffs = [0] * (d + 1)
    coeffs[d] = 1
    for e in range(1, d):
        if d % e == 0:
            for i, c in enumerate(_exact_degree_points(e)):
                coeffs[i] -= c
    return tuple(coeffs)


@lru_cache(maxsize=None)
def _cycle_factor(d: int, c: int) -> tuple:
    """prod_{k<c} (b_d - d*k), the share of c cycles of length d in N_mu."""
    if c == 0:
        return (1,)
    factor = list(_exact_degree_points(d))
    factor[0] += (d == 1) - d * (c - 1)  # d = 1: the point at infinity
    return tuple(_dense_mul(_cycle_factor(d, c - 1), factor))


def _integer_twisted_count(mu: tuple) -> list:
    """N_mu(q) for a canonical cycle type, as dense integer coefficients."""
    count = [1]
    for d in set(mu):
        count = _dense_mul(count, _cycle_factor(d, mu.count(d)))
    return count


def _divide_by_pgl2(count: list) -> list:
    """Exact quotient of a dense polynomial by q^3 - q (synthetic division)."""
    rem = list(count)
    quot = [0] * (len(rem) - 3)
    for e in range(len(rem) - 1, 2, -1):
        quot[e - 3] = rem[e]
        rem[e - 2] += rem[e]
    if any(rem[:3]):
        raise ArithmeticError(f"inexact division by q^3 - q: remainder {rem[:3]}")
    return quot


# --------------------------------------------------------------------------
# equivariant layers
# --------------------------------------------------------------------------

@dataclass
class EquivariantPoincare:
    """Cohomology layers of M_{0,n}: layer i is the S_n-character of H^i."""

    n: int
    layers: dict


def default_cache_dir() -> Path:
    env = os.environ.get("HYPERSTAB_CACHE")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "hyperstab"


def _cache_path(cache_dir, n: int) -> Path:
    base = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    return base / f"m0n_{n}.json"


def _cycle_type_labels(n: int) -> list:
    """The partitions of n as `_save_cache` spells them, in `partitions(n)` order."""
    return [[str(p) for p in mu] for mu in partitions(n)]


def _save_cache(path: Path, ep: EquivariantPoincare) -> None:
    # every layer lists its traces in the order of the one top-level cycle-type list
    payload = {
        "n": str(ep.n),
        "cycle_types": _cycle_type_labels(ep.n),
        "layers": [
            {"i": str(i), "values": [{"trace": str(v)} for v in layer.vector]}
            for i, layer in sorted(ep.layers.items())
        ],
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(json.dumps(payload, separators=(",", ":")))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _load_cache(path: Path, n: int) -> EquivariantPoincare:
    try:
        layers = _parse_cache(json.loads(path.read_text(), parse_float=_no_float), n)
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc}") from exc
    except TypeError as exc:
        raise ValueError(f"{path}: wrong type: {exc}") from exc
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    _validate_layers(n, layers, source=str(path))
    return EquivariantPoincare(n=n, layers=layers)


def _no_float(text: str):
    raise ValueError(f"a number is not an integer: {text}")


def _parse_cache(payload, n: int) -> dict:
    """The layers of a decoded cache file; raises KeyError, TypeError or ValueError.

    ``cycle_types`` must be spelled and ordered as `_save_cache` writes it.
    Then every layer holds its traces in `partitions(n)` order and goes to
    the `CharacterVector` constructor as it stands.
    """
    if not isinstance(payload, dict):
        raise TypeError(f"the file holds a JSON {type(payload).__name__}, not an object")
    if "cycle_types" not in payload:
        raise ValueError(
            "no top-level cycle_types list (an older version's layout, or a damaged "
            "file): delete the file to recompute it"
        )
    if int(payload["n"]) != n:
        raise ValueError(f"the file is for n={payload['n']}, not {n}")
    labels = payload["cycle_types"]
    if labels != _cycle_type_labels(n):
        raise ValueError(
            f"cycle_types is not the list of the partitions of {n} that this version "
            "writes: delete the file to recompute it"
        )
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


def _validate_layers(n: int, layers: dict, source: str) -> None:
    if set(layers) != set(range(n - 2)):
        raise ValueError(
            f"{source}: expected layers 0..{n - 3}, found {sorted(layers)}"
        )
    if layers[0] != CharacterVector.trivial(n):
        raise ValueError(f"{source}: layer 0 is not the trivial character")


@lru_cache(maxsize=None)
def equivariant_poincare_m0n(n: int, cache_dir=None) -> EquivariantPoincare:
    """S_n-equivariant cohomology layers of M_{0,n}.

    For each cycle type mu, the twisted configuration count N_mu(q) is divided
    exactly by #PGL_2(F_q) = q^3 - q; writing the quotient as
    sum_i (-1)^i tr(sigma | H^i) q^{(n-3)-i} recovers each layer's character.
    Both steps are integer-only (see the module docstring).
    Results are cached on disk under `cache_dir`, the HYPERSTAB_CACHE
    directory, or ~/.cache/hyperstab, in that order of preference: one file
    m0n_<n>.json per n, integers as decimal strings, holding
    ``{"n": ..., "cycle_types": [...], "layers": [{"i": ..., "values":
    [{"trace": ...}, ...]}, ...]}``.  ``cycle_types`` spells each partition of
    n once, in `partitions(n)` order, and every layer lists its traces in that
    order.  Only that list loads, in any JSON whitespace.  Any other file
    (another spelling or order of the cycle types, or the layout of older
    versions with a label in every value) raises ValueError naming the file.
    """
    if n < 3:
        raise ValueError("n must be >= 3")
    path = _cache_path(cache_dir, n)
    if path.exists():
        return _load_cache(path, n)
    traces = [[] for _ in range(n - 2)]
    for mu in partitions(n):
        quotient = _divide_by_pgl2(_integer_twisted_count(mu))
        for i, layer in enumerate(traces):
            value = quotient[n - 3 - i]
            layer.append(-value if i % 2 else value)
    layers = {i: CharacterVector(n, vector) for i, vector in enumerate(traces)}
    _validate_layers(n, layers, source=f"computed layers for n={n}")
    ep = EquivariantPoincare(n=n, layers=layers)
    _save_cache(path, ep)
    return ep
