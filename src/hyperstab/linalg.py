"""Exact rank checks for the singular-configuration conditions.

A section of the anticanonical-type line bundle on the ruled surface is a
polynomial f = alpha*z^2 + beta*z + gamma with binary forms alpha, beta,
gamma of degrees d-2n, d-n, d.  Requiring f to be singular at a prescribed
configuration of points imposes three linear conditions per point; this
module builds those conditions explicitly, computes kernel dimensions by
fraction-free elimination, and verifies that random configurations of a
fixed type always cut out the expected codimension 3*k1 + 3*k2 + 5*h.

The verification certifies most trials without the integer elimination: a
rank modulo a prime is a lower bound on the rank over Q, and one exact
linear relation per fiber pair (``_pairs_certified``) bounds it above by the
codimension.  Trials where the two bounds do not meet fall back to Bareiss.

No command calls `singularity_rows`, the rows of one point; it is the oracle
of the batched rows that the verification builds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import TYPE_CHECKING

from . import fq
from .ffcount import DEFAULT_SEED
from .spectral import ConfigurationType

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "SectionSpace",
    "PointOnSurface",
    "singularity_rows",
    "kernel_dimension",
    "sample_configuration",
    "verify_bundle_rank",
    "rank_drop_witness",
]


@dataclass(frozen=True)
class SectionSpace:
    """Sections of bidegree (d, 2) on the ruled surface with twist n.

    The monomial basis is x^a y^b z^c with c in {0, 1, 2} and a + b = d - c*n,
    ordered by z-degree ascending and x-degree descending within each block.
    """

    d: int
    n: int

    def __post_init__(self):
        if not (isinstance(self.d, int) and isinstance(self.n, int)):
            raise ValueError("d and n must be integers")
        if not self.d >= 2 * self.n >= 0:
            raise ValueError(f"need d >= 2n >= 0, got d={self.d}, n={self.n}")

    @property
    def dimension(self) -> int:
        return 3 * self.d - 3 * self.n + 3

    @property
    def monomials(self) -> tuple:
        return _monomial_basis(self.d, self.n)


@lru_cache(maxsize=None)
def _monomial_basis(d: int, n: int) -> tuple:
    basis = []
    for c in range(3):
        deg = d - c * n
        basis.extend((a, deg - a, c) for a in range(deg, -1, -1))
    return tuple(basis)


def _rational(value):
    """A coordinate as an int or a Fraction, whichever it was given as."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return int(value)
    raise ValueError(f"coordinates must be rational, got {value!r}")


@dataclass(frozen=True)
class PointOnSurface:
    """A point, either on the distinguished section or off it.

    On the distinguished section the point is a base point [u, v]; off it
    the representative is [x, y, z] with z the fiber coordinate of weight
    ``weight`` (the surface twist n), normalized so that the first nonzero
    base coordinate is 1.  Off-section points must have a well-defined
    ruling line, i.e. (x, y) != (0, 0).  Integer coordinates stay ints
    unless that normalization divides them.
    """

    locus: str
    coords: tuple
    weight: int = 0

    @classmethod
    def on_exceptional(cls, u, v) -> "PointOnSurface":
        u, v = _rational(u), _rational(v)
        if u == 0 and v == 0:
            raise ValueError("degenerate point: [0, 0]")
        scale = u if u != 0 else v
        if scale != 1:
            scale = Fraction(scale)
            u, v = u / scale, v / scale
        return cls("on_exceptional", (u, v))

    @classmethod
    def off_exceptional(cls, x, y, z, n) -> "PointOnSurface":
        x, y, z = _rational(x), _rational(y), _rational(z)
        if x == 0 and y == 0:
            raise ValueError("degenerate point: no ruling line through [0, 0, z]")
        scale = x if x != 0 else y
        if scale != 1:
            scale = Fraction(scale)
            x, y, z = x / scale, y / scale, z / scale**n
        return cls("off_exceptional", (x, y, z), n)


def _integral_base(u, v) -> tuple:
    """(lam*u, lam*v, lam) with lam the lcm of the denominators of u and v."""
    lam = lcm(u.denominator, v.denominator)
    return (
        u.numerator * (lam // u.denominator),
        v.numerator * (lam // v.denominator),
        lam,
    )


# Fiber tables of a point on the distinguished section: its two base
# derivatives read the top coefficient (the z^2 block) and its third row the
# middle coefficient (the z block).
_SECTION_FIBER = ((0, 0, 1), (0, 1, 0))


def _integral_point(point: PointOnSurface, space: SectionSpace) -> tuple:
    """A point as integers (x, y, zp, dz), its rows built from x^a y^b zp[c] and dz[c].

    Off the section zp[c] is z^c and dz[c] is c*z^(c-1), both homogenised by
    the denominator D of the fiber coordinate: zp = (D^2, zD, z^2) and
    dz = (0, D, 2z).  On the section they are ``_SECTION_FIBER``.
    """
    if point.locus == "off_exceptional":
        if point.weight != space.n:
            raise ValueError(
                f"point has fiber weight {point.weight}, space has twist {space.n}"
            )
        x0, y0, z0 = point.coords
        x, y, lam = _integral_base(x0, y0)
        z_num = lam**space.n * z0.numerator
        z_den = z0.denominator
        common = gcd(z_num, z_den)
        z, den = z_num // common, z_den // common
        return x, y, (den * den, z * den, z * z), (0, den, 2 * z)
    u, v, _ = _integral_base(*point.coords)
    return (u, v) + _SECTION_FIBER


def _power_tables(bases: np.ndarray, top: int) -> tuple:
    """Object arrays of base^e and of e*base^(e-1), e = 0..top, one row per base."""
    import numpy as np

    powers = np.empty((len(bases), top + 1), dtype=object)
    powers[:, 0] = 1
    for e in range(1, top + 1):
        powers[:, e] = powers[:, e - 1] * bases
    derivatives = np.empty_like(powers)
    derivatives[:, 0] = 0
    derivatives[:, 1:] = powers[:, :-1] * np.arange(1, top + 1, dtype=object)
    return powers, derivatives


def _singularity_array(configurations, space: SectionSpace) -> np.ndarray:
    """The stacked singularity rows of equal-size configurations, as one array.

    The result has shape (configurations, 3 * points, space.dimension) and
    ``dtype=object``, so its entries are exact Python integers; the rows of
    each configuration are those of its points in order, three per point, as
    ``singularity_rows`` gives them.  Each point is moved to integers once
    and its rows are products of its power tables, indexed by the basis.
    """
    import numpy as np

    configurations = list(configurations)
    size = len(configurations[0])
    if any(len(points) != size for points in configurations):
        raise ValueError("configurations in one batch must have equal sizes")
    xs, ys, zp, dz = zip(*(
        _integral_point(point, space) for points in configurations for point in points
    ))
    a, b, c = np.array(space.monomials, dtype=np.intp).T
    xp, dxp = _power_tables(np.array(xs, dtype=object), space.d)
    yp, dyp = _power_tables(np.array(ys, dtype=object), space.d)
    zp, dz = np.array(zp, dtype=object), np.array(dz, dtype=object)
    xa, yb, zc = xp[:, a], yp[:, b], zp[:, c]
    rows = np.stack(
        (dxp[:, a] * yb * zc, xa * dyp[:, b] * zc, xa * yb * dz[:, c]), axis=1
    )
    return rows.reshape(len(configurations), 3 * size, space.dimension)


def singularity_rows(point: PointOnSurface, space: SectionSpace) -> tuple:
    """Three linear functionals on ``space`` vanishing iff f is singular there.

    Off the distinguished section these are the partial derivatives of f in
    the weighted coordinates; on it, where the fiber chart around the section
    reads alpha + beta*w + gamma*w^2, they are the two base derivatives of
    the top coefficient together with the middle coefficient.

    The rows are integers.  A point is first moved to integer coordinates
    by the weighted action (x, y, z) -> (lam*x, lam*y, lam^n*z), lam the lcm
    of the base denominators; if the fiber coordinate is still fractional
    (always possible for n = 0) with denominator D, the entries are also
    multiplied by D^2 (D for the fiber derivative).  Each row is thereby
    scaled by one nonzero constant, so the common kernel is unchanged, and
    points with integer coordinates and x = 1, as sampled by
    ``sample_configuration``, get exactly their unscaled rows.  This is a
    batch of one for ``_singularity_array``.
    """
    return tuple(map(tuple, _singularity_array([(point,)], space)[0].tolist()))


def _integer_rows(rows) -> list:
    """Rows as integer lists; a row with rational entries is cleared of denominators."""
    cleared = []
    for row in rows:
        if set(map(type, row)) <= {int}:
            cleared.append(list(row))
            continue
        fracs = [Fraction(entry) for entry in row]
        scale = lcm(*(f.denominator for f in fracs)) if fracs else 1
        cleared.append([int(f * scale) for f in fracs])
    return cleared


def _rank_bareiss(matrix: list) -> int:
    """Rank of an integer matrix by fraction-free (Bareiss) elimination."""
    m = [row[:] for row in matrix]
    n_rows, n_cols = len(m), len(m[0])
    rank = 0
    prev = 1
    r = 0
    for col in range(n_cols):
        pivot = next((i for i in range(r, n_rows) if m[i][col]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        tail = m[r][col:]
        lead = tail[0]
        for i in range(r + 1, n_rows):
            row = m[i]
            factor = row[col]
            # entries left of col are zero in rows r.. and the col entry cancels
            row[col:] = [(lead * a - factor * b) // prev for a, b in zip(row[col:], tail)]
        prev = lead
        rank += 1
        r += 1
        if r == n_rows:
            break
    return rank


# Prime of the certified ranks in verify_bundle_rank; below 2^31, so int64.
_CERTIFYING_PRIME = 2**31 - 1


def _ranks_mod_p(matrices, p: int) -> np.ndarray:
    """Ranks over F_p of a batch of equal-shape integer matrices.

    Every matrix is eliminated with its own pivots, all of them in the same
    array operations.  A row below the pivot becomes lead*row - entry*pivot,
    a row operation with a unit factor, so no inverse is needed.  Below
    2^31 the residues and the product of any two fit in int64; larger
    primes run the same code on Python integers in an ``object`` array.
    """
    import numpy as np

    if not len(matrices):
        return np.zeros(0, dtype=np.intp)
    m = np.asarray(matrices, dtype=object) % p
    if p < 2**31:
        m = m.astype(np.int64)
    batch, n_rows, n_cols = m.shape
    rank = np.zeros(batch, dtype=np.intp)
    row_ids = np.arange(n_rows)
    for col in range(n_cols):
        if (rank == n_rows).all():
            break
        candidates = (m[:, :, col] != 0) & (row_ids >= rank[:, None])
        live = np.flatnonzero(candidates.any(axis=1))
        if not len(live):
            continue
        r = rank[live]
        pivot = candidates[live].argmax(axis=1)
        m[live, r], m[live, pivot] = m[live, pivot], m[live, r]
        # Rows at or above the pivot are never read again, so every row
        # takes the update; the pivot row itself becomes zero.
        tail = m[live, :, col:]
        lead = tail[np.arange(len(live)), r]
        m[live, :, col:] = (
            lead[:, None, :1] * tail - tail[:, :, :1] * lead[:, None, :]
        ) % p
        rank[live] += 1
    return rank


def kernel_dimension(rows) -> int:
    """Dimension of the common kernel of the given row functionals."""
    rows = list(rows)
    if not rows:
        raise ValueError("no rows given; the ambient dimension would be ambiguous")
    width = len(rows[0])
    if any(len(row) != width for row in rows):
        raise ValueError("rows have inconsistent lengths")
    return width - _rank_bareiss(_integer_rows(rows))


def _degree_bound(config: ConfigurationType, n: int) -> Fraction:
    moduli_part = Fraction(3 * (config.k1 + config.k2) + 5 * config.h, 3) + n - 1
    independence_part = Fraction(2 * config.k1 + 2 * config.k2 + config.h + 2 * n - 1)
    return max(moduli_part, independence_part)


def sample_configuration(
    config: ConfigurationType, d: int, n: int, rng: random.Random, box: int = 50
) -> tuple:
    """Random configuration of the given type with distinct ruling lines.

    Slopes and fiber coordinates are integers drawn uniformly from a box,
    redrawn on collision; points on the section come first, then single
    off-section points, then fiber pairs (adjacent in the result).
    """
    box = max(box, 3 * config.site_count)
    slopes: set = set()

    def fresh_slope() -> int:
        while True:
            s = rng.randint(-box, box)
            if s not in slopes:
                slopes.add(s)
                return s

    points = []
    for _ in range(config.k1):
        points.append(PointOnSurface.on_exceptional(1, fresh_slope()))
    for _ in range(config.k2):
        points.append(
            PointOnSurface.off_exceptional(1, fresh_slope(), rng.randint(-box, box), n)
        )
    for _ in range(config.h):
        s = fresh_slope()
        z1 = rng.randint(-box, box)
        z2 = rng.randint(-box, box)
        while z2 == z1:
            z2 = rng.randint(-box, box)
        points.append(PointOnSurface.off_exceptional(1, s, z1, n))
        points.append(PointOnSurface.off_exceptional(1, s, z2, n))
    return tuple(points)


def _validate_modulus(modulus: int, d: int, n: int) -> None:
    if modulus == 2:
        raise ValueError("characteristic 2 is excluded")
    if not fq.is_prime(modulus):
        raise ValueError(f"modulus {modulus} is not prime")
    if modulus <= 2 * d:
        raise ValueError(f"need a prime > 2d = {2 * d}, got {modulus}")
    if n >= 3 and modulus % n != 1:
        raise ValueError(f"for twist n={n} the prime must be 1 mod n, got {modulus}")


def _pairs_certified(
    configurations, rows: np.ndarray, config: ConfigurationType, space: SectionSpace
) -> np.ndarray:
    """Which trials' fiber pairs all satisfy the Euler relation exactly.

    ``rows`` is the ``_singularity_array`` of the configurations.  For
    p1 = (1, s, z1) and p2 = (1, s, z2) on one ruling line, Euler's identity
    for each coefficient form gives, for every section f,

        2(f_x + s f_y)(p1) - 2(f_x + s f_y)(p2)
          + [2(d-n) z2 - (d-2n)(z1+z2)] f_z(p1)
          + [(d-2n)(z1+z2) - 2(d-n) z1] f_z(p2) = 0.

    The relation is checked on the rows themselves, so wherever it holds it
    is a linear dependency (its first coefficient is 2).  The h relations
    have disjoint supports, so when all hold the rank is at most rows - h,
    which is the codimension.  Pairs are the trailing points, adjacent, as
    ``sample_configuration`` orders them; a trial with a pair point not of
    the form (1, s, z) with integer s and z gets no certificate.
    """
    import numpy as np

    d, n = space.d, space.n
    first = config.k1 + config.k2
    certified = np.ones(len(configurations), dtype=bool)
    for i in range(first, first + 2 * config.h, 2):
        weights = []  # (s, w1, w2) per trial; zeros where the guard fails
        for trial, points in enumerate(configurations):
            coords = points[i].coords + points[i + 1].coords
            if any(c.denominator != 1 for c in coords) or (coords[0], coords[3]) != (1, 1):
                certified[trial] = False
                weights.append((0, 0, 0))
                continue
            _, s, z1, _, _, z2 = map(int, coords)
            w1 = 2 * (d - n) * z2 - (d - 2 * n) * (z1 + z2)
            w2 = (d - 2 * n) * (z1 + z2) - 2 * (d - n) * z1
            weights.append((s, w1, w2))
        s, w1, w2 = np.array(weights, dtype=object).T[:, :, None]
        x1, y1, f1, x2, y2, f2 = rows[:, 3 * i : 3 * i + 6].transpose(1, 0, 2)
        relation = 2 * (x1 + s * y1 - x2 - s * y2) + w1 * f1 + w2 * f2
        certified &= ~(relation != 0).any(axis=1)
    return certified


# Trials sampled, built and ranked together in verify_bundle_rank.  At least
# the 100 trials of ``verify ranks``, so that suite takes one block per type;
# the block bounds memory when many more trials are asked for.
_RANK_BLOCK_TRIALS = 128


def verify_bundle_rank(
    config: ConfigurationType,
    d: int,
    n: int,
    trials: int,
    seed: int,
    modulus: int | None = None,
    enforce_bound: bool = True,
) -> dict:
    """Check that every sampled configuration cuts exactly codim conditions.

    Returns a JSON-ready report; ``failures`` lists the trials whose kernel
    dimension differed from dimension - (3*k1 + 3*k2 + 5*h).  The trials
    go in blocks of ``_RANK_BLOCK_TRIALS``.  The rows of a block form one
    array, ranked in one batched elimination modulo ``modulus``, which then
    gives the answer, or else modulo ``_CERTIFYING_PRIME``: a trial whose
    rank there is the codimension and whose fiber pairs pass
    ``_pairs_certified`` has exactly the expected kernel, and any other
    trial gets its kernel dimension from Bareiss elimination over the
    integers.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, not {trials}")
    space = SectionSpace(d, n)
    bound = _degree_bound(config, n)
    if enforce_bound and d < bound:
        raise ValueError(
            f"degree {d} is below the bound max(k1+k2+5h/3+n-1, "
            f"2k1+2k2+h+2n-1) = {bound} for type "
            f"({config.k1}, {config.k2}, {config.h}) at n={n}"
        )
    if modulus is not None:
        _validate_modulus(modulus, d, n)
    expected = space.dimension - config.codimension
    prime = modulus or _CERTIFYING_PRIME
    failures = []
    for start in range(0, trials, _RANK_BLOCK_TRIALS):
        block = range(start, min(trials, start + _RANK_BLOCK_TRIALS))
        configurations = [
            sample_configuration(config, d, n, random.Random(f"{seed}:{trial}"))
            for trial in block
        ]
        rows = _singularity_array(configurations, space)
        ranks = _ranks_mod_p(rows, prime)
        if modulus is None:
            certified = (ranks == config.codimension) & _pairs_certified(
                configurations, rows, config, space
            )
        for offset, trial in enumerate(block):
            if modulus is not None:
                kernel = space.dimension - int(ranks[offset])
            elif certified[offset]:
                kernel = expected
            else:
                kernel = kernel_dimension(rows[offset].tolist())
            if kernel != expected:
                failures.append({"trial": trial, "kernel_dimension": kernel})
    return {
        "type": [config.k1, config.k2, config.h],
        "d": d,
        "n": n,
        "v": space.dimension,
        "expected_rank": expected,
        "trials": trials,
        "failures": failures,
        "seed": seed,
    }


def rank_drop_witness(trials: int = 12, seed: int = DEFAULT_SEED) -> dict:
    """Below-bound witness: two section points at (d, n) = (3, 1).

    There the top coefficient is linear, so its two derivative rows are
    constant functionals shared by both points and the six stacked rows have
    rank 4 instead of 6: every trial reports kernel dimension 5, not 3,
    confirming that the degree bound is doing real work.
    """
    return verify_bundle_rank(
        ConfigurationType(2, 0, 0), 3, 1, trials, seed, enforce_bound=False
    )
