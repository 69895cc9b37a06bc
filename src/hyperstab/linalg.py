"""Exact rank checks for the singular-configuration conditions.

A section of the anticanonical-type line bundle on the ruled surface is a
polynomial f = alpha*z^2 + beta*z + gamma with binary forms alpha, beta,
gamma of degrees d-2n, d-n, d.  Requiring f to be singular at a prescribed
configuration of points imposes three linear conditions per point; this
module builds those conditions explicitly, computes kernel dimensions by
fraction-free elimination, and verifies that random configurations of a
fixed type always cut out the expected codimension 3*k1 + 3*k2 + 5*h.

The configurations are integer points in the chart x = 1: a point [1, s] on
the distinguished section, or (1, s, z) off it, given by its slope s and
fiber value z.  ``_row_array`` is the one formula for their rows: exact
Python integers, or int64 residues modulo a prime p with p^2 < 2^31 built
from reduced power tables, the only two ways this module builds them.  The
batched elimination reduces its input mod such a prime and works in
int32.  The verification certifies most trials without exact integers.
One exact linear relation per fiber pair (``_pairs_certified``), checked
on exact rows of the pair points only, bounds the rank over Q above by the
codimension.  Each relation also puts the f_x row of its pair's second
point in the span of the other rows, so that row is left out, and the
rank of the remaining residue rows modulo 46337 is a lower bound on the
rank over Q.  A trial where the two bounds do not meet gets its own exact
rows and falls back to Bareiss.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING

from .spectral import ConfigurationType

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "SectionSpace",
    "kernel_dimension",
    "sample_configuration",
    "verify_bundle_rank",
    "rank_drop_witness",
    "DEFAULT_SEED",
]

DEFAULT_SEED = 20260816


@dataclass(frozen=True)
class SectionSpace:
    """Sections of bidegree (d, 2) on the ruled surface with twist n.

    The monomial basis is x^a y^b z^c with c in {0, 1, 2} and a + b = d - c*n,
    ordered by z-degree ascending and x-degree descending within each block.
    """

    d: int
    n: int

    def __post_init__(self):
        if not all(
            isinstance(value, int) and not isinstance(value, bool) for value in (self.d, self.n)
        ):
            raise ValueError("d and n must be integers")
        if not self.d >= 2 * self.n >= 0:
            raise ValueError(f"need d >= 2n >= 0, got d={self.d}, n={self.n}")

    @property
    def dimension(self) -> int:
        return 3 * self.d - 3 * self.n + 3

    @property
    def monomials(self) -> tuple:
        return tuple(
            (a, self.d - c * self.n - a, c)
            for c in range(3)
            for a in range(self.d - c * self.n, -1, -1)
        )


# Fiber tables of a point on the distinguished section: its two base
# derivatives read the top coefficient (the z^2 block) and its third row the
# middle coefficient (the z block).
_SECTION_FIBER = ((0, 0, 1), (0, 1, 0))


def _power_tables(bases: np.ndarray, top: int, p: int | None) -> tuple:
    """base^e and e*base^(e-1) for e = 0..top, along a new last axis; mod p unless p is None."""
    import numpy as np

    powers = np.empty(bases.shape + (top + 1,), dtype=bases.dtype)
    powers[..., 0] = 1
    for e in range(1, top + 1):
        powers[..., e] = _reduce(powers[..., e - 1] * bases, p)
    derivatives = np.empty_like(powers)
    derivatives[..., 0] = 0
    derivatives[..., 1:] = _reduce(
        powers[..., :-1] * np.arange(1, top + 1, dtype=bases.dtype), p
    )
    return powers, derivatives


def _reduce(values, p: int | None):
    return values if p is None else values % p


def _check_residue_prime(p: int) -> None:
    """Refuse p unless 3 <= p and p^2 < 2^31: a product of two residues must fit int32."""
    if not (3 <= p and p * p < 2**31):
        raise ValueError(f"residues need a prime p >= 3 with p^2 < 2^31, got {p}")


def _row_array(y, zp, dz, space: SectionSpace, p: int | None = None) -> np.ndarray:
    """The singularity rows of a batch of integer points in the chart x = 1.

    This is the one row formula.  ``y`` holds the slopes, shape (batch,
    points), and the fiber tables ``zp`` and ``dz`` (see
    ``_sampled_points``) have shape (batch, points, 3).  The rows of a point
    are x^a y^b zp[c] differentiated in x, in y, and with dz[c] for the
    fiber, one entry per monomial x^a y^b z^c of the basis, at x = 1: x^a
    is 1 and its x-derivative a.  The result has shape (batch, 3 * points,
    space.dimension), three rows per point in order.  With ``p=None`` the
    entries are exact Python integers in an ``object`` array.  A prime p in
    the range of ``_check_residue_prime`` gives int64 residues: the power
    tables are reduced mod p and so is every product of two residues.
    """
    import numpy as np

    if p is not None:
        _check_residue_prime(p)
    dtype = object if p is None else np.int64

    def residues(values):
        return _reduce(np.asarray(values).astype(dtype), p)

    a, b, c = np.array(space.monomials, dtype=np.intp).T
    yp, dyp = _power_tables(residues(y), space.d, p)
    yb, dyb = yp[..., b], dyp[..., b]
    dxa_yb = _reduce(a.astype(dtype) * yb, p)
    zc, dzc = residues(zp)[..., c], residues(dz)[..., c]
    rows = np.stack(
        (_reduce(dxa_yb * zc, p), _reduce(dyb * zc, p), _reduce(yb * dzc, p)), axis=2
    )
    return rows.reshape(yb.shape[0], 3 * yb.shape[1], space.dimension)


def _sampled_points(slopes: np.ndarray, fibers: np.ndarray, on_section: int) -> tuple:
    """``_row_array``'s (y, zp, dz) of sampled points in the chart x = 1.

    The first ``on_section`` points of each row of ``slopes`` are [1, s] on
    the section, with the fiber tables ``_SECTION_FIBER``; the others are
    (1, s, z) with z the fiber value, zp = (1, z, z^2) and dz = (0, 1, 2z).
    """
    import numpy as np

    ones = np.ones_like(slopes)
    zp = np.stack((ones, fibers, fibers * fibers), axis=-1)
    dz = np.stack((0 * ones, ones, 2 * fibers), axis=-1)
    zp[:, :on_section], dz[:, :on_section] = _SECTION_FIBER
    return slopes, zp, dz


def _rank_bareiss(matrix: list) -> int:
    """Rank of an integer matrix by fraction-free (Bareiss) elimination."""
    m = [list(row) for row in matrix]
    n_rows, n_cols = len(m), len(m[0])
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
        r += 1
        if r == n_rows:
            break
    return r


# Prime of the certified ranks in verify_bundle_rank: the largest that
# ``_check_residue_prime`` accepts.  Any prime gives a lower bound on the
# rank over Q; a spurious drop mod p only sends a trial to Bareiss.
_CERTIFYING_PRIME = 46337


def _ranks_mod_p(matrices, p: int) -> np.ndarray:
    """Ranks over F_p, 3 <= p and p^2 < 2^31, of a batch of equal-shape int64 matrices.

    Every matrix is eliminated with its own pivots, all of them in the same
    array operations.  Since rank(M) = rank(M^T), each matrix is eliminated
    as its transpose, one step per row of M, so that each column and each
    trailing block of M^T is contiguous; the callers' blocks have no more
    rows than columns, so the steps run along the short side.  A step takes
    as pivot the first row with a nonzero entry in the column and updates
    the trailing block in place: every row becomes lead*row -
    entry*pivot_row, a row operation with a unit factor, so no inverse is
    needed.  That zeroes the pivot row too, so no row is swapped or set
    aside; a matrix without a pivot in the column takes lead = 1 and keeps
    its block.  The batch, such as the residue rows of ``_row_array``, is
    reduced in int64; an entry beyond int64 raises ``OverflowError``
    instead of being read as float64.  The elimination runs in int32: both
    products in lead*row - entry*pivot_row lie in [0, (p-1)^2], so their
    difference fits.
    """
    import numpy as np

    _check_residue_prime(p)
    if not len(matrices):
        return np.zeros(0, dtype=np.intp)
    # m[b, col, row]: the rows of M are the columns of its transpose
    m = np.ascontiguousarray(np.asarray(matrices, dtype=np.int64) % p, dtype=np.int32)
    batch, n_cols, _ = m.shape
    rank = np.zeros(batch, dtype=np.intp)
    each = np.arange(batch)
    for col in range(n_cols):
        column = m[:, col]
        pivot = (column != 0).argmax(axis=1)
        lead = column[each, pivot]
        found = lead != 0
        rank += found
        block = m[:, col + 1 :]
        pivot_row = block[each, :, pivot]
        lead = np.where(found, lead, 1)
        block[...] = (
            lead[:, None, None] * block - pivot_row[:, :, None] * column[:, None]
        ) % p
    return rank


def kernel_dimension(rows) -> int:
    """Dimension of the common kernel of the given integer row functionals."""
    rows = list(rows)
    if not rows:
        raise ValueError("no rows given; the ambient dimension would be ambiguous")
    width = len(rows[0])
    if any(len(row) != width for row in rows):
        raise ValueError("rows have inconsistent lengths")
    if any(type(entry) is not int for row in rows for entry in row):
        raise ValueError("rows must hold Python integers")
    return width - _rank_bareiss(rows)


def _degree_bound(config: ConfigurationType, n: int) -> Fraction:
    moduli_part = Fraction(3 * (config.k1 + config.k2) + 5 * config.h, 3) + n - 1
    independence_part = Fraction(2 * config.k1 + 2 * config.k2 + config.h + 2 * n - 1)
    return max(moduli_part, independence_part)


def _jet_degree(config: ConfigurationType, n: int) -> int:
    """D = max(2k1+h+2n-1, k1+k2+2h+n-1, 2k2+2h-1, 2n), the jet degree of a type.

    From d = D up, every configuration of the type with distinct slopes has
    full rank.  A section is f = alpha z^2 + beta z + gamma with binary
    forms of degrees d-2n, d-n, d.  By Euler's identity (d != 0) a point's
    three rows span the conditions f, f_y and f_z in the chart x = 1, which
    read only the 1-jets of alpha, beta and gamma at the point's slope s:

    * a point [1, s] on the section asks for alpha(s), alpha'(s), beta(s);
    * a point (s, z) off it asks for f, 2 alpha z + beta and
      alpha' z^2 + beta' z + gamma' at s, met by beta(s), gamma(s) and
      gamma'(s) whatever alpha is;
    * a fiber pair (s; z1 != z2) has rank 5: alpha(s), beta(s), gamma(s)
      meet three conditions and (beta'(s), gamma'(s)) the other two, by a
      2 x 2 system of determinant z1 - z2.

    So alpha, then beta, then gamma meet 2k1 + h, k1 + k2 + 2h and 2k2 + 2h
    values and first derivatives at distinct slopes.  A confluent
    Vandermonde system at distinct points is invertible, so a form of
    degree e meets m of them once e >= m - 1: d - 2n >= 2k1 + h - 1,
    d - n >= k1 + k2 + 2h - 1 and d >= 2k2 + 2h - 1.  Sections need d >= 2n.
    """
    k1, k2, h = config.k1, config.k2, config.h
    return max(2 * k1 + h + 2 * n - 1, k1 + k2 + 2 * h + n - 1, 2 * k2 + 2 * h - 1, 2 * n)


# half-width of the box that sample_configuration draws coordinates from
_SAMPLE_BOX = 50


def sample_configuration(config: ConfigurationType, rng: random.Random) -> tuple:
    """Random configuration of the given type with distinct ruling lines.

    Returns (slopes, fibers), one integer of each per point, drawn uniformly
    from the box [-_SAMPLE_BOX, _SAMPLE_BOX], widened to 3 * sites, and
    redrawn on collision: the k1 points [1, s] on the section come first
    (fiber 0), then the k2 single points (1, s, z) off it, then the h fiber
    pairs (1, s, z1), (1, s, z2), adjacent.
    """
    box = max(_SAMPLE_BOX, 3 * config.site_count)
    used: set = set()

    def fresh_slope() -> int:
        while True:
            s = rng.randint(-box, box)
            if s not in used:
                used.add(s)
                return s

    slopes, fibers = [], []
    for _ in range(config.k1):
        slopes.append(fresh_slope())
        fibers.append(0)
    for _ in range(config.k2):
        slopes.append(fresh_slope())
        fibers.append(rng.randint(-box, box))
    for _ in range(config.h):
        s = fresh_slope()
        z1 = rng.randint(-box, box)
        z2 = rng.randint(-box, box)
        while z2 == z1:
            z2 = rng.randint(-box, box)
        slopes += (s, s)
        fibers += (z1, z2)
    return tuple(slopes), tuple(fibers)


def _pairs_certified(
    slopes: np.ndarray, fibers: np.ndarray, config: ConfigurationType, space: SectionSpace
) -> np.ndarray:
    """Which trials' fiber pairs all satisfy the Euler relation exactly.

    ``slopes`` and ``fibers`` are the sampled coordinates of a block of
    trials, one row per trial.  For p1 = (1, s, z1) and p2 = (1, s, z2) on
    one ruling line, Euler's identity for each coefficient form gives, for
    every section f,

        2(f_x + s f_y)(p1) - 2(f_x + s f_y)(p2)
          + [2(d-n) z2 - (d-2n)(z1+z2)] f_z(p1)
          + [(d-2n)(z1+z2) - 2(d-n) z1] f_z(p2) = 0.

    The relation is checked on the exact rows of the 2h pair points, the
    only exact rows a certified trial needs, so wherever it holds it is a
    linear dependency (its first coefficient is 2).  The h relations have
    disjoint supports, so when all hold the rank is at most rows - h, which
    is the codimension.  Pairs are the trailing points, adjacent, as
    ``sample_configuration`` orders them, and s is read from the first
    point of each pair.
    """
    import numpy as np

    h = config.h
    if not h:
        return np.ones(len(slopes), dtype=bool)
    d, n = space.d, space.n
    slopes, fibers = slopes[:, -2 * h :], fibers[:, -2 * h :]
    rows = _row_array(*_sampled_points(slopes, fibers, 0), space)
    s, z1, z2 = slopes[:, ::2], fibers[:, ::2], fibers[:, 1::2]
    w1 = 2 * (d - n) * z2 - (d - 2 * n) * (z1 + z2)
    w2 = (d - 2 * n) * (z1 + z2) - 2 * (d - n) * z1
    s, w1, w2 = (v.astype(object)[..., None] for v in (s, w1, w2))
    x1, y1, f1, x2, y2, f2 = rows.reshape(len(rows), h, 6, -1).transpose(2, 0, 1, 3)
    relation = 2 * (x1 - x2 + s * (y1 - y2)) + w1 * f1 + w2 * f2
    return ~(relation != 0).any(axis=(1, 2))


@lru_cache(maxsize=1)
def _sampled_block(config: ConfigurationType, seed: int, block: range) -> tuple:
    """(slopes, fibers) of the trials in ``block``, read-only int64, a row per trial.

    The draws depend on the type, the seed and the trial only, not on d or
    n, so ``verify ranks``, which checks each type at two twists in a row,
    samples each block once.
    """
    import numpy as np

    samples = (sample_configuration(config, random.Random(f"{seed}:{t}")) for t in block)
    arrays = tuple(np.array(column, dtype=np.int64) for column in zip(*samples))
    for array in arrays:
        array.flags.writeable = False
    return arrays


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
    enforce_bound: bool = True,
) -> dict:
    """Check that every sampled configuration cuts exactly codim conditions.

    Unless ``enforce_bound`` is false, d must exceed ``_degree_bound`` and
    be at least ``_jet_degree``: below D a configuration can drop rank while
    random samples miss it, as (0, 1, 2) does at n = 0, d = 4.
    Returns a JSON-ready report; ``failures`` lists the trials whose kernel
    dimension differed from dimension - (3*k1 + 3*k2 + 5*h).  That expected
    kernel dimension goes under ``expected_rank``, a misnomer that pinned
    reports keep: the expected rank is the codimension.  The trials go in
    blocks of ``_RANK_BLOCK_TRIALS``.  The residue rows of a block form one
    array, ranked in one batched elimination modulo ``_CERTIFYING_PRIME``
    without the f_x row of each pair's second point: codimension rows, and
    the rank of any subset of the rows mod p is a lower bound on the rank
    over Q.  A trial whose rank there is the codimension and whose fiber
    pairs pass ``_pairs_certified`` has exactly the expected kernel over Q,
    and any other trial gets its kernel dimension from Bareiss elimination
    over the integers.  The row left out is the one the pair's relation
    implies: its coefficient there is -2, a unit mod every odd p, so the
    rows kept have full rank exactly when all of them do.  (The f_y row
    has coefficient -2s, which vanishes at slope 0.)
    """
    import numpy as np

    if not isinstance(trials, int) or isinstance(trials, bool) or trials < 1:
        raise ValueError(f"trials must be at least 1 and an integer, not {trials!r}")
    space = SectionSpace(d, n)
    bound = _degree_bound(config, n)
    if enforce_bound and d <= bound:
        raise ValueError(
            f"degree {d} must exceed the bound max(k1+k2+5h/3+n-1, "
            f"2k1+2k2+h+2n-1) = {bound} for type "
            f"({config.k1}, {config.k2}, {config.h}) at n={n}"
        )
    jet = _jet_degree(config, n)
    if enforce_bound and d < jet:
        raise ValueError(
            f"degree {d} is below the jet degree D = max(2k1+h+2n-1, k1+k2+2h+n-1, "
            f"2k2+2h-1, 2n) = {jet} for type ({config.k1}, {config.k2}, {config.h}) "
            f"at n={n}; from D up every configuration has full rank"
        )
    expected = space.dimension - config.codimension
    prime = _CERTIFYING_PRIME
    singles = 3 * (config.k1 + config.k2)
    implied = np.arange(singles + 3, singles + 6 * config.h, 6)
    failures = []
    for start in range(0, trials, _RANK_BLOCK_TRIALS):
        block = range(start, min(trials, start + _RANK_BLOCK_TRIALS))
        slopes, fibers = _sampled_block(config, seed, block)
        residues = _row_array(*_sampled_points(slopes, fibers, config.k1), space, prime)
        ranks = _ranks_mod_p(np.delete(residues, implied, axis=1), prime)
        certified = (ranks == config.codimension) & _pairs_certified(slopes, fibers, config, space)
        for offset, trial in enumerate(block):
            if certified[offset]:
                continue
            one = slice(offset, offset + 1)
            rows = _row_array(*_sampled_points(slopes[one], fibers[one], config.k1), space)
            kernel = kernel_dimension(rows[0].tolist())
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
