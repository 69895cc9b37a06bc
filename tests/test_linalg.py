"""Tests for the exact singular-configuration linear algebra.

Kernel dimensions are cross-checked against numpy's floating-point rank on
small integer matrices (exact at these sizes) and, where a formula predicts
them, against the codimension count 3*k1 + 3*k2 + 5*h.
"""

import json
import math
import random
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperstab import cli, linalg
from hyperstab.cli import RANK_TYPES, _minimal_valid_degree
from hyperstab.linalg import (
    SectionSpace,
    kernel_dimension,
    rank_drop_witness,
    sample_configuration,
    verify_bundle_rank,
)
from hyperstab.spectral import ConfigurationType, types_with_sites

CT = ConfigurationType


# An integer point in the chart x = 1, as the frozen oracles read it: coords
# (1, s) on the section, or (1, s, z) off it with fiber weight the twist n.
Point = namedtuple("Point", "locus coords weight", defaults=(0,))


def on_section(s):
    return Point("on_exceptional", (1, s))


def off_section(s, z, n):
    return Point("off_exceptional", (1, s, z), n)


def stacked_rows(points, space, rows_of):
    rows = []
    for p in points:
        rows.extend(rows_of(p, space))
    return rows


def points_of(config, sample, n):
    """Sampled (slopes, fibers) as points: [1, s] on the section, then (1, s, z)."""
    slopes, fibers = sample
    return tuple(
        on_section(s) if i < config.k1 else off_section(s, z, n)
        for i, (s, z) in enumerate(zip(slopes, fibers))
    )


def sampled_rows(config, sample, space):
    """The exact rows ``_row_array`` builds for one sampled configuration."""
    slopes, fibers = (np.array([column], dtype=np.int64) for column in sample)
    points = linalg._sampled_points(slopes, fibers, config.k1)
    return [tuple(row) for row in linalg._row_array(*points, space)[0].tolist()]


def o_sample_configuration(config, d, n, rng, box=50):
    """Frozen sampler that built the points themselves, same draws."""
    box = max(box, 3 * config.site_count)
    slopes = set()

    def fresh_slope():
        while True:
            s = rng.randint(-box, box)
            if s not in slopes:
                slopes.add(s)
                return s

    points = []
    for _ in range(config.k1):
        points.append(on_section(fresh_slope()))
    for _ in range(config.k2):
        points.append(off_section(fresh_slope(), rng.randint(-box, box), n))
    for _ in range(config.h):
        s = fresh_slope()
        z1 = rng.randint(-box, box)
        z2 = rng.randint(-box, box)
        while z2 == z1:
            z2 = rng.randint(-box, box)
        points.append(off_section(s, z1, n))
        points.append(off_section(s, z2, n))
    return tuple(points)


def _frac_power(base, exponent):
    return Fraction(1) if exponent == 0 else base**exponent


def fraction_singularity_rows(point, space):
    """Frozen rational-arithmetic construction of the singularity rows.

    Entries are the derivatives evaluated at the point's normalised
    rational coordinates, one ``Fraction`` power per monomial.
    """
    basis = space.monomials
    if point.locus == "off_exceptional":
        x0, y0, z0 = (Fraction(c) for c in point.coords)
        return (
            tuple(a * _frac_power(x0, a - 1) * _frac_power(y0, b) * _frac_power(z0, c)
                  if a else Fraction(0) for a, b, c in basis),
            tuple(b * _frac_power(x0, a) * _frac_power(y0, b - 1) * _frac_power(z0, c)
                  if b else Fraction(0) for a, b, c in basis),
            tuple(c * _frac_power(x0, a) * _frac_power(y0, b) * _frac_power(z0, c - 1)
                  if c else Fraction(0) for a, b, c in basis),
        )
    u0, v0 = (Fraction(c) for c in point.coords)
    return (
        tuple(a * _frac_power(u0, a - 1) * _frac_power(v0, b) if c == 2 and a
              else Fraction(0) for a, b, c in basis),
        tuple(b * _frac_power(u0, a) * _frac_power(v0, b - 1) if c == 2 and b
              else Fraction(0) for a, b, c in basis),
        tuple(_frac_power(u0, a) * _frac_power(v0, b) if c == 1 else Fraction(0)
              for a, b, c in basis),
    )


def o_singularity_rows(point, space):
    """Frozen per-point construction of the integer singularity rows.

    The point is moved to integers by the weighted action (lam*x, lam*y,
    lam^n*z), the fiber coordinate homogenised by its remaining denominator,
    and every entry is one product of Python integer powers.
    """
    def powers(base):
        table = [1] * (space.d + 1)
        for e in range(1, space.d + 1):
            table[e] = table[e - 1] * base
        return table

    def integral_base(u, v):
        lam = math.lcm(u.denominator, v.denominator)
        return u.numerator * (lam // u.denominator), v.numerator * (lam // v.denominator), lam

    basis = space.monomials
    if point.locus == "off_exceptional":
        if point.weight != space.n:
            raise ValueError("fiber weight differs from the twist")
        x0, y0, z0 = point.coords
        x, y, lam = integral_base(x0, y0)
        z_num, z_den = lam**space.n * z0.numerator, z0.denominator
        common = math.gcd(z_num, z_den)
        z, den = z_num // common, z_den // common
        xp, yp = powers(x), powers(y)
        zp = (den * den, z * den, z * z)
        dz = (0, den, 2 * z)
        return (
            tuple(a * xp[a - 1] * yp[b] * zp[c] if a else 0 for a, b, c in basis),
            tuple(b * xp[a] * yp[b - 1] * zp[c] if b else 0 for a, b, c in basis),
            tuple(xp[a] * yp[b] * dz[c] for a, b, c in basis),
        )
    u, v, _ = integral_base(*point.coords)
    up, vp = powers(u), powers(v)
    return (
        tuple(a * up[a - 1] * vp[b] if c == 2 and a else 0 for a, b, c in basis),
        tuple(b * up[a] * vp[b - 1] if c == 2 and b else 0 for a, b, c in basis),
        tuple(up[a] * vp[b] if c == 1 else 0 for a, b, c in basis),
    )


# --------------------------------------------------------------------------
# section spaces
# --------------------------------------------------------------------------

def test_section_space_dimension_and_basis():
    for d, n in [(2, 0), (5, 1), (9, 0), (8, 2), (12, 3), (4, 2)]:
        space = SectionSpace(d, n)
        assert space.dimension == 3 * d - 3 * n + 3
        assert len(space.monomials) == space.dimension
        assert len(set(space.monomials)) == space.dimension
        for a, b, c in space.monomials:
            assert c in (0, 1, 2)
            assert a >= 0 and b >= 0
            assert a + b == d - c * n


def test_section_space_rejects_bad_parameters():
    with pytest.raises(ValueError):
        SectionSpace(3, 2)  # d < 2n
    with pytest.raises(ValueError):
        SectionSpace(4, -1)


def test_section_space_rejects_bools():
    for d, n in ((True, False), (True, 0), (4, False)):
        with pytest.raises(ValueError, match="integers"):
            SectionSpace(d, n)


# --------------------------------------------------------------------------
# singularity rows: hand-computed coefficient extractions
# --------------------------------------------------------------------------

def test_rows_off_exceptional_coordinate_point():
    # d=2, n=0; basis ordered c ascending then x-degree descending:
    # c=0: x2,xy,y2 | c=1: x2 z,xy z,y2 z | c=2: x2 z2,xy z2,y2 z2
    space = SectionSpace(2, 0)
    assert space.monomials == (
        (2, 0, 0), (1, 1, 0), (0, 2, 0),
        (2, 0, 1), (1, 1, 1), (0, 2, 1),
        (2, 0, 2), (1, 1, 2), (0, 2, 2),
    )
    rows = sampled_rows(CT(0, 1, 0), ((0,), (0,)), space)  # (1, 0, 0): slope 0, fiber 0
    assert rows[0] == (2, 0, 0, 0, 0, 0, 0, 0, 0)  # d/dx
    assert rows[1] == (0, 1, 0, 0, 0, 0, 0, 0, 0)  # d/dy
    assert rows[2] == (0, 0, 0, 1, 0, 0, 0, 0, 0)  # d/dz
    assert kernel_dimension(rows) == 9 - 3


def test_rows_on_exceptional_point():
    # d=4, n=1: quadratic top coefficient, cubic middle, quartic bottom
    space = SectionSpace(4, 1)
    assert space.monomials == (
        (4, 0, 0), (3, 1, 0), (2, 2, 0), (1, 3, 0), (0, 4, 0),
        (3, 0, 1), (2, 1, 1), (1, 2, 1), (0, 3, 1),
        (2, 0, 2), (1, 1, 2), (0, 2, 2),
    )
    rows = sampled_rows(CT(1, 0, 0), ((2,), (0,)), space)  # [1, 2] on the section
    # d(alpha)/dx, d(alpha)/dy on the z^2 block; beta values on the z block
    assert rows[0] == (0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 2, 0)
    assert rows[1] == (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 4)
    assert rows[2] == (0, 0, 0, 0, 0, 1, 2, 4, 8, 0, 0, 0)


def test_integral_points_keep_the_fraction_rows_exactly():
    rng = random.Random(2024)
    for config, d, n in [(CT(2, 1, 1), 12, 1), (CT(1, 2, 2), 14, 0), (CT(0, 1, 2), 13, 3)]:
        space = SectionSpace(d, n)
        sample = sample_configuration(config, rng)
        frozen = stacked_rows(points_of(config, sample, n), space, fraction_singularity_rows)
        assert sampled_rows(config, sample, space) == frozen


@st.composite
def _point_batch(draw):
    """(space, on_section, slopes, fibers): 1-4 configurations of one size,
    the first ``on_section`` points of each on the section, with small, zero
    and large integer coordinates."""
    n = draw(st.integers(0, 3))
    d = draw(st.integers(max(2, 2 * n), 2 * n + 7))
    coordinate = st.one_of(st.integers(-9, 9), st.integers(-(10**4), 10**4))
    size = draw(st.integers(1, 4))
    on_section = draw(st.integers(0, size))
    batch = draw(st.integers(1, 4))
    slopes, fibers = (
        draw(st.lists(st.lists(coordinate, min_size=size, max_size=size),
                      min_size=batch, max_size=batch))
        for _ in range(2)
    )
    return SectionSpace(d, n), on_section, slopes, fibers


@settings(max_examples=200, deadline=None)
@given(_point_batch())
@example((SectionSpace(4, 0), 1, [[-1, 3], [0, 4]], [[0, 5], [0, -6]]))
def test_batched_rows_equal_the_frozen_per_point_rows(case):
    space, on_section, slopes, fibers = case
    points = linalg._sampled_points(
        np.array(slopes, dtype=np.int64), np.array(fibers, dtype=np.int64), on_section
    )
    rows = linalg._row_array(*points, space)
    size = len(slopes[0])
    assert rows.shape == (len(slopes), 3 * size, space.dimension)
    config = CT(on_section, size - on_section, 0)
    for matrix, sample in zip(rows.tolist(), zip(slopes, fibers)):
        assert all(type(entry) is int for row in matrix for entry in row)
        frozen = stacked_rows(points_of(config, sample, space.n), space, o_singularity_rows)
        assert list(map(tuple, matrix)) == frozen
        assert frozen == stacked_rows(
            points_of(config, sample, space.n), space, fraction_singularity_rows
        )


# --------------------------------------------------------------------------
# kernel dimension
# --------------------------------------------------------------------------

def test_kernel_of_zero_matrix_is_full_space():
    v = SectionSpace(5, 1).dimension
    assert v == 15
    assert kernel_dimension([(0,) * v]) == 15


def test_kernel_dimension_matches_numpy_rank():
    rng = random.Random(4321)
    for _ in range(50):
        rows = rng.randint(2, 7)
        cols = rng.randint(2, 9)
        inner = rng.randint(1, min(rows, cols))
        left = [[rng.randint(-5, 5) for _ in range(inner)] for _ in range(rows)]
        right = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(inner)]
        mat = [
            tuple(sum(left[i][k] * right[k][j] for k in range(inner)) for j in range(cols))
            for i in range(rows)
        ]
        expected = cols - np.linalg.matrix_rank(np.array(mat, dtype=float))
        assert kernel_dimension(mat) == expected


def test_kernel_dimension_with_fractions_and_residues():
    # the rows are integers: a Fraction, a float or a numpy integer is refused
    for entry in (Fraction(1, 2), Fraction(2), 0.5, np.int64(1)):
        with pytest.raises(ValueError, match="Python integers"):
            kernel_dimension([(entry, 1)])
    # rank drops mod p but not over the rationals, up to the largest prime taken
    for p in (7, 46337):
        mat = [(p, 0), (0, 1)]
        assert kernel_dimension(mat) == 0
        assert linalg._ranks_mod_p([mat], p)[0] == 1
    rng = random.Random(99)
    generic = [tuple(rng.randint(-9, 9) for _ in range(6)) for _ in range(4)]
    assert kernel_dimension(generic) == 6 - linalg._ranks_mod_p([generic], 101)[0]


def test_kernel_dimension_rejects_ragged_rows():
    with pytest.raises(ValueError):
        kernel_dimension([(1, 2), (1,)])


# --------------------------------------------------------------------------
# configurations
# --------------------------------------------------------------------------

def test_single_generic_point_cuts_three_conditions():
    rng = random.Random(20260816)
    for trial in range(50):
        d, n = rng.choice([(5, 0), (6, 1), (7, 2), (9, 1)])
        space = SectionSpace(d, n)
        config = CT(1, 0, 0) if trial % 2 == 0 else CT(0, 1, 0)
        rows = sampled_rows(config, sample_configuration(config, rng), space)
        assert kernel_dimension(rows) == space.dimension - 3


def test_pair_on_ruling_line_has_rank_five():
    rng = random.Random(7)
    space = SectionSpace(7, 0)
    for _ in range(10):
        sample = sample_configuration(CT(0, 0, 1), rng)
        points = points_of(CT(0, 0, 1), sample, 0)
        assert len(points) == 2
        assert points[0].coords[:2] == points[1].coords[:2]
        assert points[0] != points[1]
        rows = sampled_rows(CT(0, 0, 1), sample, space)
        assert kernel_dimension(rows) == space.dimension - 5
        assert np.linalg.matrix_rank(np.array(rows, dtype=float)) == 5


def test_type_111_cuts_eleven_conditions():
    rng = random.Random(11)
    space = SectionSpace(12, 1)
    for _ in range(10):
        sample = sample_configuration(CT(1, 1, 1), rng)
        points = points_of(CT(1, 1, 1), sample, 1)
        lines = [p.coords[:2] for p in points]
        assert len(points) == 4  # one on E, one off, one fiber pair
        assert len(set(lines)) == 3
        rows = sampled_rows(CT(1, 1, 1), sample, space)
        assert kernel_dimension(rows) == space.dimension - 11


def test_sample_configuration_structure():
    slopes, fibers = sample_configuration(CT(2, 3, 2), random.Random(5))
    assert len(slopes) == len(fibers) == 2 + 3 + 4
    assert all(type(value) is int for value in slopes + fibers)
    assert fibers[:2] == (0, 0)  # section points carry no fiber value
    assert len(set(slopes)) == 7  # distinct sites
    for first in (5, 7):  # the fiber pairs, adjacent and last
        assert slopes[first] == slopes[first + 1]
        assert fibers[first] != fibers[first + 1]


# (config, box, trials): the rank suite's types, then 4-8 sites, also with a
# box small enough that it grows to 3 * sites
SAMPLER_CASES = [(config, 50, 150) for config in RANK_TYPES] + [
    (config, box, 12)
    for sites in range(4, 9)
    for config in types_with_sites(sites)
    for box in (50, 5)
]


@pytest.mark.parametrize("seed", [11, 20260816])
def test_sampler_draws_the_frozen_coordinates(seed, monkeypatch):
    for config, box, trials in SAMPLER_CASES:
        monkeypatch.setattr(linalg, "_SAMPLE_BOX", box)
        for n in (0, 2):
            for trial in range(trials):
                new, old = random.Random(f"{seed}:{trial}"), random.Random(f"{seed}:{trial}")
                sample = sample_configuration(config, new)
                assert points_of(config, sample, n) == o_sample_configuration(
                    config, 0, n, old, box
                ), (config, n, trial)
                # the same draws, and every pair point is (1, s, z) with integers
                assert new.random() == old.random()
                assert all(type(value) is int for value in sample[0] + sample[1])


def test_sampled_blocks_are_read_only():
    slopes, fibers = linalg._sampled_block(CT(1, 1, 1), 11, range(3))
    assert slopes.shape == fibers.shape == (3, 4) and slopes.dtype == np.int64
    for array in (slopes, fibers):
        with pytest.raises(ValueError):
            array[0, 0] = 1
    for trial in range(3):
        sample = sample_configuration(CT(1, 1, 1), random.Random(f"11:{trial}"))
        assert (tuple(slopes[trial]), tuple(fibers[trial])) == sample


@st.composite
def _sampled_case(draw):
    """(config, space, p, samples): up to 8 sites, d from the bound to the bound + 3."""
    sites = draw(st.integers(1, 8))
    k1 = draw(st.integers(0, sites))
    k2 = draw(st.integers(0, sites - k1))
    config = CT(k1, k2, sites - k1 - k2)
    n = draw(st.integers(0, 3))
    low = max(math.ceil(linalg._degree_bound(config, n)), 2 * n)
    space = SectionSpace(draw(st.integers(low, low + 3)), n)
    p = draw(st.sampled_from((101, 46327, 46337)))
    seed = draw(st.integers(0, 10**6))
    samples = [sample_configuration(config, random.Random(f"{seed}:{trial}"))
               for trial in range(draw(st.integers(1, 3)))]
    return config, space, p, samples


@settings(max_examples=150, deadline=None)
@given(_sampled_case())
def test_residue_rows_equal_the_frozen_exact_rows_mod_p(case):
    config, space, p, samples = case
    slopes, fibers = (np.array(column, dtype=np.int64) for column in zip(*samples))
    points = linalg._sampled_points(slopes, fibers, config.k1)
    exact = linalg._row_array(*points, space)
    residues = linalg._row_array(*points, space, p)
    assert residues.dtype == np.int64
    assert exact.shape == residues.shape == (len(samples), 3 * len(slopes[0]), space.dimension)
    for matrix, residue, sample in zip(exact.tolist(), residues.tolist(), samples):
        frozen = stacked_rows(points_of(config, sample, space.n), space, o_singularity_rows)
        assert list(map(tuple, matrix)) == frozen
        assert residue == [[entry % p for entry in row] for row in frozen]


# --------------------------------------------------------------------------
# bundle-rank verification
# --------------------------------------------------------------------------

def test_verify_bundle_rank_examples():
    report = verify_bundle_rank(CT(2, 0, 0), 7, 1, trials=100, seed=20260816)
    assert report["v"] == 21
    assert report["expected_rank"] == 15
    assert report["failures"] == []
    assert report["trials"] == 100

    report = verify_bundle_rank(CT(0, 0, 2), 9, 0, trials=25, seed=20260816)
    assert report["v"] == 30 and report["expected_rank"] == 20
    assert report["failures"] == []

    report = verify_bundle_rank(CT(1, 0, 1), 8, 2, trials=25, seed=20260816)
    assert report["v"] == 21 and report["expected_rank"] == 13
    assert report["failures"] == []


def test_verify_bundle_rank_is_deterministic_and_serializable():
    a = verify_bundle_rank(CT(1, 1, 0), 6, 1, trials=10, seed=1)
    b = verify_bundle_rank(CT(1, 1, 0), 6, 1, trials=10, seed=1)
    assert a == b
    assert set(a) == {"type", "d", "n", "v", "expected_rank", "trials", "failures", "seed"}
    json.dumps(a)
    c = verify_bundle_rank(CT(1, 1, 0), 6, 1, trials=10, seed=2)
    assert c["seed"] == 2


def test_degree_bound_is_enforced_with_explanation():
    # bound for (2,0,0) at n=1 is max(2+1-1, 4+2-1) = 5
    with pytest.raises(ValueError, match="bound"):
        verify_bundle_rank(CT(2, 0, 0), 4, 1, trials=1, seed=0)
    # fractional part of the bound: (0,0,2) at n=1 needs d > 10/3
    with pytest.raises(ValueError, match="bound"):
        verify_bundle_rank(CT(0, 0, 2), 3, 1, trials=1, seed=0)
    report = verify_bundle_rank(CT(0, 0, 2), 4, 1, trials=5, seed=0)
    assert report["failures"] == []


def test_a_degree_equal_to_the_bound_is_refused():
    # the lemma fails on the bound itself: (0,0,3) at n = 2 drops rank on
    # every trial and (0,1,1) at n = 0 on some, so the bound is strict
    for config, d, n in ((CT(0, 0, 3), 6, 2), (CT(0, 1, 1), 2, 0)):
        assert linalg._degree_bound(config, n) == d
        with pytest.raises(ValueError, match=f"degree {d} must exceed the bound"):
            verify_bundle_rank(config, d, n, trials=1, seed=0)
        report = verify_bundle_rank(config, d, n, trials=100, seed=7, enforce_bound=False)
        assert report["failures"], (config, d, n)


def test_a_degree_below_the_jet_degree_is_refused_above_the_bound():
    # (0,1,2) at n = 0 has bound 10/3 and D = max(1, 4, 5, 0) = 5.  At d = 4
    # the point (0, -5) and the pairs (1; -5, -4) and (-1; -5, -4) drop rank,
    # kernel 3 instead of 2, and 2000 random trials at the default seed miss it
    config, space = CT(0, 1, 2), SectionSpace(4, 0)
    assert linalg._degree_bound(config, 0) < 4 < linalg._jet_degree(config, 0) == 5
    rows = sampled_rows(config, ((0, 1, 1, -1, -1), (-5, -5, -4, -5, -4)), space)
    assert kernel_dimension(rows) == 3 == space.dimension - config.codimension + 1
    with pytest.raises(ValueError, match=r"degree 4 is below the jet degree D = .* = 5 "):
        verify_bundle_rank(config, 4, 0, trials=1, seed=0)
    assert verify_bundle_rank(config, 5, 0, trials=5, seed=0)["failures"] == []


def test_the_degree_bound_is_at_least_2n():
    # its independence part is 2k1 + 2k2 + h + 2n - 1 and every type has a
    # site, so the smallest valid degree needs no separate floor at 2n
    for sites in range(1, 9):
        for k1 in range(sites + 1):
            for k2 in range(sites - k1 + 1):
                config = CT(k1, k2, sites - k1 - k2)
                for n in range(12):
                    assert linalg._degree_bound(config, n) >= 2 * n, (config, n)
                    bound = math.ceil(linalg._degree_bound(config, n))
                    assert _minimal_valid_degree(config, n) == max(bound, 2 * n) + 1


@pytest.mark.parametrize("n", [0, 2])
def test_every_rank_type_passes_at_its_smallest_admissible_degree(n):
    for config in RANK_TYPES:
        d = max(math.floor(linalg._degree_bound(config, n)) + 1, linalg._jet_degree(config, n))
        with pytest.raises(ValueError):  # on or below the bound, or below D
            verify_bundle_rank(config, d - 1, n, trials=1, seed=0)
        report = verify_bundle_rank(config, d, n, trials=40, seed=7)
        assert report["failures"] == [], (config, d, n)


@pytest.mark.parametrize("trials", [0, -5])
def test_a_rank_check_needs_at_least_one_trial(trials):
    with pytest.raises(ValueError, match="trials must be at least 1"):
        verify_bundle_rank(CT(2, 0, 0), 7, 1, trials=trials, seed=0)
    with pytest.raises(ValueError, match="trials must be at least 1"):
        rank_drop_witness(trials=trials)


@pytest.mark.parametrize("trials", [True, 2.5])
def test_a_rank_check_needs_an_integer_count_of_trials(trials):
    with pytest.raises(ValueError, match="trials must be at least 1 and an integer"):
        verify_bundle_rank(CT(2, 0, 0), 7, 1, trials=trials, seed=0)


def test_below_bound_witness_shows_rank_drop():
    report = rank_drop_witness(trials=12, seed=20260816)
    assert report["type"] == [2, 0, 0]
    assert (report["d"], report["n"]) == (3, 1)
    assert report["v"] == 9 and report["expected_rank"] == 3
    # the two derivative rows of the top coefficient coincide for every
    # sample, so the kernel is 5-dimensional on each trial
    assert len(report["failures"]) == 12
    assert {f["kernel_dimension"] for f in report["failures"]} == {5}


def test_prime_field_agrees_with_rationals_on_same_seed():
    ratio = verify_bundle_rank(CT(1, 1, 1), 9, 1, trials=20, seed=3)
    assert ratio["failures"] == []
    space = SectionSpace(9, 1)
    sample = sample_configuration(CT(0, 2, 1), random.Random(17))
    assert sample == sample_configuration(CT(0, 2, 1), random.Random(17))
    rows = sampled_rows(CT(0, 2, 1), sample, space)
    rank = linalg._ranks_mod_p([rows], 101)[0]
    assert kernel_dimension(rows) == space.dimension - rank


def test_ranks_mod_p_refuses_what_int64_cannot_hold():
    # from p^2 >= 2^31 up the product of two residues overflows int32 silently
    for p in (46349, 2**31 - 1, 2**61 - 1):
        with pytest.raises(ValueError, match=r"p\^2 < 2\^31, got"):
            linalg._ranks_mod_p([[[1, 0], [0, 1]]], p)
    # -1 next to 2^63: numpy would read the batch as float64
    with pytest.raises(OverflowError):
        linalg._ranks_mod_p([[[1, -1], [-1, 1]], [[0, 2**63], [0, 0]]], 46337)


def test_row_array_refuses_what_int64_cannot_hold():
    # the prime is checked before any residue is built, in the range of the
    # elimination: at 2^61 - 1 the product of two residues would wrap int64
    slopes, fibers = np.array([[3, 3]]), np.array([[1, 2]])
    points = linalg._sampled_points(slopes, fibers, 0)
    for p in (46349, 2**31 - 1, 2**61 - 1):
        with pytest.raises(ValueError, match=r"p\^2 < 2\^31, got"):
            linalg._row_array(*points, SectionSpace(9, 1), p)
    assert linalg._row_array(*points, SectionSpace(9, 1), 46337).dtype == np.int64


def test_kernel_dimension_constant_for_small_types():
    # all nine types with at most two sites plus every type with three sites,
    # each at three (d, n) pairs above the degree bound
    small = [
        CT(1, 0, 0), CT(0, 1, 0), CT(0, 0, 1),
        CT(2, 0, 0), CT(1, 1, 0), CT(0, 2, 0),
        CT(1, 0, 1), CT(0, 1, 1), CT(0, 0, 2),
    ]
    three_sites = [
        CT(k1, k2, 3 - k1 - k2)
        for k1 in range(4)
        for k2 in range(4 - k1)
    ]
    for config in small + three_sites:
        k1, k2, h = config.k1, config.k2, config.h
        for n in (0, 1, 2):
            bound = max(
                Fraction(3 * (k1 + k2) + 5 * h, 3) + n - 1,
                Fraction(2 * k1 + 2 * k2 + h + 2 * n - 1),
            )
            d = max(-(-bound.numerator // bound.denominator), 2 * n) + 1
            report = verify_bundle_rank(config, d, n, trials=4, seed=8)
            assert report["failures"] == [], (config, d, n)


# --------------------------------------------------------------------------
# certified ranks: batched F_p elimination, fiber-pair relation, fallback
# --------------------------------------------------------------------------

def o_rank_mod_p(matrix, p):
    """Frozen single-matrix elimination over F_p with a normalised pivot row."""
    m = [[entry % p for entry in row] for row in matrix]
    n_rows, n_cols = len(m), len(m[0])
    rank = 0
    r = 0
    for col in range(n_cols):
        pivot = next((i for i in range(r, n_rows) if m[i][col]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = pow(m[r][col], -1, p)
        m[r] = [(entry * inv) % p for entry in m[r]]
        for i in range(r + 1, n_rows):
            factor = m[i][col]
            if factor:
                m[i] = [(a - factor * b) % p for a, b in zip(m[i], m[r])]
        rank += 1
        r += 1
        if r == n_rows:
            break
    return rank


def bareiss_report(config, d, n, trials, seed, sampler=sample_configuration):
    """verify_bundle_rank's report with every kernel from Bareiss elimination
    on the frozen per-point rows of ``sampler``'s draws."""
    space = SectionSpace(d, n)
    expected = space.dimension - config.codimension
    failures = []
    for trial in range(trials):
        sample = sampler(config, random.Random(f"{seed}:{trial}"))
        points = points_of(config, sample, n)
        kernel = kernel_dimension(stacked_rows(points, space, o_singularity_rows))
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


def pair_certificate(sample, space, config):
    """``_pairs_certified`` on a block of one sampled configuration."""
    slopes, fibers = (np.array([column], dtype=np.int64) for column in sample)
    (certified,) = linalg._pairs_certified(slopes, fibers, config, space)
    return certified


@pytest.fixture
def kernel_calls(monkeypatch):
    """The rows of each kernel_dimension call that linalg makes."""
    calls = []

    def counting_kernel(rows):
        calls.append(rows)
        return kernel_dimension(rows)

    monkeypatch.setattr(linalg, "kernel_dimension", counting_kernel)
    return calls


@pytest.fixture
def exact_rows(monkeypatch):
    """(trials, rows) of each exact-integer row array that linalg builds."""
    shapes = []
    real = linalg._row_array

    def spy(y, zp, dz, space, p=None):
        if p is None:
            shapes.append(np.shape(y)[:1] + (3 * np.shape(y)[1],))
        return real(y, zp, dz, space, p)

    monkeypatch.setattr(linalg, "_row_array", spy)
    return shapes


# 46337 is the largest prime whose square is below 2^31, the bound of the
# int32 elimination
_PRIMES = (3, 5, 7, 101, 46327, 46337)


@st.composite
def _matrix_batch(draw):
    """(matrices, p): 1-8 matrices of one shape, some products of thin
    factors (rank-deficient), some with entries far beyond the prime.  The
    shape is square, wide or tall, with sides up to 18 and 27, the largest
    blocks of ``verify ranks``.  No command ranks a tall block, and one is
    eliminated along its long side, as given."""
    p = draw(st.sampled_from(_PRIMES))
    short = draw(st.integers(1, 18))
    orientation = draw(st.sampled_from(("square", "wide", "tall")))
    long = short if orientation == "square" else draw(st.integers(short, 27))
    n_rows, n_cols = (long, short) if orientation == "tall" else (short, long)
    small = st.integers(-4, 4)
    batch = []
    for kind in draw(st.lists(st.sampled_from("tgwz"), min_size=1, max_size=8)):
        if kind == "t":
            inner = draw(st.integers(1, min(n_rows, n_cols)))
            left = draw(st.lists(st.lists(small, min_size=inner, max_size=inner),
                                 min_size=n_rows, max_size=n_rows))
            right = draw(st.lists(st.lists(small, min_size=n_cols, max_size=n_cols),
                                  min_size=inner, max_size=inner))
            matrix = [[sum(a * b for a, b in zip(row, column)) for column in zip(*right)]
                      for row in left]
        else:
            entries = {"g": small, "w": st.integers(-(2**70), 2**70), "z": st.just(0)}
            matrix = draw(st.lists(
                st.lists(entries[kind], min_size=n_cols, max_size=n_cols),
                min_size=n_rows, max_size=n_rows))
        batch.append(matrix)
    return batch, p


def _hadamard_bound(matrix):
    """An integer at least the absolute value of every minor."""
    bound = 1
    for row in matrix:
        bound *= max(1, math.isqrt(sum(a * a for a in row)) + 1)
    return bound


@settings(max_examples=300, deadline=None)
@given(_matrix_batch())
# -1 next to 2^63: unreduced, numpy would read the batch as float64
@example(([[[1, -1], [-1, 1]], [[0, 2**63], [0, 0]]], 46337))
def test_batched_ranks_agree_with_the_frozen_kernel_and_bareiss(case):
    batch, p = case
    # the batch is reduced mod p here; the oracles see the unreduced matrices
    ranks = linalg._ranks_mod_p([[[a % p for a in row] for row in m] for m in batch], p)
    assert ranks.shape == (len(batch),)
    for matrix, rank in zip(batch, ranks):
        exact = len(matrix[0]) - kernel_dimension(matrix)
        assert rank == o_rank_mod_p(matrix, p)
        assert rank <= exact
        if p > _hadamard_bound(matrix):
            assert rank == exact
    if all(abs(entry) < 2**63 for matrix in batch for row in matrix for entry in row):
        # an unreduced int64 batch, negative entries included, ranks the same
        assert (linalg._ranks_mod_p(np.array(batch, dtype=np.int64), p) == ranks).all()


def test_suite_blocks_rank_as_the_frozen_elimination(monkeypatch):
    real = linalg._ranks_mod_p
    blocks = []

    def spy(matrices, p):
        ranks = real(matrices, p)
        blocks.append((np.array(matrices), p, ranks))
        return ranks

    monkeypatch.setattr(linalg, "_ranks_mod_p", spy)
    assert all(check.status == "pass" for check in cli.suite_ranks(seed=11))
    shapes = [matrices.shape for matrices, _, _ in blocks]
    assert len(blocks) == 39
    # every block is wide or square, at the certifying prime
    assert all(p == linalg._CERTIFYING_PRIME for _, p, _ in blocks)
    assert all(rows <= columns for _, rows, columns in shapes)
    # (0,0,3) at d = 5, n = 0 is ranked without its three implied rows
    assert (100, 15, 18) in shapes and (100, 9, 27) in shapes
    for matrices, p, ranks in blocks:
        assert ranks.tolist() == [o_rank_mod_p(m, p) for m in matrices.tolist()]


@pytest.mark.parametrize("p", [46337, 46349])
def test_ranks_beside_the_int32_bound_equal_the_frozen_elimination(p):
    # Products of factors with entries -1 and -2 mod p keep residues near
    # p - 1 through the elimination, where lead*row passes 2^31 once p^2
    # does: 46337 is eliminated in int32, and 46349 is refused.
    if p * p >= 2**31:
        with pytest.raises(ValueError, match=r"p\^2 < 2\^31, got 46349"):
            linalg._ranks_mod_p([[[p - 1, p - 2], [1, p - 1]]], p)
        return
    rng = random.Random(p)

    def entry():
        return rng.choice((p - 1, p - 2, 1, rng.randrange(p)))

    batch = []
    for _ in range(300):
        inner = rng.randint(1, 14)
        left = [[entry() for _ in range(inner)] for _ in range(15)]
        right = [[entry() for _ in range(18)] for _ in range(inner)]
        batch.append([[sum(a * b for a, b in zip(row, column)) % p for column in zip(*right)]
                      for row in left])
    ranks = linalg._ranks_mod_p(batch, p)
    assert ranks.tolist() == [o_rank_mod_p(matrix, p) for matrix in batch]


def test_batched_ranks_of_an_empty_batch():
    assert linalg._ranks_mod_p([], 101).shape == (0,)


@pytest.mark.parametrize("n", [0, 2])
def test_certified_kernels_equal_bareiss_on_every_rank_type(n):
    for config in RANK_TYPES:
        d = _minimal_valid_degree(config, n)
        space = SectionSpace(d, n)
        for trial in range(10):
            sample = sample_configuration(config, random.Random(f"5:{trial}"))
            rows = sampled_rows(config, sample, space)
            rank = linalg._ranks_mod_p([rows], linalg._CERTIFYING_PRIME)[0]
            assert rank == config.codimension, (config, trial)
            assert pair_certificate(sample, space, config), (config, trial)
            assert kernel_dimension(rows) == space.dimension - config.codimension
        assert verify_bundle_rank(config, d, n, trials=10, seed=5) == bareiss_report(
            config, d, n, trials=10, seed=5
        )


def with_pairs_at_slope_zero(config, rng):
    """sample_configuration's draw with slope 0 and the fiber pair's slope
    swapped, for a type with one pair."""
    slopes, fibers = sample_configuration(config, rng)
    s = slopes[-1]
    return tuple(0 if t == s else s if t == 0 else t for t in slopes), fibers


@pytest.mark.parametrize("n", [0, 2])
def test_the_row_left_out_is_implied_at_slope_zero(monkeypatch, kernel_calls, n):
    # At slope 0 the pair relation has no f_y term, so only the f_x row of
    # the second point is implied; leaving out f_y would lose a rank and
    # send every trial to Bareiss.
    monkeypatch.setattr(linalg, "sample_configuration", with_pairs_at_slope_zero)
    monkeypatch.setattr(
        linalg, "_sampled_block", lru_cache(maxsize=1)(linalg._sampled_block.__wrapped__)
    )
    for config in (c for c in RANK_TYPES if c.h == 1):
        d = _minimal_valid_degree(config, n)
        report = verify_bundle_rank(config, d, n, trials=10, seed=5)
        assert kernel_calls == [], config
        assert report == bareiss_report(
            config, d, n, trials=10, seed=5, sampler=with_pairs_at_slope_zero
        )


def test_pair_certificate_rejects_points_on_different_ruling_lines():
    space = SectionSpace(9, 1)
    config = CT(0, 0, 1)
    same = ((4, 4), (-3, 7))  # (slopes, fibers)
    apart = ((4, 5), (-3, 7))
    assert pair_certificate(same, space, config)
    assert not pair_certificate(apart, space, config)
    # the two points on different lines impose six conditions, not five
    assert kernel_dimension(sampled_rows(config, apart, space)) == space.dimension - 6


def test_under_reported_ranks_fall_back_to_bareiss(monkeypatch, kernel_calls):
    real = linalg._ranks_mod_p

    def under_report(matrices, p):
        return real(matrices, p) - 1

    monkeypatch.setattr(linalg, "_ranks_mod_p", under_report)
    for config, d, n in ((CT(0, 0, 2), 9, 0), (CT(1, 1, 1), 9, 1), (CT(2, 0, 0), 7, 1)):
        kernel_calls.clear()
        report = verify_bundle_rank(config, d, n, trials=8, seed=20260816)
        assert report == bareiss_report(config, d, n, trials=8, seed=20260816)
        assert report["failures"] == []
        assert len(kernel_calls) == 8


def test_failed_pair_certificates_fall_back_to_bareiss(monkeypatch, kernel_calls):
    monkeypatch.setattr(
        linalg, "_pairs_certified",
        lambda slopes, *rest: np.zeros(len(slopes), dtype=bool),
    )
    report = verify_bundle_rank(CT(0, 1, 1), 7, 0, trials=6, seed=2)
    assert len(kernel_calls) == 6
    assert report == bareiss_report(CT(0, 1, 1), 7, 0, trials=6, seed=2)


def test_witness_trials_all_go_to_bareiss(kernel_calls):
    report = rank_drop_witness(trials=12)
    assert len(kernel_calls) == 12
    assert report == bareiss_report(CT(2, 0, 0), 3, 1, trials=12, seed=20260816)


def test_exact_rows_only_for_pair_points_and_fallbacks(exact_rows, kernel_calls):
    # two blocks of type (0,1,2): exact rows for the four pair points only
    report = verify_bundle_rank(CT(0, 1, 2), 12, 0, trials=150, seed=11)
    assert report["failures"] == [] and kernel_calls == []
    assert exact_rows == [(128, 12), (22, 12)]
    # below the bound every trial falls back, each with its own exact rows
    exact_rows.clear()
    rank_drop_witness(12)
    assert exact_rows == [(1, 6)] * 12
    assert len(kernel_calls) == 12


def test_block_size_leaves_reports_unchanged(monkeypatch):
    default = linalg._RANK_BLOCK_TRIALS
    assert default >= 100  # verify ranks: one block per type
    cases = (
        # on its bound: some trials drop rank, so failures span blocks
        dict(config=CT(0, 1, 1), d=2, n=0, trials=200, seed=3, enforce_bound=False),
        # more trials than one default block, certified by fiber pairs
        dict(config=CT(0, 1, 2), d=12, n=0, trials=default + 22, seed=11),
        # below the bound: every trial falls back to Bareiss
        dict(config=CT(2, 0, 0), d=3, n=1, trials=12, seed=5, enforce_bound=False),
    )
    reports = {}
    for block in (default, 1, 7):
        monkeypatch.setattr(linalg, "_RANK_BLOCK_TRIALS", block)
        reports[block] = [verify_bundle_rank(**case) for case in cases]
    assert reports[1] == reports[7] == reports[default]
    on_bound, paired, witness = reports[1]
    assert 0 < len(on_bound["failures"]) < 200
    assert paired["failures"] == []
    assert len(witness["failures"]) == 12
