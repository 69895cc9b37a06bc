"""Column bookkeeping for the discriminant stratification.

Singular sections degenerate along configurations of points and double
lines; each configuration type contributes a block of Borel-Moore classes
to a column indexed by its number of distinct sites.  This module computes
those blocks, merges them into columns and scans the numerical admissibility
system for differentials between blocks.  Columns start at three sites; the
package holds no table of the one- and two-site columns.  The layer
multiplicities of a block are the type pairings of `stable.type_pairings`,
the same numbers the stable series is assembled from.
"""

import csv
import io
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

from .series import GradedTateSeries, TatePolynomial
from .stable import type_pairings

# Each PGL2-orbit factor carries a pair of classes: (weight drop, degree shift).
_ORBIT_CLASSES = ((1, 3), (3, 6))


@dataclass(frozen=True)
class ConfigurationType:
    """A degeneration pattern: k1 + k2 marked points and h double lines.

    ``k1`` counts points on the distinguished section, ``k2`` points away
    from it, and ``h`` double lines; at least one site is required.
    """

    k1: int
    k2: int
    h: int

    def __post_init__(self):
        for name in ("k1", "k2", "h"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 0:
                raise ValueError(f"{name} must be a nonnegative integer, got {value!r}")
        if self.k1 + self.k2 + 2 * self.h < 1:
            raise ValueError("a configuration type needs at least one site")

    @property
    def codimension(self) -> int:
        return 3 * self.k1 + 3 * self.k2 + 5 * self.h

    @property
    def point_count(self) -> int:
        return self.k1 + self.k2 + 2 * self.h

    @property
    def site_count(self) -> int:
        return self.k1 + self.k2 + self.h

    def __repr__(self):
        return f"ConfigurationType({self.k1}, {self.k2}, {self.h})"


def type_sort_key(config: ConfigurationType) -> tuple:
    """Sort key: codimension, then point count, then inverse lexicographic."""
    return (
        config.codimension,
        config.point_count,
        (-config.k1, -config.k2, -config.h),
    )


def types_with_sites(sites: int) -> Iterator[ConfigurationType]:
    """All configuration types with the given number of distinct sites."""
    for k1 in range(sites + 1):
        for k2 in range(sites + 1 - k1):
            h = sites - k1 - k2
            if k1 + k2 + 2 * h >= 1:
                yield ConfigurationType(k1, k2, h)


@lru_cache(maxsize=None)
def _sorted_types_with_sites(sites: int) -> tuple:
    return tuple(sorted(types_with_sites(sites), key=type_sort_key))


# --------------------------------------------------------------------------
# twisted Borel-Moore homology of a configuration block
# --------------------------------------------------------------------------

def twisted_config_homology(config: ConfigurationType) -> GradedTateSeries:
    """Twisted Borel-Moore homology of the configuration block for ``config``.

    Returns a graded series whose degree-``t`` term records Tate weights:
    the coefficient of ``L^(-w)`` in term ``t`` is the multiplicity of the
    weight ``-2w`` piece in homological degree ``t``.  Layer ``i`` of the
    site-labelling action sits at twist ``j = L - 3 - i``, with the
    multiplicity ``type_pairings`` gives it.  Requires at least three sites.
    """
    L = config.site_count
    base_degree = 2 * config.k2 + 2 * config.h
    base_weight = config.k2 + config.h
    terms: dict = {}
    for i, mult in type_pairings(config.k1, config.k2, config.h).items():
        j = L - 3 - i
        for weight_drop, degree_shift in _ORBIT_CLASSES:
            t = base_degree + (L - 3) + j + degree_shift
            w = -(base_weight + j + weight_drop)
            poly = terms.get(t, TatePolynomial())
            terms[t] = poly + TatePolynomial({w: mult})
    return GradedTateSeries(base_degree + 2 * L, terms)


# --------------------------------------------------------------------------
# strata classes in the main-table convention
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class StratumClass:
    """One Tate class contributed by a stratum: degree, twist, multiplicity."""

    bm_degree: int
    weight_twist: int
    multiplicity: int

    def __post_init__(self):
        if self.multiplicity < 1:
            raise ValueError("multiplicity must be positive")


def stratum_homology(config: ConfigurationType, v: int) -> tuple:
    """Borel-Moore classes of one stratum, in the main-table row convention.

    ``v`` is the dimension of the ambient space of sections; the table row
    of a class is ``bm_degree - 2 * v`` and its printed twist exponent is
    ``weight_twist``.  Rows are normalised so that merged columns of equal
    site count align with the reference tables.
    """
    L = config.site_count
    series = twisted_config_homology(config)
    degree_shift = 2 * v - 8 * config.h - 5 * config.k1 - 5 * config.k2 - L
    classes = []
    for t, poly in series.terms.items():
        for w, mult in poly.coeffs.items():
            classes.append(
                StratumClass(
                    bm_degree=t + degree_shift,
                    weight_twist=config.codimension + w,
                    multiplicity=mult,
                )
            )
    classes.sort(key=lambda cls: (-cls.bm_degree, cls.weight_twist))
    return tuple(classes)


@dataclass(frozen=True)
class E1Column:
    """Merged classes of all strata with a common site count ``L``."""

    L: int
    classes: tuple


def _column_cells(L: int, v: int) -> dict:
    """(bm_degree, twist) -> [multiplicity, contributing types] for one column."""
    cells: dict = {}
    for config in _sorted_types_with_sites(L):
        for cls in stratum_homology(config, v):
            key = (cls.bm_degree, cls.weight_twist)
            entry = cells.setdefault(key, [0, []])
            entry[0] += cls.multiplicity
            entry[1].append(config)
    return cells


def e1_column(L: int, v: int) -> E1Column:
    """The merged column of all site-count-``L`` strata classes.

    Multiplicities of coinciding (degree, twist) pairs are summed across
    configuration types.  Requires ``L >= 3``.
    """
    if L < 3:
        raise ValueError("merged columns are computed for at least three sites")
    cells = _column_cells(L, v)
    classes = tuple(
        StratumClass(bm_degree=bm, weight_twist=tw, multiplicity=entry[0])
        for (bm, tw), entry in sorted(
            cells.items(), key=lambda item: (-item[0][0], item[0][1])
        )
    )
    return E1Column(L=L, classes=classes)


def column_rows(L: int, v: int) -> dict:
    """{row: {twist: multiplicity}} of ``e1_column(L, v)``, row = bm_degree - 2v."""
    rows: dict = {}
    for cls in e1_column(L, v).classes:
        rows.setdefault(cls.bm_degree - 2 * v, {})[cls.weight_twist] = cls.multiplicity
    return rows


# --------------------------------------------------------------------------
# five-point example tables
# --------------------------------------------------------------------------

_FIVE_POINT_COLUMNS = (
    ConfigurationType(1, 0, 2),
    ConfigurationType(0, 1, 2),
    ConfigurationType(2, 1, 1),
    ConfigurationType(1, 2, 1),
)


def five_point_configuration_table() -> dict:
    """Twisted block homology of all five-point types, in table layout.

    Maps a printed row (homological degree minus the column position) to
    the list of ``(type, weight)`` entries appearing there.  Only four of
    the twelve five-point types contribute.
    """
    table: dict = {}
    positions = {config: pos for pos, config in enumerate(_FIVE_POINT_COLUMNS, start=1)}
    live = []
    for k1 in range(6):
        for k2 in range(6 - k1):
            if (5 - k1 - k2) % 2:
                continue
            h = (5 - k1 - k2) // 2
            config = ConfigurationType(k1, k2, h)
            series = twisted_config_homology(config)
            if series.terms:
                live.append((config, series))
    for config, series in live:
        pos = positions[config]
        for t, poly in sorted(series.terms.items()):
            for w, mult in poly.coeffs.items():
                if mult != 1:
                    raise ArithmeticError(
                        f"five-point type {config}: class L^{w} in degree {t} "
                        f"has multiplicity {mult}, the table layout needs 1"
                    )
                table.setdefault(t - pos, []).append((config, -w))
    for row in table:
        table[row].sort(key=lambda entry: positions[entry[0]])
    return table


def five_point_stratum_table() -> dict:
    """Strata classes of the five-point types relative to the ambient dimension.

    Maps a printed row offset (``bm_degree - 2v`` minus the column position
    plus the main-table normalisation) to ``(type, -twist)`` entries; the
    printed twist of an entry is ``v`` plus the recorded negative offset.
    """
    table: dict = {}
    positions = {config: pos for pos, config in enumerate(_FIVE_POINT_COLUMNS, start=1)}
    v = 0
    for config in _FIVE_POINT_COLUMNS:
        pos = positions[config]
        L = config.site_count
        for cls in stratum_homology(config, v):
            row = cls.bm_degree - 2 * v + (L + 1) - (pos + 2)
            table.setdefault(row, []).append((config, -cls.weight_twist))
    for row in table:
        table[row].sort(key=lambda entry: positions[entry[0]])
    return dict(sorted(table.items(), reverse=True))


# --------------------------------------------------------------------------
# differential admissibility scan
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class DifferentialSolution:
    """One admissible (source twist, target twist) pair for a family move."""

    family: str
    source: ConfigurationType
    target: ConfigurationType
    r: int
    j_source: int
    j_target: int


@dataclass(frozen=True)
class DifferentialCandidate:
    """An admissible differential between two configuration types."""

    source: ConfigurationType
    target: ConfigurationType
    kind: str


# family name -> (target move, max step given the source components)
_FAMILIES = {
    "a": (lambda k1, k2, h, r: (k1, k2, h - r), lambda k1, k2, h: h),
    "b": (lambda k1, k2, h, r: (k1 - r, k2, h), lambda k1, k2, h: k1),
    "c": (lambda k1, k2, h, r: (k1, k2 - r, h), lambda k1, k2, h: k2),
    "d": (lambda k1, k2, h, r: (k1 + r, k2, h - r), lambda k1, k2, h: h),
    "e": (lambda k1, k2, h, r: (k1, k2 + r, h - r), lambda k1, k2, h: h),
    "f": (lambda k1, k2, h, r: (k1 + r, k2 - r, h), lambda k1, k2, h: k2),
    "g": (lambda k1, k2, h, r: (k1, k2 - 2 * r, h + r), lambda k1, k2, h: k2 // 2),
}


def _degree_weight_balance(config: ConfigurationType) -> tuple:
    """The two affine invariants entering the admissibility system."""
    return (
        4 * config.h + 3 * config.k1 + 2 * config.k2,
        5 * config.h + 4 * config.k1 + 2 * config.k2,
    )


def scan_differential_system(bound: int) -> dict:
    """Solve the two-equation admissibility system for every family move.

    Enumerates source types with between 3 and ``bound`` sites, applies
    each family move for every feasible step ``r``, and keeps the twist
    pairs where both the degree and the weight balance hold.  Returns a
    dict mapping family name to a sorted list of solutions.
    """
    if bound < 3:
        raise ValueError("scan needs a site bound of at least 3")
    results = {name: [] for name in _FAMILIES}
    for L in range(3, bound + 1):
        for source in _sorted_types_with_sites(L):
            d_src, w_src = _degree_weight_balance(source)
            for name, (move, max_step) in _FAMILIES.items():
                for r in range(1, max_step(source.k1, source.k2, source.h) + 1):
                    t1, t2, t3 = move(source.k1, source.k2, source.h, r)
                    if t1 + t2 + t3 < 3:
                        continue
                    target = ConfigurationType(t1, t2, t3)
                    d_tgt, w_tgt = _degree_weight_balance(target)
                    # degree balance forces j' - j = d_tgt - d_src; the
                    # weight balance forces j' - j = w_tgt - w_src - 1
                    if d_tgt - d_src != w_tgt - w_src - 1:
                        continue
                    shift = d_tgt - d_src
                    Lp = target.site_count
                    for j in range(L - 2):
                        jp = j + shift
                        if 0 <= jp <= Lp - 3:
                            results[name].append(
                                DifferentialSolution(
                                    family=name,
                                    source=source,
                                    target=target,
                                    r=r,
                                    j_source=j,
                                    j_target=jp,
                                )
                            )
    for name in results:
        results[name].sort(
            key=lambda s: (type_sort_key(s.source), type_sort_key(s.target), s.j_source)
        )
    return results


def differential_candidates(scan: dict) -> tuple:
    """Admissible differentials of a `scan_differential_system` result.

    Kind "I" candidates raise the twist by one and stay within a column;
    kind "II" candidates preserve the twist and drop the site count by one.
    """
    seen = set()
    out = []
    for name, kind in (("f", "I"), ("g", "II")):
        for sol in scan[name]:
            key = (sol.source, sol.target, kind)
            if key not in seen:
                seen.add(key)
                out.append(DifferentialCandidate(sol.source, sol.target, kind))
    out.sort(key=lambda c: (type_sort_key(c.source), type_sort_key(c.target)))
    return tuple(out)


# --------------------------------------------------------------------------
# renderers
# --------------------------------------------------------------------------

def _format_type(config: ConfigurationType) -> str:
    return f"({config.k1},{config.k2},{config.h})"


def _format_cell(twists: dict) -> str:
    parts = []
    for tw in sorted(twists):
        mult = twists[tw]
        parts.append(f"Q(-{tw})" + (f"^{mult}" if mult > 1 else ""))
    return " + ".join(parts)


def render_columns_csv(v: int, L_values: Iterable[int] = (3, 4, 5, 6)) -> str:
    """Render merged columns as CSV with one line per (row, twist) cell."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["L", "row", "twist", "multiplicity", "contributing_types"])
    for L in L_values:
        cells = _column_cells(L, v)
        for (bm, tw), (mult, configs) in sorted(
            cells.items(), key=lambda item: (-item[0][0], item[0][1])
        ):
            writer.writerow(
                [
                    L,
                    bm - 2 * v,
                    tw,
                    mult,
                    ";".join(_format_type(c) for c in configs),
                ]
            )
    return buffer.getvalue()


def render_columns_markdown(v: int, L_values: Iterable[int] = (3, 4, 5, 6)) -> str:
    """Render merged columns as a Markdown grid, one column per site count."""
    L_values = tuple(L_values)
    columns = {L: column_rows(L, v) for L in L_values}
    all_rows = sorted({row for rows in columns.values() for row in rows}, reverse=True)
    lines = ["| row | " + " | ".join(f"L={L}" for L in L_values) + " |"]
    lines.append("| --- | " + " | ".join("---" for _ in L_values) + " |")
    for row in all_rows:
        cells = [
            _format_cell(columns[L][row]) if row in columns[L] else ""
            for L in L_values
        ]
        lines.append(f"| {row} | " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"
