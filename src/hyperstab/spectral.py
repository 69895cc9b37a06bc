"""Column bookkeeping for the discriminant stratification.

Singular sections degenerate along configurations of points and double
lines; each configuration type contributes a block of classes to a column
indexed by its number of distinct sites.  One cell formula, `type_cells`,
reads the block of a type straight off its layer multiplicities, the type
pairings of `stable.type_pairings` that the stable series is assembled
from.  Every column and both five-point tables are built on those cells;
``cli`` writes them out as tables.  A cell's row and twist are relative to
the dimension of the space of sections, so no function here depends on
that dimension.  This module also scans the numerical admissibility system
for differentials between blocks, along seven family moves, each one step
(dk1, dk2, dh) on a type's components.  Columns start at three sites; the
package holds no table of the one- and two-site columns.
"""

from dataclasses import dataclass
from itertools import count
from typing import Iterator

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
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
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


def _sorted_types_with_sites(sites: int) -> tuple:
    return tuple(sorted(types_with_sites(sites), key=type_sort_key))


# --------------------------------------------------------------------------
# column cells
# --------------------------------------------------------------------------

def type_cells(config: ConfigurationType) -> tuple:
    """The classes one configuration type adds to its column: ((row, twist, mult), ...).

    A class of Borel-Moore degree ``2v + row`` and Tate twist ``Q(-twist)``
    is recorded as ``(row, twist)``, v being the dimension of the space of
    sections.  Layer ``i`` of the site-labelling action sits at
    ``j = L - 3 - i`` with the multiplicity ``type_pairings`` gives it.  Each
    orbit class (drop, shift) of that layer lands in row
    ``j + shift - 3 - 5k1 - 3k2 - 6h`` with twist ``3k1 + 2k2 + 4h - j - drop``.
    Requires at least three sites.
    """
    k1, k2, h = config.k1, config.k2, config.h
    base_row = -3 - 5 * k1 - 3 * k2 - 6 * h
    base_twist = 3 * k1 + 2 * k2 + 4 * h
    cells = []
    for i, mult in type_pairings(k1, k2, h).items():
        j = config.site_count - 3 - i
        for drop, shift in _ORBIT_CLASSES:
            cells.append((base_row + j + shift, base_twist - j - drop, mult))
    return tuple(cells)


def column_cells(L: int) -> dict:
    """(row, twist) -> [multiplicity, contributing types] of the site-count-``L`` column.

    Multiplicities of coinciding cells are summed across configuration types,
    which are listed in type order.  Cells come rows descending, then twists
    ascending.  Requires ``L >= 3``.
    """
    if L < 3:
        raise ValueError("merged columns are computed for at least three sites")
    cells: dict = {}
    for config in _sorted_types_with_sites(L):
        for row, twist, mult in type_cells(config):
            entry = cells.setdefault((row, twist), [0, []])
            entry[0] += mult
            entry[1].append(config)
    return dict(sorted(cells.items(), key=lambda item: (-item[0][0], item[0][1])))


def column_rows(L: int) -> dict:
    """{row: {twist: multiplicity}} of the merged site-count-``L`` column."""
    rows: dict = {}
    for (row, twist), (mult, _) in column_cells(L).items():
        rows.setdefault(row, {})[twist] = mult
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
_FIVE_POINT_POSITIONS = {config: pos for pos, config in enumerate(_FIVE_POINT_COLUMNS, start=1)}


def five_point_configuration_table() -> dict:
    """Twisted block homology of all five-point types, in table layout.

    Maps a printed row (homological degree ``row + 5k1 + 5k2 + 8h + L`` of a
    cell minus the column position) to the list of ``(type, codimension -
    twist)`` entries appearing there.  Only four of the twelve five-point
    types contribute; a class of any other one raises ArithmeticError.
    """
    table: dict = {}
    for k1 in range(6):
        for k2 in range(6 - k1):
            if (5 - k1 - k2) % 2:
                continue
            config = ConfigurationType(k1, k2, (5 - k1 - k2) // 2)
            cells = sorted(type_cells(config))
            if cells and config not in _FIVE_POINT_POSITIONS:
                raise ArithmeticError(
                    f"five-point type {config} has classes, but the table has no column for it"
                )
            for row, twist, mult in cells:
                if mult != 1:
                    raise ArithmeticError(
                        f"five-point type {config}: class of twist {twist} in row {row} "
                        f"has multiplicity {mult}, the table layout needs 1"
                    )
                degree = row + 5 * k1 + 5 * k2 + 8 * config.h + config.site_count
                table.setdefault(degree - _FIVE_POINT_POSITIONS[config], []).append(
                    (config, config.codimension - twist)
                )
    for row in table:
        table[row].sort(key=lambda entry: _FIVE_POINT_POSITIONS[entry[0]])
    return table


def five_point_stratum_table() -> dict:
    """Strata classes of the five-point types relative to the ambient dimension.

    Maps a printed row offset (``row + L - 1`` of a cell minus the column
    position) to ``(type, -twist)`` entries; the printed twist of an entry
    is the ambient dimension plus the recorded negative offset.
    """
    table: dict = {}
    for pos, config in enumerate(_FIVE_POINT_COLUMNS, start=1):
        for row, twist, _ in type_cells(config):
            table.setdefault(row + config.site_count - 1 - pos, []).append((config, -twist))
    for row in table:
        table[row].sort(key=lambda entry: _FIVE_POINT_POSITIONS[entry[0]])
    return dict(sorted(table.items(), reverse=True))


# --------------------------------------------------------------------------
# differential admissibility scan
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class DifferentialSolution:
    """One admissible (source twist, target twist) pair for a family move."""

    source: ConfigurationType
    target: ConfigurationType
    r: int
    j_source: int
    j_target: int


# family name -> its move (dk1, dk2, dh) on (k1, k2, h), applied r times;
# every move lowers at least one component, which bounds r
_FAMILIES = {
    "a": (0, 0, -1),
    "b": (-1, 0, 0),
    "c": (0, -1, 0),
    "d": (1, 0, -1),
    "e": (0, 1, -1),
    "f": (1, -1, 0),
    "g": (0, -2, 1),
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
    each family move ``r`` times for every ``r`` that leaves no component
    negative, and keeps the twist pairs where both the degree and the
    weight balance hold.  Returns a dict mapping family name to a sorted
    list of solutions.
    """
    if bound < 3:
        raise ValueError("scan needs a site bound of at least 3")
    results = {name: [] for name in _FAMILIES}
    for L in range(3, bound + 1):
        for source in _sorted_types_with_sites(L):
            d_src, w_src = _degree_weight_balance(source)
            k1, k2, h = source.k1, source.k2, source.h
            for name, (dk1, dk2, dh) in _FAMILIES.items():
                for r in count(1):
                    t1, t2, t3 = k1 + r * dk1, k2 + r * dk2, h + r * dh
                    if t1 < 0 or t2 < 0 or t3 < 0:
                        break
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
