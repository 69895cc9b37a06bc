"""Equivariant cohomology layers of M_{0,n} via twisted point counts.

The trace of a permutation sigma acting on the cohomology of M_{0,n} is read
off from the number of fixed points of (sigma o Frobenius) acting on ordered
configurations of n points of P^1: the count N_mu(q) is a polynomial in q,
divisible by #PGL_2(F_q) = q^3 - q, and the quotient's coefficients carry the
traces layer by layer.

The layers are computed in integers only (Kisin-Lehrer, J. Algebra 2002).
With b_d the number of points of A^1(F_{q^d}) of exact degree d (q^d minus the
b_e of the proper divisors e of d), c cycles of length d contribute the factor
prod_{k<c} (b_d + [d = 1] - d*k) to N_mu, [d = 1] for the point at infinity.
`_twisted_counts` builds the N_mu of one degree in the recursion of the
partitions, one multiplication each; each is divided by q^3 - q by integer
synthetic division.  Its oracles live with the tests (`tests/oracles.py`): one
product of those factors per cycle type, Moebius sums with rational
coefficients, and a walk over the Frobenius orbits of explicit extension fields.
"""

from __future__ import annotations

import json
import operator
import os
import re
import tempfile
from collections.abc import Mapping
from functools import lru_cache
from pathlib import Path

from .symfunc import CharacterVector, _bounded_start, partitions

__all__ = ["equivariant_poincare_m0n"]


# --------------------------------------------------------------------------
# integer twisted counts: dense coefficient tuples, ascending in q
# --------------------------------------------------------------------------

def _dense_mul(a, b) -> tuple:
    out = [0] * (len(a) + len(b) - 1)
    terms = [(j, c) for j, c in enumerate(b) if c]
    for i, c1 in enumerate(a):
        if c1:
            for j, c2 in terms:
                out[i + j] += c1 * c2
    return tuple(out)


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
def _twisted_counts(m: int) -> tuple:
    """N_mu(q) for each partition mu of m, in `partitions(m)` order, dense and ascending.

    A partition with first part p is p followed by a partition of m - p with no
    part above p, one of the suffix of `partitions(m - p)` from `_bounded_start`,
    so N_(p, *rest) = N_rest (b_p + [p = 1] - p r), where r counts the parts of
    rest equal to p, which lead it.  Cached; must not be mutated.
    """
    if m == 0:
        return ((1,),)
    counts = []
    for part in range(m, 0, -1):
        head, *tail = _exact_degree_points(part)
        start = _bounded_start(m - part, part)
        rests = partitions(m - part)[start:]
        counts.extend(
            _dense_mul(count, [head + (part == 1) - part * rest.count(part), *tail])
            for rest, count in zip(rests, _twisted_counts(m - part)[start:])
        )
    return tuple(counts)


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

def _cache_path(n: int) -> Path:
    """The layer file of n: under HYPERSTAB_CACHE if set, else ~/.cache/hyperstab."""
    env = os.environ.get("HYPERSTAB_CACHE")
    base = Path(env) if env else Path.home() / ".cache" / "hyperstab"
    return base / f"m0n_{n}.json"


def _cycle_type_labels(n: int) -> str:
    """The cycle types of n as a layer file spells them: ``["3","1"],["2","2"]``, ...

    Built in the recursion of the partitions, in `partitions(n)` order: the
    spelling of (p, *mu) is ``"p"`` then mu's, one of the suffix of the
    spellings of |mu| from `_bounded_start`.  The spellings of the smaller
    degrees are dropped after the call, since a memo of them costs more
    memory than it saves time.
    """
    spelled = [[""]]
    for m in range(1, n + 1):
        row = []
        for part in range(m, 0, -1):
            head = f'"{part}"'
            row.extend(
                f"{head},{rest}" if rest else head
                for rest in spelled[m - part][_bounded_start(m - part, part):]
            )
        spelled.append(row)
    return "[" + "],[".join(spelled[n]) + "]"


def _cache_text(n: int, layers: dict) -> str:
    """The layer file of n as `_save_cache` writes it and `_read_written` reads it."""
    # the bytes of compact json.dumps, joined directly: decimal strings need no escapes
    entries = ",".join(
        f'{{"i":"{i}","values":[{{"trace":"'
        + '"},{"trace":"'.join(map(str, layer.vector))
        + '"}]}'
        for i, layer in sorted(layers.items())
    )
    return f'{{"n":"{n}","cycle_types":[{_cycle_type_labels(n)}],"layers":[{entries}]}}'


def _save_cache(path: Path, n: int, layers: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(_cache_text(n, layers))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class _LoadedLayers(Mapping):
    """The read-only {i: layer i} of a checked layer file.

    Holds each layer's traces as one comma-joined string until the layer is
    first read, and then the `CharacterVector` built from them.
    """

    __slots__ = ("_n", "_layers")

    def __init__(self, n: int, traces: dict):
        self._n = n
        self._layers = traces

    def __getitem__(self, i):
        layer = self._layers[i]
        if type(layer) is str:
            layer = self._layers[i] = CharacterVector(self._n, map(int, layer.split(",")))
        return layer

    def __iter__(self):
        return iter(self._layers)

    def __len__(self):
        return len(self._layers)


def _read_written(text: str, n: int):
    """The layers of ``text`` if it is exactly `_cache_text`'s rendering of them, else None.

    Checks the text against the writer's layout in one pass and converts no
    trace: the header spells n and the cycle types as the writer does, the
    layer indices rise, and each layer holds one trace per cycle type, each
    an integer in its shortest decimal form, as ``str`` renders an int.  No
    JSON object is built.  The layers come back as a `_LoadedLayers`, which
    builds each `CharacterVector` when the layer is first read.
    """
    head = f'{{"n":"{n}","cycle_types":[{_cycle_type_labels(n)}],"layers":['
    if not text.startswith(head) or not text.endswith("]}"):
        return None
    # an int as str renders it, within CPython's default limit of 4300 digits
    number = "(?:0|-?[1-9][0-9]{0,4299})"
    separator = '"},{"trace":"'
    entry = re.compile(
        r'\{"i":"(' + number + r')","values":\[\{"trace":"('
        + number + "(?:" + re.escape(separator) + number + r')*)"\}\]\}'
    )
    commas = len(partitions(n)) - 1
    layers, pos, end = {}, len(head), len(text) - 2
    while pos < end:
        if layers:  # the entries after the first follow a comma
            if text[pos] != ",":
                return None
            pos += 1
        match = entry.match(text, pos)
        if match is None:
            return None
        i, traces = int(match[1]), match[2].replace(separator, ",")
        if (layers and i <= last) or traces.count(",") != commas:
            return None
        layers[i], last, pos = traces, i, match.end()
    return _LoadedLayers(n, layers) if pos == end else None


def _load_cache(path: Path, n: int) -> Mapping:
    """The layers in ``path``, whose JSON must re-encode compactly to the writer's bytes."""
    try:
        text = path.read_text()
        layers = _read_written(text, n)
        if layers is None:
            layers = _read_written(json.dumps(json.loads(text), separators=(",", ":")), n)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    if layers is None:
        raise ValueError(
            f"{path}: not the layers of n={n} in the layout this version writes (an "
            "older version's layout, or a damaged file): delete the file to recompute it"
        )
    _validate_layers(n, layers, source=str(path))
    return layers


def _validate_layers(n: int, layers: Mapping, source: str) -> None:
    if set(layers) != set(range(n - 2)):
        raise ValueError(
            f"{source}: expected layers 0..{n - 3}, found {sorted(layers)}"
        )
    if layers[0] != CharacterVector.trivial(n):
        raise ValueError(f"{source}: layer 0 is not the trivial character")


@lru_cache(maxsize=None)
def equivariant_poincare_m0n(n: int) -> Mapping:
    """{i: the S_n-character of H^i(M_{0,n})} for i = 0..n-3; cached, do not mutate.

    The twisted counts N_mu(q) of all cycle types mu come from one recursion
    over the partitions of n, one multiplication each.  Each is divided exactly
    by #PGL_2(F_q) = q^3 - q, and the quotient sum_i (-1)^i tr(sigma | H^i)
    q^{(n-3)-i} gives layer i at coefficient n-3-i (see the module docstring).
    Results are cached on disk under the HYPERSTAB_CACHE directory, or
    ~/.cache/hyperstab when it is unset: one file m0n_<n>.json per n, in the
    bytes of `_cache_text`, which spells each partition of n once, in
    `partitions(n)` order, and then every layer's traces in that order,
    integers as decimal strings.  A file loads if its JSON re-encodes
    compactly to those bytes, so only its whitespace may differ; any other
    file (the layout of older versions among them) raises ValueError naming it.
    Every file is checked whole when it loads, but a loaded layer becomes a
    `CharacterVector` only when first read, so callers that read layers by
    index (`stable.type_pairings`) convert only the layers they pair.
    """
    if n < 3:
        raise ValueError("n must be >= 3")
    path = _cache_path(n)
    if path.exists():
        return _load_cache(path, n)
    columns = zip(*[_divide_by_pgl2(count) for count in _twisted_counts(n)])
    layers = {
        i: CharacterVector(n, map(operator.neg, column) if i % 2 else column)
        for i, column in enumerate(reversed(list(columns)))
    }
    _validate_layers(n, layers, source=f"computed layers for n={n}")
    _save_cache(path, n, layers)
    return layers
