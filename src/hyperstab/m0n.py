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
import tempfile
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


def _cache_text(n: int, layers: dict) -> str:
    """The layer file of n as `_save_cache` writes it and `_read_written` reads it."""
    # the bytes of compact json.dumps, joined directly: decimal strings need no escapes
    labels = ",".join('["' + '","'.join(map(str, mu)) + '"]' for mu in partitions(n))
    entries = ",".join(
        f'{{"i":"{i}","values":[{{"trace":"'
        + '"},{"trace":"'.join(map(str, layer.vector))
        + '"}]}'
        for i, layer in sorted(layers.items())
    )
    return f'{{"n":"{n}","cycle_types":[{labels}],"layers":[{entries}]}}'


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


def _read_written(text: str, n: int):
    """The layers of ``text`` if it is exactly `_cache_text`'s rendering of them, else None.

    Splits the text at the writer's own separators, so no JSON object is built,
    and renders what it found again: `_cache_text` is the one statement of the layout.
    """
    layers = {}
    try:
        for entry in text.split('{"i":"')[1:]:
            i, traces = entry.partition('"}]}')[0].split('","values":[{"trace":"')
            layers[int(i)] = CharacterVector(n, map(int, traces.split('"},{"trace":"')))
    except ValueError:
        return None
    return layers if _cache_text(n, layers) == text else None


def _load_cache(path: Path, n: int) -> dict:
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


def _validate_layers(n: int, layers: dict, source: str) -> None:
    if set(layers) != set(range(n - 2)):
        raise ValueError(
            f"{source}: expected layers 0..{n - 3}, found {sorted(layers)}"
        )
    if layers[0] != CharacterVector.trivial(n):
        raise ValueError(f"{source}: layer 0 is not the trivial character")


@lru_cache(maxsize=None)
def equivariant_poincare_m0n(n: int) -> dict:
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
