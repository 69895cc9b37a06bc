"""Fixed reference program: the benchmark's measure of the machine's speed.

``run.py`` starts this between CLI samples and set-ups.  It does work of the
same kind as hyperstab (Fraction arithmetic on dict polynomials, JSON round
trips, dict updates, fraction-free elimination on big integers as in
``linalg``) in one fresh interpreter, and prints a checksum.  It never
changes with the program under test, so its CPU time tracks only how fast
the shared machine runs at that moment.
"""

from __future__ import annotations

import json
from fractions import Fraction

# what main() prints; run.py refuses a reference run that prints anything else
CHECKSUM = 1162


def poly_mul(a: dict, b: dict) -> dict:
    out = {}
    for i, x in a.items():
        for j, y in b.items():
            out[i + j] = out.get(i + j, 0) + x * y
    return out


def bareiss_rank(matrix: list) -> int:
    """Rank of an integer matrix by fraction-free elimination."""
    m = [row[:] for row in matrix]
    rank, prev = 0, 1
    for col in range(len(m[0])):
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(rank + 1, len(m)):
            m[r] = [(m[rank][col] * m[r][j] - m[r][col] * m[rank][j]) // prev
                    for j in range(len(m[0]))]
        prev = m[rank][col]
        rank += 1
    return rank


def main() -> int:
    acc = 0
    seed = 12345
    matrix = []
    for _ in range(34):
        row = []
        for _ in range(36):
            seed = (seed * 1103515245 + 12345) % 2**31
            row.append(seed ** 3 - 2**90)
        matrix.append(row)
    matrix.append([a - b for a, b in zip(matrix[0], matrix[1])])
    acc += bareiss_rank(matrix)
    for _ in range(6):
        p = {i: Fraction(i + 1, 2 * i + 3) for i in range(60)}
        q = {i: Fraction(3 * i + 1, i + 7) for i in range(60)}
        r = poly_mul(p, q)
        text = json.dumps({str(k): [v.numerator, v.denominator] for k, v in r.items()})
        acc += len(json.loads(text))
        d = {}
        for n in range(40000):
            key = (n * 7919) % 1009
            d[key] = d.get(key, 0) + n * n
        acc += sum(d.values()) % 97
    return acc


if __name__ == "__main__":
    print(main())
