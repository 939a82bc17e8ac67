"""Reference `Fraction` Gauss–Jordan routines for cross-checking `exactq`.

These are the textbook elimination loops the library used before its
fraction-free integer kernel.  They stay here, test-only, as the slow path
the kernel must agree with entry for entry.
"""

from fractions import Fraction
from typing import Optional


def solve_linear(a: list[list[Fraction]], b: list[Fraction], free_value: Fraction) -> Optional[list[Fraction]]:
    """Solve a·x = b exactly by Gaussian elimination.

    Pivots on the first nonzero entry in column order.  Returns None when
    inconsistent; free variables of underdetermined systems are set to
    `free_value`.
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    a = [list(row) for row in a]
    b = list(b)
    pivot_of_col: dict[int, int] = {}
    rank = 0
    for col in range(cols):
        pivot = None
        for r in range(rank, rows):
            if a[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        b[rank], b[pivot] = b[pivot], b[rank]
        inv = 1 / a[rank][col]
        a[rank] = [v * inv for v in a[rank]]
        b[rank] = b[rank] * inv
        for r in range(rows):
            if r != rank and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [v - factor * w for v, w in zip(a[r], a[rank])]
                b[r] = b[r] - factor * b[rank]
        pivot_of_col[col] = rank
        rank += 1
    for r in range(rank, rows):
        if b[r] != 0:
            return None
    x = [free_value] * cols
    for col, r in pivot_of_col.items():
        x[col] = b[r] - sum(
            (a[r][c] * x[c] for c in range(cols) if c != col and a[r][c] != 0),
            Fraction(0),
        )
    return x


def invert(a: list[list[Fraction]]) -> Optional[list[list[Fraction]]]:
    """Exact inverse of a square matrix by Gauss–Jordan; None when singular."""
    n = len(a)
    a = [list(row) for row in a]
    inv = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = None
        for r in range(col, n):
            if a[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            return None
        a[col], a[pivot] = a[pivot], a[col]
        inv[col], inv[pivot] = inv[pivot], inv[col]
        scale = 1 / a[col][col]
        a[col] = [v * scale for v in a[col]]
        inv[col] = [v * scale for v in inv[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [v - factor * w for v, w in zip(a[r], a[col])]
                inv[r] = [v - factor * w for v, w in zip(inv[r], inv[col])]
    return inv
