"""Exact linear algebra for lattice geometry, on two kernels.

Integers everywhere: one fraction-free Gauss-Jordan elimination gives both
the determinant and the inverse of a unimodular matrix. `fractions.Fraction`
appears only inside the phase-1 simplex behind `solve_eq_nonneg` and
`nonneg_rational_combination`, which decides feasibility, extremality and
(by Gordan's alternative) strict convexity. Every yes/no answer is a
decision, never an approximation.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import DimensionMismatchError

IntVector = tuple[int, ...]


def _square(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise DimensionMismatchError("need a square matrix")
    return [[int(x) for x in r] for r in rows]


def _eliminate(m: list[list[int]], n: int) -> int:
    """Fraction-free Gauss-Jordan elimination on the first n columns, in place.

    ``m`` has n rows; columns past the n-th ride along. Each step divides
    exactly by the previous pivot (Bareiss, Math. Comp. 22 (1968)), so every
    entry stays an integer. Returns the determinant d of the leading n x n
    block, or 0 as soon as it turns out singular. When d != 0 the leading
    block ends as d*I and every other column c as d * A^-1 c.
    """
    prev = 1
    for k in range(n):
        if m[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if piv is None:
                return 0
            # swap and negate: a row operation of determinant 1
            m[k], m[piv] = m[piv], [-x for x in m[k]]
        pivot_row = m[k]
        p = pivot_row[k]
        for i in range(n):
            if i != k:
                f = m[i][k]
                m[i] = [(p * x - f * y) // prev for x, y in zip(m[i], pivot_row)]
        prev = p
    return prev


def determinant(rows: Sequence[Sequence[int]]) -> int:
    """Exact integer determinant by fraction-free elimination."""
    m = _square(rows)
    return _eliminate(m, len(m))


def unimodular_inverse(rows: Sequence[Sequence[int]]) -> tuple[IntVector, ...]:
    """Exact inverse of a unimodular integer matrix (given and returned as rows).

    Raises ValueError when the matrix is not invertible over the integers.
    """
    m = _square(rows)
    n = len(m)
    for i, row in enumerate(m):
        row.extend(1 if j == i else 0 for j in range(n))
    d = _eliminate(m, n)
    if d == 0:
        raise ValueError("matrix is singular")
    if d not in (1, -1):
        raise ValueError("matrix is not unimodular")
    # the right block holds d * A^-1, and d = 1/d here
    return tuple(tuple(d * x for x in row[n:]) for row in m)


def solve_eq_nonneg(
    rows: Sequence[Sequence[int | Fraction]], rhs: Sequence[int | Fraction]
) -> list[Fraction] | None:
    """Find x >= 0 with (rows) @ x = rhs, exactly; None when infeasible.

    Phase-1 simplex over Fraction with Bland's rule (entering: smallest
    eligible structural column; leaving: smallest basic index among the
    minimum ratios), which guarantees termination. Artificial variables
    never re-enter the basis.
    """
    m = len(rows)
    if m != len(rhs):
        raise DimensionMismatchError("row count differs from rhs length")
    if m == 0:
        raise DimensionMismatchError("need at least one equation")
    n = len(rows[0])
    if any(len(r) != n for r in rows):
        raise DimensionMismatchError("ragged constraint matrix")
    if n == 0:
        return [] if all(Fraction(b) == 0 for b in rhs) else None

    tab: list[list[Fraction]] = []
    for i in range(m):
        b = Fraction(rhs[i])
        row = [Fraction(x) for x in rows[i]]
        if b < 0:
            b = -b
            row = [-x for x in row]
        tab.append(row + [Fraction(1 if j == i else 0) for j in range(m)] + [b])
    basis = list(range(n, n + m))
    # objective row: minimize the sum of artificials; for structural columns
    # this equals the reduced cost, artificial columns are never candidates
    obj = [sum(tab[i][j] for i in range(m)) for j in range(n + m + 1)]

    while True:
        enter = next((j for j in range(n) if obj[j] > 0), None)
        if enter is None:
            break
        leave = None
        best = None
        for i in range(m):
            t = tab[i][enter]
            if t > 0:
                ratio = tab[i][-1] / t
                if (
                    best is None
                    or ratio < best
                    or (ratio == best and basis[i] < basis[leave])
                ):
                    best = ratio
                    leave = i
        if leave is None:  # cannot happen: obj[enter] > 0 forces a positive entry
            return None
        p = tab[leave][enter]
        tab[leave] = [x / p for x in tab[leave]]
        for i in range(m):
            if i != leave and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [x - f * y for x, y in zip(tab[i], tab[leave])]
        if obj[enter] != 0:
            f = obj[enter]
            obj = [x - f * y for x, y in zip(obj, tab[leave])]
        basis[leave] = enter

    if obj[-1] != 0:
        return None
    x = [Fraction(0)] * n
    for i, bv in enumerate(basis):
        if bv < n:
            x[bv] = tab[i][-1]
    return x


def nonneg_rational_combination(
    generators: Sequence[Sequence[int | Fraction]],
    target: Sequence[int | Fraction],
) -> list[Fraction] | None:
    """Nonnegative rationals lam with sum lam_i * g_i = target, or None."""
    gens = [tuple(g) for g in generators]
    tgt = tuple(target)
    n = len(tgt)
    if any(len(g) != n for g in gens):
        raise DimensionMismatchError("generators and target differ in length")
    if not gens:
        return [] if all(Fraction(t) == 0 for t in tgt) else None
    rows = [[g[i] for g in gens] for i in range(n)]
    return solve_eq_nonneg(rows, list(tgt))


def dot(u: Sequence[int], v: Sequence[int]) -> int:
    if len(u) != len(v):
        raise DimensionMismatchError("dot product of unequal lengths")
    return sum(a * b for a, b in zip(u, v))
