"""Exact linear algebra for lattice geometry, on two kernels.

Integers everywhere: one fraction-free Gauss-Jordan elimination gives both
the determinant and the inverse of a unimodular matrix, and the phase-1
simplex behind `solve_eq_nonneg` and `nonneg_rational_combination`, which
decides feasibility, extremality and (by Gordan's alternative) strict
convexity, pivots on an integer tableau. Both make every row update through
one step, `_pivot`, whose docstring argues that its division is exact; it
skips the rows that a pivot leaves unchanged.
`fractions.Fraction` appears only at the boundary: an LP of ints is its
own tableau, one with a Fraction is scaled to integers by the lcm of its
denominators, and the vertex found is returned as Fractions. An LP entry
of another type (a float, None, a bool) raises ``InvalidArgumentError``,
and so does a non-integer or bool entry of a matrix: nothing is truncated,
and no bool is read as a number. Every yes/no answer is a decision, never
an approximation.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import lcm
from operator import add, mul, sub
from typing import Iterable, Sequence

from .errors import DimensionMismatchError, InvalidArgumentError

IntVector = tuple[int, ...]


def _integers(values: Iterable, error: type, message: str) -> tuple[int, ...]:
    """The values as ints, never truncated: anything else (1.5, NaN, an
    infinity, None, a bool, or values that are not iterable) raises
    ``error(message)``."""
    try:
        raw = tuple(values)
        ints = tuple(map(int, raw))
    except (TypeError, ValueError, OverflowError):
        raise error(message) from None
    if ints != raw or bool in map(type, raw):
        raise error(message)
    return ints


def _square(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise DimensionMismatchError("need a square matrix")
    bad = "matrix entries must be integers"
    return [list(_integers(r, InvalidArgumentError, bad)) for r in rows]


def _pivot(rows: list[list[int]], r: int, c: int, d: int) -> int:
    """One fraction-free pivot on (r, c), in place; returns p = rows[r][c].

    Every row but r becomes (p * row - row[c] * rows[r]) // d; row r stays
    as it is. The one row update of both kernels, exact by Bareiss's
    argument (Math. Comp. 22 (1968)): when every entry is d times its
    rational value, d the determinant of the current basis, each new entry
    is p times its value after the rational pivot, and p is the determinant
    of the new basis, so the division by d leaves no remainder and p takes
    d's place for the next pivot. Two cases give the same integers with
    less work: f = row[c] = 0 and p = d leave the row as it is, and
    p = d = 1 makes it row - f * rows[r], since p * x - f * y divided by 1
    is x - f * y; most simplex pivots are of this kind. Within it f = 1
    and f = -1 give the plain difference row - rows[r] and sum
    row + rows[r], the same integers with no product per entry.
    """
    pivot_row = rows[r]
    p = pivot_row[c]
    unit = p == d == 1
    for i, row in enumerate(rows):
        f = row[c]
        if i == r or (f == 0 and p == d):
            continue
        if unit and (f == 1 or f == -1):
            rows[i] = list(map(sub if f == 1 else add, row, pivot_row))
        elif unit:
            rows[i] = [x - f * y for x, y in zip(row, pivot_row)]
        else:
            rows[i] = [(p * x - f * y) // d for x, y in zip(row, pivot_row)]
    return p


def _eliminate(m: list[list[int]], n: int) -> int:
    """Fraction-free Gauss-Jordan elimination on the first n columns, in place.

    ``m`` has n rows; columns past the n-th ride along. Each step is one
    `_pivot` on the diagonal, so every entry stays an integer. Returns the
    determinant d of the leading n x n block, or 0 as soon as it turns out
    singular. When d != 0 the leading block ends as d*I and every other
    column c as d * A^-1 c.
    """
    prev = 1
    for k in range(n):
        if m[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if piv is None:
                return 0
            # swap and negate: a row operation of determinant 1
            m[k], m[piv] = m[piv], [-x for x in m[k]]
        prev = _pivot(m, k, k, prev)
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

    Phase-1 simplex on an integer tableau (fraction-free pivoting, Bareiss,
    Math. Comp. 22 (1968); for the simplex, Azulay & Pique, ACM TOMS 27
    (2001)). Entries are ints or Fractions; a bool, or any entry without a
    denominator, raises ``InvalidArgumentError``. A system of ints is taken
    as it is. One with a Fraction is multiplied by the lcm of all its
    denominators: one factor for every row keeps the reduced costs
    proportional to those of the rational tableau, so the pivots are the
    same. Each row with a negative rhs is then negated. The tableau
    keeps the structural columns and the rhs; the artificial columns are
    dropped, since artificials never re-enter the basis, and their labels
    n + i live on only in ``basis``. The objective row, the sum of the rows
    whose basic variable is artificial, starts as the column sums.

    One integer d > 0 holds the whole tableau: every entry is d times its
    rational value (d is the determinant of the current basis). Each step
    is one `_pivot` on (r, e), the row update that `_eliminate` makes, and
    p = tab[r][e] > 0 becomes the new d.

    Bland's rule guarantees termination: the entering column is the first
    with a positive reduced cost; the leaving row has the least ratio
    rhs / entry, compared by cross-multiplication, ties going to the
    smaller basis label. The loop stops as soon as the infeasibility (the
    objective's rhs) is 0: from there on every positive reduced cost has a
    positive entry in a row whose artificial is basic at value 0, so any
    further pivot is degenerate and x cannot change. The vertex is the one
    that pivoting on to optimality would reach, returned as
    Fraction(tab[i][-1], d) for each structural basic variable.
    """
    m = len(rows)
    if m != len(rhs):
        raise DimensionMismatchError("row count differs from rhs length")
    if m == 0:
        raise DimensionMismatchError("need at least one equation")
    n = len(rows[0])
    if any(len(r) != n for r in rows):
        raise DimensionMismatchError("ragged constraint matrix")

    system = [[*row, b] for row, b in zip(rows, rhs)]
    bad = "LP entries must be ints or Fractions"
    types = set(map(type, chain.from_iterable(system)))
    if bool in types:
        raise InvalidArgumentError(bad)
    if types - {int}:
        try:
            scale = lcm(*(x.denominator for row in system for x in row))
        except AttributeError:
            raise InvalidArgumentError(bad) from None
        system = [[x.numerator * (scale // x.denominator) for x in r] for r in system]
    tab = [[-x for x in row] if row[-1] < 0 else row for row in system]
    tab.append([sum(col) for col in zip(*tab)])  # the objective row, tab[m]
    basis = list(range(n, n + m))
    d = 1
    while tab[m][-1]:
        obj = tab[m]
        e = next((j for j in range(n) if obj[j] > 0), None)
        if e is None:
            return None
        r = None
        for i in range(m):
            t = tab[i][e]
            if t > 0 and (
                r is None
                or (c := tab[i][-1] * tab[r][e] - tab[r][-1] * t) < 0
                or (c == 0 and basis[i] < basis[r])
            ):
                r = i
        d = _pivot(tab, r, e, d)
        basis[r] = e

    x = [Fraction(0)] * n
    for i, bv in enumerate(basis):
        if bv < n:
            x[bv] = Fraction(tab[i][-1], d)
    return x


def nonneg_rational_combination(
    generators: Sequence[Sequence[int | Fraction]],
    target: Sequence[int | Fraction],
) -> list[Fraction] | None:
    """Nonnegative rationals lam with sum lam_i * g_i = target, or None. An
    empty target is no equation, which ``solve_eq_nonneg`` rejects."""
    gens = [tuple(g) for g in generators]
    tgt = tuple(target)
    n = len(tgt)
    if any(len(g) != n for g in gens):
        raise DimensionMismatchError("generators and target differ in length")
    rows = [[g[i] for g in gens] for i in range(n)]
    return solve_eq_nonneg(rows, list(tgt))


def dot(u: Sequence[int], v: Sequence[int]) -> int:
    """The dot product, checking the lengths; the package's own dots pair
    vectors of equal length by construction and skip the check."""
    if len(u) != len(v):
        raise DimensionMismatchError("dot product of unequal lengths")
    return sum(map(mul, u, v))
