"""An exact rational simplex for covering LPs.

``solve_lp`` solves ``min c.x`` subject to ``A x >= b``, ``x >= 0`` with
``c >= 0``.  It runs the primal simplex on the dual ``max b.y`` subject
to ``A^T y + s = c``, ``y, s >= 0``, whose slack basis is feasible, so
there is no phase 1 and no artificial column.  The entering column is
Dantzig's, the most negative reduced cost (the first on ties).  The
leaving row comes from the lexicographic ratio test of Dantzig, Orden &
Wolfe (Pacific J. Math. 5, 1955), which perturbs the dual's right-hand
sides to ``c_j + eps^(j+1)``: no two rows ever tie, cycling is
impossible whatever column enters, and the final basis is optimal for
the costs ``c + (eps, eps^2, ...)``, so the ``x`` read off it is the
lexicographically smallest optimal ``x`` whatever pivots led there.

The tableau is fraction-free (Edmonds, J. Res. NBS 1967; Bareiss,
Math. Comp. 1968): each row is a list of Python ints, right-hand side
last, that stands for the exact rational row divided by its basic entry,
the row's positive denominator.  Rows are reduced by their gcd after
every pivot.  The cost row is kept up to one positive factor, so its
entries compare exactly in pricing, and the ratio test is a
cross-multiplication on ints.  Fractions appear only in the returned
``x`` and value.  Problem sizes in this package are a few hundred rows
and columns at most.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

__all__ = ["LPInfeasible", "solve_lp"]


class LPInfeasible(Exception):
    pass


def _integer_row(entries: dict, width: int) -> list[int]:
    """The dense row of rational ``entries`` times the lcm of their denominators."""
    scale = lcm(*(v.denominator for v in entries.values()))
    row = [0] * width
    for j, v in entries.items():
        row[j] = v.numerator * (scale // v.denominator)
    return row


def _eliminate(row: list[int], prow: list[int], col: int, nz: list[int]) -> list[int]:
    """``row`` minus the multiple of ``prow`` that zeroes entry ``col``.

    ``prow[col]`` is positive and ``nz`` lists the nonzero columns of
    ``prow``.  The result is scaled by ``prow[col]`` and then reduced by
    its gcd, so it stands for the same rational row as the exact
    difference once divided by its own basic entry (or, for the cost
    row, has the same signs).
    """
    f, p = row[col], prow[col]
    new = row[:] if p == 1 else [a * p for a in row]
    for j in nz:
        new[j] -= f * prow[j]
    g = gcd(*new)
    return [a // g for a in new] if g > 1 else new


def _lex_less(row: list[int], other: list[int], col: int, keys: list[int]) -> bool:
    """Whether ``row`` divided by ``row[col]`` is lexicographically below
    ``other`` divided by ``other[col]``, read in ``keys`` order.

    Both pivot entries are positive, so cross-multiplying keeps the order.
    """
    a, b = row[col], other[col]
    for j in keys:
        lhs, rhs = row[j] * b, other[j] * a
        if lhs != rhs:
            return lhs < rhs
    raise ValueError("two tableau rows are proportional")


def solve_lp(objective, rows, num_vars: int) -> tuple[list[Fraction], Fraction]:
    """Lexicographically smallest ``x`` minimizing ``objective . x``
    subject to ``rows``, with all ``x >= 0``.

    ``objective`` maps variable index to a cost ``>= 0`` (sparse dict or
    dense list); each row is ``(coeffs, rhs)`` for ``coeffs . x >= rhs``,
    with sparse ``coeffs``.  Coefficients and right-hand sides are ints
    or Fractions.  The tableau has ``num_vars`` rows and
    ``len(rows) + num_vars + 1`` columns.

    Returns ``(x, value)`` with exact rationals: among the optimal points,
    ``x`` is the smallest in ``x[0]``, then in ``x[1]``, and so on.

    Raises:
        ValueError: a cost is negative.
        LPInfeasible: the rows admit no non-negative solution (the dual
            is unbounded).
    """
    if isinstance(objective, dict):
        cost = [objective.get(j, 0) for j in range(num_vars)]
    else:
        cost = [*objective, *[0] * (num_vars - len(objective))]
    if any(c < 0 for c in cost):
        raise ValueError("solve_lp needs costs >= 0")
    first_slack = len(rows)
    last = first_slack + num_vars
    # Row j is the dual constraint of x_j: column j of A, the slack of
    # x_j and c_j.  The slack basis is feasible because c >= 0.
    entries: list[dict] = [{first_slack + j: 1} for j in range(num_vars)]
    for r, (coeffs, _) in enumerate(rows):
        for j, a in coeffs.items():
            if a:
                entries[j][r] = a
    for j, c in enumerate(cost):
        if c:
            entries[j][last] = c
    matrix = [_integer_row(e, last + 1) for e in entries]
    basis = list(range(first_slack, last))
    rhs = [b for _, b in rows]
    # The reduced costs of max b.y as a minimization, up to one positive
    # factor, so entries of the row compare exactly.
    obj = _integer_row({r: -b for r, b in enumerate(rhs) if b}, last + 1)
    # The perturbed rhs of row i is (rhs, B^-1 row i) in eps order.
    keys = [last, *range(first_slack, last)]
    while True:
        # Dantzig: the most negative reduced cost enters, the first on ties.
        low = min(obj[:last], default=0)
        if low >= 0:
            break
        enter = obj.index(low)
        leave = -1
        for i, row in enumerate(matrix):
            if row[enter] > 0 and (leave < 0 or _lex_less(row, matrix[leave], enter, keys)):
                leave = i
        if leave < 0:
            raise LPInfeasible("no feasible point: the dual is unbounded")
        prow = matrix[leave]
        nz = [j for j, a in enumerate(prow) if a]
        for i, row in enumerate(matrix):
            if i != leave and row[enter]:
                matrix[i] = _eliminate(row, prow, enter, nz)
        obj = _eliminate(obj, prow, enter, nz)
        basis[leave] = enter

    # x = b_B B^-1 and value = b_B y_B.  Row i stands for itself divided
    # by its basic entry, so every term goes over one common scale.
    terms = [(row, rhs[col], row[col]) for row, col in zip(matrix, basis)
             if col < first_slack and rhs[col]]
    scale = lcm(*(b.denominator * d for _, b, d in terms))
    acc = [0] * (num_vars + 1)
    for row, b, d in terms:
        f = b.numerator * (scale // (b.denominator * d))
        for j, a in enumerate(row[first_slack:]):
            if a:
                acc[j] += f * a
    return [Fraction(a, scale) for a in acc[:num_vars]], Fraction(acc[num_vars], scale)
