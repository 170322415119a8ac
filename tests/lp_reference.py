"""The two-phase simplex that the tests compare ``ftpath.simplex`` against.

``solve_lp`` here takes rows of any sense (``<=``, ``>=``, ``==``) and
any costs, and is small and deliberately boring: Bland's rule (so
cycling is impossible and results are deterministic) on a plain
fraction-free tableau (Edmonds, J. Res. NBS 1967; Bareiss, Math. Comp.
1968).  Each row is a list of Python ints, right-hand side last, that
stands for the exact rational row divided by its basic entry; rows are
reduced by their gcd after every pivot, and Fractions appear only in the
returned ``x`` and value.  It carries its own copies of the tableau
helpers, so agreement with the package's dual simplex compares two
independent implementations.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from ftpath.simplex import LPInfeasible

__all__ = ["LPInfeasible", "LPUnbounded", "solve_lp",
           "LESS_EQUAL", "GREATER_EQUAL", "EQUAL"]

ZERO = Fraction(0)
ONE = Fraction(1)

LESS_EQUAL = "<="
GREATER_EQUAL = ">="
EQUAL = "=="


class LPUnbounded(Exception):
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


def solve_lp(objective, rows, num_vars: int) -> tuple[list[Fraction], Fraction]:
    """Minimize ``objective . x`` subject to ``rows``, with all ``x >= 0``.

    ``objective`` maps variable index to cost (sparse dict or dense
    list); each row is ``(coeffs, sense, rhs)`` with sparse ``coeffs``
    and sense one of ``<=``, ``>=``, ``==``.

    Returns ``(x, value)`` with exact rationals.

    Raises:
        LPInfeasible: the constraints admit no non-negative solution.
        LPUnbounded: the objective is unbounded below.
    """
    if isinstance(objective, dict):
        cost = [Fraction(objective.get(j, 0)) for j in range(num_vars)]
    else:
        cost = [Fraction(c) for c in objective] + [ZERO] * (num_vars - len(objective))

    # Canonical equalities with rhs >= 0; slack signs flip with the row.
    slack_col = num_vars
    canonical: list[tuple[dict[int, Fraction], Fraction]] = []
    slack_of_row: list[int | None] = []
    for coeffs, sense, b in rows:
        row = {j: Fraction(a) for j, a in coeffs.items()}
        b = Fraction(b)
        if sense == EQUAL:
            slack_of_row.append(None)
        elif sense in (LESS_EQUAL, GREATER_EQUAL):
            row[slack_col] = ONE if sense == LESS_EQUAL else -ONE
            slack_of_row.append(slack_col)
            slack_col += 1
        else:
            raise ValueError(f"unknown sense {sense!r}")
        if b < 0:
            row = {j: -a for j, a in row.items()}
            b = -b
        canonical.append((row, b))
    ncols = slack_col

    if not canonical:
        return [ZERO] * num_vars, ZERO

    # A slack column whose coefficient survived as +1 can start basic
    # (each slack sits in exactly one row); other rows get an artificial
    # variable appended past every real column.  The rhs goes last.
    basis = [sc if sc is not None and row[sc] == ONE else -1
             for (row, _), sc in zip(canonical, slack_of_row)]
    total_cols = ncols + basis.count(-1)
    matrix: list[list[int]] = []
    artificial = ncols
    for i, (row, b) in enumerate(canonical):
        if basis[i] == -1:
            row[artificial] = ONE
            basis[i] = artificial
            artificial += 1
        row[total_cols] = b
        matrix.append(_integer_row(row, total_cols + 1))

    # ``obj`` is the reduced-cost row with minus the objective value
    # last, up to a positive factor: only its signs are ever read.
    def pivot(obj: list[int], row_i: int, col_j: int) -> None:
        prow = matrix[row_i]
        if prow[col_j] < 0:
            matrix[row_i] = prow = [-a for a in prow]
        nz = [j for j, a in enumerate(prow) if a]
        for r, row in enumerate(matrix):
            if r != row_i and row[col_j]:
                matrix[r] = _eliminate(row, prow, col_j, nz)
        if obj[col_j]:
            obj[:] = _eliminate(obj, prow, col_j, nz)
        basis[row_i] = col_j

    def optimize(obj: list[int], allowed: int) -> None:
        # Bland's rule: smallest improving column, smallest basic leaver.
        while True:
            enter = next((j for j in range(allowed) if obj[j] < 0), -1)
            if enter < 0:
                return
            # Row i's ratio is row[-1] / row[enter]: the denominators cancel.
            leave = -1
            for i, row in enumerate(matrix):
                a = row[enter]
                if a > 0:
                    if leave < 0:
                        leave = i
                        continue
                    lhs = row[-1] * matrix[leave][enter]
                    rhs = matrix[leave][-1] * a
                    if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                        leave = i
            if leave < 0:
                raise LPUnbounded("objective decreases without bound")
            pivot(obj, leave, enter)

    def reduced(costs: list[Fraction]) -> list[int]:
        obj = _integer_row(dict(enumerate(costs[:total_cols])), total_cols + 1)
        for row, b in zip(matrix, basis):
            if obj[b]:
                obj = _eliminate(obj, row, b, [j for j, a in enumerate(row) if a])
        return obj

    # Phase 1: drive artificial variables to zero.
    if total_cols > ncols:
        obj = reduced([ZERO] * ncols + [ONE] * (total_cols - ncols))
        optimize(obj, total_cols)
        if obj[-1] != 0:
            raise LPInfeasible("no feasible point")
        for i in range(len(matrix) - 1, -1, -1):
            if basis[i] < ncols:
                continue
            swap = next((j for j in range(ncols) if matrix[i][j]), None)
            if swap is not None:
                pivot(obj, i, swap)
            else:
                # Redundant row: drop it.
                del matrix[i], basis[i]

    # Phase 2: the real objective, artificial columns off limits.
    optimize(reduced(cost), ncols)

    x = [ZERO] * num_vars
    value = ZERO
    for row, b in zip(matrix, basis):
        xb = Fraction(row[-1], row[b])
        if b < num_vars:
            x[b] = xb
        if b < len(cost):
            value += cost[b] * xb
    return x, value
