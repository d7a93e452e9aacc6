"""Exact rational matrices for test oracles: lists of rows of fractions.Fraction, from the standard library.

A float converts to a Fraction exactly, so an oracle built here sees the
very inputs that the library was given and makes no rounding error.
"""

from fractions import Fraction


def rational(a):
    """The rows of a 2-d float array as Fractions, exactly."""
    return [[Fraction(float(v)) for v in row] for row in a]


def transpose(a):
    return [list(column) for column in zip(*a)]


def matmul(a, b):
    return [[sum(x * y for x, y in zip(row, column)) for column in zip(*b)] for row in a]


def trace(a):
    return sum(a[i][i] for i in range(len(a)))


def solve(a, b):
    """The X with AX = B for a nonsingular square A, by Gauss-Jordan elimination."""
    n = len(a)
    rows = [list(left) + list(right) for left, right in zip(a, b)]
    for col in range(n):
        pivot = next(i for i in range(col, n) if rows[i][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [v / rows[col][col] for v in rows[col]]
        for i in range(n):
            if i != col and rows[i][col] != 0:
                factor = rows[i][col]
                rows[i] = [v - factor * p for v, p in zip(rows[i], rows[col])]
    return [row[n:] for row in rows]


def null_space(a):
    """A basis of the null space of the p x n matrix a, as the columns of an n x (n - rank a) matrix.

    Gauss-Jordan elimination brings a to reduced row echelon form; each
    free column gives one basis vector, 1 there and minus its column's
    entries at the pivots.
    """
    rows, n = [list(row) for row in a], len(a[0])
    pivots = []
    for col in range(n):
        top = len(pivots)
        pivot = next((i for i in range(top, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[top], rows[pivot] = rows[pivot], rows[top]
        rows[top] = [v / rows[top][col] for v in rows[top]]
        for i in range(len(rows)):
            if i != top and rows[i][col] != 0:
                factor = rows[i][col]
                rows[i] = [v - factor * p for v, p in zip(rows[i], rows[top])]
        pivots.append(col)
    columns = []
    for free in (col for col in range(n) if col not in pivots):
        v = [Fraction(0)] * n
        v[free] = Fraction(1)
        for i, col in enumerate(pivots):
            v[col] = -rows[i][free]
        columns.append(v)
    return [list(row) for row in zip(*columns)] if columns else [[] for _ in range(n)]
