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
