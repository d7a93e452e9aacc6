"""matx v1: plain-text matrix exchange format.

A matx block is a header line "n m" followed by n lines of m
whitespace-separated decimal values. Values are written with 17
significant digits so doubles round-trip exactly.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from .errors import InvalidInput

FLOAT_FMT = "%.17g"


def format_float(value: float) -> str:
    """Render one double with enough digits to round-trip."""
    return FLOAT_FMT % float(value)


def format_row(values: list[float]) -> str:
    """format_float of each value, space-separated, in one % call."""
    return " ".join([FLOAT_FMT] * len(values)) % tuple(values)


def dump_matrix(a) -> str:
    """Serialize a 1-d or 2-d real array as one matx block (1-d becomes one row)."""
    if np.iscomplexobj(a):  # a cast to float would drop the imaginary part
        raise InvalidInput("matrix has complex entries; only real numbers are accepted")
    arr = np.atleast_2d(np.asarray(a, dtype=float))
    if arr.ndim != 2:
        raise InvalidInput(f"matx supports 2-d matrices, got ndim={arr.ndim}")
    n, m = arr.shape
    return "\n".join([f"{n} {m}", *map(format_row, arr.tolist())]) + "\n"


def _parse_block(lines: list[str], pos: int) -> tuple[np.ndarray, int]:
    """Parse one matx block starting at lines[pos]; returns (matrix, next position)."""
    while pos < len(lines) and not lines[pos].strip():
        pos += 1
    if pos >= len(lines):
        raise InvalidInput("matx: missing header line")
    header = lines[pos].split()
    if len(header) != 2:
        raise InvalidInput(f"matx: header must be 'n m', got {lines[pos]!r}")
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError as exc:
        raise InvalidInput(f"matx: non-integer header {lines[pos]!r}") from exc
    if n < 0 or m < 0:
        raise InvalidInput(f"matx: negative dimensions in header {lines[pos]!r}")
    pos += 1
    rows = []
    for i in range(n):
        if pos >= len(lines):
            raise InvalidInput(f"matx: expected {n} rows, file ends after {i}")
        fields = lines[pos].split()
        if len(fields) != m:
            raise InvalidInput(f"matx: row {i} has {len(fields)} values, expected {m}")
        try:
            rows.append(list(map(float, fields)))
        except ValueError as exc:
            raise InvalidInput(f"matx: non-numeric value in row {i}") from exc
        pos += 1
    arr = np.array(rows, dtype=float) if n else np.zeros((0, m))
    return arr, pos


def parse_matrix(text: str) -> np.ndarray:
    """Parse text holding exactly one matx block."""
    lines = text.splitlines()
    arr, pos = _parse_block(lines, 0)
    for line in lines[pos:]:
        if line.strip():
            raise InvalidInput(f"matx: trailing content {line!r}")
    return arr


def save_matrix(path, a) -> None:
    """Write a as one matx block; dump_matrix runs first, so a refused array leaves no file."""
    Path(path).write_text(dump_matrix(a), encoding="ascii")


def read_ascii(path, missing: str) -> str:
    """The text of the file at path, the one reader of every input file. Raises InvalidInput with the message
    missing when no such file exists, and with the codec's own message where a byte is not ASCII."""
    if not os.path.isfile(path):
        raise InvalidInput(missing)
    try:
        with open(path, "r", encoding="ascii") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise InvalidInput(str(exc)) from None


def load_matrix(path) -> np.ndarray:
    return parse_matrix(read_ascii(path, f"matx: no such file {path}"))
