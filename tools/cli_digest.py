"""Digest of a fixed sweep of crbkit CLI commands, to compare two source trees byte for byte.

Usage:

    python3 tools/cli_digest.py TREE

imports crbkit from TREE/src, writes the sweep's input files to a
temporary directory, and runs each command of COMMANDS in this one
process through crbkit.cli.main. It prints one line per command: the
exit code (or the exception that escaped main, its message added to
stderr), the sha256 of its stdout and of its stderr (the temporary
directory read as {tmp}), the number of files it wrote and one sha256
over their relative paths and contents, then the command. The last line
is the sha256 of all those lines. Two trees whose totals agree gave the
same exit codes, messages and output files on every command.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
import traceback
import warnings
from pathlib import Path

import numpy as np


def _psd(n: int, rank: int, scale: float) -> np.ndarray:
    """A fixed n x n J of the given rank: Q diag(d) Q' from default_rng(0), times scale."""
    rng = np.random.default_rng(0)
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    d = np.zeros(n)
    d[:rank] = np.linspace(2.0, 0.5, rank)
    return scale * (q * d) @ q.T


# Input files by name: a matrix (written in matx form with repr floats) or config text.
INPUTS = {
    "rank3_scale1.matx": _psd(5, 3, 1.0),
    "rank3_scale1e-8.matx": _psd(5, 3, 1e-8),
    "rank3_scale1e8.matx": _psd(5, 3, 1e8),
    "indefinite_5e-10.matx": np.diag([1.0, -5e-10, 0.0]),
    "indefinite_1e-6.matx": np.diag([1.0, -1e-6, 0.0]),
    "zero.matx": np.zeros((2, 2)),
    "huge.matx": np.diag([8e307, 8e307, 0.0]),
    "tiny_1e-160.matx": np.diag([1e-160, 5e-161, 0.0]),
    "tiny_1e-300.matx": np.diag([1e-300, 5e-301, 0.0]),
    "tiny_1e-307.matx": np.diag([1e-307, 0.0]),  # the sampler's largest steps meet its cap on ||M||_F^2
    "tiny_1e-308.matx": np.diag([1e-308, 0.0]),  # tr J+ 1e308 is past half the largest double: refused
    "tiny_1e-310.matx": np.diag([1e-310, 0.0]),  # 1/sigma overflows: refused
    "blind.cfg": "model = blind_channel\n",
    "blind_mc.cfg": "model = blind_channel\nfim_method = monte_carlo\n",
}

_SUITES = [["certify", "--count", "20", "--seed", str(seed)] for seed in range(5000, 5012)] + [
    ["certify", "--count", "5", "--seed", "3", "--margin-tol", "1e-320"],  # fails, and writes witnesses
    ["certify", "--count", "10", "--seed", "19", "--rank-tol", "0.1"],  # t shrinks the large steps of this suite
    ["certify", "--count", "20", "--seed", "11", "--rank-tol", "0.05"],
    ["certify", "--count", "5", "--rank-tol", "1e-20"],
    ["certify", "--count", "5", "--rank-tol", "0.2"],
]
_PER_MATRIX = [
    ["analyze"],
    ["certify", "--count", "30"],
    ["experiment", "--count", "50"],
    ["certify", "--rank-tol", "1e-3"],
    ["analyze", "--rank-tol", "0.5"],
    ["experiment", "--count", "50", "--rank-tol", "0.1"],  # the sampler shrinks draws near a loose cutoff
    ["certify", "--count", "30", "--rank-tol", "0.1"],
]
_MATRICES = [name for name in INPUTS if name.endswith(".matx")]

# Each command's arguments, with {tmp}/ naming an input file; --out is added per command.
COMMANDS = (
    _SUITES
    + [argv + ["--input", f"{{tmp}}/{name}"] for name in _MATRICES for argv in _PER_MATRIX]
    + [[command, "--input", f"{{tmp}}/{cfg}", "--count", "20"] for cfg in ("blind.cfg", "blind_mc.cfg")
       for command in ("analyze", "certify", "experiment")]
    # Monte-Carlo J over seeds, with and without roundoff below zero, and at the finest rank rule
    + [["analyze", "--input", "{tmp}/blind_mc.cfg", "--seed", str(seed)] for seed in range(10)]
    + [["analyze", "--input", "{tmp}/blind_mc.cfg", "--rank-tol", "2.3e-16"]]
)


def write_inputs(directory: Path) -> None:
    """Write every file of INPUTS into directory."""
    for name, value in INPUTS.items():
        if isinstance(value, str):
            text = value
        else:
            rows = [" ".join(repr(float(x)) for x in row) for row in value]
            text = "\n".join([f"{value.shape[0]} {value.shape[1]}", *rows]) + "\n"
        (directory / name).write_text(text, encoding="ascii")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def command_line(directory: Path, index: int, argv: list[str]) -> str:
    """Run one command through crbkit.cli.main with its output in directory/out-index; its digest line."""
    from crbkit.cli import main

    tmp = str(directory)
    out = directory / f"out-{index:03d}"
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), warnings.catch_warnings():
        warnings.simplefilter("always")  # every command shows its own warnings, whatever ran before it
        try:
            code = main([arg.replace("{tmp}", tmp) for arg in argv] + ["--out", str(out)])
        except Exception as exc:  # a traceback is a result to compare, and the sweep goes on
            code = f"raised:{type(exc).__name__}"
            stderr.write("".join(traceback.format_exception_only(exc)))
    files = sorted(p for p in out.rglob("*") if p.is_file()) if out.is_dir() else []
    tree = hashlib.sha256()
    for path in files:
        tree.update(f"{path.relative_to(out).as_posix()}\0{_sha(path.read_bytes())}\n".encode())
    out_sha, err_sha = (_sha(stream.getvalue().replace(tmp, "{tmp}").encode())[:16] for stream in (stdout, stderr))
    return f"exit={code} stdout={out_sha} stderr={err_sha} files={len(files)}:{tree.hexdigest()[:16]} {' '.join(argv)}"


def digest(commands=COMMANDS) -> list[str]:
    """The digest line of each command, run in order over freshly written inputs, then the total."""
    with tempfile.TemporaryDirectory() as name:
        directory = Path(name)
        write_inputs(directory)
        lines = [command_line(directory, index, argv) for index, argv in enumerate(commands)]
    return lines + [f"total {_sha(chr(10).join(lines).encode())} over {len(lines)} commands"]


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.path.insert(0, str(Path(sys.argv[1]).resolve() / "src"))
    print("\n".join(digest()))
