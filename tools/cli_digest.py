"""Digest of a fixed sweep of crbkit CLI commands, to compare two source trees byte for byte.

Usage:

    python3 tools/cli_digest.py TREE

imports crbkit from TREE/src, writes the sweep's input files to a
temporary directory, and runs each command of COMMANDS in this one
process through crbkit.cli.main. It prints one line per command: the
exit code (see run; an escaped exception reads `raised`, its message
added to stderr), the sha256 of its stdout and of its stderr (a
`warning: ...` line added per warning, the temporary directory read as
{tmp}), the number of files it wrote and one sha256 over their relative
paths and contents, then the command. Then comes the total, the sha256 of
all those lines, and last the verdict line, one sha256 over each
command's exit code and, where it wrote certificates.csv, that file's
theorem_id, passed and n_cases columns. Two trees whose totals agree gave
the same exit codes, messages and output files on every command; two
whose verdict lines agree gave the same exit codes and verdicts, whatever
their margins.

The other tools import from here the one in-process runner (run, and
sweep_run for a sweep that hashes its results), the matx writer of
their input files (write_inputs), their fixed J (_psd) and the reader
of a command's output files (read_files).
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


def run(main, argv: list[str]) -> tuple[int | str, str, str, list[str]]:
    """main(argv) in this process: its exit code, "argparse" when argparse refuses argv, or "raised: ..." when an
    exception escapes main; its stdout and stderr; and the warnings it issued, each shown whatever ran before."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse refuses its own arguments with exit 2
                code = "argparse" if exc.code == 2 else f"raised: SystemExit({exc.code})"
            except Exception as exc:  # a traceback is a result to report, and the sweep goes on
                frame = traceback.extract_tb(exc.__traceback__)[-1]
                code = f"raised: {type(exc).__name__}: {exc} at {Path(frame.filename).name}:{frame.lineno}"
    return code, stdout.getvalue(), stderr.getvalue(), [f"{w.category.__name__}: {w.message}" for w in caught]


def sweep_run(main, argv: list[str], directory: Path, out: Path) -> tuple[str, str, str]:
    """run of argv, with {tmp} naming directory, and --out out, as a sweep hashes it: the exit code, "raised" for an
    escaped exception, whose message joins stderr; stdout; and stderr with a `warning: ...` line per warning, both
    reading directory as {tmp}."""
    tmp = str(directory)
    code, stdout, stderr, caught = run(main, [arg.replace("{tmp}", tmp) for arg in argv] + ["--out", str(out)])
    if str(code).startswith("raised"):
        code, stderr = "raised", f"{stderr}{code[len('raised: '):]}\n"
    stderr += "".join(f"warning: {message}\n" for message in caught)
    return str(code), stdout.replace(tmp, "{tmp}"), stderr.replace(tmp, "{tmp}")


def read_files(directory: Path) -> dict[str, bytes]:
    """The bytes of every file under directory by relative path, in path order; none if directory is missing."""
    return {p.relative_to(directory).as_posix(): p.read_bytes() for p in sorted(directory.rglob("*")) if p.is_file()}


def _psd(eigenvalues: list[float], seed: int, scale: float = 1.0) -> np.ndarray:
    """A fixed J: scale Q diag(eigenvalues) Q', Q from the qr of an n x n Gaussian draw of default_rng(seed); scale
    multiplies Q diag(eigenvalues) before the product, which fixes the bytes of the sweep's scaled J."""
    n = len(eigenvalues)
    q = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))[0]
    return scale * (q * np.array(eigenvalues)) @ q.T


def write_inputs(directory: Path, inputs: dict) -> None:
    """Write each input file of inputs, by name, into directory: a matrix in matx form with repr floats, or text."""
    for name, value in inputs.items():
        if not isinstance(value, str):
            rows = [" ".join(repr(float(x)) for x in row) for row in value]
            value = "\n".join([f"{value.shape[0]} {value.shape[1]}", *rows]) + "\n"
        (directory / name).write_text(value, encoding="ascii")


_RANK3 = [2.0, 1.25, 0.5, 0.0, 0.0]

# Input files by name: a matrix (written in matx form with repr floats) or config text.
INPUTS = {
    "rank3_scale1.matx": _psd(_RANK3, 0),
    "rank3_scale1e-8.matx": _psd(_RANK3, 0, 1e-8),
    "rank3_scale1e8.matx": _psd(_RANK3, 0, 1e8),
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
    ["certify", "--count", "45", "--seed", "6"],  # three stages, the last partial, merged across stages
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

# The inputs of _REFUSALS, added after _MATRICES so that no _PER_MATRIX command reads them.
INPUTS |= {
    "nonsingular.matx": np.diag([2.0, 1.0, 0.5]),
    "gauss.cfg": "model = gaussian_location\n",
    "blind_noise.cfg": "model = blind_channel\nnoise_var = -1\n",
    "blind_dim.cfg": "model = blind_channel\ndim = 3\n",  # a gaussian_location key
}

# Each error path of the commands: a nonsingular J (analyze alone accepts it), a bad model, a count numpy cannot
# allocate (certify exits 3 and experiment 2) and an input named twice.
_REFUSALS = (
    [[command, "--input", "{tmp}/nonsingular.matx"] for command in ("analyze", "certify", "experiment")]
    + [["experiment", "--input", "{tmp}/gauss.cfg", "--count", "5"]]
    + [["analyze", "--input", f"{{tmp}}/{cfg}"] for cfg in ("blind_noise.cfg", "blind_dim.cfg")]
    + [[command, "--input", "{tmp}/rank3_scale1.matx", "--count", str(10**18)] for command in ("certify", "experiment")]
    + [["analyze", "--input", "{tmp}/rank3_scale1.matx", "--model", "blind_channel"]]
)

# Each command's arguments, with {tmp}/ naming an input file; --out is added per command.
COMMANDS = (
    _SUITES
    + [argv + ["--input", f"{{tmp}}/{name}"] for name in _MATRICES for argv in _PER_MATRIX]
    + [[command, "--input", f"{{tmp}}/{cfg}", *count] for cfg in ("blind.cfg", "blind_mc.cfg")
       for command, count in (("analyze", []), ("certify", ["--count", "20"]), ("experiment", ["--count", "20"]))]
    # Monte-Carlo J over seeds, with and without roundoff below zero, and at the finest rank rule
    + [["analyze", "--input", "{tmp}/blind_mc.cfg", "--seed", str(seed)] for seed in range(10)]
    + [["analyze", "--input", "{tmp}/blind_mc.cfg", "--rank-tol", "2.3e-16"]]
    + _REFUSALS
)




def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def command_line(directory: Path, index: int, argv: list[str]) -> tuple[str, str]:
    """Run one command through crbkit.cli.main with its output in directory/out-index; its digest line and its
    verdict: the exit code, then the theorem_id, passed and n_cases columns of certificates.csv where it wrote one."""
    from crbkit.cli import main

    out = directory / f"out-{index:03d}"
    code, stdout, stderr = sweep_run(main, argv, directory, out)
    files = read_files(out)
    tree = hashlib.sha256()
    for path, data in files.items():
        tree.update(f"{path}\0{_sha(data)}\n".encode())
    out_sha, err_sha = (_sha(stream.encode())[:16] for stream in (stdout, stderr))
    line = f"exit={code} stdout={out_sha} stderr={err_sha} files={len(files)}:{tree.hexdigest()[:16]} {' '.join(argv)}"
    rows = files.get("certificates.csv", b"").decode().splitlines()[1:]  # the head line and a row per theorem
    return line, " ".join([code] + [",".join(row.split(",")[:3]) for row in rows])


def digest(commands=COMMANDS) -> list[str]:
    """The digest line of each command, run in order over freshly written inputs, then the total and the verdicts."""
    with tempfile.TemporaryDirectory() as name:
        directory = Path(name)
        write_inputs(directory, INPUTS)
        lines, verdicts = zip(*[command_line(directory, index, argv) for index, argv in enumerate(commands)])
    return [*lines, f"total {_sha(chr(10).join(lines).encode())} over {len(lines)} commands",
            f"verdicts {_sha(chr(10).join(verdicts).encode())} over {len(lines)} commands"]


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.path.insert(0, str(Path(sys.argv[1]).resolve() / "src"))
    print("\n".join(digest()))
