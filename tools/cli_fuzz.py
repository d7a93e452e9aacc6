"""Seeded fuzzer of the crbkit command line: random inputs, and what every run must do with them.

Usage:

    python3 tools/cli_fuzz.py SEED COUNT

imports crbkit from the src directory next to this tool, draws COUNT commands from
numpy's default_rng(SEED) and runs each in this one process through crbkit.cli.main,
with its input files and outputs in a temporary directory. The inputs are random
.matx files (PSD, indefinite or diagonal, n from 1 to 8, or PSD at the rank cutoff,
n from 8 to 16, run at --rank-tol eps; scales from 1e-310 to 1e308, some with an
entry above half the largest double, a non-numeric entry or a header that does not
match), model configs with random and malformed values (sizes
among them that numpy cannot allocate), and random values of the setting
flags that the command's own subparser offers. Every run must:

  - exit 0, 2, 3 or 4, or exit 2 from argparse, which is counted apart;
  - on exit 2 or 3 from crbkit, print exactly one line to stderr, an `error:` one;
  - let no exception escape main and issue no warning;
  - on exit 0 or 4, rerun from its manifest.cfg to byte-identical output files.

Every rerun writes into one --out shared by all cases, so that check also tests
that a run into a used --out leaves only its own files, across random pairs of
commands.

The tool prints the count of each exit and every violation, and exits 1 if there
is one. The same SEED and COUNT draw the same commands on every run.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np

from cli_digest import read_files, run

# Tokens that replace one entry of a corrupted matrix; 1e400 reads as inf.
BAD_ENTRIES = ("nan", "inf", "-inf", "1e400", "x", "1.0.0", "")
HALF_MAX = 0.5 * np.finfo(float).max
EPS = float(np.finfo(float).eps)

# Config values drawn for each key; the last few of each are malformed or out of range.
CONFIG_VALUES = {
    "s_len": ("1", "2", "3", "4", "0", "-1", "2.5", "x", "10000000000000000000"),
    "h_len": ("1", "2", "3", "0", "2.5", "10000000000000000000"),
    "dim": ("1", "2", "4", "0", "x", "10000000000"),
    "noise_var": ("1", "0.5", "2", "1e-300", "1e308", "0", "-1", "nan", "inf", "x"),
    "fim_method": ("analytic", "monte_carlo", "monte_carlo", "exact"),
    "samples": ("100", "257", "99", "x"),
    "seed": ("0", "3", "-1", "1.5"),
    "rank_tol": ("1e-10", "1e-3", "0.9", "1e-20", "x"),
    "margin_tol": ("1e-9", "1e-320", "0", "x"),
}

# Flag values drawn for each run setting, where the command offers its flag; again the last few are refused.
FLAG_VALUES = {
    "--seed": ("0", "1", "7", "123456789", "-1", "1.5"),
    "--count": ("1", "2", "3", "5", "20", "0", "x"),
    "--samples": ("100", "300", "50"),
    "--rank-tol": ("1e-10", "1e-3", "0.1", "2.3e-16", "1e-6", "0.5", "0.9", "1e-20", "nan", "inf"),
    "--margin-tol": ("1e-9", "1e-320", "1e-3", "0", "inf", "-1"),
}


def _entries(rng: np.random.Generator) -> tuple[np.ndarray, list[str]]:
    """A random n x n matrix at a random scale, and the flags it is run with: PSD of random rank, indefinite, or
    diagonal, n from 1 to 8; or at the cutoff, run at --rank-tol eps: PSD of rank n - 1, n from 8 to 16, its least
    kept eigenvalue 1.01 n eps times its largest, so that roundoff can make its optimal constraint's U'JU singular."""
    kind = rng.integers(4)
    n = int(rng.integers(8, 17) if kind == 3 else rng.integers(1, 9))
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    d = rng.uniform(0.5, 2.0, n)
    if kind == 3:
        d[-2:] = 1.01 * n * EPS * d[:-2].max(), 0.0
    else:
        d *= rng.random(n) < 0.7
    if kind == 1:
        d[rng.integers(n)] *= -rng.choice([1e-12, 1e-6, 1.0])
    entries = np.diag(d) if kind == 2 else (q * d) @ q.T
    exponent = 0 if rng.random() < 0.5 else int(rng.integers(-310, 309))
    with np.errstate(over="ignore", under="ignore"):
        return entries * 10.0**exponent, ["--rank-tol", repr(EPS)] if kind == 3 else []


def _matrix_text(rng: np.random.Generator) -> tuple[str, list[str]]:
    """A .matx file of _entries, sometimes with a huge or non-numeric entry or a header that does not match, and
    the flags that _entries gave."""
    entries, flags = _entries(rng)
    n = entries.shape[0]
    tokens = [[repr(float(x)) for x in row] for row in entries]
    header = f"{n} {n}"
    fault = rng.random()
    if fault < 0.15:  # one entry, or a symmetric pair, above half the largest double
        i, j = rng.integers(n, size=2)
        tokens[i][j] = tokens[j][i] = repr(float(rng.uniform(HALF_MAX, 2.0 * HALF_MAX)))
    elif fault < 0.3:
        tokens[rng.integers(n)][rng.integers(n)] = str(rng.choice(BAD_ENTRIES))
    elif fault < 0.35:
        header = f"{n} {n + 1}"
    return "\n".join([header, *(" ".join(row) for row in tokens)]) + "\n", flags


def _config_text(rng: np.random.Generator, model: str) -> str:
    """A model config: each key with probability 1/5, at a random value; theta sometimes, of a random length,
    and now and then psd_tol, a key that is no longer read."""
    lines = [f"model = {model}"]
    lines += [f"{key} = {rng.choice(values)}" for key, values in CONFIG_VALUES.items() if rng.random() < 0.2]
    if rng.random() < 0.05:
        lines.append("psd_tol = 1e-9")
    if rng.random() < 0.2:
        theta = [repr(float(x)) for x in rng.uniform(-2.0, 2.0, int(rng.integers(1, 8)))]
        lines.append("theta = " + " ".join(theta if rng.random() < 0.8 else theta + ["nan"]))
    return "\n".join(lines) + "\n"


def command_flags(command: str) -> set[str]:
    """The flags that crbkit's subparser of command offers."""
    from crbkit.cli import build_parser

    (sub,) = [action for action in build_parser()._actions if isinstance(action, argparse._SubParsersAction)]
    return {flag for action in sub.choices[command]._actions for flag in action.option_strings}


def draw_case(rng: np.random.Generator, directory: Path, index: int) -> list[str]:
    """Write case index's input files into directory and return its argv, without --out."""
    command = str(rng.choice(["analyze", "certify", "experiment"]))
    offered = command_flags(command)
    argv, source, needed = [command], rng.random(), []
    if source < 0.55:
        path = directory / f"in-{index}.matx"
        text, needed = _matrix_text(rng)
        path.write_text(text, encoding="ascii")
        if rng.random() < 0.1:  # a config naming the matrix
            path = directory / f"in-{index}.cfg"
            path.write_text(f"input = in-{index}.matx\n", encoding="ascii")
        argv += ["--input", str(path)]
    elif source < 0.85:
        path = directory / f"in-{index}.cfg"
        model = str(rng.choice(["blind_channel", "gaussian_location", "blind_channel", "ar1"]))
        path.write_text(_config_text(rng, model), encoding="ascii")
        argv += ["--input", str(path)]
    elif source < 0.92:
        argv += ["--model", str(rng.choice(["blind_channel", "gaussian_location"]))]
    for flag, values in FLAG_VALUES.items():
        if flag in offered and rng.random() < 0.2:
            argv += [flag, str(rng.choice(values))]
    argv += needed  # after the drawn flags, which it overrides
    if "--count" in offered and "--input" not in argv and "--model" not in argv and "--count" not in argv:
        argv += ["--count", str(rng.integers(1, 4))]  # a suite of the default 100 matrices is slow, not different
    return argv


def problems(code, err: str, caught: list[str]) -> list[str]:
    """What one run did wrong, by the rules of the module docstring, rerun aside."""
    found = [f"warning {message}" for message in caught]
    if isinstance(code, str):
        return found + ([code] if code.startswith("raised") else [])
    if code not in (0, 2, 3, 4):
        found.append(f"exit code {code}")
    lines = err.splitlines()
    if code in (2, 3) and (len(lines) != 1 or not lines[0].startswith("error: ")):
        found.append(f"exit {code} printed {len(lines)} stderr lines, not one error: line: {err!r}")
    if code in (0, 4) and any(line.startswith("error:") for line in lines):
        found.append(f"exit {code} printed an error: line: {err!r}")
    return found


def fuzz(seed: int, count: int) -> tuple[Counter, list[str]]:
    """Run count cases drawn from default_rng(seed); the count of each exit, and each violation with its case."""
    from crbkit.cli import main

    rng, exits, violations = np.random.default_rng(seed), Counter(), []
    with tempfile.TemporaryDirectory() as name:
        directory = Path(name)
        for index in range(count):
            argv = draw_case(rng, directory, index)
            out = directory / f"out-{index}"
            code, _, err, caught = run(main, argv + ["--out", str(out)])
            exits[code if not str(code).startswith("raised") else "raised"] += 1
            found = problems(code, err, caught)
            if code in (0, 4) and not found:
                again = directory / "rerun"
                rerun, _, err, caught = run(main, [argv[0], "--input", str(out / "manifest.cfg"), "--out", str(again)])
                found += [f"rerun: {p}" for p in problems(rerun, err, caught)]
                if rerun != code or read_files(again) != read_files(out):
                    found.append(f"rerun from the manifest exited {rerun} or wrote other files")
            case = " ".join(argv).replace(name, "{tmp}")
            violations += [f"case {index} ({case}): {problem}" for problem in found]
    return exits, violations


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    exits, violations = fuzz(int(sys.argv[1]), int(sys.argv[2]))
    print(" ".join(f"{key}={exits[key]}" for key in sorted(exits, key=str)))
    print("\n".join(violations))
    sys.exit(1 if violations else 0)
