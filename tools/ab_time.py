"""Paired in-process timing of two crbkit source trees on one CLI workload.

Usage:

    python3 tools/ab_time.py TREE_A TREE_B WORKLOAD [--jobs N]

WORKLOAD is `certify` (certify --count 20, a fresh seed per job) or
`experiment` (experiment --count 1000 on a fresh 32 x 32 rank-16 J per
job). Each tree's src/crbkit is copied to a temporary directory as the
package crbkit_a or crbkit_b; crbkit imports itself only relatively, so
both trees load in this one process, on one numpy. Job i runs the same
command through both trees' cli.main, in an order that alternates with
i, and the tool prints each tree's median job wall time, the median of
the paired ratios B/A, and the share of pairs in which B was faster.
Pairs cancel the drift that separate runs of the benchmark show on a
shared host; warm-up jobs are run first and not counted.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

WORKLOADS = ("certify", "experiment")
WARMUP = 3


def load_tree(tree: Path, name: str, where: Path):
    """TREE/src/crbkit imported as the package name, from a copy under where; its cli module."""
    shutil.copytree(tree / "src" / "crbkit", where / name)
    return importlib.import_module(f"{name}.cli")


def job_argv(workload: str, index: int, inputs: Path) -> list[str]:
    """The command of job index: certify at seed index, or a fresh 32 x 32 rank-16 J for experiment."""
    if workload == "certify":
        return ["certify", "--count", "20", "--seed", str(index)]
    rng = np.random.default_rng(index)
    q = np.linalg.qr(rng.standard_normal((32, 32)))[0]
    d = np.append(rng.uniform(0.5, 2.0, 16), np.zeros(16))
    path = inputs / f"j{index}.matx"
    path.write_text("32 32\n" + "\n".join(" ".join(f"{x:.17g}" for x in row) for row in (q * d) @ q.T) + "\n")
    return ["experiment", "--input", str(path), "--count", "1000", "--seed", str(index)]


def timed(cli, argv: list[str], out: Path) -> float:
    """Wall seconds of one cli.main call, its prints swallowed; a nonzero exit is an error."""
    sink = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = cli.main(argv + ["--out", str(out)])
    elapsed = time.perf_counter() - start
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} exited {code}: {sink.getvalue()}")
    return elapsed


def compare(tree_a: Path, tree_b: Path, workload: str, jobs: int) -> dict:
    """Each tree's median job seconds, the median paired ratio B/A and the share of pairs B won."""
    with tempfile.TemporaryDirectory() as tmp:
        where = Path(tmp)
        sys.path.insert(0, str(where))
        try:
            clis = (load_tree(tree_a, "crbkit_a", where), load_tree(tree_b, "crbkit_b", where))
            times: tuple[list[float], list[float]] = ([], [])
            for index in range(WARMUP + jobs):
                argv = job_argv(workload, index, where)
                order = (0, 1) if index % 2 == 0 else (1, 0)
                pair = {side: timed(clis[side], argv, where / f"out{side}") for side in order}
                if index >= WARMUP:
                    times[0].append(pair[0])
                    times[1].append(pair[1])
        finally:
            sys.path.remove(str(where))
            for name in list(sys.modules):
                if name.split(".")[0] in ("crbkit_a", "crbkit_b"):
                    del sys.modules[name]
    ratios = [b / a for a, b in zip(*times)]
    return {
        "median_a_s": statistics.median(times[0]),
        "median_b_s": statistics.median(times[1]),
        "median_ratio": statistics.median(ratios),
        "b_faster_share": sum(r < 1.0 for r in ratios) / len(ratios),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree_a", type=Path)
    parser.add_argument("tree_b", type=Path)
    parser.add_argument("workload", choices=WORKLOADS)
    parser.add_argument("--jobs", type=int, default=200, help="timed pairs, after the warm-up")
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be positive")
    result = compare(args.tree_a.resolve(), args.tree_b.resolve(), args.workload, args.jobs)
    print(f"{args.workload}: {args.jobs} pairs after {WARMUP} warm-up pairs")
    print(f"A {args.tree_a}: median {1e3 * result['median_a_s']:.2f} ms")
    print(f"B {args.tree_b}: median {1e3 * result['median_b_s']:.2f} ms")
    print(f"median paired ratio B/A {result['median_ratio']:.3f}; B faster in {result['b_faster_share']:.0%} of pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
