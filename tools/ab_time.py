"""Paired in-process timing of two crbkit source trees on one benchmark workload.

Usage:

    python3 tools/ab_time.py TREE_A TREE_B WORKLOAD [--jobs N]

WORKLOAD is certify_suite, experiment_wide or mc_blind_channel: the jobs,
at benchmark seed 0, and the output check of that workload in
perfbench/workloads.py. Each tree's src/crbkit is copied to a temporary
directory as the package crbkit_a or crbkit_b; crbkit imports itself
only relatively, so both trees load in this one process, on one numpy.
Job i runs through both trees' cli.main (tools/cli_digest.py's run), in
an order that alternates with i, and each tree's outputs must pass the
check; a job that it marks as a known false FAIL passes, as it does in
the benchmark. The tool refuses a tree whose outputs fail, and prints
each tree's median job wall time, the median of the paired ratios B/A,
and the share of pairs in which B was faster. Pairs cancel the drift
that separate runs of the benchmark show on a shared host; warm-up jobs
are run and checked first and not counted.
"""

from __future__ import annotations

import argparse
import importlib
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

from cli_digest import run

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import WORKLOADS  # noqa: E402

WARMUP = 3


def load_tree(tree: Path, name: str, where: Path):
    """TREE/src/crbkit imported as the package name, from a copy under where; its cli module."""
    shutil.copytree(tree / "src" / "crbkit", where / name)
    return importlib.import_module(f"{name}.cli")


def timed(cli, job, check, out: Path, tree: Path) -> float:
    """Wall seconds of job through one tree's cli.main, with its outputs in out, which must pass check."""
    start = time.perf_counter()
    code, _, stderr, _ = run(cli.main, job.argv + ["--out", str(out)])
    elapsed = time.perf_counter() - start
    try:
        problems, known = check(job, out, code)
    except (OSError, KeyError, ValueError, IndexError) as exc:
        problems, known = [f"exit code {code}", f"outputs unreadable: {exc!r}"], False
    if problems and not known:
        raise SystemExit(f"{tree}: job {job.index} ({' '.join(job.argv)}): {'; '.join(problems)}\n{stderr}")
    shutil.rmtree(out)
    return elapsed


def compare(tree_a: Path, tree_b: Path, workload: str, jobs: int) -> dict:
    """Each tree's median job seconds, the median paired ratio B/A and the share of pairs B won."""
    make_jobs, check = WORKLOADS[workload]
    trees = (tree_a, tree_b)
    with tempfile.TemporaryDirectory() as tmp:
        where = Path(tmp)
        sys.path.insert(0, str(where))
        try:
            clis = (load_tree(tree_a, "crbkit_a", where), load_tree(tree_b, "crbkit_b", where))
            times: tuple[list[float], list[float]] = ([], [])
            for job in make_jobs(0, where, WARMUP + jobs):
                if job.write_input:
                    job.write_input()
                for side in (0, 1) if job.index % 2 == 0 else (1, 0):
                    elapsed = timed(clis[side], job, check, where / f"out{side}", trees[side])
                    if job.index >= WARMUP:
                        times[side].append(elapsed)
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
    parser.add_argument("workload", choices=list(WORKLOADS))
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
