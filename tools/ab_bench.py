"""Paired benchmark runs of two crbkit source trees on one workload, and the numbers a claimed gain is judged by.

Usage:

    python3 tools/ab_bench.py TREE_A TREE_B WORKLOAD [--pairs N] [--seed S]

Pair i runs each tree's own perfbench/run.py --workload WORKLOAD
--seed S+i --trace 0, with --seconds the run_seconds of BENCHMARK.json, A
first in even pairs and B first in odd ones, so that drift on a shared
host falls on both sides alike. A run that exits nonzero or reads
incorrect stops the tool. It prints each pair's end-to-end metrics
(BENCHMARK.json's end_to_end) as A -> B, then for each metric: the pairs
in which B was better, in the metric's direction; both medians; A's
interquartile distance (statistics.quantiles, inclusive method); and
whether B's median is better than A's by more than that distance. A gain
is claimed where B wins at least 9 of 10 pairs and its median gap
exceeds A's interquartile distance.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_once(tree: Path, workload: str, seed: int) -> dict:
    """The metrics of one run of tree's perfbench/run.py: its last stdout line, a JSON object."""
    argv = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(BENCHMARK["run_seconds"]), "--trace", "0"]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{tree}: {' '.join(argv[1:])} exited with code {done.returncode}\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{tree}: {' '.join(argv[1:])} read incorrect\n{done.stdout}")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def paired_runs(trees: tuple[Path, Path], workload: str, pairs: int, seed: int) -> list[tuple[dict, dict]]:
    """(A's metrics, B's metrics) of each pair, pair i at seed + i, with A first in even pairs."""
    runs = []
    for i in range(pairs):
        first = (0, 1) if i % 2 == 0 else (1, 0)
        metrics = {side: run_once(trees[side], workload, seed + i) for side in first}
        runs.append((metrics[0], metrics[1]))
    return runs


def report(runs: list[tuple[dict, dict]], seed: int) -> list[str]:
    """A line per pair, then a line per end-to-end metric: B's wins, the medians and A's interquartile distance."""
    names = [metric["name"] for metric in BENCHMARK["end_to_end"]]
    lines = []
    for i, (a, b) in enumerate(runs):
        cells = ", ".join(f"{name} {a[name]:.6g} -> {b[name]:.6g}" for name in names)
        lines.append(f"pair {i} seed {seed + i} ({'AB'[i % 2]} first): {cells}")
    for metric in BENCHMARK["end_to_end"]:
        name, sign = metric["name"], 1.0 if metric["better"] == "higher" else -1.0
        a, b = ([run[side][name] for run in runs] for side in (0, 1))
        wins = sum(sign * (y - x) > 0 for x, y in zip(a, b))
        low, _, high = statistics.quantiles(a, n=4, method="inclusive")
        median_a, median_b = statistics.median(a), statistics.median(b)
        beyond = sign * (median_b - median_a) > high - low
        lines.append(
            f"{name} ({metric['better']} is better): B better in {wins}/{len(runs)}; median A {median_a:.6g}, "
            f"B {median_b:.6g} ({median_b / median_a - 1:+.1%}); A IQR {high - low:.6g}; "
            f"B better beyond A's IQR: {'yes' if beyond else 'no'}"
        )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree_a", type=Path)
    parser.add_argument("tree_b", type=Path)
    parser.add_argument("workload", choices=[w["name"] for w in BENCHMARK["workloads"]])
    parser.add_argument("--pairs", type=int, default=10, help="pairs of runs, at least 2")
    parser.add_argument("--seed", type=int, default=0, help="the benchmark seed of pair 0; pair i runs at seed + i")
    args = parser.parse_args(argv)
    if args.pairs < 2 or args.seed < 0:
        parser.error("--pairs must be at least 2 and --seed nonnegative")
    trees = (args.tree_a.resolve(), args.tree_b.resolve())
    print(f"{args.workload}: {args.pairs} pairs, A {trees[0]}, B {trees[1]}")
    print("\n".join(report(paired_runs(trees, args.workload, args.pairs, args.seed), args.seed)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
