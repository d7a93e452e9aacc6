"""tools/ab_bench.py: paired runs alternate which tree goes first, and their metrics are read and summed up as the
gain rule reads them. The benchmark itself never runs here: its subprocess is replaced by canned JSON lines."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from util import load_tool

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "ab_bench.py"


def canned(values: dict, correct=True) -> str:
    """run.py's stdout: its summary lines, then the JSON line of the metrics."""
    metrics = {name: {"value": value, "unit": "-"} for name, value in values.items()}
    line = {"correct": correct, "attempted": 40, "failed": 0, "metrics": metrics}
    return "certify_suite: 40 jobs\n  job_p50_s = 0.02\n" + json.dumps(line) + "\n"


def fake_benchmark(monkeypatch, tool, job_p50_s, code=0, correct=True):
    """Replace the tool's subprocess.run: tree a/ reads 21 ms per job, tree b/ job_p50_s[pair]; the calls' argv."""
    calls = []

    def run(argv, cwd, capture_output, text):
        calls.append(argv)
        pair = int(argv[argv.index("--seed") + 1]) - 5
        side = Path(cwd).name
        p50 = 0.021 + 0.0001 * pair if side == "a" else job_p50_s[pair]
        values = {"setup_s": 0.26, "items_per_s": 20 / p50, "job_p50_s": p50, "peak_rss_mb": 40.0 + (side == "b")}
        return subprocess.CompletedProcess(argv, code, canned(values, correct), "worker exited with code 1\n")

    monkeypatch.setattr(tool.subprocess, "run", run)
    return calls


def test_pairs_alternate_and_the_summary_reads_as_the_gain_rule_does(monkeypatch, capsys, tmp_path):
    tool = load_tool(TOOL)
    b_p50 = [0.020] * 9 + [0.0225]  # B better in 9 of 10 pairs
    calls = fake_benchmark(monkeypatch, tool, b_p50)
    trees = [tmp_path / "a", tmp_path / "b"]
    assert tool.main([str(trees[0]), str(trees[1]), "certify_suite", "--pairs", "10", "--seed", "5"]) == 0
    # each tree's own run.py, at the benchmark's length, untraced; A first in even pairs, B in odd ones
    assert len(calls) == 20
    for i, argv in enumerate(calls):
        pair, tree = i // 2, trees[(i + i // 2) % 2]
        assert argv == [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", "certify_suite",
                        "--seed", str(5 + pair), "--seconds", "30", "--trace", "0"]
    header, *pairs, setup, items, p50, rss = capsys.readouterr().out.splitlines()
    assert header == f"certify_suite: 10 pairs, A {trees[0]}, B {trees[1]}"
    assert len(pairs) == 10 and pairs[1].startswith("pair 1 seed 6 (B first): setup_s 0.26 -> 0.26, ")
    assert "job_p50_s 0.0211 -> 0.02," in pairs[1]
    # A's job_p50_s run 21.0 to 21.9 ms: median 21.45 ms, quartiles 21.225 and 21.675 ms
    assert p50 == ("job_p50_s (lower is better): B better in 9/10; median A 0.02145, B 0.02 (-6.8%); "
                   "A IQR 0.00045; B better beyond A's IQR: yes")
    assert items.startswith("items_per_s (higher is better): B better in 9/10; ")
    assert setup.startswith("setup_s (lower is better): B better in 0/10; ") and setup.endswith(": no")
    assert rss.startswith("peak_rss_mb (lower is better): B better in 0/10; median A 40, B 41 (+2.5%); A IQR 0;")


def test_a_failed_or_incorrect_run_stops_the_tool(monkeypatch, tmp_path):
    tool = load_tool(TOOL)
    trees = [str(tmp_path / "a"), str(tmp_path / "b"), "certify_suite"]
    fake_benchmark(monkeypatch, tool, [0.02] * 2, code=2)
    with pytest.raises(SystemExit, match="exited with code 2\nworker exited with code 1"):
        tool.main(trees)
    fake_benchmark(monkeypatch, tool, [0.02] * 2, correct=False)
    with pytest.raises(SystemExit, match="read incorrect"):
        tool.main(trees)
    with pytest.raises(SystemExit):
        tool.main(trees + ["--pairs", "1"])
