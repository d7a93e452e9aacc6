"""tools/ab_time.py: two trees load side by side in one process, run the benchmark's jobs, pass its output checks,
and their paired job times are compared."""

import shutil
import sys
from pathlib import Path

import pytest

from util import load_tool

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "ab_time.py"


def test_the_repo_against_itself_on_both_workloads(capsys):
    # every workload of the benchmark, by its name there
    tool = load_tool(TOOL)
    assert list(tool.WORKLOADS) == ["certify_suite", "experiment_wide", "mc_blind_channel"]
    for workload in tool.WORKLOADS:
        assert tool.main([str(ROOT), str(ROOT), workload, "--jobs", "2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == f"{workload}: 2 pairs after {tool.WARMUP} warm-up pairs"
        assert lines[1].startswith(f"A {ROOT}: median ") and lines[2].startswith(f"B {ROOT}: median ")
        assert lines[3].startswith("median paired ratio B/A ")
    # the copies are gone from the process, and crbkit itself was never replaced
    assert not [name for name in sys.modules if name.split(".")[0] in ("crbkit_a", "crbkit_b")]
    result = tool.compare(ROOT, ROOT, "certify_suite", 1)
    assert set(result) == {"median_a_s", "median_b_s", "median_ratio", "b_faster_share"}
    assert result["median_a_s"] > 0 and result["median_ratio"] > 0


def test_a_tree_whose_outputs_fail_the_workload_check_is_refused(tmp_path):
    # 19 sampled constraints per suite matrix: every certificate passes, but trace_bound counts 380 cases
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "src" / "crbkit" / "cli.py"
    text = cli.read_text(encoding="utf-8")
    assert "\nCERTIFY_CONSTRAINTS_PER_MATRIX = 20\n" in text
    cli.write_text(text.replace("CERTIFY_CONSTRAINTS_PER_MATRIX = 20", "CERTIFY_CONSTRAINTS_PER_MATRIX = 19"), "utf-8")
    with pytest.raises(SystemExit, match="trace_bound n_cases 380, expected 400"):
        load_tool(TOOL).compare(ROOT, tmp_path, "certify_suite", 1)
    assert not [name for name in sys.modules if name.split(".")[0] in ("crbkit_a", "crbkit_b")]
