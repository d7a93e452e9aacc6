"""tools/ab_time.py: two trees load side by side in one process and their paired job times are compared."""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "ab_time.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("ab_time", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_repo_against_itself_on_both_workloads(capsys):
    tool = load_tool()
    for workload in tool.WORKLOADS:
        assert tool.main([str(ROOT), str(ROOT), workload, "--jobs", "2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == f"{workload}: 2 pairs after {tool.WARMUP} warm-up pairs"
        assert lines[1].startswith(f"A {ROOT}: median ") and lines[2].startswith(f"B {ROOT}: median ")
        assert lines[3].startswith("median paired ratio B/A ")
    # the copies are gone from the process, and crbkit itself was never replaced
    assert not [name for name in sys.modules if name.split(".")[0] in ("crbkit_a", "crbkit_b")]
    result = tool.compare(ROOT, ROOT, "certify", 1)
    assert set(result) == {"median_a_s", "median_b_s", "median_ratio", "b_faster_share"}
    assert result["median_a_s"] > 0 and result["median_ratio"] > 0
