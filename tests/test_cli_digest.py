"""tools/cli_digest.py: the sweep that compares two source trees gives each command the same line every run."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "cli_digest.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("cli_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_three_commands_digest_alike_in_two_temporary_directories():
    # each run writes its inputs and outputs under a new temporary directory, which stdout and stderr name
    tool = load_tool()
    assert len(tool.COMMANDS) >= 58
    picked = [
        ["certify", "--count", "20", "--seed", "5000"],
        ["certify", "--count", "5", "--seed", "3", "--margin-tol", "1e-320"],
        ["analyze", "--input", "{tmp}/indefinite_1e-6.matx"],
    ]
    assert all(argv in tool.COMMANDS for argv in picked)
    first, second = tool.digest(picked), tool.digest(picked)
    assert first == second
    assert [line.split()[0] for line in first[:3]] == ["exit=0", "exit=4", "exit=2"]
    assert first[1].split()[3].startswith("files=47:")  # certificates, manifest and 45 witness files
    assert first[3].startswith("total ") and first[3].endswith(" over 3 commands")
