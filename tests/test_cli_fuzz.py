"""tools/cli_fuzz.py: random inputs end in a documented exit code and one error line, and runs rerun bit for bit."""

from pathlib import Path

import numpy as np

from util import load_tool

TOOL = Path(__file__).resolve().parents[1] / "tools" / "cli_fuzz.py"


def test_three_hundred_fuzzed_commands_break_no_promise():
    # each exit 2 or 3 prints one error: line, nothing escapes main or warns, and each run that writes its
    # outputs (exit 0 or 4) reruns from its manifest.cfg to the same bytes; about 1.1 s on a 2-core host
    exits, violations = load_tool(TOOL).fuzz(20, 300)
    assert violations == []
    assert set(exits) <= {0, 2, 3, 4, "argparse"}
    assert sum(exits.values()) == 300
    assert exits[0] >= 50 and exits[2] >= 100 and exits["argparse"] >= 5  # the sweep reaches every kind of end


def test_a_seed_draws_the_same_commands_and_files(tmp_path):
    tool = load_tool(TOOL)
    drawn = []
    for name in ("a", "b"):
        directory = tmp_path / name
        directory.mkdir()
        rng = np.random.default_rng(3)
        argvs = [" ".join(tool.draw_case(rng, directory, i)).replace(str(directory), "{tmp}") for i in range(60)]
        drawn.append((argvs, {p.name: p.read_bytes() for p in sorted(directory.iterdir())}))
    assert drawn[0] == drawn[1]
    assert len(drawn[0][1]) >= 30
