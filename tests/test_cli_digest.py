"""tools/cli_digest.py: the sweep that compares two source trees gives each command the same line every run."""

import warnings
from pathlib import Path

import crbkit.cli
from util import load_tool

TOOL = Path(__file__).resolve().parents[1] / "tools" / "cli_digest.py"


def test_three_commands_digest_alike_in_two_temporary_directories():
    # each run writes its inputs and outputs under a new temporary directory, which stdout and stderr name
    tool = load_tool(TOOL)
    assert len(tool.COMMANDS) == 128
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


def test_a_sweep_goes_on_past_a_command_that_argparse_refuses():
    # argparse exits 2 through SystemExit, which the runner reads as "argparse"; the next command still runs
    lines = load_tool(TOOL).digest([["certify", "--count", "x"], ["certify", "--input", "{tmp}/zero.matx"]])
    assert [line.split()[0] for line in lines[:2]] == ["exit=argparse", "exit=2"]
    assert lines[2].startswith("total ") and lines[2].endswith(" over 2 commands")


def test_the_runner_reads_an_escaped_exception_and_records_each_warning():
    def main(argv):
        print("out")
        for _ in range(2):  # each warning is recorded, however often it repeats
            warnings.warn("again", RuntimeWarning)
        raise ValueError(" ".join(argv))

    tool = load_tool(TOOL)
    code, stdout, stderr, caught = tool.run(main, ["a", "b"])
    assert code.startswith("raised: ValueError: a b at test_cli_digest.py:")
    assert (stdout, stderr, caught) == ("out\n", "", ["RuntimeWarning: again"] * 2)
    # a sweep hashes the exception's message and each warning as lines of stderr, the directory read as {tmp}
    code, stdout, stderr = tool.sweep_run(main, ["{tmp}/x"], Path("/d"), Path("/d/out"))
    assert code == "raised"
    assert stderr.startswith("ValueError: {tmp}/x --out {tmp}/out at test_cli_digest.py:")
    assert stderr.endswith("\nwarning: RuntimeWarning: again\nwarning: RuntimeWarning: again\n")


def test_the_verdict_line_reads_exit_codes_and_verdicts_but_no_margin(monkeypatch):
    # a main that writes every worst_margin as 0 changes the total and leaves the verdict line as it was; one that
    # writes every passed column as false changes both
    tool = load_tool(TOOL)
    picked = [["certify", "--count", "5", "--seed", "3"], ["analyze", "--input", "{tmp}/rank3_scale1.matx"]]
    first = tool.digest(picked)
    real = crbkit.cli.main

    def rewritten(column, value):
        def main(argv):
            code = real(argv)
            path = Path(argv[argv.index("--out") + 1]) / "certificates.csv"
            if path.exists():  # the version line and the head line, then one row per theorem
                lines = path.read_text().splitlines()
                rows = [row.split(",") for row in lines[2:]]
                rows = [",".join(row[:column] + [value] + row[column + 1:]) for row in rows]
                path.write_text("\n".join(lines[:2] + rows) + "\n")
            return code

        monkeypatch.setattr(crbkit.cli, "main", main)
        return tool.digest(picked)

    margins, verdicts = rewritten(3, "0"), rewritten(1, "false")
    assert [line.split()[0] for line in first[2:]] == ["total", "verdicts"] and first[3].endswith(" over 2 commands")
    assert margins[2] != first[2] and margins[3] == first[3]
    assert verdicts[2] != first[2] and verdicts[3] != first[3]


def test_the_whole_sweeps_verdict_line_is_pinned():
    # the exit codes and certify verdicts of every command of the sweep; this line reads the same on the default,
    # Haswell, Sandybridge and Prescott OpenBLAS kernels, where the total line, which hashes every margin, does not
    tool = load_tool(TOOL)
    lines = tool.digest(tool.COMMANDS)
    assert lines[-1] == "verdicts f7c686f345af3a5654e06a4094dd9db56fb186ed6f895f42cd1c73f529f0e8a5 over 128 commands"
