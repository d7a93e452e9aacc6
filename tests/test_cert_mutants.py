"""tools/cert_mutants.py: its table is deterministic, and the faults it finds caught stay caught by the same rows."""

from pathlib import Path

import crbkit.cli
from crbkit.verify import THEOREM_IDS
from util import load_tool

TOOL = Path(__file__).resolve().parents[1] / "tools" / "cert_mutants.py"

# mutant -> the rows that fail under it, on the short sweep as on the full one
CAUGHT = {
    "restricted_information*1.01": {"poincare", "equivalence"},
    "pinv*1.01": {"trace_bound", "equivalence"},
    "pinv_eigenvalues*1.01": {"eigen_dominance"},
}


def test_a_short_mutant_table_is_deterministic_and_keeps_its_caught_faults_caught():
    # three suite matrices and one J with a small rank gap under every mutant, twice; about 0.7 s on a 2-core host
    tool = load_tool(TOOL)
    short = [["certify", "--count", "3", "--seed", "0"], tool.SWEEP[-2]]
    assert short[1][-1] == "{tmp}/gap_n3.matx"
    first = tool.table(short)
    assert first == tool.table(short)
    header, *lines, total = first
    assert header.split()[1:-2] == list(THEOREM_IDS)
    assert [line.split()[0] for line in lines] == list(tool.MUTANTS)
    assert total.endswith(f" over {len(tool.MUTANTS)} mutants and 2 commands")
    failed = {}
    for line in lines:
        mutant, *cells, exits, _ = line.split()
        failed[mutant] = ({row for row, cell in zip(THEOREM_IDS, cells) if cell != "-"}, exits)
    assert failed["none"] == (set(), "0,0")
    for mutant, rows in CAUGHT.items():
        assert failed[mutant] == (rows, "4,4")


def test_every_mutant_of_the_factored_j_or_its_cutoff_reaches_the_suite(tmp_path):
    # a suite's J are factored by stage (ranked_svds) and every threshold is formed by _cutoff, so each of these
    # mutants changes a plain suite's table hash, and its own rows too, not only the fixed counterexample's: a stage
    # path that bypassed ranked_svds moved the hashes through the counterexample alone, and left every suite row
    tool = load_tool(TOOL)
    mutants = ["none", "sigma*0.99", "eigenbasis-rotated-3e-2", "rank-1", "cutoff*100"]
    argv = ["certify", "--count", "20", "--seed", "0"]
    _, *lines, _ = tool.table([argv], mutants)
    assert [line.split()[0] for line in lines] == mutants and len({line.split()[-1] for line in lines}) == 5
    suites = {}
    for index, mutant in enumerate(mutants):
        out = tmp_path / str(index)
        with tool.mutated(mutant):
            code, _, stderr = tool.sweep_run(crbkit.cli.main, argv, tmp_path, out)
        rows = (out / "certificates.csv").read_text().splitlines()[2:] if code != "3" else []
        suites[mutant] = (code, stderr, [row for row in rows if not row.startswith("counterexample,")])
    # one column fewer in the first suite J's range leaves its first sampled frame empty
    assert suites["rank-1"] == ("3", "error: certify matrix 0, eigen_dominance: certificate needs at least one case\n", [])
    assert all(suites[mutant] != suites["none"] for mutant in mutants[1:])
