"""tools/cert_mutants.py: its table is deterministic, and the faults it finds caught stay caught by the same rows."""

from pathlib import Path

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
