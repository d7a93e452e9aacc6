"""Which certificate rows catch which faults in crbkit: a fixed certify sweep under named mutants.

Usage:

    python3 tools/cert_mutants.py TREE

imports crbkit from TREE/src, writes the sweep's input files to a
temporary directory and runs each command of SWEEP in this one process
through crbkit.cli.main: first unmutated, then under each mutant of
MUTANTS. A mutant replaces one function or property by a faulty copy in
every crbkit module that holds it (`from .matlin import ranked_svds`
copies the name into the importing module), and is undone before the
next mutant.

It prints one line per mutant: for each certificate row (THEOREM_IDS of
the tree's crbkit.verify), the number of sweep commands whose
certificates.csv marks the row failed (- for none); the exit code of each
command; and one sha256 over every command's stdout, stderr and output
files, witnesses included, as tools/cli_digest.py's sweep_run gives them
(an escaped exception reads `raised`, its message and a `warning: ...`
line per warning added to stderr, the temporary directory read as {tmp}).
The last line is the sha256 of all lines. Two trees whose lines agree
caught the same faults with the same exit codes, messages, certificates
and witness bytes.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import sys
import tempfile
from pathlib import Path

import numpy as np

from cli_digest import _psd, read_files, sweep_run, write_inputs

# J whose least kept eigenvalue lies 20 to 40 times above the rank cutoff sigma_max n rank_tol of the
# sweep's --rank-tol 1e-3, so that a rule 100 times looser drops it; the suite's eigenvalues lie in [0.5, 2],
# far above any cutoff, so no rank-rule mutant can show there.
INPUTS = {
    "gap_n3.matx": _psd([1.0, 0.1, 0.0], 1),
    "gap_n5.matx": _psd([2.0, 1.5, 0.2, 0.0, 0.0], 1),
}

SWEEP = [["certify", "--count", "20", "--seed", str(seed)] for seed in range(3)] + [
    ["certify", "--count", "20", "--rank-tol", "1e-3", "--input", f"{{tmp}}/{name}"] for name in INPUTS
]


def _everywhere(module: str, name: str, wrap):
    """Replace the function module.name by wrap(it) in every crbkit module that holds it; the undo list."""
    real = getattr(sys.modules[module], name)
    held = [m for key, m in list(sys.modules.items()) if key.startswith("crbkit") and getattr(m, name, None) is real]
    fake = wrap(real)
    for holder in held:
        setattr(holder, name, fake)
    return [(holder, name, real) for holder in held]


def _on_basis(change):
    """A mutant of ranked_svds, the factorization of every J (ranked_svd is its one-J case): every J factored as
    before, then change(basis) returned."""
    wrap = lambda real: lambda *a, **k: [change(basis) for basis in real(*a, **k)]
    return lambda: _everywhere("crbkit.matlin", "ranked_svds", wrap)


def _scaled_sigma(basis):
    eigenvalues = basis.eigenvalues.copy()
    eigenvalues[: basis.rank] *= 0.99
    return dataclasses.replace(basis, eigenvalues=eigenvalues, sigma=0.99 * basis.sigma)


def _rotated(basis):
    """J's eigenbasis times the sign-fixed q of qr(I + K), K skew with spectral norm 3e-2 (fixed per n)."""
    n, rank = basis.dim, basis.rank
    a = np.random.default_rng(n).standard_normal((n, n))
    skew = 3e-2 * (a - a.T) / np.linalg.norm(a - a.T, 2)
    q, r = np.linalg.qr(np.eye(n) + skew)
    u = np.hstack([basis.u_r, basis.u_bar]) @ (q * np.sign(np.diag(r)))
    return dataclasses.replace(basis, u_r=u[:, :rank], u_bar=u[:, rank:])


def _rank_down(basis):
    """The least kept eigenvalue moved to the null space."""
    if basis.rank == 0:
        return basis
    r = basis.rank - 1
    u_bar = np.hstack([basis.u_r[:, r:], basis.u_bar])
    return dataclasses.replace(basis, u_r=basis.u_r[:, :r], sigma=basis.sigma[:r], u_bar=u_bar, rank=r)


def _property(name: str, factor: float):
    """A mutant of the cached RankedSvd property name: its value times factor, of the same type."""

    def apply():
        from crbkit.matlin import RankedSvd, SymMatrix

        real = RankedSvd.__dict__[name]
        scaled = lambda value: SymMatrix(factor * value.entries) if isinstance(value, SymMatrix) else factor * value
        setattr(RankedSvd, name, property(lambda basis: scaled(real.func(basis))))
        return [(RankedSvd, name, real)]

    return apply


def _restricted_scaled(real):
    def restricted_information(*args, **kwargs):
        restricted, mu = real(*args, **kwargs)
        return [1.01 * one for one in restricted], [1.01 * one for one in mu]

    return restricted_information


# mutant name -> a function that applies it and returns what to restore, as (owner, attribute, original)
MUTANTS = {
    "none": lambda: [],
    "sigma*0.99": _on_basis(_scaled_sigma),
    "eigenbasis-rotated-3e-2": _on_basis(_rotated),
    "restricted_information*1.01": lambda: _everywhere("crbkit.matlin", "restricted_information", _restricted_scaled),
    "pinv*1.01": _property("pinv", 1.01),
    "pinv_eigenvalues*1.01": _property("pinv_eigenvalues", 1.01),
    "cutoff*100": lambda: _everywhere("crbkit.matlin", "_cutoff", lambda real: lambda *a: 100 * real(*a)),
    "rank-1": _on_basis(_rank_down),
}


@contextlib.contextmanager
def mutated(name: str):
    """MUTANTS[name] applied for the body of the with block, then undone."""
    undo = MUTANTS[name]()
    try:
        yield
    finally:
        for owner, attribute, original in reversed(undo):
            setattr(owner, attribute, original)


def run(directory: Path, out: Path, argv: list[str], digest) -> tuple[str, set[str]]:
    """Run one command with its output in out, adding its streams and files to digest; its exit and failed rows."""
    from crbkit.cli import main

    code, stdout, stderr = sweep_run(main, argv, directory, out)
    for stream in (stdout, stderr):
        digest.update(stream.encode() + b"\0")
    files = read_files(out)
    for path, data in files.items():
        digest.update(f"{path}\0".encode() + data + b"\0")
    lines = files["certificates.csv"].decode("ascii").splitlines()[2:] if "certificates.csv" in files else []
    return code, {line.split(",")[0] for line in lines if line.split(",")[1] == "false"}


def table(sweep=SWEEP, mutants=MUTANTS) -> list[str]:
    """The line of each mutant over sweep, run over freshly written inputs, after a header; then the total."""
    from crbkit.verify import THEOREM_IDS as rows

    lines = [" ".join([f"{'mutant':<28}", *rows, "exits", "sha256"])]
    with tempfile.TemporaryDirectory() as name:
        directory = Path(name)
        write_inputs(directory, INPUTS)
        for index, mutant in enumerate(mutants):
            digest, exits, failed = hashlib.sha256(), [], {row: 0 for row in rows}
            with mutated(mutant):
                for command, argv in enumerate(sweep):
                    code, failing = run(directory, directory / f"out-{index}-{command}", argv, digest)
                    exits.append(code)
                    for row in failing:
                        failed[row] += 1
            cells = [f"{failed[row] or '-':>{len(row)}}" for row in rows]
            lines.append(" ".join([f"{mutant:<28}", *cells, ",".join(exits), digest.hexdigest()[:16]]))
    total = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    return lines + [f"total {total} over {len(mutants)} mutants and {len(sweep)} commands"]


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.path.insert(0, str(Path(sys.argv[1]).resolve() / "src"))
    import crbkit.cli  # noqa: F401  every module that holds a mutated name is loaded before the first mutant

    print("\n".join(table()))
