"""Certified numerical checks of the bound inequalities.

Each verifier returns a TheoremCertificate whose worst_margin is the
most-violated signed slack across the cases it examined: the certificate
passes exactly when worst_margin >= -margin_tol, and failing cases are
kept as replayable witnesses holding the input matrices.

Checks covered:
  trace_bound      tr(constrained CRB) >= tr(pinv J) for minimum constraints
  eigen_dominance  sorted eigenvalues of V (V'JV)^-1 V' dominate those of pinv J
  poincare         sorted eigenvalues of V'JV are dominated by those of J
  equivalence      every full-row-rank F annihilating the range basis
                   reproduces the pseudoinverse bound
  min_rank         fewer than n - rank(J) constraints always leave U'JU
                   singular; n - rank(J) suffice via the optimal constraint
  counterexample   a fixed 4x4 case where the matrix-order comparison with
                   pinv J fails even though trace and eigenvalue dominance hold
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .constraint import (
    ConstraintSpec,
    ConstraintStack,
    check_minimum_constraint,
    evaluate_constraints,
    optimal_affine_constraint,
)
from .crb import bound_traces
from .errors import (
    InvalidInput,
    NotMinimumConstraint,
    RankDeficientConstraint,
    SingularRestriction,
)
from .matlin import (
    DEFAULT_RANK_TOL_REL,
    SymMatrix,
    _bounds,
    as_ranked_svd,
    as_sym_matrix,
    eigvals_desc,
    nonsingular,
    orthonormal_columns,
    ranked_svd,
    restricted_information,
    seed_sequence,
)
from .matx import dump_matrix, format_float

DEFAULT_MARGIN_TOL = 1e-9

# Non-PSD threshold for the counterexample: the difference matrix must
# have an eigenvalue at least this far below zero.
COUNTEREXAMPLE_NEG_EIG = 1e-6

THEOREM_IDS = (
    "trace_bound",
    "eigen_dominance",
    "poincare",
    "equivalence",
    "min_rank",
    "counterexample",
)

ORTHONORMAL_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class FailingCase:
    """One case that violated its inequality, with replayable inputs."""

    label: str
    margin: float
    matrices: tuple[tuple[str, np.ndarray], ...]

    def as_text(self) -> str:
        parts = [f"label: {self.label}", f"margin: {format_float(self.margin)}"]
        for name, arr in self.matrices:
            parts.append(f"{name}:")
            parts.append(dump_matrix(arr).rstrip("\n"))
        return "\n".join(parts) + "\n"


@dataclass(frozen=True, eq=False)
class TheoremCertificate:
    """Aggregated outcome of one inequality over n_cases cases.

    passed iff worst_margin >= -margin_tol iff witnesses is empty. detail
    is free text for a headline number, e.g. the counterexample's most
    negative eigenvalue.
    """

    theorem_id: str
    passed: bool
    n_cases: int
    worst_margin: float
    witnesses: tuple[FailingCase, ...] = ()
    detail: str = ""


def _certify(
    theorem_id: str,
    margins: list[float],
    case: Callable[[int], tuple[str, dict[str, np.ndarray]]],
    margin_tol: float,
    detail: str = "",
) -> TheoremCertificate:
    """case(i) gives the label and input matrices of case i; it is called for failing margins only."""
    if theorem_id not in THEOREM_IDS:
        raise InvalidInput(f"unknown theorem id {theorem_id!r}")
    if not margins:
        raise InvalidInput("certificate needs at least one case")
    witnesses = []
    for i, margin in enumerate(margins):
        if margin < -margin_tol:
            label, mats = case(i)
            witnesses.append(FailingCase(label=label, margin=margin, matrices=tuple(mats.items())))
    worst = float(min(margins))
    return TheoremCertificate(
        theorem_id=theorem_id,
        passed=worst >= -margin_tol,
        n_cases=len(margins),
        worst_margin=worst,
        witnesses=tuple(witnesses),
        detail=detail,
    )


def merge_certificates(
    certs: list[TheoremCertificate], margin_tol: float = DEFAULT_MARGIN_TOL
) -> TheoremCertificate:
    """Fold same-theorem certificates into one, keeping all witnesses."""
    if not certs:
        raise InvalidInput("nothing to merge")
    theorem_id = certs[0].theorem_id
    if any(c.theorem_id != theorem_id for c in certs):
        raise InvalidInput("cannot merge certificates of different theorems")
    worst = min(c.worst_margin for c in certs)
    witnesses = tuple(w for c in certs for w in c.witnesses)
    detail = next((c.detail for c in certs if c.detail), "")
    return TheoremCertificate(
        theorem_id=theorem_id,
        passed=worst >= -margin_tol,
        n_cases=sum(c.n_cases for c in certs),
        worst_margin=worst,
        witnesses=witnesses,
        detail=detail,
    )


def _check_orthonormal(v: np.ndarray, name: str) -> None:
    """v is a tall matrix or a (k, n, r) stack of them, with orthonormal columns."""
    if v.ndim not in (2, 3) or v.shape[-1] > v.shape[-2]:
        raise InvalidInput(f"{name} must be a tall matrix or a stack of them, got shape {v.shape}")
    gram = v.swapaxes(-1, -2) @ v
    if not np.allclose(gram, np.eye(v.shape[-1]), rtol=0.0, atol=ORTHONORMAL_TOL):
        raise InvalidInput(f"{name} columns are not orthonormal")


def _evaluated_against(basis, stack: ConstraintStack) -> ConstraintStack:
    """stack, if it was evaluated against the J of basis with its rank_tol_rel."""
    other = stack.basis
    if other.rank_tol_rel != basis.rank_tol_rel or not np.array_equal(other.matrix, basis.matrix):
        raise InvalidInput("constraint stack was evaluated against another J or rank_tol_rel")
    return stack


def verify_trace_bound(
    j,
    specs: list[ConstraintSpec] | ConstraintStack,
    margin_tol: float = DEFAULT_MARGIN_TOL,
    rank_tol_rel: float = DEFAULT_RANK_TOL_REL,
) -> TheoremCertificate:
    """Check tr(constrained CRB) >= tr(pinv J) for minimum constraints.

    specs is a list of ConstraintSpecs, checked and bounded in one stacked
    evaluation, or a ConstraintStack evaluated against J (as
    sample_minimum_stack returns it), whose null bases and U'JU are used
    as they are. j may be a RankedSvd. Raises NotMinimumConstraint when
    some constraint fails its preconditions, and InvalidInput for a stack
    evaluated against another J or rank_tol_rel.
    """
    basis = as_ranked_svd(j, rank_tol_rel)
    if isinstance(specs, ConstraintStack):
        stack = _evaluated_against(basis, specs)
        failed = np.flatnonzero(~stack.is_minimum).tolist()
    elif not specs:
        raise InvalidInput("certificate needs at least one case")
    else:
        # full row rank and rank F + rank J = n fix a minimum constraint's shape
        shape = (basis.dim - basis.rank, basis.dim)
        failed = [idx for idx, spec in enumerate(specs) if spec.f_jac.shape != shape]
        if not failed:
            stack = evaluate_constraints(basis, np.stack([spec.f_jac for spec in specs]), rank_tol_rel)
            failed = np.flatnonzero(~stack.is_minimum).tolist()
    if failed:
        idx = failed[0]
        spec = ConstraintSpec(specs.f_jacs[idx]) if isinstance(specs, ConstraintStack) else specs[idx]
        report = check_minimum_constraint(basis, spec, rank_tol_rel)
        raise NotMinimumConstraint(
            f"constraint {idx} ({spec.label or 'unlabeled'}) is not minimum: {report.details}"
        )
    base_trace = basis.pinv.trace
    margins = [trace - base_trace for trace in bound_traces(stack)]
    return _certify(
        "trace_bound", margins,
        lambda i: (f"constraint-{i}", {"j": basis.matrix.entries, "f_jac": stack.f_jacs[i]}), margin_tol,
    )


def verify_eigen_dominance(
    j,
    v,
    margin_tol: float = DEFAULT_MARGIN_TOL,
    rank_tol_rel: float = DEFAULT_RANK_TOL_REL,
) -> TheoremCertificate:
    """Check sorted-eigenvalue dominance of V (V'JV)^-1 V' over pinv J.

    v is one (n, r) frame or a (k, n, r) stack of frames, each with
    orthonormal columns, as many as rank(J), or a ConstraintStack
    evaluated against J, whose null bases are the frames and whose
    spectra of U'JU and flags are used as they are. Margins compare the
    nonzero eigenvalues, 1/mu of V'JV with 1/sigma of J, frame by frame;
    the zeros agree exactly and are not cases. Raises SingularRestriction
    when some V'JV is numerically singular, and InvalidInput for a stack
    evaluated against another J or rank_tol_rel. j may be a RankedSvd.
    """
    basis = as_ranked_svd(j, rank_tol_rel)
    entries = basis.matrix.entries
    if isinstance(v, ConstraintStack):
        stack = _evaluated_against(basis, v)
        frames, evals, exists = stack.u, stack.utju_eigs, stack.utju_nonsingular
    else:
        v_arr = np.asarray(v, dtype=float)
        _check_orthonormal(v_arr, "v")
        frames = v_arr.reshape((-1,) + v_arr.shape[-2:])
        evals = restricted_information(entries, frames)[1]
        exists = nonsingular(evals, rank_tol_rel)
    if not np.all(exists):
        raise SingularRestriction(f"V'JV of frame {np.argmin(exists)} is numerically singular")
    # 1/mu descends as mu ascends; past the wider of V and rank(J) both spectra are zero
    width = max(evals.shape[1], basis.rank)
    lam_lhs = np.pad(1.0 / evals, ((0, 0), (0, width - evals.shape[1])))
    margins = (lam_lhs - basis.pinv_eigenvalues.values[:width]).ravel().tolist()
    return _certify(
        "eigen_dominance", margins,
        lambda c: (f"eig-index-{c % width}", {"j": entries, "v": frames[c // width]}), margin_tol,
    )


def verify_poincare(
    j, v, margin_tol: float = DEFAULT_MARGIN_TOL
) -> TheoremCertificate:
    """Check lambda_i(V'JV) <= lambda_i(J) for i up to V's width."""
    sym = as_sym_matrix(j)
    v_arr = np.asarray(v, dtype=float)
    if v_arr.ndim != 2:
        raise InvalidInput(f"v must be a tall matrix, got shape {v_arr.shape}")
    _check_orthonormal(v_arr, "v")
    lam_restricted = restricted_information(sym.entries, v_arr[None])[1][0, ::-1]
    margins = (eigvals_desc(sym).values[: lam_restricted.size] - lam_restricted).tolist()
    return _certify(
        "poincare", margins, lambda i: (f"eig-index-{i}", {"j": sym.entries, "v": v_arr}), margin_tol
    )


def verify_constraint_equivalence(
    j,
    theta0,
    alt_jacobians: list[np.ndarray],
    margin_tol: float = DEFAULT_MARGIN_TOL,
    rank_tol_rel: float = DEFAULT_RANK_TOL_REL,
) -> TheoremCertificate:
    """Check that every Jacobian annihilating the range basis gives pinv J.

    Each alternative F must satisfy ||F U_r|| <= 1e-8 ||F|| and have full
    row rank n - rank(J); its bound U (U'JU)^-1 U', from one stacked
    evaluation, is compared with the pseudoinverse in Frobenius norm. The
    margin is minus that distance. The bound does not depend on theta0,
    which is only checked for length; j may be a RankedSvd. Raises
    SingularRestriction when some U'JU is numerically singular.
    """
    basis = as_ranked_svd(j, rank_tol_rel)
    n, m = basis.dim, basis.dim - basis.rank
    size = np.asarray(theta0, dtype=float).size
    if size != n:
        raise InvalidInput(f"theta0 must have length {n}, got {size}")
    if not alt_jacobians:
        raise InvalidInput("certificate needs at least one case")
    f_jacs = [np.asarray(f_jac, dtype=float) for f_jac in alt_jacobians]
    for idx, f_arr in enumerate(f_jacs):
        if f_arr.shape != (m, n):
            raise InvalidInput(f"alternative {idx} has shape {f_arr.shape}, expected ({m}, {n})")
        if float(np.linalg.norm(f_arr @ basis.u_r)) > 1e-8 * float(np.linalg.norm(f_arr)):
            raise InvalidInput(f"alternative {idx} does not annihilate the range basis")
    stack = evaluate_constraints(basis, np.stack(f_jacs), rank_tol_rel)
    if not np.all(stack.full_rank_jacobian):
        raise RankDeficientConstraint(min(stack.row_rank), m)
    if not np.all(stack.utju_nonsingular):
        raise SingularRestriction(f"U'JU of alternative {np.argmin(stack.utju_nonsingular)} is singular")
    bounds = _bounds(stack.u, stack.restricted, stack.utju_nonsingular)
    margins = [-float(np.linalg.norm(bound - basis.pinv.entries)) for bound in bounds]
    return _certify(
        "equivalence", margins,
        lambda i: (f"alternative-{i}", {"j": basis.matrix.entries, "f_jac": f_jacs[i]}), margin_tol,
    )


def verify_min_rank(
    j,
    trials: int,
    rng_seed: int,
    margin_tol: float = DEFAULT_MARGIN_TOL,
    rank_tol_rel: float = DEFAULT_RANK_TOL_REL,
) -> TheoremCertificate:
    """Check that n - rank(J) constraint rows are necessary and sufficient.

    Draws random full-row-rank Jacobians with m < n - rank(J) rows and
    requires the restricted information to be numerically singular every
    time; then requires nonsingularity for the optimal affine constraint
    with exactly n - rank(J) rows. Margins are expressed through the
    eigenvalue ratio of U'JU against the rank cutoff.
    """
    if trials < 1:
        raise InvalidInput(f"trials must be positive, got {trials}")
    basis = as_ranked_svd(j, rank_tol_rel)
    sym = basis.matrix
    n, rank = sym.dim, basis.rank
    if rank == n:
        raise InvalidInput("J is numerically nonsingular; the rank claim is vacuous")
    rng = np.random.default_rng(seed_sequence(rng_seed))
    # each trial draws its row count, then its Jacobian
    f_jacs = [rng.standard_normal((int(rng.integers(0, n - rank)), n)) for _ in range(trials)]
    f_jacs.append(optimal_affine_constraint(basis, np.zeros(n), rank_tol_rel).f_jac)

    # one evaluation per row count; the achievable constraint's n - rank rows are a count of their own
    rows = [f_jac.shape[0] for f_jac in f_jacs]
    evaluated = {}
    for m in dict.fromkeys(rows):
        members = [i for i, rows_i in enumerate(rows) if rows_i == m]
        stack = evaluate_constraints(basis, np.stack([f_jacs[i] for i in members]), rank_tol_rel)
        evaluated.update(zip(members, zip(stack.row_rank, stack.utju_eigs)))
    ratios = []  # smallest over largest eigenvalue of U'JU, clipped at 0; 1 when U'JU is 0 x 0
    for i, m in enumerate(rows):
        row_rank, evals = evaluated[i]
        if row_rank < m:
            raise RankDeficientConstraint(row_rank, m)
        low, high = (float(evals[0]), float(evals[-1])) if evals.size else (1.0, 1.0)
        ratios.append(max(0.0, low) / high if high > 0.0 else 0.0)
    # deficient constraints must leave U'JU singular (ratio below the cutoff); the achievable must not
    margins = [rank_tol_rel - ratio for ratio in ratios[:-1]] + [ratios[-1] - rank_tol_rel]
    labels = [f"deficient-{t}-rows-{m}" for t, m in enumerate(rows[:-1])] + ["achievable-at-min-rank"]
    return _certify(
        "min_rank", margins, lambda i: (labels[i], {"j": sym.entries, "f_jac": f_jacs[i]}), margin_tol
    )


def counterexample_check(margin_tol: float = DEFAULT_MARGIN_TOL) -> TheoremCertificate:
    """Fixed 4x4 case splitting matrix order from trace and eigenvalue order.

    With J = diag(1, 1, 0, 0) and a particular orthonormal V, the matrix
    D = V (V'JV)^-1 V' - pinv(J) is indefinite (its most negative
    eigenvalue is (1 - sqrt 5)/2), yet tr(D) >= 0 and sorted-eigenvalue
    dominance still holds. The certificate margins are: how far D's
    smallest eigenvalue sits below the -1e-6 indefiniteness threshold,
    tr(D), and the worst eigenvalue-dominance slack.
    """
    basis = ranked_svd(np.diag([1.0, 1.0, 0.0, 0.0]))
    j = basis.matrix.entries
    v = 0.5 * np.array([[-1.0, 1.0], [-1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
    lhs = _bounds(v[None], (v.T @ j @ v)[None], np.ones(1, dtype=bool))[0]
    diff = lhs - basis.pinv.entries  # both symmetric
    min_eig = float(np.linalg.eigvalsh(diff)[0])

    margin_indefinite = -COUNTEREXAMPLE_NEG_EIG - min_eig
    margin_trace = float(np.trace(diff))
    margin_dominance = verify_eigen_dominance(basis, v, margin_tol).worst_margin

    margins = [margin_indefinite, margin_trace, margin_dominance]
    labels = ("difference-indefinite", "trace-still-dominates", "eigenvalues-still-dominate")
    return _certify(
        "counterexample",
        margins,
        lambda i: (labels[i], {"j": j, "v": v}),
        margin_tol,
        detail=f"min_eigenvalue={format_float(min_eig)}",
    )


def random_rank_deficient_psd(
    n: int, rank: int, rng: np.random.Generator, eig_range: tuple[float, float] = (0.5, 2.0)
) -> SymMatrix:
    """Random PSD matrix with exactly n - rank zero eigenvalues.

    Built as Q diag(d) Q' with Q Haar orthogonal and the nonzero entries
    of d drawn uniformly from eig_range.
    """
    if n < 1 or rank < 0 or rank > n:
        raise InvalidInput(f"need 0 <= rank <= n, got rank={rank}, n={n}")
    lo, hi = eig_range
    if not 0.0 < lo <= hi:
        raise InvalidInput(f"eig_range must be positive and ordered, got {eig_range}")
    q = orthonormal_columns(rng.standard_normal((n, n)))
    d = np.zeros(n)
    d[:rank] = rng.uniform(lo, hi, rank)
    return SymMatrix((q * d) @ q.T)


def certificates_to_csv(certs: list[TheoremCertificate]) -> str:
    """Render certificates as CSV with the crb-kit v1 header."""
    lines = ["# crb-kit v1", "theorem_id,passed,n_cases,worst_margin,detail"]
    for cert in certs:
        passed = "true" if cert.passed else "false"
        lines.append(f"{cert.theorem_id},{passed},{cert.n_cases},{format_float(cert.worst_margin)},{cert.detail}")
    return "\n".join(lines) + "\n"


def write_certificate_witnesses(cert: TheoremCertificate, directory) -> list[str]:
    """Write each witness of a failed certificate as matx files plus a note.

    Returns the written file paths; passing certificates write nothing.
    """
    written: list[str] = []
    os.makedirs(directory, exist_ok=True)
    for idx, witness in enumerate(cert.witnesses):
        stem = f"{cert.theorem_id}_{idx:03d}"
        note_path = os.path.join(directory, f"{stem}.txt")
        with open(note_path, "w", encoding="ascii") as fh:
            fh.write(witness.as_text())
        written.append(note_path)
        for name, arr in witness.matrices:
            mat_path = os.path.join(directory, f"{stem}_{name}.matx")
            with open(mat_path, "w", encoding="ascii") as fh:
                fh.write(dump_matrix(arr))
            written.append(mat_path)
    return written
