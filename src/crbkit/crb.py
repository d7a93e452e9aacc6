"""Cramer-Rao bounds under possibly singular Fisher information.

The unconstrained bound is the Moore-Penrose pseudoinverse of J, valid
for unbiased estimators whose bias stays flat across the null space; a
singular J is flagged because no finite-variance unbiased estimator
exists in that case. With a constraint f(theta) = 0 whose Jacobian has
null basis U, the bound becomes U (U'JU)^-1 U' and is finite exactly
when the restricted information U'JU is nonsingular.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constraint import ConstraintSpec, ConstraintStack, evaluate_constraints
from .errors import InvalidInput, RankDeficientConstraint
from .matlin import DEFAULT_RANK_TOL_REL, EigenSpectrum, SymMatrix, _bounds, as_ranked_svd


@dataclass(frozen=True, eq=False)
class CrbReport:
    """Covariance lower bound with provenance.

    When exists is False (restricted information singular) the bound and
    its eigenvalues are absent and trace is +inf. constraint_used is
    "none" for the unconstrained bound, "affine" when the constraint
    carried an offset, and "jacobian-only" otherwise. u_projector is the
    orthogonal projector onto the tangent space the bound lives on; it is
    basis invariant. singular_fim_warning marks a singular J on the
    unconstrained route, where no finite-variance unbiased estimator
    exists.
    """

    bound: SymMatrix | None
    exists: bool
    trace: float
    eigenvalues: EigenSpectrum | None
    constraint_used: str
    u_projector: SymMatrix
    singular_fim_warning: bool = False


def unconstrained_crb(j, rank_tol_rel: float = DEFAULT_RANK_TOL_REL) -> CrbReport:
    """Pseudoinverse bound of J; flags singular J via singular_fim_warning.

    j may be a RankedSvd, whose pseudoinverse is then reused.
    """
    basis = as_ranked_svd(j, rank_tol_rel)
    return CrbReport(
        bound=basis.pinv,
        exists=True,
        trace=basis.pinv.trace,
        eigenvalues=basis.pinv_eigenvalues,
        constraint_used="none",
        u_projector=SymMatrix(basis.range_projector()),
        singular_fim_warning=basis.rank < basis.dim,
    )


def _resolve_constraint(constraint) -> tuple[np.ndarray, str]:
    if isinstance(constraint, ConstraintSpec):
        label = "affine" if constraint.offset is not None else "jacobian-only"
        return constraint.f_jac, label
    return np.asarray(constraint, dtype=float), "jacobian-only"


def _bound_spectra(stack: ConstraintStack) -> np.ndarray:
    """The nonzero eigenvalues 1/mu of each bound, descending, (k, n - m); nan where none exists.

    mu is the spectrum of U'JU; as U has orthonormal columns, U (U'JU)^-1 U' has these and m zeros.
    """
    return 1.0 / np.where(stack.utju_nonsingular[:, None], stack.utju_eigs, np.nan)


def bound_traces(stack: ConstraintStack) -> list[float]:
    """Trace of each constrained bound of an evaluated stack, the sum of 1/mu; +inf where none exists."""
    traces = _bound_spectra(stack).sum(axis=1)
    return [float(trace) if ok else math.inf for trace, ok in zip(traces, stack.utju_nonsingular)]


def constrained_crbs(
    j, constraints, rank_tol_rel: float = DEFAULT_RANK_TOL_REL
) -> list[CrbReport]:
    """Bounds under constraints of one shape, from stacked LAPACK calls.

    Each constraint is a Jacobian or a ConstraintSpec; j may be a
    RankedSvd. Computes U (U'JU)^-1 U' over each constraint's null basis U
    when the restricted information is nonsingular, with its trace and
    eigenvalues read from the spectrum of U'JU; otherwise reports a
    nonexistent (infinite) bound. Raises RankDeficientConstraint when a
    Jacobian's rows are dependent.
    """
    basis = as_ranked_svd(j, rank_tol_rel)
    resolved = [_resolve_constraint(c) for c in constraints]
    shapes = sorted({f_jac.shape for f_jac, _ in resolved})
    if len(shapes) != 1 or len(shapes[0]) != 2 or shapes[0][1] != basis.dim:
        raise InvalidInput(
            f"constraint Jacobian shapes {shapes} are not one shape (m, {basis.dim}) matching J"
        )
    stack = evaluate_constraints(basis, np.stack([f_jac for f_jac, _ in resolved]), rank_tol_rel)
    if not np.all(stack.full_rank_jacobian):
        raise RankDeficientConstraint(min(stack.row_rank), shapes[0][0])
    exists = stack.utju_nonsingular
    bounds = _bounds(stack.u, stack.restricted, exists)
    zeros = np.zeros(shapes[0][0])
    reports = []
    for (_, used), u, bound, lam, ok in zip(resolved, stack.u, bounds, _bound_spectra(stack), exists):
        reports.append(CrbReport(
            bound=SymMatrix(bound) if ok else None,
            exists=bool(ok),
            trace=float(lam.sum()) if ok else math.inf,
            eigenvalues=EigenSpectrum(np.concatenate([lam, zeros])) if ok else None,
            constraint_used=used,
            u_projector=SymMatrix(u @ u.T),
        ))
    return reports


def constrained_crb(
    j, constraint, rank_tol_rel: float = DEFAULT_RANK_TOL_REL
) -> CrbReport:
    """Bound under one constraint, a Jacobian or a ConstraintSpec.

    The k = 1 call of constrained_crbs.
    """
    return constrained_crbs(j, [constraint], rank_tol_rel)[0]


def crb_exists(j, constraint, rank_tol_rel: float = DEFAULT_RANK_TOL_REL) -> bool:
    """True iff the constrained bound is finite: U'JU numerically nonsingular."""
    return constrained_crb(j, constraint, rank_tol_rel).exists
