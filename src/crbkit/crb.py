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
from .errors import RankDeficientConstraint
from .matlin import SymMatrix, _bounds, _freeze, as_ranked_svd


@dataclass(frozen=True, eq=False)
class CrbReport:
    """Covariance lower bound.

    eigenvalues is the bound's spectrum, a read-only descending array.
    When exists is False (restricted information singular) the bound and
    its eigenvalues are absent and trace is +inf. singular_fim_warning
    marks a singular J on the unconstrained route, where no
    finite-variance unbiased estimator exists.
    """

    bound: SymMatrix | None
    exists: bool
    trace: float
    eigenvalues: np.ndarray | None
    singular_fim_warning: bool = False


def unconstrained_crb(j) -> CrbReport:
    """Pseudoinverse bound of J; flags singular J via singular_fim_warning.

    A RankedSvd's pseudoinverse is reused.
    """
    basis = as_ranked_svd(j)
    return CrbReport(
        bound=basis.pinv,
        exists=True,
        trace=basis.pinv.trace,
        eigenvalues=basis.pinv_eigenvalues,
        singular_fim_warning=basis.rank < basis.dim,
    )


def _bound_spectra(stack: ConstraintStack) -> np.ndarray:
    """The nonzero eigenvalues 1/mu of each bound, descending, (k, n - m); nan where none exists.

    mu is the spectrum of U'JU; as U has orthonormal columns, U (U'JU)^-1 U' has these and m zeros.
    """
    return 1.0 / np.where(stack.utju_nonsingular[:, None], stack.utju_eigs, np.nan)


def bound_traces(stack: ConstraintStack) -> list[float]:
    """Trace of each constrained bound of an evaluated stack, the sum of 1/mu; +inf where none exists."""
    traces = _bound_spectra(stack).sum(axis=1)
    return [float(trace) if ok else math.inf for trace, ok in zip(traces, stack.utju_nonsingular)]


def constrained_crb(j, constraint) -> CrbReport:
    """Bound under one constraint, a Jacobian or a ConstraintSpec.

    Computes U (U'JU)^-1 U' over the constraint's null basis U when the
    restricted information is nonsingular, with its trace and eigenvalues
    read from the spectrum of U'JU; otherwise reports a nonexistent
    (infinite) bound. Raises RankDeficientConstraint when the Jacobian's
    rows are dependent.
    """
    f_jac = constraint.f_jac if isinstance(constraint, ConstraintSpec) else np.asarray(constraint, dtype=float)
    stack = evaluate_constraints(j, f_jac[None])
    if not stack.full_rank_jacobian[0]:
        raise RankDeficientConstraint(stack.row_rank[0], f_jac.shape[0])
    if not stack.utju_nonsingular[0]:
        return CrbReport(bound=None, exists=False, trace=math.inf, eigenvalues=None)
    bound = _bounds(stack.u, stack.restricted)[0]
    lam = _bound_spectra(stack)[0]
    return CrbReport(
        bound=SymMatrix(bound),
        exists=True,
        trace=float(lam.sum()),
        eigenvalues=_freeze(np.concatenate([lam, np.zeros(f_jac.shape[0])])),
    )
