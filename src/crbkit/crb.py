"""Cramer-Rao bounds under possibly singular Fisher information.

The unconstrained bound is the Moore-Penrose pseudoinverse of J, valid
for unbiased estimators whose bias stays flat across the null space; a
singular J is flagged because no finite-variance unbiased estimator
exists in that case. With a constraint f(theta) = 0 whose Jacobian has
null basis U, the bound becomes U (U'JU)^-1 U', finite exactly when the
evaluated stack of the Jacobian (constraint._evaluate) calls U'JU nonsingular.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constraint import ConstraintSpec, ConstraintStack, _evaluate
from .errors import NotMinimumConstraint
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


def bound_traces(stack: ConstraintStack) -> np.ndarray:
    """Trace of each constrained bound of an evaluated stack, the sum of 1/mu; +inf where none exists.
    mu is the spectrum of U'JU; as U has orthonormal columns, U (U'JU)^-1 U' has the eigenvalues 1/mu and m zeros."""
    traces = (1.0 / np.where(stack.utju_nonsingular[:, None], stack.utju_eigs, np.nan)).sum(axis=1)
    return np.where(stack.utju_nonsingular, traces, np.inf)


def constrained_crb(j, constraint) -> CrbReport:
    """Bound under one constraint, a Jacobian or a ConstraintSpec.

    Evaluates the stack [F] as evaluate_constraints does and forms
    U (U'J_rU)^-1 U' from its U and U'J_rU where its flags call U'J_rU
    nonsingular, with eigenvalues 1/mu read from the spectrum mu of U'J_rU
    and trace their sum, as bound_traces reads it; otherwise reports a
    nonexistent (infinite) bound. Raises NotMinimumConstraint for
    dependent rows and InvalidInput for an F that is not a finite (m, n) matrix.
    """
    f_jac = constraint.f_jac if isinstance(constraint, ConstraintSpec) else constraint
    (stack,), us, restricted = _evaluate([j], [[f_jac]])
    m = stack.f_jacs.shape[1]
    if not stack.full_rank_jacobian[0]:
        raise NotMinimumConstraint(f"Jacobian row rank {stack.row_rank[0]} below row count {m}; rows are dependent")
    if not stack.utju_nonsingular[0]:
        return CrbReport(bound=None, exists=False, trace=math.inf, eigenvalues=None)
    (bound,) = _bounds(us, restricted)
    return CrbReport(
        bound=SymMatrix(bound[0]),
        exists=True,
        trace=float(bound_traces(stack)[0]),
        eigenvalues=_freeze(np.concatenate([1.0 / stack.utju_eigs[0], np.zeros(m)])),
    )
