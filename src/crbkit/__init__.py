"""crb-kit: Cramer-Rao bounds under singular Fisher information.

When the Fisher information matrix J is singular, no unbiased estimator
has finite variance, yet its Moore-Penrose pseudoinverse is still the
covariance floor for estimators made identifiable by side constraints.
This package computes those bounds, synthesizes the affine constraint
that attains the pseudoinverse bound with the fewest constraint rows,
checks the minimum-constraint conditions, and numerically certifies the
trace and eigenvalue inequalities that relate every minimum constraint
back to the pseudoinverse.
"""

import types

__version__ = "0.1.0"

from .errors import (
    CrbKitError,
    InvalidInput,
    InvalidMatrix,
    NotMinimumConstraint,
    NumericalFailure,
)
from .matlin import (
    DEFAULT_RANK_TOL_REL,
    RankedSvd,
    SymMatrix,
    as_ranked_svd,
    as_sym_matrix,
    eigvals_desc,
    is_nonsingular,
    is_psd,
    moore_penrose_residuals,
    null_complement,
    null_complements,
    orthonormal_columns,
    pinv_via_basis,
    ranked_svd,
)
from .matx import dump_matrix, load_matrix, parse_matrix, save_matrix
from .statmodel import (
    BlindChannelModel,
    GaussianMeanModel,
    gaussian_location,
)
from .fim import FimEstimate, fim_gaussian_mean, fim_monte_carlo
from .crb import CrbReport, bound_traces, constrained_crb, unconstrained_crb
from .constraint import (
    ConstraintSpec,
    ConstraintStack,
    check_minimum_constraint,
    evaluate_constraints,
    load_constraint_spec,
    optimal_affine_constraint,
    sample_constraint_traces,
    sample_minimum_constraints,
    sample_minimum_stack,
    save_constraint_spec,
)
from .verify import (
    DEFAULT_MARGIN_TOL,
    FailingCase,
    TheoremCertificate,
    certificates_to_csv,
    counterexample_check,
    merge_certificates,
    min_rank_trials,
    random_rank_deficient_psd,
    verify_constraint_equivalence,
    verify_eigen_dominance,
    verify_min_rank,
    verify_poincare,
    verify_trace_bound,
    write_certificate_witnesses,
)

# The public API is every name imported above; submodules are not part of it.
__all__ = ["__version__"] + sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, types.ModuleType)
)
