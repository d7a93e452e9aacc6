"""One condition, one class: each refusal raises the same error class from every entry point that can meet it.

A nonsingular J and a bad model size are InvalidInput; dependent constraint rows and a singular U'JU (V'JV of a
frame) are NotMinimumConstraint, the paper's requirements on a constraint. The message names the case.
"""

import numpy as np
import pytest

import crbkit
from crbkit import (
    BlindChannelModel,
    CrbKitError,
    InvalidInput,
    NotMinimumConstraint,
    constrained_crb,
    evaluate_constraints,
    gaussian_location,
    null_complement,
    optimal_affine_constraint,
    sample_constraint_traces,
    sample_minimum_stack,
    verify_eigen_dominance,
    verify_min_rank,
    verify_trace_bound,
)

EYE = np.eye(3)
RANK1 = np.diag([2.0, 0.0])  # U'JU of the constraint [1, 0], and V'JV of the frame [0, 1]', is zero
RANK2 = np.diag([2.0, 1.0, 0.0])
DEPENDENT = np.array([[1.0, 1.0], [2.0, 2.0]])
DEPENDENT_STACK = [[[0.0, 0.0, 1.0], [0.0, 0.0, 2.0]]]
NONSINGULAR = "J is numerically nonsingular; "
DEPENDENT_ROWS = "Jacobian row rank 1 below row count 2; rows are dependent"

# condition: its class, then (entry point, call, message) for each entry point
CONDITIONS = {
    "nonsingular J": (InvalidInput, [
        ("optimal_affine_constraint", lambda: optimal_affine_constraint(EYE, np.zeros(3)),
         NONSINGULAR + "no constraint is needed"),
        ("sample_constraint_traces", lambda: sample_constraint_traces(EYE, 5, 0),
         NONSINGULAR + "minimum constraints are empty"),
        ("sample_minimum_stack", lambda: sample_minimum_stack(EYE, 5, 0), NONSINGULAR + "minimum constraints are empty"),
        ("verify_min_rank", lambda: verify_min_rank(EYE, 5, 0), NONSINGULAR + "the rank claim is vacuous"),
    ]),
    "singular U'JU": (NotMinimumConstraint, [
        ("verify_eigen_dominance frame", lambda: verify_eigen_dominance(RANK1, np.array([[0.0], [1.0]])),
         "V'JV of frame 0 is numerically singular"),
        ("verify_eigen_dominance stack",
         lambda: verify_eigen_dominance(RANK1, evaluate_constraints(RANK1, [[[1.0, 0.0]]])),
         "constraint 0 (unlabeled) is not minimum: {'rank_jacobian': 1, 'rank_fim': 1, 'param_dim': 2, "
         "'utju_min_eig': 0.0, 'utju_max_eig': 0.0}"),
    ]),
    "dependent rows": (NotMinimumConstraint, [
        ("null_complement", lambda: null_complement(DEPENDENT), DEPENDENT_ROWS),
        ("constrained_crb", lambda: constrained_crb(np.eye(2), DEPENDENT), DEPENDENT_ROWS),
        ("verify_trace_bound stack", lambda: verify_trace_bound(RANK2, evaluate_constraints(RANK2, DEPENDENT_STACK)),
         "constraint 0 (unlabeled) is not minimum: {'rank_jacobian': 1, 'rank_fim': 2, 'param_dim': 3}"),
    ]),
    "bad model size": (InvalidInput, [
        ("gaussian_location float", lambda: gaussian_location(2.0), "dim must be an integer, got 2.0"),
        ("gaussian_location huge", lambda: gaussian_location(10**10),
         "dim asks for a (10000000000, 10000000000) array, more than numpy can allocate"),
        ("BlindChannelModel", lambda: BlindChannelModel(0, 3), "filter lengths must be positive, got (0, 3)"),
        ("ambiguity_direction", lambda: BlindChannelModel(1, 1).ambiguity_direction([0.0, 0.0]),
         "ambiguity direction undefined at theta = 0"),
    ]),
}
ROWS = [(condition, cls, *entry) for condition, (cls, entries) in CONDITIONS.items() for entry in entries]


@pytest.mark.parametrize("condition, cls, entry, call, message", ROWS, ids=[f"{r[0]}: {r[2]}" for r in ROWS])
def test_each_condition_raises_one_class_from_every_entry_point(condition, cls, entry, call, message):
    with pytest.raises(CrbKitError) as info:
        call()
    assert (type(info.value), str(info.value)) == (cls, message)


def test_the_package_exports_five_error_classes():
    exported = {name for name in crbkit.__all__ if isinstance(value := getattr(crbkit, name), type)
                and issubclass(value, CrbKitError)}
    assert exported == {"CrbKitError", "InvalidInput", "InvalidMatrix", "NotMinimumConstraint", "NumericalFailure"}
