"""Arguments of the wrong type end in the package's own errors, each with a one-line message.

errors.py promises one base class, CrbKitError, for every error the package raises on purpose. numpy raises
ValueError or TypeError for text or a ragged list, and Python raises TypeError comparing text with a number;
each call below would leak one of them without the package's own checks. numpy casts a complex array to float
with a ComplexWarning and drops its imaginary part, and an input file that is not ASCII fails to decode with
UnicodeDecodeError: both are refused by name too. So is a size numpy cannot allocate, where numpy raises
ValueError or MemoryError.
"""

import warnings

import numpy as np
import pytest

from crbkit import (
    BlindChannelModel,
    ConstraintSpec,
    CrbKitError,
    GaussianMeanModel,
    InvalidInput,
    InvalidMatrix,
    SymMatrix,
    dump_matrix,
    evaluate_constraints,
    fim_gaussian_mean,
    gaussian_location,
    load_constraint_spec,
    load_matrix,
    min_rank_trials,
    moore_penrose_residuals,
    null_complement,
    null_complements,
    optimal_affine_constraint,
    orthonormal_columns,
    random_rank_deficient_psd,
    ranked_svd,
    sample_constraint_traces,
    sample_minimum_stack,
    verify_constraint_equivalence,
    verify_eigen_dominance,
    verify_min_rank,
    verify_poincare,
    verify_trace_bound,
)

J = np.diag([2.0, 1.0, 0.0])
V = np.eye(3)[:, :2]  # an orthonormal frame of rank(J) columns
COMPLEX = "has complex entries; only real numbers are accepted"

CALLS = {
    "SymMatrix text": (lambda: SymMatrix("abc"), "matrix is not an array of numbers"),
    "SymMatrix ragged": (lambda: SymMatrix([[1.0, 2.0], [3.0]]), "matrix is not an array of numbers"),
    "ranked_svd text": (lambda: ranked_svd("x"), "matrix is not an array of numbers"),
    "ranked_svd rank_tol_rel": (lambda: ranked_svd(J, "x"), "rank_tol_rel must be a number, got 'x'"),
    "ConstraintSpec f_jac": (lambda: ConstraintSpec(f_jac=[[1.0, "a"]]), "f_jac is not an array of numbers"),
    "ConstraintSpec offset": (
        lambda: ConstraintSpec(f_jac=[[1.0, 0.0]], offset="x"), "offset is not an array of numbers"
    ),
    "moore_penrose_residuals": (
        lambda: moore_penrose_residuals(J, "x"), "candidate pseudoinverse is not an array of numbers"
    ),
    "null_complement": (lambda: null_complement("x"), "constraint Jacobian is not an array of numbers"),
    "null_complements text": (lambda: null_complements("x"), "constraint Jacobians is not an array of numbers"),
    "null_complements 1-d": (
        lambda: null_complements(np.ones(3)), "constraint Jacobians must have at least 2 dimensions, got shape (3,)"
    ),
    "orthonormal_columns": (lambda: orthonormal_columns("x"), "matrix is not an array of numbers"),
    "random_rank_deficient_psd rng": (
        lambda: random_rank_deficient_psd(3, 1, 5), "rng must be a numpy Generator, got 5"
    ),
    "verify_poincare": (lambda: verify_poincare(J, "x"), "v is not an array of numbers"),
    "verify_eigen_dominance": (lambda: verify_eigen_dominance(J, "x"), "v is not an array of numbers"),
    "verify_constraint_equivalence": (
        lambda: verify_constraint_equivalence(J, ["x"]), "alternative 0 is not an array of numbers"
    ),
    "evaluate_constraints": (
        lambda: evaluate_constraints(J, {"f_jac": 1.0}), "constraints are not finite (k, m, 3) Jacobians of one shape"
    ),
    "optimal_affine_constraint": (lambda: optimal_affine_constraint(J, "x"), "theta0 is not an array of numbers"),
    "fim_gaussian_mean": (lambda: fim_gaussian_mean(gaussian_location(2), "ab"), "theta is not an array of numbers"),
    "noise_var text": (lambda: BlindChannelModel(2, 3, noise_var="1"), "noise_var must be a number, got '1'"),
    "noise_var None": (lambda: gaussian_location(2, noise_var=None), "noise_var must be a number, got None"),
    "poincare margin_tol": (lambda: verify_poincare(J, V, "x"), "margin_tol must be a number, got 'x'"),
    "dominance margin_tol": (lambda: verify_eigen_dominance(J, V, "1e-9"), "margin_tol must be a number, got '1e-9'"),
    "trace margin_tol": (
        lambda: verify_trace_bound(J, evaluate_constraints(J, np.eye(3)[None, 2:]), None),
        "margin_tol must be a number, got None",
    ),
    "equivalence margin_tol": (
        lambda: verify_constraint_equivalence(J, [np.eye(3)[2:]], True), "margin_tol must be a number, got True"
    ),
    "trace margin_tol beyond double range": (
        lambda: verify_trace_bound(J, evaluate_constraints(J, np.eye(3)[None, 2:]), 10**400),
        "margin_tol must be a number within double range, got an integer of 1329 bits",
    ),
    "rank_tol_rel beyond double range": (
        lambda: ranked_svd(J, 10**400), "rank_tol_rel must be a number within double range, got an integer of 1329 bits"
    ),
    "noise_var beyond double range": (
        lambda: fim_gaussian_mean(gaussian_location(2, 10**400), [1.0, 2.0]),
        "noise_var must be a number within double range, got an integer of 1329 bits",
    ),
    "trace margin_tol NaN": (
        lambda: verify_trace_bound(J, evaluate_constraints(J, np.eye(3)[None, 2:]), float("nan")),
        "margin_tol must not be NaN, got nan",
    ),
    "SymMatrix complex scalars": (lambda: SymMatrix([[np.complex128(1j), 0.0], [0.0, 1.0]]), f"matrix {COMPLEX}"),
    "ranked_svd complex": (lambda: ranked_svd(J.astype(complex)), f"matrix {COMPLEX}"),
    "ConstraintSpec complex offset": (
        lambda: ConstraintSpec(f_jac=[[1.0, 0.0]], offset=np.array([1j])), f"offset {COMPLEX}"
    ),
    "optimal_affine_constraint complex": (
        lambda: optimal_affine_constraint(J, np.array([0.0, 0.0, 1j])), f"theta0 {COMPLEX}"
    ),
    "verify_poincare complex": (lambda: verify_poincare(J, V.astype(complex)), f"v {COMPLEX}"),
    "evaluate_constraints complex": (
        lambda: evaluate_constraints(J, np.array([[[0.0, 0.0, 1j]]])),
        "constraints are not finite (k, m, 3) Jacobians of one shape",
    ),
    "mean_jac complex": (
        lambda: fim_gaussian_mean(GaussianMeanModel(lambda th: th, lambda th: 1j * np.eye(2), 1.0, 2, 2), [1.0, 2.0]),
        f"mean_jac(theta) {COMPLEX}",
    ),
    "dump_matrix complex": (lambda: dump_matrix(np.array([[1j, 0.0], [0.0, 1.0]])), f"matrix {COMPLEX}"),
    "fim_gaussian_mean complex": (
        lambda: fim_gaussian_mean(gaussian_location(2), np.array([1j, 0.0])), f"theta {COMPLEX}"
    ),
}

# sizes numpy cannot allocate, each of at least 8e18 bytes, past any address space, so nothing is allocated
UNALLOCATABLE = "array, more than numpy can allocate"
CALLS.update({
    f"random_rank_deficient_psd n 10**{e}": (
        lambda e=e: random_rank_deficient_psd(10**e, 1, np.random.default_rng(0)),
        f"n asks for a {(10**e, 10**e)} {UNALLOCATABLE}",
    )
    for e in (9, 20, 400)
})
CALLS.update({
    "gaussian_location dim 10**10": (
        lambda: gaussian_location(10**10), f"dim asks for a {(10**10, 10**10)} {UNALLOCATABLE}"
    ),
    "BlindChannelModel mean_jac": (
        lambda: BlindChannelModel(10**19, 1)._convolution_jac(np.ones(3)),
        f"mean_jac asks for a {(10**19, 10**19 + 1)} {UNALLOCATABLE}",
    ),
})
SAMPLERS = {
    "sample_constraint_traces": sample_constraint_traces,
    "sample_minimum_stack": sample_minimum_stack,
}
# J of rank 1: count 10**18 draws 8e18 bytes, which numpy fails to allocate, and 10**20 more than it can size
CALLS.update({
    f"{name} count 10**{e}": (
        lambda sampler=sampler, e=e: sampler(np.diag([1.0, 0.0]), 10**e, 0),
        f"count asks for a {(10**e, 1)} {UNALLOCATABLE}",
    )
    for name, sampler in SAMPLERS.items()
    for e in (18, 20)
})
# min_rank's (trials + 1, n, n) slots, allocated before anything is drawn, for a J that draws and one that does not
CALLS.update({
    f"{name} {kind} J trials 10**{e}": (
        lambda call=call, j=j, e=e: call(j, 10**e, 0), f"trials asks for a {(10**e + 1, 2, 2)} {UNALLOCATABLE}"
    )
    for name, call in {"min_rank_trials": min_rank_trials, "verify_min_rank": verify_min_rank}.items()
    for kind, j in {"singular": np.diag([1.0, 0.0]), "nonsingular": np.eye(2)}.items()
    for e in (18, 20)
})


@pytest.mark.parametrize("name", CALLS)
def test_a_wrong_type_raises_a_crbkit_error_with_a_one_line_message(name):
    call, message = CALLS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning on the way would be an escape too
        with pytest.raises(CrbKitError) as info:
            call()
    assert str(info.value) == message
    assert "\n" not in message


def test_a_complex_matrix_is_refused_as_an_invalid_matrix():
    # a cast to float would store diag(1, 0) for diag(1 + 1j, 2j)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidMatrix, match=f"^matrix {COMPLEX}$"):
            SymMatrix(np.array([[1 + 1j, 0], [0, 2j]]))


@pytest.mark.parametrize("load", [load_matrix, load_constraint_spec], ids=lambda f: f.__name__)
def test_a_file_that_is_not_ascii_raises_invalid_input_with_the_codecs_message(tmp_path, load):
    path = tmp_path / "accent.matx"
    path.write_bytes("2 2\n1 0\n0 \u00e9\n".encode("utf-8"))
    with pytest.raises(InvalidInput) as info:
        load(path)
    assert str(info.value).startswith("'ascii' codec can't decode byte 0xc3 in position 10")
    assert "\n" not in str(info.value)
