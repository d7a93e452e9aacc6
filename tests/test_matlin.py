import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crbkit import (
    ConstraintSpec,
    InvalidInput,
    InvalidMatrix,
    NotMinimumConstraint,
    SymMatrix,
    as_ranked_svd,
    check_minimum_constraint,
    constrained_crb,
    eigvals_desc,
    evaluate_constraints,
    fim_monte_carlo,
    gaussian_location,
    is_nonsingular,
    is_psd,
    min_rank_trials,
    moore_penrose_residuals,
    null_complement,
    null_complements,
    optimal_affine_constraint,
    orthonormal_columns,
    pinv_via_basis,
    ranked_svd,
    sample_constraint_traces,
    sample_minimum_constraints,
    sample_minimum_stack,
    unconstrained_crb,
    verify_constraint_equivalence,
    verify_eigen_dominance,
    verify_min_rank,
    verify_poincare,
    verify_trace_bound,
)
from crbkit.matlin import _per_shape, ranked_svds
import exact
from util import make_psd, random_orthonormal, svd_pinv_oracle

ONES = np.ones((2, 2))
HOUSE = 0.5 * np.array([[1.0, -1.0], [-1.0, 1.0]])


def test_sym_matrix_symmetrizes_input():
    m = SymMatrix(np.array([[1.0, 4.0], [0.0, 2.0]]))
    assert np.array_equal(m.entries, m.entries.T)
    assert m.entries[0, 1] == 2.0
    assert m.dim == 2
    assert m.trace == 3.0


def test_sym_matrix_entries_frozen():
    m = SymMatrix(np.eye(2))
    with pytest.raises(ValueError):
        m.entries[0, 0] = 5.0


def test_sym_matrix_rejects_bad_input():
    with pytest.raises(InvalidMatrix):
        SymMatrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(InvalidMatrix):
        SymMatrix(np.array([[np.inf, 0.0], [0.0, 1.0]]))
    with pytest.raises(InvalidMatrix):
        SymMatrix(np.zeros((2, 3)))
    with pytest.raises(InvalidMatrix):
        SymMatrix(np.zeros((0, 0)))


def test_sym_matrix_refuses_entries_whose_symmetrized_sum_overflows():
    # 0.5 * (a + a') overflows past half the largest double: the sum is inf before the halving, and a SymMatrix
    # holding inf would factor as rank 0 with NaN eigenvalues; the overflow warning is silenced to show the refusal
    message = "^matrix is too large for double precision: its symmetrized entries overflow$"
    with np.errstate(over="ignore"):
        for entries in (np.diag([1.7e308, 0.0]), np.array([[0.0, 1e308], [1e308, 0.0]])):
            with pytest.raises(InvalidMatrix, match=message):
                SymMatrix(entries)
        with pytest.raises(InvalidMatrix, match=message):
            ranked_svd(np.diag([1.7e308, 0.0]))
    # below half the largest double, or with a partner of the other sign, the sum stays finite
    assert SymMatrix(np.diag([8e307, 0.0])).entries[0, 0] == 8e307
    assert SymMatrix(np.array([[0.0, 1.7e308], [-1.7e308, 0.0]])).entries.tolist() == [[0.0, 0.0], [0.0, 0.0]]


def test_ranked_svd_diag_rank_one():
    svd = ranked_svd(np.diag([2.0, 0.0]))
    assert svd.rank == 1
    assert np.allclose(svd.sigma, [2.0])
    assert np.allclose(svd.u_r @ svd.u_r.T, np.diag([1.0, 0.0]), atol=1e-14)
    assert np.allclose(svd.u_bar @ svd.u_bar.T, np.diag([0.0, 1.0]), atol=1e-14)


def test_ranked_svd_ones_matrix():
    svd = ranked_svd(ONES)
    assert svd.rank == 1
    assert np.allclose(svd.sigma, [2.0])
    assert np.allclose(svd.u_r @ svd.u_r.T, 0.5 * ONES, atol=1e-12)


def test_ranked_svd_full_rank_identity():
    svd = ranked_svd(np.eye(3))
    assert svd.rank == 3
    assert svd.u_bar.shape == (3, 0)


def test_ranked_svd_zero_matrix():
    svd = ranked_svd(np.zeros((3, 3)))
    assert svd.rank == 0
    assert svd.u_r.shape == (3, 0)
    assert np.allclose(svd.u_bar @ svd.u_bar.T, np.eye(3))
    assert np.array_equal(pinv_via_basis(np.zeros((3, 3))).entries, np.zeros((3, 3)))


def test_ranked_svd_bases_on_random_psd():
    rng = np.random.default_rng(42)
    for _ in range(100):
        n = int(rng.integers(1, 9))
        rank = int(rng.integers(0, n + 1))
        m = make_psd(rng, n, rank)
        svd = ranked_svd(m)
        assert svd.rank == rank
        assert np.allclose(svd.u_r.T @ svd.u_r, np.eye(rank), atol=1e-10)
        assert np.allclose(svd.u_bar.T @ svd.u_bar, np.eye(n - rank), atol=1e-10)
        assert np.abs(svd.u_r.T @ svd.u_bar).max(initial=0.0) <= 1e-10
        recon = (svd.u_r * svd.sigma) @ svd.u_r.T
        assert np.linalg.norm(recon - m) <= 1e-8 * max(np.linalg.norm(m), 1e-30)
        assert all(svd.sigma[i] >= svd.sigma[i + 1] for i in range(rank - 1))


def test_pinv_frozen_examples():
    assert np.allclose(pinv_via_basis(np.diag([2.0, 0.0])).entries, np.diag([0.5, 0.0]), atol=1e-14)
    assert np.allclose(pinv_via_basis(ONES).entries, 0.25 * ONES, atol=1e-14)
    j = np.diag([1.0, 1.0, 0.0, 0.0])
    assert np.allclose(pinv_via_basis(j).entries, j, atol=1e-14)


def test_pinv_matches_independent_oracle():
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(1, 9))
        rank = int(rng.integers(1, n + 1))
        m = make_psd(rng, n, rank)
        p = pinv_via_basis(m).entries
        oracle = svd_pinv_oracle(m)
        assert np.linalg.norm(p - oracle) <= 1e-8 * np.linalg.norm(oracle)
        assert max(moore_penrose_residuals(m, p)) <= 1e-8


def test_pinv_against_exact_rationals():
    # J = BB' for an integer B of full column rank r has the exact pseudoinverse B (B'B)^-2 B'. The
    # svd route errs by about n eps kappa max|J+| with kappa = sigma_1 / sigma_r: over these 112
    # matrices at most 0.92 of that unit, with a median of 0.135
    rng = np.random.default_rng(0)
    for n in range(2, 9):
        for r in range(1, n):
            for _ in range(4):
                b = rng.integers(-5, 6, size=(n, r)).astype(float)
                while np.linalg.matrix_rank(b) < r:
                    b = rng.integers(-5, 6, size=(n, r)).astype(float)
                b_exact = exact.rational(b)
                gram, b_t = exact.matmul(exact.transpose(b_exact), b_exact), exact.transpose(b_exact)
                oracle = exact.matmul(b_exact, exact.solve(gram, exact.solve(gram, b_t)))
                basis = ranked_svd(b @ b.T)
                assert basis.rank == r
                got = exact.rational(basis.pinv.entries)
                error = max(abs(x - y) for row, ref in zip(got, oracle) for x, y in zip(row, ref))
                largest = max(abs(v) for row in oracle for v in row)
                unit = n * np.finfo(float).eps * basis.sigma[0] / basis.sigma[-1] * float(largest)
                assert float(error) <= 2 * unit


def test_pinv_is_involution():
    rng = np.random.default_rng(8)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        m = make_psd(rng, n, int(rng.integers(0, n + 1)))
        again = pinv_via_basis(pinv_via_basis(m)).entries
        assert np.linalg.norm(again - m) <= 1e-7 * max(np.linalg.norm(m), 1.0)


def test_pinv_accepts_sym_matrix_input():
    wrapped = SymMatrix(np.diag([4.0, 0.0]))
    assert np.allclose(pinv_via_basis(wrapped).entries, np.diag([0.25, 0.0]), atol=1e-14)


def test_eigvals_desc_frozen_examples():
    assert np.allclose(eigvals_desc(np.diag([0.0, 0.5])), [0.5, 0.0])
    assert np.allclose(eigvals_desc(HOUSE), [1.0, 0.0], atol=1e-14)
    golden = (1.0 + np.sqrt(5.0)) / 2.0
    vals = eigvals_desc(np.array([[0.0, 1.0], [1.0, 1.0]]))
    assert np.allclose(vals, [golden, 1.0 - golden], atol=1e-12)


def test_is_psd_examples():
    assert is_psd(np.diag([1.0, 0.0]))
    assert is_psd(np.zeros((2, 2)))
    assert not is_psd(np.array([[0.0, 1.0], [1.0, 1.0]]))
    # a negative eigenvalue that the rank rule calls zero counts as zero; one it keeps does not
    assert is_psd(np.diag([1.0, -1e-12]))
    assert not is_psd(np.diag([1.0, -1e-6]))
    assert is_psd(ranked_svd(np.diag([1.0, -1e-6]), 1e-6))
    cutoff = 2 * 1e-10  # |lambda|_max * n * rank_tol at the default rank_tol
    assert is_psd(np.diag([1.0, -cutoff]))
    assert not is_psd(np.diag([1.0, np.nextafter(-cutoff, -1.0)]))


def test_every_function_that_takes_j_refuses_an_indefinite_j():
    # -2 is kept by the rank rule (cutoff 2 * 3 * 1e-10), so J is no information matrix: its pseudoinverse
    # would report eigenvalues [1, 0.5, 0] for a bound whose spectrum is [1, 0, -0.5]
    j = np.diag([1.0, -2.0, 0.0])
    f_jac, frame = np.array([[0.0, 0.0, 1.0]]), np.eye(3)[:, :2]
    psd_stack = evaluate_constraints(np.diag([1.0, 2.0, 0.0]), f_jac[None])
    calls = {
        "ranked_svd": lambda: ranked_svd(j),
        "as_ranked_svd": lambda: as_ranked_svd(j),
        "unconstrained_crb": lambda: unconstrained_crb(j),
        "constrained_crb": lambda: constrained_crb(j, f_jac),
        "pinv_via_basis": lambda: pinv_via_basis(j),
        "evaluate_constraints": lambda: evaluate_constraints(j, f_jac[None]),
        "check_minimum_constraint": lambda: check_minimum_constraint(j, ConstraintSpec(f_jac)),
        "optimal_affine_constraint": lambda: optimal_affine_constraint(j, np.zeros(3)),
        "sample_minimum_stack": lambda: sample_minimum_stack(j, 5, 1),
        "sample_minimum_constraints": lambda: sample_minimum_constraints(j, 5, 1),
        "sample_constraint_traces": lambda: sample_constraint_traces(j, 5, 1),
        "verify_trace_bound": lambda: verify_trace_bound(j, psd_stack),
        "verify_eigen_dominance": lambda: verify_eigen_dominance(j, frame),
        "verify_poincare": lambda: verify_poincare(j, frame),
        "verify_constraint_equivalence": lambda: verify_constraint_equivalence(j, f_jac[None]),
        "min_rank_trials": lambda: min_rank_trials(j, 3, 0),
        "verify_min_rank": lambda: verify_min_rank(j, 3, 0),
    }
    message = (
        "information matrix is not positive semidefinite: eigenvalue -2 is negative and kept by the rank cutoff 6e-10"
    )
    for name, call in calls.items():
        with pytest.raises(InvalidMatrix) as info:
            call()
        assert str(info.value) == message, name
    # is_psd and is_nonsingular answer for any symmetric matrix
    assert not is_psd(j)
    assert is_nonsingular(np.diag([1.0, -2.0]))
    # a negative eigenvalue that the rule calls zero is J's null space
    assert ranked_svd(np.diag([1.0, -1e-6]), 1e-6).rank == 1


def test_a_j_whose_pseudoinverse_leaves_double_range_is_refused_where_it_is_factored():
    # tr J+ = sum 1/sigma must stay below half the largest double: at 1e-310 1/sigma overflowed, at 1e-308 a J+
    # entry of 1e308 overflowed the symmetrizing add, and the samplers returned nan; the check itself neither
    # warns (warnings are errors here) nor overflows
    refusal = "^information matrix has no pseudoinverse in double precision: its least kept eigenvalue "
    for scale in (1e-310, 1e-308):
        j = np.diag([scale, 0.0])
        calls = (
            lambda: ranked_svd(j),
            lambda: pinv_via_basis(j),
            lambda: sample_constraint_traces(j, 6, 0),
            lambda: sample_minimum_stack(j, 6, 0),
        )
        for call in calls:
            with np.errstate(over="raise"), pytest.raises(InvalidMatrix, match=refusal):
                call()
    # at 2e-308 tr J+ = 5e307 is below the limit, 8.99e307, and every entry of J+ and sum of two is finite
    basis = ranked_svd(np.diag([2e-308, 0.0]))
    assert basis.rank == 1 and basis.pinv.trace == pytest.approx(5e307, rel=1e-15)
    assert np.all(np.isfinite(sample_constraint_traces(basis, 6, 0)))


def test_a_negative_seed_is_refused_where_every_stream_is_derived():
    # numpy's SeedSequence raised "ValueError: expected non-negative integer"
    j, model = np.diag([1.0, 0.0]), gaussian_location(2)
    calls = {
        "sample_minimum_stack": lambda: sample_minimum_stack(j, 3, -1),
        "sample_minimum_constraints": lambda: sample_minimum_constraints(j, 3, -1),
        "sample_constraint_traces": lambda: sample_constraint_traces(j, 3, -1),
        "min_rank_trials": lambda: min_rank_trials(j, 3, -1),
        "verify_min_rank": lambda: verify_min_rank(j, 3, -1),
        "fim_monte_carlo": lambda: fim_monte_carlo(model, np.zeros(2), 100, -1),
    }
    for name, call in calls.items():
        with pytest.raises(InvalidInput) as info:
            call()
        assert str(info.value) == "seed must be nonnegative, got -1", name


def test_a_seed_count_or_trials_that_is_not_an_integer_is_refused_by_name():
    # numpy raised "TypeError: SeedSequence expects int or sequence of ints for entropy not 1.5" for
    # the seed, and a TypeError from the draw's shape for the count and the trials; a count or trial
    # count of True leaked a TypeError too, a seed of True was read as 1, n_samples = True was "at least
    # 100" and n_samples = 1000.5 leaked a TypeError from range(); a numpy integer still passes, and so
    # does a Generator for min_rank_trials. The samplers derive two streams from their seed, so they refuse
    # a Generator, which they took before the directions came to have a stream of their own. The sample floor
    # keeps its message
    j, model = np.diag([1.0, 0.0]), gaussian_location(2)
    calls = {
        "seed must be an integer, got 1.5": [
            lambda: sample_minimum_stack(j, 2, 1.5),
            lambda: sample_minimum_constraints(j, 2, 1.5),
            lambda: sample_constraint_traces(j, 2, 1.5),
            lambda: min_rank_trials(j, 2, 1.5),
            lambda: verify_min_rank(j, 2, 1.5),
            lambda: fim_monte_carlo(model, np.zeros(2), 100, 1.5),
        ],
        "count must be an integer, got 2.5": [
            lambda: sample_minimum_stack(j, 2.5, 1),
            lambda: sample_minimum_constraints(j, 2.5, 1),
            lambda: sample_constraint_traces(j, 2.5, 1),
        ],
        "trials must be an integer, got 2.5": [
            lambda: min_rank_trials(j, 2.5, 1),
            lambda: verify_min_rank(j, 2.5, 1),
        ],
        "seed must be an integer, got '3'": [lambda: sample_constraint_traces(j, 2, "3")],
        "count must be an integer, got True": [
            lambda: sample_minimum_stack(j, True, 0),
            lambda: sample_constraint_traces(j, True, 0),
        ],
        "trials must be an integer, got True": [
            lambda: min_rank_trials(j, True, 0),
            lambda: verify_min_rank(j, True, 0),
        ],
        "seed must be an integer, got True": [lambda: sample_constraint_traces(j, 2, True)],
        "n_samples must be an integer, got 1000.5": [lambda: fim_monte_carlo(model, np.zeros(2), 1000.5, 0)],
        "n_samples must be an integer, got True": [lambda: fim_monte_carlo(model, np.zeros(2), True, 0)],
        "n_samples must be at least 100, got 99": [lambda: fim_monte_carlo(model, np.zeros(2), 99, 0)],
    }
    for message, refused in calls.items():
        for call in refused:
            with pytest.raises(InvalidInput) as info:
                call()
            assert str(info.value) == message
    assert sample_constraint_traces(j, np.int64(2), np.uint32(1)).tolist() == sample_constraint_traces(j, 2, 1).tolist()
    assert verify_min_rank(j, np.int32(2), np.random.default_rng(1)).n_cases == 3
    for sample in (sample_minimum_stack, sample_minimum_constraints, sample_constraint_traces):
        with pytest.raises(InvalidInput, match=r"^seed must be an integer, got Generator\(PCG64\)"):
            sample(j, 2, np.random.default_rng(1))


def test_null_complement_frozen_examples():
    u = null_complement(np.array([[0.0, 1.0]]))
    assert u.shape == (2, 1)
    assert np.allclose(u @ u.T, np.diag([1.0, 0.0]), atol=1e-12)
    root = 1.0 / np.sqrt(2.0)
    u2 = null_complement(np.array([[root, root]]))
    assert np.allclose(u2 @ u2.T, HOUSE, atol=1e-12)
    assert null_complement(np.eye(2)).shape == (2, 0)
    assert np.allclose(null_complement(np.zeros((0, 3))), np.eye(3))


def test_null_complement_spans_kernel():
    rng = np.random.default_rng(9)
    for _ in range(50):
        n = int(rng.integers(1, 8))
        m = int(rng.integers(0, n + 1))
        f = rng.standard_normal((m, n))
        u = null_complement(f)
        assert u.shape == (n, n - m)
        assert np.allclose(u.T @ u, np.eye(n - m), atol=1e-10)
        assert np.abs(f @ u).max(initial=0.0) <= 1e-10 * max(1.0, np.abs(f).max(initial=1.0))
        assert np.linalg.matrix_rank(np.hstack([f.T, u])) == n


def test_null_complement_rejects_dependent_rows():
    with pytest.raises(NotMinimumConstraint, match="^Jacobian row rank 1 below row count 2; rows are dependent$"):
        null_complement(np.array([[1.0, 1.0], [2.0, 2.0]]))
    with pytest.raises(NotMinimumConstraint, match="^Jacobian row rank 0 below row count 3; rows are dependent$"):
        null_complement(np.zeros((3, 2)))


def test_rank_rule_refuses_a_tolerance_that_is_not_positive_and_finite():
    # under a NaN or infinite tolerance no singular value is above the cutoff, so every rank would be 0;
    # below machine epsilon the cutoff lies under the roundoff of an eigendecomposition
    eps = np.finfo(float).eps
    for tol in (0.0, -1e-10, np.nan, np.inf, 1e-20, np.nextafter(eps, 0.0)):
        with pytest.raises(InvalidInput, match="rank_tol_rel must be positive and finite"):
            ranked_svd(np.diag([2.0, 1.0, 0.0]), tol)
        with pytest.raises(InvalidInput, match="rank_tol_rel must be positive and finite"):
            null_complements(np.eye(2)[None], tol)
    assert ranked_svd(np.diag([2.0, 1.0, 0.0]), eps).rank == 2
    assert null_complements(np.eye(2)[None], eps)[0].tolist() == [2]


def test_rank_rule_at_one_ulp_either_side_of_one_over_the_size():
    # the rule keeps s > s_max * size * rank_tol_rel, so it keeps the unit singular values of orthonormal
    # rows exactly while size * rank_tol_rel < 1: one ulp above 1/size is refused, and one ulp below, rows
    # orthonormal within roundoff keep full row rank even where the svd gives their ones as 1 - a few ulp
    rng = np.random.default_rng(24)
    for n in range(2, 9):
        below, above = (float(np.nextafter(1 / n, to)) for to in (0.0, 1.0))
        j = make_psd(rng, n, int(rng.integers(1, n)))
        rows = random_orthonormal(rng, n, n - 1).T[None]
        for call in (lambda tol: ranked_svd(j, tol), lambda tol: null_complements(rows, tol)):
            with pytest.raises(InvalidInput, match=rf"gives every {n} x {n} matrix rank 0; {n} \* rank_tol_rel"):
                call(above)
        assert null_complements(rows, below)[0].tolist() == [n - 1]
        basis = ranked_svd(j, below)
        stack = evaluate_constraints(basis, basis.u_bar.T[None])
        assert stack.row_rank.tolist() == [n - basis.rank] and stack.full_rank_jacobian.tolist() == [True]


def test_is_nonsingular_examples():
    assert is_nonsingular(np.eye(2))
    assert not is_nonsingular(np.diag([1.0, 1e-12]))
    assert is_nonsingular(np.diag([1.0, 1e-8]))
    assert is_nonsingular(np.zeros((0, 0)))
    assert not is_nonsingular(np.zeros((2, 2)))


def test_orthonormal_columns_properties():
    rng = np.random.default_rng(10)
    a = rng.standard_normal((6, 3))
    q = orthonormal_columns(a)
    assert q.shape == (6, 3)
    assert np.allclose(q.T @ q, np.eye(3), atol=1e-12)
    # same column space as the input
    assert np.linalg.matrix_rank(np.hstack([a, q])) == 3
    again = orthonormal_columns(a)
    assert np.array_equal(q, again)


def test_moore_penrose_residuals_zero_matrix():
    assert max(moore_penrose_residuals(np.zeros((2, 2)), np.zeros((2, 2)))) == 0.0


def test_moore_penrose_residuals_take_a_matrix_and_a_candidate_of_its_transposed_shape():
    # a mismatch raised numpy's matmul ValueError
    with pytest.raises(InvalidInput) as info:
        moore_penrose_residuals(np.eye(2), np.eye(3))
    assert str(info.value) == "candidate pseudoinverse (3, 3) of a (2, 2) matrix must be (2, 2)"
    with pytest.raises(InvalidInput, match=r"candidate pseudoinverse \(2, 3\) of a \(2, 3\) matrix must be \(3, 2\)"):
        moore_penrose_residuals(np.ones((2, 3)), np.ones((2, 3)))
    wide = np.ones((2, 3))
    assert max(moore_penrose_residuals(wide, np.linalg.pinv(wide))) <= 1e-15


def test_a_vector_is_no_jacobian_and_a_factored_j_reads_as_its_matrix():
    with pytest.raises(InvalidMatrix) as info:
        null_complement(np.ones(3))
    assert str(info.value) == "constraint Jacobian must be 2-d, got shape (3,)"
    j = make_psd(np.random.default_rng(3), 4, 2)
    basis = ranked_svd(j)
    assert np.array_equal(eigvals_desc(basis), eigvals_desc(j))


def test_orthonormal_columns_refuses_a_vector_and_a_wide_matrix():
    with pytest.raises(InvalidMatrix) as info:
        orthonormal_columns(np.ones(3))
    assert str(info.value) == "matrix must be finite with at least 2 dimensions, got shape (3,)"
    with pytest.raises(InvalidInput) as info:
        orthonormal_columns(np.ones((2, 3)))
    assert str(info.value) == "need at least as many rows as columns, got (2, 3)"


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=0, max_value=8),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_pinv_satisfies_moore_penrose_property(n, rank, seed):
    m = make_psd(np.random.default_rng(seed), n, min(rank, n))
    p = pinv_via_basis(m).entries
    assert max(moore_penrose_residuals(m, p)) <= 1e-8


def test_factored_value_passes_through_and_keeps_its_pseudoinverse():
    j = make_psd(np.random.default_rng(11), 5, 3)
    basis = ranked_svd(j)
    assert as_ranked_svd(basis) is basis
    assert pinv_via_basis(basis) is basis.pinv is pinv_via_basis(basis)
    assert basis.pinv_eigenvalues is basis.pinv_eigenvalues
    assert np.array_equal(basis.pinv.entries, pinv_via_basis(j).entries)


def test_a_stage_factorization_equals_each_js_own_bit_for_bit():
    # every (n, rank) for n 2 to 8, rank 0 to n, twelve of them twice, in mixed order: one stacked eigh per size
    # holds J of every rank, and each basis equals ranked_svd's of its J, whose eigenvalues are those of one
    # unstacked eigh of J, ordered by |lambda| descending
    rng = np.random.default_rng(43)
    shapes = [(n, rank) for n in range(2, 9) for rank in range(n + 1)]
    shapes += [shapes[i] for i in rng.choice(len(shapes), 12, replace=False)]
    js = [make_psd(rng, n, rank) for n, rank in rng.permutation(shapes)]
    bases = ranked_svds(js)
    assert len(bases) == len(js) == 54
    for j, basis in zip(js, bases):
        one = ranked_svd(j)
        assert (basis.rank, basis.rank_tol_rel) == (one.rank, one.rank_tol_rel)
        for name in ("eigenvalues", "u_r", "u_bar", "sigma"):
            assert np.array_equal(getattr(basis, name), getattr(one, name)), name
        lam = np.linalg.eigh(basis.matrix.entries)[0]
        assert np.array_equal(one.eigenvalues, lam[np.argsort(-np.abs(lam), kind="stable")])


def test_a_stage_factorization_reports_the_first_j_it_refuses():
    # J are refused matrix by matrix in list order, whatever the reason, though each size's eigh runs first
    good, indefinite, tiny = np.diag([2.0, 1.0, 0.0]), np.diag([1.0, -0.5]), np.diag([1e-310, 0.0, 0.0])
    not_psd = "^information matrix is not positive semidefinite: eigenvalue -0.5 is negative"
    no_pinv = "^information matrix has no pseudoinverse in double precision: its least kept eigenvalue 9.99"
    for js, refusal in (([good, indefinite, tiny], not_psd), ([good, tiny, indefinite], no_pinv)):
        with pytest.raises(InvalidMatrix, match=refusal):
            ranked_svds(js)
    # at rank_tol 0.2 the rule ranks every 8 x 8 matrix 0, but not a 2 x 2 one
    for js, refusal in (([indefinite, np.eye(8)], not_psd), ([np.eye(8), indefinite], "gives every 8 x 8 matrix")):
        with pytest.raises((InvalidMatrix, InvalidInput), match=refusal):
            ranked_svds(js, 0.2)
    assert [basis.rank for basis in ranked_svds([good, np.eye(3), good])] == [2, 3, 2]


def test_the_rank_rule_is_checked_per_factorization_and_its_cutoff_read_at_many_sizes():
    basis = ranked_svd(make_psd(np.random.default_rng(13), 6, 3))
    sizes = np.arange(7)
    assert np.array_equal(basis.cutoff(sizes), [basis.cutoff(int(size)) for size in sizes])
    # a basis checks its rule when it is made, for its own size
    with pytest.raises(InvalidInput, match="gives every 6 x 6 matrix rank 0"):
        dataclasses.replace(basis, rank_tol_rel=0.2)


def test_stacked_calls_equal_single_calls_bit_for_bit():
    rng = np.random.default_rng(12)
    frames = rng.standard_normal((7, 6, 4))
    stacked = orthonormal_columns(frames)
    for frame, q in zip(frames, stacked):
        assert np.array_equal(orthonormal_columns(frame), q)
    f_jacs = stacked.transpose(0, 2, 1)
    ranks, u = null_complements(f_jacs)
    assert ranks.tolist() == [4] * 7
    for f_jac, basis in zip(f_jacs, u):
        assert np.array_equal(null_complement(f_jac), basis)


def test_a_lone_block_of_its_shape_goes_in_as_a_view_and_blocks_of_one_shape_in_one_call():
    # a stage's largest operand is often the only one of its shape, and a copy of it doubled its memory; a block
    # that is not C-contiguous is still copied, so every call sees the layout one np.array of it gives
    seen = []

    def fn(stack):
        seen.append(stack)
        return list(-stack)

    lone, pair, strided = np.ones((3, 3)), [np.eye(2), 2.0 * np.eye(2)], np.arange(8.0).reshape(2, 4)[:, ::2]
    blocks = [pair[0], lone, pair[1], strided[None]]
    results = _per_shape(fn, blocks)
    assert [stack.shape for stack in seen] == [(2, 2, 2), (1, 3, 3), (1, 1, 2, 2)]
    assert np.shares_memory(seen[1], lone) and not np.shares_memory(seen[2], strided)
    assert seen[2].flags.c_contiguous
    assert all(np.array_equal(result, -block) for result, block in zip(results, blocks, strict=True))
