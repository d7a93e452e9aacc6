import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import crbkit.constraint as constraint_module
from crbkit import (
    BlindChannelModel,
    ConstraintSpec,
    InvalidInput,
    InvalidMatrix,
    bound_traces,
    check_minimum_constraint,
    constrained_crb,
    evaluate_constraints,
    fim_gaussian_mean,
    is_nonsingular,
    load_constraint_spec,
    null_complement,
    optimal_affine_constraint,
    pinv_via_basis,
    random_rank_deficient_psd,
    ranked_svd,
    sample_constraint_traces,
    sample_minimum_constraints,
    sample_minimum_stack,
    save_constraint_spec,
    verify_eigen_dominance,
    verify_trace_bound,
)
from crbkit.matlin import _sign_fixed_columns, is_psd, seed_sequence
import exact
from util import chart_draws, chart_jacobians, make_psd, orthonormal_rows, random_orthonormal

EPS = np.finfo(float).eps

DIAG = np.diag([2.0, 0.0])


def test_check_minimum_frozen_examples():
    good = check_minimum_constraint(DIAG, ConstraintSpec(np.array([[0.0, 1.0]])))
    assert good.full_rank_jacobian
    assert good.utju_nonsingular
    assert good.rank_sum_is_n
    assert good.is_minimum

    # constrains only the informative coordinate: U'JU = 0
    blind_spot = check_minimum_constraint(DIAG, ConstraintSpec(np.array([[1.0, 0.0]])))
    assert blind_spot.full_rank_jacobian
    assert not blind_spot.utju_nonsingular
    assert blind_spot.rank_sum_is_n
    assert not blind_spot.is_minimum

    # one row too many: rank F + rank J = 3 != 2
    overdone = check_minimum_constraint(DIAG, ConstraintSpec(np.eye(2)))
    assert overdone.full_rank_jacobian
    assert overdone.utju_nonsingular
    assert not overdone.rank_sum_is_n
    assert not overdone.is_minimum
    assert overdone.details(0)["rank_jacobian"] == 2
    assert overdone.details(0)["rank_fim"] == 1
    assert overdone.details(0)["param_dim"] == 2


def test_check_minimum_details_carry_restricted_eigenvalues():
    report = check_minimum_constraint(DIAG, ConstraintSpec(np.array([[0.0, 1.0]])))
    assert np.isclose(report.details(0)["utju_min_eig"], 2.0)
    assert np.isclose(report.details(0)["utju_max_eig"], 2.0)


def test_check_minimum_dimension_mismatch():
    with pytest.raises(InvalidInput):
        check_minimum_constraint(np.eye(3), ConstraintSpec(np.array([[1.0, 0.0]])))


def test_optimal_affine_diag_example():
    spec = optimal_affine_constraint(DIAG, [3.0, 4.0])
    assert spec.label == "optimal-affine"
    assert spec.f_jac.shape == (1, 2)
    assert abs(spec.f_jac[0, 0]) <= 1e-12
    assert np.isclose(abs(spec.f_jac[0, 1]), 1.0)
    assert np.allclose(spec.f_jac @ np.array([3.0, 4.0]) + spec.offset, 0.0, atol=1e-12)
    assert check_minimum_constraint(DIAG, spec).is_minimum


def test_optimal_affine_ones_matrix():
    spec = optimal_affine_constraint(np.ones((2, 2)), np.zeros(2))
    # null direction of the all-ones matrix is (1, -1)/sqrt(2)
    assert np.isclose(spec.f_jac[0, 0] + spec.f_jac[0, 1], 0.0, atol=1e-12)
    assert np.allclose(np.abs(spec.f_jac[0]) * np.sqrt(2.0), [1.0, 1.0], atol=1e-12)
    assert np.allclose(spec.offset, 0.0)


def test_optimal_affine_matches_blind_channel_ambiguity():
    model = BlindChannelModel(2, 3, 1.0)
    theta = np.random.default_rng(22).uniform(0.5, 1.5, model.param_dim)
    j = fim_gaussian_mean(model, theta).matrix
    spec = optimal_affine_constraint(j, theta)
    direction = model.ambiguity_direction(theta)
    # one-dimensional null space: the constraint row is the ambiguity direction
    assert np.isclose(abs(spec.f_jac[0] @ direction), 1.0, atol=1e-10)


def test_optimal_affine_rejects_full_rank_j():
    with pytest.raises(InvalidInput, match="^J is numerically nonsingular; no constraint is needed$"):
        optimal_affine_constraint(np.eye(2), np.zeros(2))


def test_sampled_constraints_are_minimum_and_deterministic():
    specs = sample_minimum_constraints(DIAG, 10, 5)
    assert len(specs) == 10
    for spec in specs:
        assert spec.f_jac.shape == (1, 2)
        assert check_minimum_constraint(DIAG, spec).is_minimum
        # the kernel coordinate must be touched, else U'JU would be singular
        assert abs(spec.f_jac[0, 1]) > 1e-8
    again = sample_minimum_constraints(DIAG, 10, 5)
    for a, b in zip(specs, again):
        assert np.array_equal(a.f_jac, b.f_jac)
    other = sample_minimum_constraints(DIAG, 10, 6)
    assert not np.array_equal(specs[0].f_jac, other[0].f_jac)


def test_sample_rejects_full_rank_j():
    with pytest.raises(InvalidInput, match="^J is numerically nonsingular; minimum constraints are empty$"):
        sample_minimum_constraints(np.eye(3), 2, 0)


def test_sample_rejects_bad_count():
    with pytest.raises(InvalidInput):
        sample_minimum_constraints(DIAG, 0, 0)


def test_sampled_traces_dominate_pinv_trace():
    rng = np.random.default_rng(23)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        rank = int(rng.integers(1, n))
        j = make_psd(rng, n, rank)
        base = pinv_via_basis(j).trace
        for spec in sample_minimum_constraints(j, 5, 11):
            assert constrained_crb(j, spec).trace >= base - 1e-9
        optimal = optimal_affine_constraint(j, np.zeros(n))
        assert abs(constrained_crb(j, optimal).trace - base) <= 1e-9


def test_fewer_rows_than_nullity_is_never_minimum():
    # with rank F < n - rank J the restricted information U'JU is always
    # singular, whatever the rows are
    rng = np.random.default_rng(24)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        rank = int(rng.integers(1, n))
        m = int(rng.integers(0, n - rank))
        j = make_psd(rng, n, rank)
        f = rng.standard_normal((m, n))
        u = null_complement(f)
        assert not is_nonsingular(u.T @ j @ u)
        if m:
            spec = ConstraintSpec(f)
            report = check_minimum_constraint(j, spec)
            assert not report.is_minimum
            assert not report.utju_nonsingular


def test_constraint_spec_validation():
    with pytest.raises(InvalidInput):
        ConstraintSpec(np.zeros((3, 2)))
    with pytest.raises(InvalidInput):
        ConstraintSpec(np.array([[1.0, np.nan]]))
    with pytest.raises(InvalidInput):
        ConstraintSpec(np.array([[1.0, 0.0]]), offset=np.array([1.0, 2.0]))
    affine = ConstraintSpec(np.array([[1.0, 0.0]]), offset=np.array([[-3.0]]))
    assert affine.offset.shape == (1,)
    assert affine.n_constraints == 1
    assert affine.param_dim == 2


def test_constraint_file_roundtrip(tmp_path):
    path = tmp_path / "f.constraint"
    spec = ConstraintSpec(np.array([[0.25, -1.5]]), offset=np.array([0.75]), label="x")
    save_constraint_spec(path, spec)
    loaded = load_constraint_spec(path)
    assert np.array_equal(loaded.f_jac, spec.f_jac)
    assert np.array_equal(loaded.offset, spec.offset)

    plain = ConstraintSpec(np.array([[1.0, 2.0]]))
    save_constraint_spec(path, plain)
    assert load_constraint_spec(path).offset is None


def test_constraint_file_skips_a_blank_line_and_refuses_a_non_numeric_offset(tmp_path):
    path = tmp_path / "f.constraint"
    path.write_text("1 2\n0.25 -1.5\n\noffset 0.75\n")
    assert load_constraint_spec(path).offset.tolist() == [0.75]
    path.write_text("1 2\n1 0\noffset x\n")
    with pytest.raises(InvalidInput) as info:
        load_constraint_spec(path)
    assert str(info.value) == "non-numeric offset value"


def test_a_spec_refuses_a_vector_jacobian_and_the_optimal_constraint_a_point_of_another_length():
    with pytest.raises(InvalidInput) as info:
        ConstraintSpec(np.ones(3))
    assert str(info.value) == "f_jac must be 2-d, got shape (3,)"
    with pytest.raises(InvalidInput) as info:
        optimal_affine_constraint(np.diag([1.0, 0.0]), np.zeros(3))
    assert str(info.value) == "theta0 must have length 2, got 3"


def test_constraint_file_rejects_garbage(tmp_path):
    path = tmp_path / "bad.constraint"
    path.write_text("1 2\n1 0\nnot-an-offset 3\n")
    with pytest.raises(InvalidInput):
        load_constraint_spec(path)
    with pytest.raises(InvalidInput):
        load_constraint_spec(tmp_path / "absent.constraint")
    for value in ("nan", "inf", "-1e400"):
        path.write_text(f"1 2\n1 0\noffset {value}\n")
        with pytest.raises(InvalidInput, match="offset contains non-finite entries"):
            load_constraint_spec(path)


def test_chunked_sampler_consumes_the_stream_draw_by_draw():
    # a sample of 70 draws in one call; each draw is rebuilt one at a time from the
    # documented law (util.chart_draws), at the default cutoff and at 0.02, where t shrinks the
    # large steps; F = U_bar' + L U_r' and each trace sum 1/lambda_i + ||L Lambda^-1/2||_F^2 agree to
    # a few ulps
    q = random_orthonormal(np.random.default_rng(5), 6, 6)
    j = (q * np.array([1.0, 0.5, 0.2, 0.0, 0.0, 0.0])) @ q.T
    j = 0.5 * (j + j.T)
    shrunk = 0
    for tol in (1e-10, 0.02):
        basis = ranked_svd(j, tol)
        l_mats = chart_draws(basis, 70, 9)
        norms = np.linalg.norm(l_mats, axis=(1, 2))
        cutoff = basis.cutoff(basis.rank)  # a shrunk draw sits at the edge c ||M||_F^2 = (1 - c / lambda_r) / 2
        edge = cutoff * np.sum(l_mats**2 / basis.sigma, axis=(1, 2))
        shrunk += np.sum(np.isclose(edge, 0.5 * (1.0 - cutoff / basis.sigma[-1])))
        stack = sample_minimum_stack(basis, 70, 9)
        expected = chart_jacobians(basis, l_mats)
        assert np.all(np.abs(stack.f_jacs - expected) <= 8 * EPS * (1.0 + norms)[:, None, None])
        traces = sample_constraint_traces(basis, 70, 9)
        reference = np.sum(1.0 / basis.sigma) + np.sum(l_mats**2 / basis.sigma, axis=(1, 2))
        assert np.all(np.abs(traces - reference) <= 8 * EPS * reference)
    assert shrunk > 0


def test_a_trace_samples_first_k_traces_are_the_sample_of_k():
    # the traces read the column norms alone, the first draw of their stream, in draw order, so a shorter
    # sample is a prefix of a longer one, bit for bit, at every length, 32 and 64 among them, and where t
    # shrinks draws (rank_tol 0.1); a sampled stack draws its directions after every norm and keeps no such rule
    for tol in (1e-10, 0.1):
        basis = ranked_svd(make_psd(np.random.default_rng(17), 7, 3), tol)
        traces = sample_constraint_traces(basis, 100, 4)
        for k in (1, 6, 31, 32, 33, 64, 65):
            assert sample_constraint_traces(basis, k, 4).tobytes() == traces[:k].tobytes()


def test_a_whole_sample_takes_one_eigvalsh_per_shape(monkeypatch):
    # each J's count draws are drawn whole, so its X = Lambda^-1 + M'M make one (count, r, r) block, and the
    # blocks of every J of one rank take one stacked eigvalsh
    rng = np.random.default_rng(46)
    single = ranked_svd(make_psd(rng, 6, 3))
    bases = [ranked_svd(make_psd(rng, n, rank)) for n, rank in [(2, 1), (5, 1), (4, 2), (6, 2), (8, 5)]]
    calls = []
    real = np.linalg.eigvalsh
    counted = lambda a, *args, **kwargs: calls.append(a.shape) or real(a, *args, **kwargs)
    monkeypatch.setattr(constraint_module.np.linalg, "eigvalsh", counted)
    sample_minimum_stack(single, 70, 3)
    assert calls == [(1, 70, 3, 3)]
    calls.clear()
    constraint_module._sample_stacks(bases, 70, [np.random.default_rng(seed) for seed in range(5, 10)])
    assert calls == [(2, 70, 1, 1), (2, 70, 2, 2), (1, 70, 5, 5)]


def test_the_trace_survey_holds_a_few_count_by_r_blocks():
    # tracemalloc sees numpy's buffers: the trace survey's working memory is a few (count, r) blocks of
    # doubles, the column norms and the ||L_j||^2; one (count, m, r) block of directions would be 16 here
    basis = ranked_svd(make_psd(np.random.default_rng(47), 32, 16))
    count = 10**5
    tracemalloc.start()
    try:
        sample_constraint_traces(basis, count, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert basis.rank == 16
    assert peak < 4 * count * basis.rank * 8


def test_a_sampled_stack_peaks_near_twice_its_jacobians():
    # _sample_stacks scales its directions g in place into L and then M, and sums F and X in place, so a J's sample
    # holds g, F and X at most, about twice F at r = m (four times F before); the bytes are those of the formulas
    # F = U_bar' + L U_r' and X = Lambda^-1 + M'M evaluated out of place
    basis = ranked_svd(make_psd(np.random.default_rng(47), 32, 16))
    count = 2000
    tracemalloc.start()
    try:
        stack = sample_minimum_stack(basis, count, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * stack.f_jacs.nbytes
    rng = np.random.default_rng(seed_sequence(5))
    _, l_squares, _ = constraint_module._sampled(basis, count, rng)
    g = rng.standard_normal((count, 16, 16))
    l_mat = g * np.sqrt(l_squares / np.einsum("kij,kij->kj", g, g))[:, None, :]
    m_mat = l_mat * np.sqrt(1.0 / basis.sigma)
    x = np.diag(1.0 / basis.sigma) + m_mat.transpose(0, 2, 1) @ m_mat
    assert stack.f_jacs.tobytes() == (basis.u_bar.T + l_mat @ basis.u_r.T).tobytes()
    assert stack.utju_eigs.tobytes() == (1.0 / np.linalg.eigvalsh(x)[:, ::-1]).tobytes()


def test_a_stage_sample_equals_each_js_own_bit_for_bit():
    # J of mixed sizes, several of one rank, so that the X of one shape (count, r, r) group across J, at counts
    # 33 and 70 too; each stack equals its J's own sample, bit for bit
    rng = np.random.default_rng(44)
    shapes = [(2, 1), (5, 1), (4, 2), (6, 2), (6, 2), (8, 5), (3, 2), (7, 5), (8, 1)]
    bases = [ranked_svd(make_psd(rng, n, rank)) for n, rank in shapes]
    seeds = [100 + i for i in range(len(bases))]
    for count in (1, 20, 33, 70):
        rngs = [np.random.default_rng(seed_sequence(seed)) for seed in seeds]
        stacks = constraint_module._sample_stacks(bases, count, rngs)
        assert len(stacks) == len(bases)
        for basis, seed, stack in zip(bases, seeds, stacks):
            one = sample_minimum_stack(basis, count, seed)
            assert stack.basis is basis and stack.utju_eigs.shape == (count, basis.rank)
            assert np.array_equal(stack.utju_eigs, one.utju_eigs) and np.array_equal(stack.f_jacs, one.f_jacs)
            assert np.array_equal(stack.row_rank, one.row_rank)


def test_a_stacks_flags_are_read_once():
    stack = sample_minimum_stack(ranked_svd(DIAG), 3, 0)
    assert stack.is_minimum is stack.is_minimum and stack.is_minimum.tolist() == [True] * 3


def test_sampled_flags_follow_the_row_rank_rule():
    # under the default rule the stack's flags are those that evaluate_constraints gives its own
    # f_jacs, F = U_bar' + L U_r'; F's singular values are at least one and t keeps
    # ||L||_2^2 <= 1 / (2 r rank_tol_rel). Up to one ulp below 1/n every rule that the library admits
    # gives F's orthonormal rows full row rank and the stack's flags; the svd rule on F itself cuts
    # at sigma_max(F) max(m, n) rank_tol_rel, which can reach one from a rank_tol of about 0.02
    j = make_psd(np.random.default_rng(6), 4, 2)
    for tol in (1e-10, 0.02, np.nextafter(0.25, 0.0)):
        stack = sample_minimum_stack(ranked_svd(j, tol), 60, 7)
        evaluated = evaluate_constraints(stack.basis, orthonormal_rows(stack.f_jacs))
        for flag in ("full_rank_jacobian", "utju_nonsingular", "rank_sum_is_n"):
            assert np.array_equal(getattr(stack, flag), getattr(evaluated, flag))
        assert np.all(stack.is_minimum)
        raw = evaluate_constraints(stack.basis, stack.f_jacs)
        if tol == 1e-10:
            assert np.all(raw.is_minimum) and np.array_equal(raw.utju_nonsingular, stack.utju_nonsingular)
    # one ulp below 1/n the svd rule calls some F rank deficient that the stack flags full rank
    assert not np.all(raw.full_rank_jacobian)
    with pytest.raises(InvalidInput, match=r"^rank_tol_rel 0.25000000000000006 gives every 4 x 4 matrix rank 0"):
        ranked_svd(j, np.nextafter(0.25, 1.0))


def test_sampled_stack_holds_the_draws_its_specs_label():
    # a small count, a count above 32 and a loose cutoff: the stack holds, in draw order,
    # the Jacobians of the documented draws, every one of them minimum, and the specs carry the labels
    # sampled-i and the orthonormal rows of the stack's Jacobians, the documented draws of util.chart_draws
    rng = np.random.default_rng(8)
    for basis, count in [(ranked_svd(make_psd(rng, 5, 2)), 20), (ranked_svd(make_psd(rng, 6, 3), 0.05), 20),
                         (ranked_svd(make_psd(rng, 5, 2)), 40)]:
        l_mats = chart_draws(basis, count, 11)
        stack = sample_minimum_stack(basis, count, 11)
        assert stack.basis is basis
        bound = 8 * EPS * (1.0 + np.linalg.norm(l_mats, axis=(1, 2)))[:, None, None]
        assert np.all(np.abs(stack.f_jacs - chart_jacobians(basis, l_mats)) <= bound)
        assert np.all(stack.row_rank == basis.dim - basis.rank) and np.all(stack.is_minimum)
        specs = sample_minimum_constraints(basis, count, 11)
        assert [spec.label for spec in specs] == [f"sampled-{i}" for i in range(count)]
        assert np.array_equal([spec.f_jac for spec in specs], orthonormal_rows(stack.f_jacs))


def test_sampled_jacobians_are_the_complete_qr_leading_columns():
    # the specs' rows, from one reduced qr of the stack's Jacobians, are the leading columns of their
    # complete qr bit for bit up to n = 7; from n = 8 the two can round an entry differently (by up to
    # 1.5 eps at n = 8 and 2 eps at n = 32 on an OpenBLAS 0.3.31 build), so there the gap is bounded by
    # n eps
    rng = np.random.default_rng(11)
    for n in [*range(2, 9), 32]:
        for rank in range(1, n) if n < 32 else (16,):
            basis = ranked_svd(make_psd(rng, n, rank))
            stack = sample_minimum_stack(basis, 20, 100 * n + rank)
            rows = np.array([spec.f_jac for spec in sample_minimum_constraints(basis, 20, 100 * n + rank)])
            q, r = np.linalg.qr(stack.f_jacs.transpose(0, 2, 1), mode="complete")
            leading = _sign_fixed_columns(q, r).transpose(0, 2, 1)
            if n < 8:
                assert rows.tobytes() == leading.tobytes(), (n, rank)
            assert np.abs(rows - leading).max() <= n * EPS, (n, rank)


def test_specs_and_witnesses_hold_the_rows_of_each_chunks_reduced_qr():
    # the stack holds F = U_bar' + L U_r', and orthonormal rows are formed only where F leaves the
    # program: the specs of sample_minimum_constraints and the witnesses of the stack's trace and
    # dominance certificates (margin_tol -inf keeps every case) hold, bit for bit, the sign-fixed
    # reduced qr rows of the stack's Jacobians, with the margins and labels of the
    # certificates; 40 constraints among them
    rng = np.random.default_rng(15)
    for tol in (1e-10, 0.02):
        for n in range(2, 9):
            for rank in range(1, n):
                basis, seed = ranked_svd(random_rank_deficient_psd(n, rank, rng), tol), 100 * n + rank
                stack = sample_minimum_stack(basis, 40, seed)
                reference = np.concatenate([orthonormal_rows(chunk) for chunk in np.split(stack.f_jacs, [32])])
                specs = sample_minimum_constraints(basis, 40, seed)
                assert all(spec.f_jac.tobytes() == f_jac.tobytes() for spec, f_jac in zip(specs, reference))
                trace = verify_trace_bound(basis, stack, -np.inf)
                dominance = verify_eigen_dominance(basis, stack, -np.inf)
                for cert, label, rows in ((trace, "constraint-{}", 1), (dominance, "eig-index-{}", rank)):
                    assert len(cert.witnesses) == 40 * rows
                    for c, witness in enumerate(cert.witnesses):
                        assert witness.label == label.format(c if cert is trace else c % rank)
                        assert witness.margin == cert.margins[c]
                        matrices = dict(witness.matrices)
                        assert matrices["j"] is basis.matrix.entries
                        assert matrices["f_jac"].tobytes() == reference[c // rows].tobytes(), (tol, n, rank, c)


def test_only_sample_minimum_constraints_orthonormalizes_and_with_one_qr(monkeypatch):
    # 20 constraints and 40, at the default cutoff and at 0.02; the stack makes
    # no qr, and the specs one for all constraints
    calls = []
    real = np.linalg.qr
    monkeypatch.setattr(constraint_module.np.linalg, "qr", lambda *a, **k: calls.append(a[0].shape) or real(*a, **k))
    basis = ranked_svd(random_rank_deficient_psd(6, 3, np.random.default_rng(16)))
    loose = ranked_svd(basis.matrix.entries, 0.02)
    for j, count in ((basis, 20), (basis, 40), (loose, 40)):
        calls.clear()
        sample_minimum_stack(j, count, 5)
        sample_constraint_traces(j, count, 5)
        assert calls == []
        sample_minimum_constraints(j, count, 5)
        assert calls == [(count, 6, 3)]


def test_sampled_spectra_are_those_of_j_as_its_rank_rule_reads_it():
    # mu is the spectrum of U'J_rU, J_r = U_r diag(lambda_r) U_r', with U an orthonormal basis of
    # null(F) from the complete qr of F'; at rank_tol 1e-3 part of J's spectrum falls below the
    # cutoff, and J_r drops it. 1/mu is compared in units of the largest 1/mu, which the trace and
    # the rule read, within the reference's own forward error 10 r eps sigma_1 / mu_min
    rng = np.random.default_rng(12)
    for n in range(2, 9):
        for rank in range(1, n):
            for tol, scale in ((1e-10, 1e-8), (1e-10, 1.0), (1e-3, 1e8)):
                basis = ranked_svd(spread_psd(rng, n, rank, scale), tol)
                stack = sample_minimum_stack(basis, 20, 100 * n + rank)
                u = np.linalg.qr(stack.f_jacs.transpose(0, 2, 1), mode="complete")[0][..., n - basis.rank :]
                j_r = (basis.u_r * basis.sigma) @ basis.u_r.T
                mu = np.linalg.eigvalsh(u.transpose(0, 2, 1) @ j_r @ u)
                slack = 10 * basis.rank * EPS * basis.sigma[0] / mu[:, :1] ** 2
                assert np.all(np.abs(1.0 / stack.utju_eigs - 1.0 / mu) <= slack), (n, rank, tol)


def spread_psd(rng, n, rank, scale):
    """Random PSD J of the given rank, its nonzero eigenvalues spread over six decades below scale."""
    d = np.zeros(n)
    d[:rank] = scale * 10.0 ** rng.uniform(-6.0, 0.0, rank)
    q = random_orthonormal(rng, n, n)
    j = (q * d) @ q.T
    return 0.5 * (j + j.T)


def test_every_sampled_trace_is_at_least_the_pseudoinverse_trace():
    # the paper's inequality on the sampler's own output: tr U (U'J_rU)^-1 U' >= tr J+, less the
    # forward error c r eps (sigma_1 / mu_min) of the trace read from mu
    rng = np.random.default_rng(13)
    for n in range(2, 9):
        for rank in range(1, n):
            for scale in (1e-8, 1.0, 1e8):
                basis = ranked_svd(spread_psd(rng, n, rank, scale))
                stack = sample_minimum_stack(basis, 20, 100 * n + rank)
                traces = np.array(bound_traces(stack))
                slack = 10 * basis.rank * EPS * basis.sigma[0] / stack.utju_eigs[:, 0] * traces
                assert np.all(traces >= basis.pinv.trace - slack), (n, rank, scale)


def test_every_sampled_stack_is_minimum_with_the_traces_of_the_trace_sampler():
    # random J of every size and rank, at five cutoffs up to one ulp below 1/n and four scales: every
    # draw is minimum, the stack's traces sum 1/mu equal sample_constraint_traces to 10 n eps, and
    # the constrained_crb trace of its spec to 1e-9 relative
    # (one ulp below 1/5 the rule ranks J 0, and every trace is 0); at the scale 1e-301 J's
    # eigenvalues reach 1e-307, where the large steps' bounds would leave double range and the cap on
    # ||M||_F^2 binds; that scale draws its J from a stream of its own, so the others keep theirs
    rng, edge_rng = np.random.default_rng(31), np.random.default_rng(301)
    for n in range(2, 9):
        for rank in range(1, n):
            for scale in (1e-8, 1.0, 1e8, 1e-301):
                j = spread_psd(edge_rng if scale == 1e-301 else rng, n, rank, scale)
                for tol in (1e-10, 0.02, 0.05, 0.1, np.nextafter(1.0 / n, 0.0)):
                    if n * tol >= 1 or (basis := ranked_svd(j, tol)).rank == n:
                        continue
                    seed = 1000 * n + 10 * rank + int(np.log10(scale))
                    stack = sample_minimum_stack(basis, 12, seed)
                    assert np.all(stack.is_minimum), (n, rank, scale, tol)
                    traces = sample_constraint_traces(basis, 12, seed)
                    assert np.all(np.abs(np.array(bound_traces(stack)) - traces) <= 10 * n * EPS * traces)
                    spec = sample_minimum_constraints(basis, 12, seed)[seed % 12]
                    assert abs(constrained_crb(basis, spec).trace - traces[seed % 12]) <= 1e-9 * traces[seed % 12]


def test_the_sampler_refuses_an_indefinite_j_before_drawing():
    # -1 is kept by the rank rule, so sqrt(lambda_r) would be taken of it; the sampler refuses J
    # with ranked_svd's one message
    message = "information matrix is not positive semidefinite: eigenvalue -1 is negative and kept by the rank cutoff 3e-10"
    for sample in (sample_minimum_stack, sample_minimum_constraints, sample_constraint_traces):
        with pytest.raises(InvalidMatrix) as info:
            sample(np.diag([1.0, -1.0, 0.0]), 5, 1)
        assert str(info.value) == message
    # a negative eigenvalue that the rule calls zero is J's null space, as the CLI reads it
    inside = ranked_svd(np.diag([1.0, -3e-10, 0.0]))
    assert is_psd(inside)
    assert sample_minimum_stack(inside, 5, 1).f_jacs.shape == (5, 2, 3)


def test_a_rank_one_j_accepts_no_draw_that_its_rank_rule_calls_singular():
    # a rank-one J leaves U'J_rU 1 x 1; judged against its own largest eigenvalue every mu > 0
    # passed, and these 2,000 random 5 x 5 J accepted draws with ||J|| / mu up to 6.3e12; the rank
    # rule at J's scale calls mu <= sigma_1 * 1 * rank_tol_rel zero, and no draw comes near it
    for seed in range(2000):
        basis = ranked_svd(random_rank_deficient_psd(5, 1, np.random.default_rng(seed)))
        mu = sample_minimum_stack(basis, 20, seed).utju_eigs
        assert np.all(mu[:, 0] > basis.sigma[0] * mu.shape[1] * basis.rank_tol_rel), seed


def test_sampled_and_evaluated_stacks_read_one_j_under_one_rule():
    # at rank_tol 0.02 the rank rule keeps 16.8, 5 and 3 and calls 0.29 and 0.15 zero; when the
    # sampler read J_r and evaluate_constraints the stored J, accepted traces differed by up to 59%.
    # Both read J_r: the specs' rows, evaluated, are minimum with the stack's traces
    j = np.diag([16.8, 5.0, 3.0, 0.29, 0.15, 0.0])
    for tol in (1e-10, 0.02):
        basis = ranked_svd(j, tol)
        stack = sample_minimum_stack(basis, 300, 3)
        evaluated = evaluate_constraints(basis, orthonormal_rows(stack.f_jacs))
        assert np.all(evaluated.is_minimum)
        traces, reference = np.array(bound_traces(stack)), np.array(bound_traces(evaluated))
        slack = 10 * basis.rank * EPS * basis.sigma[0] / stack.utju_eigs[:, 0]
        assert np.all(np.abs(traces - reference) <= slack * reference)
        assert basis.rank == (5 if tol == 1e-10 else 3)


def test_the_trace_sampler_returns_the_accepted_traces_as_one_float64_array():
    # counts below, at and above 32, and the blind channel at rank_tol 0.02;
    # each array holds the traces of the constraints of sample_minimum_stack, sum 1/mu, within 10 r eps
    model = BlindChannelModel(3, 3, 1.0)
    blind = fim_gaussian_mean(model, np.random.default_rng(32).uniform(0.5, 1.5, model.param_dim)).matrix
    loose = ranked_svd(blind, 0.02)
    half = ranked_svd(make_psd(np.random.default_rng(33), 6, 3))
    for basis, count in [(half, 1), (half, 32), (half, 33), (half, 64), (loose, 40)]:
        traces = sample_constraint_traces(basis, count, 9)
        assert type(traces) is np.ndarray and traces.dtype == np.float64 and traces.shape == (count,)
        expected = np.array(bound_traces(sample_minimum_stack(basis, count, 9)))
        assert np.all(np.abs(traces - expected) <= 10 * basis.rank * EPS * expected)


def scripted_streams(monkeypatch, norms, directions):
    """Make the samplers' one stream, seed_sequence(seed), draw the given (k, r) chi^2(n - r) column norms C and then
    the given (k, n - r, r) Gaussian directions g, once each."""
    m = np.shape(directions)[1]

    class Scripted(np.random.Generator):  # np.random.default_rng returns a Generator as it is
        def __init__(self):
            super().__init__(np.random.PCG64(0))
            self.blocks = [("chisquare", np.array(norms, dtype=float)),
                           ("standard_normal", np.array(directions, dtype=float))]

        def chisquare(self, df, size):
            assert df == m, df
            return self.pop("chisquare", size)

        def standard_normal(self, size):
            return self.pop("standard_normal", size)

        def pop(self, method, size):
            assert self.blocks and (method, size) == (self.blocks[0][0], self.blocks[0][1].shape), (method, size)
            return self.blocks.pop(0)[1]

    monkeypatch.setattr(constraint_module, "seed_sequence", lambda seed: Scripted())


def test_one_generator_draws_the_column_norms_then_the_directions(monkeypatch):
    # an integer-seeded stack is _sample_stacks on the one stream seed_sequence(seed), bit for bit; that stream draws
    # the (count, r) chi^2(n - r) column norms, then the (count, n - r, r) directions, as one block each: the stack
    # equals the sampler's with those two blocks scripted, and leaves the stream where a draw of both blocks leaves it
    basis = ranked_svd(make_psd(np.random.default_rng(43), 7, 3), 0.1)
    rng, copy = np.random.default_rng(seed_sequence(8)), np.random.default_rng(seed_sequence(8))
    (stack,) = constraint_module._sample_stacks([basis], 33, [rng])
    want = sample_minimum_stack(basis, 33, 8)
    assert stack.f_jacs.tobytes() == want.f_jacs.tobytes() and stack.utju_eigs.tobytes() == want.utju_eigs.tobytes()
    m, r = basis.dim - basis.rank, basis.rank
    norms, directions = copy.chisquare(m, (33, r)), copy.standard_normal((33, m, r))
    assert rng.bit_generator.state == copy.bit_generator.state
    scripted_streams(monkeypatch, norms, directions)
    scripted = sample_minimum_stack(basis, 33, 0)
    assert stack.f_jacs.tobytes() == scripted.f_jacs.tobytes()
    assert stack.utju_eigs.tobytes() == scripted.utju_eigs.tobytes()


def test_the_trace_sampler_never_draws_a_direction(monkeypatch):
    # the traces read each draw's column norms alone: on a stream whose standard_normal raises,
    # sample_constraint_traces gives its traces bit for bit, at count 70 and where t shrinks draws, while
    # sample_minimum_stack, which needs the directions, raises
    basis = ranked_svd(make_psd(np.random.default_rng(41), 7, 3), 0.1)
    expected = sample_constraint_traces(basis, 70, 12)

    class NormsOnly(np.random.Generator):  # np.random.default_rng returns a Generator as it is
        def standard_normal(self, *args, **kwargs):
            raise AssertionError("a direction was drawn")

    norms_only = lambda seed: NormsOnly(np.random.PCG64(seed_sequence(seed)))
    monkeypatch.setattr(constraint_module, "seed_sequence", norms_only)
    assert sample_constraint_traces(basis, 70, 12).tobytes() == expected.tobytes()
    with pytest.raises(AssertionError, match="a direction was drawn"):
        sample_minimum_stack(basis, 70, 12)


def test_sampled_normals_follow_the_chi_square_law():
    # at the default cutoff on this J, t = 1, so N = L / delta_i. Over 10^4 draws of N (3 x 2) from the
    # documented law (util.chart_draws, the stack's draws to a few ulps) the squared column norms C have
    # mean m = 3 and variance 2m, the directions d = N_j / ||N_j|| have E[dd'] = I/m, and N_j N_j' = C dd'
    # has mean I, each within 5 standard errors
    basis = ranked_svd(np.diag([1.0, 0.5, 0.0, 0.0, 0.0]))
    count, m = 10_000, 3
    steps = np.resize([1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0], count)[:, None]
    l_mats = chart_draws(basis, count, 21)
    stack = sample_minimum_stack(basis, count, 21)
    assert np.all(np.abs(stack.f_jacs @ basis.u_r - l_mats) <= 8 * EPS * np.abs(l_mats).max(axis=(1, 2))[:, None, None])
    norms = np.sum(np.square(l_mats), axis=1) / steps**2  # C, (count, r)
    traces = sample_constraint_traces(basis, count, 21)
    assert np.allclose(traces, np.sum(1.0 / basis.sigma) + steps[:, 0] ** 2 * (norms @ (1.0 / basis.sigma)), rtol=1e-12)
    norms = norms.ravel()
    assert abs(norms.mean() - m) <= 5 * np.sqrt(2 * m / norms.size)
    assert abs(norms.var() - 2 * m) <= 5 * np.sqrt((8 * m**2 + 48 * m) / norms.size)  # chi^2(m)'s 4th moment
    d = (l_mats / np.linalg.norm(l_mats, axis=1, keepdims=True)).transpose(0, 2, 1).reshape(-1, m)
    for products, mean in ((d[:, :, None] * d[:, None, :], np.eye(m) / m),
                           (norms[:, None, None] * d[:, :, None] * d[:, None, :], np.eye(m))):
        error = np.std(products, axis=0) / np.sqrt(len(products))
        assert np.all(np.abs(products.mean(axis=0) - mean) <= 5 * error)


def test_sampled_spectra_and_traces_against_exact_rationals(monkeypatch):
    # J = diag(1, 1/4, 2^-12, 0, 0) has unit eigenvectors and a rational Lambda^-1/2; draws 3, 4 and 5
    # have steps 1, 10 and 100 and t = 1. Each of their columns g_j is Pythagorean, ||g_j|| a whole number,
    # and its squared norm C_j = ||g_j||^2 s_j^2 for a dyadic s_j, so N_j = sqrt(C_j / ||g_j||^2) g_j = s_j g_j
    # is exact, and each X = Lambda^-1 + M'M is rational, and its power sums tr X = sum 1/mu and
    # tr X^2 = sum 1/mu^2 are exact; draw 5 leaves U'J_rU a condition number above 1e8. Both samplers read
    # them within 10 r eps
    basis = ranked_svd(np.diag([1.0, 0.25, 2.0 ** -12, 0.0, 0.0]))
    assert set(np.abs(np.concatenate([basis.u_r, basis.u_bar], axis=1)).ravel()) == {0.0, 1.0}
    columns = [[[4, 3, 0], [-3, 4, -1]], [[-3, 4, 3], [4, 3, -4]], [[3, 4, -3], [4, -3, 4]]]
    scales = [[0.5, 0.25, 2], [0.125, 1, 0.5], [0.5, 0.5, 1]]
    directions = np.concatenate([np.ones((3, 2, 3)), np.array(columns, dtype=float)])
    norms = np.sum(directions**2, axis=1) * np.concatenate([np.ones((3, 3)), np.square(scales)])
    scripted_streams(monkeypatch, norms, directions)
    mu = sample_minimum_stack(basis, 6, 0).utju_eigs
    scripted_streams(monkeypatch, norms, directions)
    traces = sample_constraint_traces(basis, 6, 0)
    assert mu[5, 2] / mu[5, 0] > 1e8
    root = [Fraction(1), Fraction(2), Fraction(64)]  # Lambda^-1/2
    for i, (step, block, scale) in enumerate(zip((1, 10, 100), columns, scales), 3):
        m_mat = [[step * v * Fraction(scale[c]) * root[c] for c, v in enumerate(row)] for row in block]
        x = exact.matmul(exact.transpose(m_mat), m_mat)
        for c, unit in enumerate(root):
            x[c][c] += unit ** 2
        tr_x, tr_x2 = exact.trace(x), exact.trace(exact.matmul(x, x))
        for computed, power in ((np.sum(1.0 / mu[i]), tr_x), (np.sum(1.0 / mu[i] ** 2), tr_x2), (traces[i], tr_x)):
            assert abs(Fraction(float(computed)) - power) <= 10 * 3 * EPS * power, i


def test_minimum_flags_against_exact_ranks():
    # J = BB' and F are integer, so exact in binary, and each flag is a rank over the rationals: F has full row
    # rank when null(F') is empty; U'JU is nonsingular when, moreover, null(F) meets null(J) = null(B') only at 0,
    # that is when [F; B'] has an empty null space; and rank F = m - dim null(F'). F has m = n - r - 1, n - r or
    # n - r + 1 rows: a random one, one with a repeated row, and one that annihilates an integer v in null(B').
    # The float flags are decided by cutoffs, so a draw whose mu_min lies within a factor 1e3 of the cutoff of
    # U'J_rU is skipped
    rng = np.random.default_rng(34)
    shapes = [(n, rank) for n in range(3, 7) for rank in range(1, n)] * 3
    seen, mismatched, skipped = set(), [], 0
    for n, rank in shapes:
        b = rng.integers(-3, 4, (n, rank)).astype(float)
        while exact.null_space(exact.rational(b))[0]:
            b = rng.integers(-3, 4, (n, rank)).astype(float)
        b_t = exact.transpose(exact.rational(b))
        v_q = next(zip(*exact.null_space(b_t)))
        v = np.array([float(x * np.lcm.reduce([y.denominator for y in v_q])) for x in v_q])  # integer, in null(B')
        basis = ranked_svd(b @ b.T)
        assert basis.rank == rank
        for m in (n - rank - 1, n - rank, n - rank + 1):
            g = rng.integers(-3, 4, (3, m, n)).astype(float)
            if m >= 2:
                g[1, 1] = g[1, 0]
            g[2] = (v @ v) * g[2] - np.outer(g[2] @ v, v)  # F v = 0
            stack = evaluate_constraints(basis, g)
            for i, f in enumerate(g):
                f_q = exact.rational(f)
                rank_f = m - len(exact.null_space(exact.transpose(f_q))[0]) if m else 0
                full = rank_f == m
                flags = (full, full and not exact.null_space(f_q + b_t)[0], rank_f + rank == n)
                cutoff, mu = basis.cutoff(n - m), stack.utju_eigs[i]
                if full and mu.size and cutoff / 1e3 < mu[0] < cutoff * 1e3:
                    skipped += 1
                    continue
                seen.add(flags)
                got = (stack.full_rank_jacobian[i], stack.utju_nonsingular[i], stack.rank_sum_is_n[i])
                if tuple(map(bool, got)) != flags:
                    mismatched.append((n, rank, m, i, flags, got))
    assert not mismatched, f"{len(mismatched)} mismatches, {skipped} draws skipped near the cutoff: {mismatched}"
    assert skipped <= 5, f"{skipped} draws skipped near the cutoff"
    assert len(seen) == 6  # every combination but a nonsingular U'JU of a rank-deficient F
