from fractions import Fraction

import numpy as np
import pytest

import crbkit.constraint as constraint_module
from crbkit import (
    BlindChannelModel,
    ConstraintSpec,
    FullRankFim,
    InvalidInput,
    InvalidMatrix,
    SamplingExhausted,
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
from util import make_psd, orthonormal_rows, random_orthonormal, sampled_draws, sampler_chunks

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
    with pytest.raises(FullRankFim):
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
    with pytest.raises(FullRankFim):
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


def reference_sample(j, count, seed, tol):
    """The draw-by-draw sampler in plain numpy: draw one frame, check it, repeat.

    Returns the accepted (f_jac, label) pairs and the number of draws made;
    raises SamplingExhausted after 100 * count consecutive rejections.
    """
    n = j.shape[0]
    u_j, s, vh_j = np.linalg.svd(j)
    rank = int(np.sum(s > s[0] * n * tol))
    m = n - rank
    j_r = (u_j[:, :rank] * s[:rank]) @ vh_j[:rank]  # J as its rank rule reads it
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed))
    accepted, rejects, draws = [], 0, 0
    while len(accepted) < count:
        q, r = np.linalg.qr(rng.standard_normal((n, m)))
        signs = np.sign(np.diag(r))
        signs[signs == 0] = 1.0
        f_jac = (q * signs).T
        draws += 1
        _, s_f, vh = np.linalg.svd(f_jac)
        u = vh[m:].T
        restricted = u.T @ j_r @ u
        evals = np.linalg.eigvalsh(0.5 * (restricted + restricted.T))
        full_rank = int(np.sum(s_f > s_f[0] * n * tol)) == m
        # the rank rule at J's scale keeps every eigenvalue of the (n - m) x (n - m) U'J_rU
        if full_rank and (evals.size == 0 or evals[0] > s[0] * evals.size * tol):
            accepted.append((f_jac, f"sampled-{len(accepted)} retries={rejects}"))
            rejects = 0
        else:
            rejects += 1
            if rejects >= 100 * count:
                raise SamplingExhausted(f"after {draws} draws")
    return accepted, draws


def test_chunked_sampler_consumes_the_stream_draw_by_draw():
    # a loose rank cutoff makes U'J_rU count as singular for about 80% of the
    # draws; 70 constraints take 23 chunks, the last one partial
    q = random_orthonormal(np.random.default_rng(5), 6, 6)
    j = (q * np.array([1.0, 0.5, 0.2, 0.0, 0.0, 0.0])) @ q.T
    j = 0.5 * (j + j.T)
    tol = 0.02
    expected, _ = reference_sample(j, 70, 9, tol)
    specs = sample_minimum_constraints(ranked_svd(j, tol), 70, 9)
    assert [spec.label for spec in specs] == [label for _, label in expected]
    assert sum(int(spec.label.split("retries=")[1]) for spec in specs) > 20
    for spec, (f_jac, _) in zip(specs, expected):
        assert spec.f_jac.tobytes() == f_jac.tobytes()


def test_sampler_exhausts_after_exactly_the_rejection_budget(monkeypatch):
    # a scripted U'JU test rejects every draw, so 70 constraints run out after 7000 draws; the
    # chart makes one solve per chunk
    j = make_psd(np.random.default_rng(9), 4, 2)
    drawn = []
    real = np.linalg.solve
    monkeypatch.setattr(constraint_module, "restricted_nonsingular", lambda basis, evals: np.zeros(len(evals), bool))
    monkeypatch.setattr(
        constraint_module.np.linalg, "solve", lambda a, b: drawn.append(len(a)) or real(a, b)
    )
    with pytest.raises(SamplingExhausted, match="7000 consecutive rejections"):
        sample_minimum_constraints(ranked_svd(j), 70, 3)
    assert sum(drawn) == 7000
    assert max(drawn) == 32


def test_sampler_exhausts_after_accepts_across_a_chunk_boundary(monkeypatch):
    # a scripted U'JU test accepts draws 0, 5, 31, 32 and 50, then rejects every draw: draws 31
    # and 32 straddle the first chunk boundary, and the budget of 4000 runs out at draw 4050
    count, accepts = 40, [0, 5, 31, 32, 50]
    budget = 100 * count
    # the draw-by-draw count; each chunk starts with as many draws as can still be made
    chunks, accepted, rejects, draw, left = [], 0, 0, 0, 0
    while True:
        if not left:
            left = min(count - accepted, budget - rejects, 32)
            chunks.append(left)
        left -= 1
        if draw in accepts:
            accepted, rejects = accepted + 1, 0
        else:
            rejects += 1
            if rejects >= budget:
                break
        draw += 1
    assert (accepted, draw, chunks[:2], chunks[-1]) == (5, 4050, [32, 32], 19)

    seen = [0]

    def scripted(basis, evals):
        first = seen[0]
        seen[0] += len(evals)
        return np.isin(np.arange(first, seen[0]), accepts)

    j = make_psd(np.random.default_rng(9), 4, 2)
    drawn = []
    real = np.linalg.solve
    monkeypatch.setattr(constraint_module, "restricted_nonsingular", scripted)
    monkeypatch.setattr(
        constraint_module.np.linalg, "solve", lambda a, b: drawn.append(len(a)) or real(a, b)
    )
    # the chunk rule hands the loop only its accepted draws
    stack_chunks, kept = constraint_module._stack_chunks, []

    def keeping(basis):
        judge = stack_chunks(basis)
        return lambda draws: kept.append(judge(draws)) or kept[-1]

    monkeypatch.setattr(constraint_module, "_stack_chunks", keeping)
    with pytest.raises(SamplingExhausted, match=f"{budget} consecutive rejections"):
        sample_minimum_constraints(j, count, 3)
    assert drawn == chunks
    assert sum(len(f_jacs) for _, f_jacs, _ in kept) == accepted
    assert seen[0] == draw + 1


def test_sampled_flags_follow_the_row_rank_rule():
    # the sampled draws' orthonormal rows are orthonormal, so every rank rule that the library admits
    # (n * rank_tol_rel below 1) gives them full row rank, up to one ulp below 1/n; from 1/n on
    # ranked_svd refuses
    j = make_psd(np.random.default_rng(6), 4, 2)
    for tol in (1e-10, 0.02, np.nextafter(0.25, 0.0)):
        stack = sample_minimum_stack(ranked_svd(j, tol), 10, 7)
        evaluated = evaluate_constraints(stack.basis, orthonormal_rows(stack.f_jacs))
        for flag in ("full_rank_jacobian", "utju_nonsingular", "rank_sum_is_n"):
            assert np.array_equal(getattr(stack, flag), getattr(evaluated, flag))
        assert np.all(stack.is_minimum)
    # the flags are not those of the stack's f_jacs, its draws G', which are not orthonormal: one ulp
    # below 1/n the svd rule cuts just under sigma_max(G') and calls every draw here rank deficient
    assert not np.any(evaluate_constraints(stack.basis, stack.f_jacs).full_rank_jacobian)
    with pytest.raises(InvalidInput, match=r"^rank_tol_rel 0.25000000000000006 gives every 4 x 4 matrix rank 0"):
        ranked_svd(j, np.nextafter(0.25, 1.0))


def test_sampled_stack_holds_the_draws_its_specs_label():
    # a lone chunk with no rejections, rejections (here under a loose cutoff) and counts above
    # CONSTRAINT_CHUNK: the stack holds, in draw order, the stream's draws at the indices that the
    # specs' retries= labels give, and the specs carry the labels of the draw-by-draw reference and
    # the orthonormal rows of the stack's draws
    rng = np.random.default_rng(8)
    cases = [  # basis, count, one chunk, some draw rejected
        (ranked_svd(make_psd(rng, 5, 2)), 20, True, False),
        (ranked_svd(make_psd(rng, 6, 3), 0.05), 20, False, True),
        (ranked_svd(make_psd(rng, 5, 2)), 40, False, False),
    ]
    for basis, count, one_chunk, rejected in cases:
        draws, hits = sampled_draws(basis, count, 11)
        assert (len(sampler_chunks(hits, count)) == 1) == one_chunk and (len(draws) > count) == rejected
        stack = sample_minimum_stack(basis, count, 11)
        assert stack.basis is basis and np.array_equal(stack.f_jacs, draws[hits])
        assert np.all(stack.row_rank == basis.dim - basis.rank) and np.all(stack.is_minimum)
        expected, _ = reference_sample(basis.matrix.entries, count, 11, basis.rank_tol_rel)
        specs = sample_minimum_constraints(basis, count, 11)
        assert [spec.label for spec in specs] == [label for _, label in expected]
        assert np.array_equal([spec.f_jac for spec in specs], orthonormal_rows(stack.f_jacs))


def complete_qr_chunk(seed, k, n, m):
    """The first k draws of the sampler's stream through one complete qr: Jacobians F (k, m, n)
    from its sign-fixed leading columns and null bases U (k, n, n - m) from its trailing ones."""
    draws = np.random.default_rng(seed_sequence(seed)).standard_normal((k, n, m))
    q, r = np.linalg.qr(draws, mode="complete")
    return _sign_fixed_columns(q, r).transpose(0, 2, 1), q[..., m:]


def spread_psd(rng, n, rank, scale):
    """Random PSD J of the given rank, its nonzero eigenvalues spread over six decades below scale."""
    d = np.zeros(n)
    d[:rank] = scale * 10.0 ** rng.uniform(-6.0, 0.0, rank)
    q = random_orthonormal(rng, n, n)
    j = (q * d) @ q.T
    return 0.5 * (j + j.T)


def test_sampled_jacobians_are_the_complete_qr_leading_columns():
    # a sampled stack holds its draws G' (at the default cutoff none of these is rejected); their
    # reduced qr gives the Jacobians that the complete one gave
    # bit for bit up to n = 7; from n = 8 the two can round an entry differently (by up to 1.5 eps
    # at n = 8 and 2 eps at n = 32 on an OpenBLAS 0.3.31 build), so there the gap is bounded by n eps
    rng = np.random.default_rng(11)
    for n in [*range(2, 9), 32]:
        for rank in range(1, n) if n < 32 else (16,):
            stack = sample_minimum_stack(ranked_svd(make_psd(rng, n, rank)), 20, 100 * n + rank)
            draws = np.random.default_rng(seed_sequence(100 * n + rank)).standard_normal((20, n, n - rank))
            assert np.array_equal(stack.f_jacs, draws.transpose(0, 2, 1))
            rows = orthonormal_rows(stack.f_jacs)
            f_jacs, _ = complete_qr_chunk(100 * n + rank, 20, n, n - rank)
            if n < 8:
                assert rows.tobytes() == f_jacs.tobytes(), (n, rank)
            assert np.abs(rows - f_jacs).max() <= n * EPS, (n, rank)


def test_specs_and_witnesses_hold_the_rows_of_each_chunks_reduced_qr():
    # the stack holds its draws G', and F is formed only where it leaves the program: the specs of
    # sample_minimum_constraints and the witnesses of the stack's trace and dominance certificates
    # (margin_tol -inf keeps every case) hold, bit for bit, the sign-fixed reduced qr rows of each
    # chunk of draws that the stack once held, with the margins and labels of the certificates;
    # at 0.02 draws are rejected and some samples span several chunks. Below n = 8 they are the
    # complete qr's leading columns too (see the test above)
    rng = np.random.default_rng(15)
    spans = 0
    for tol in (1e-10, 0.02):
        for n in range(2, 9):
            for rank in range(1, n):
                basis, seed = ranked_svd(random_rank_deficient_psd(n, rank, rng), tol), 100 * n + rank
                draws, hits = sampled_draws(basis, 20, seed)
                ends = np.cumsum(sampler_chunks(hits, 20))
                reference = np.concatenate([orthonormal_rows(chunk) for chunk in np.split(draws, ends[:-1])])[hits]
                if n < 8:
                    complete, _ = complete_qr_chunk(seed, len(draws), n, n - rank)
                    assert reference.tobytes() == complete[hits].tobytes()
                stack = sample_minimum_stack(basis, 20, seed)
                specs = sample_minimum_constraints(basis, 20, seed)
                assert all(spec.f_jac.tobytes() == f_jac.tobytes() for spec, f_jac in zip(specs, reference))
                trace = verify_trace_bound(basis, stack, -np.inf)
                dominance = verify_eigen_dominance(basis, stack, -np.inf)
                for cert, label, rows in ((trace, "constraint-{}", 1), (dominance, "eig-index-{}", rank)):
                    assert len(cert.witnesses) == 20 * rows
                    for c, witness in enumerate(cert.witnesses):
                        assert witness.label == label.format(c if cert is trace else c % rank)
                        assert witness.margin == cert.margins[c]
                        matrices = dict(witness.matrices)
                        assert matrices["j"] is basis.matrix.entries
                        assert matrices["f_jac"].tobytes() == reference[c // rows].tobytes(), (tol, n, rank, c)
                spans += len(ends) > 1
    assert spans > 0


def test_only_sample_minimum_constraints_orthonormalizes_and_with_one_qr(monkeypatch):
    # at the default cutoff 40 constraints take two chunks; at 0.02 draws are rejected across
    # several; the stack makes no qr, and the specs one for all accepted draws
    calls = []
    real = np.linalg.qr
    monkeypatch.setattr(constraint_module.np.linalg, "qr", lambda *a, **k: calls.append(a[0].shape) or real(*a, **k))
    basis = ranked_svd(random_rank_deficient_psd(6, 3, np.random.default_rng(16)))
    loose = ranked_svd(basis.matrix.entries, 0.02)
    for j, count in ((basis, 20), (basis, 40), (loose, 40)):
        draws, hits = sampled_draws(j, count, 5)
        assert len(sampler_chunks(hits, count)) > 1 or count == 20
        assert (j is loose) == (len(draws) > count)
        calls.clear()
        sample_minimum_stack(j, count, 5)
        assert calls == []
        sample_minimum_constraints(j, count, 5)
        assert calls == [(count, 6, 3)]


def test_sampled_spectra_are_those_of_j_as_its_rank_rule_reads_it():
    # mu is the spectrum of U'J_rU, J_r = U_r diag(lambda_r) U_r', with U from the complete qr; at
    # rank_tol 1e-3 part of J's spectrum falls below the cutoff, and J_r drops it. 1/mu is compared
    # in units of the largest 1/mu, which the trace and the rule read, within the reference's own
    # forward error 10 r eps sigma_1 / mu_min; the chart's large mu of an ill-conditioned U'J_rU do
    # not meet an absolute bound of r eps sigma_1
    rng = np.random.default_rng(12)
    for n in range(2, 9):
        for rank in range(1, n):
            for tol, scale in ((1e-10, 1e-8), (1e-10, 1.0), (1e-3, 1e8)):
                basis = ranked_svd(spread_psd(rng, n, rank, scale), tol)
                stack = sample_minimum_stack(basis, 20, 100 * n + rank)
                draws, hits = sampled_draws(basis, 20, 100 * n + rank)
                u = complete_qr_chunk(100 * n + rank, len(draws), n, n - basis.rank)[1][hits]
                j_r = (basis.u_r * basis.sigma) @ basis.u_r.T
                mu = np.linalg.eigvalsh(u.transpose(0, 2, 1) @ j_r @ u)
                slack = 10 * basis.rank * EPS * basis.sigma[0] / mu[:, :1] ** 2
                assert np.all(np.abs(1.0 / stack.utju_eigs - 1.0 / mu) <= slack)


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


def test_the_sampler_refuses_an_indefinite_j_before_drawing():
    # -1 is kept by the rank rule, so sqrt(lambda_r) would be taken of it; the sampler refuses J
    # with ranked_svd's one message, not with SamplingExhausted once its budget of draws is spent
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
    # rule at J's scale calls mu <= sigma_1 * 1 * rank_tol_rel zero
    for seed in range(2000):
        basis = ranked_svd(random_rank_deficient_psd(5, 1, np.random.default_rng(seed)))
        mu = sample_minimum_stack(basis, 20, seed).utju_eigs
        assert np.all(mu[:, 0] > basis.sigma[0] * mu.shape[1] * basis.rank_tol_rel), seed


def test_sampled_and_evaluated_stacks_read_one_j_under_one_rule():
    # at rank_tol 0.02 the rank rule keeps 16.8, 5 and 3 and calls 0.29 and 0.15 zero; while the
    # sampler read J_r and evaluate_constraints the stored J, 129 of the 551 draws made for 300
    # constraints got another is_minimum, and accepted traces differed by up to 59%
    j = np.diag([16.8, 5.0, 3.0, 0.29, 0.15, 0.0])
    for tol in (1e-10, 0.02):
        basis = ranked_svd(j, tol)
        draws, hits = sampled_draws(basis, 300, 3)
        evaluated = evaluate_constraints(basis, orthonormal_rows(draws))
        assert np.array_equal(np.flatnonzero(evaluated.is_minimum), hits)
        stack = sample_minimum_stack(basis, 300, 3)
        traces, reference = np.array(bound_traces(stack)), np.array(bound_traces(evaluated))[hits]
        slack = 10 * basis.rank * EPS * basis.sigma[0] / stack.utju_eigs[:, 0]
        assert np.all(np.abs(traces - reference) <= slack * reference)
        assert tol == 1e-10 or len(draws) > 600  # at 0.02 most draws are rejected, on both routes alike


def recorded_sample(monkeypatch, sample, basis, count, seed):
    """sample(basis, count, seed) with the accept mask of each chunk that its chunk rule judged and the
    number of draws that restricted_nonsingular judged, for the trace sampler those that the bracket
    left open.

    Returns (the sample or the SamplingExhausted message, masks, judged draws).
    """
    masks, opened = [], [0]
    rule = constraint_module.restricted_nonsingular

    def recorded(chunk_rule):
        def rule_of(basis):
            judge = chunk_rule(basis)

            def record(draws):
                accepted, *arrays = judge(draws)
                masks.append(accepted.copy())
                return accepted, *arrays

            return record

        return rule_of

    def counted(basis, mu):
        opened[0] += len(mu)
        return rule(basis, mu)

    with monkeypatch.context() as patch:
        for name in ("_stack_chunks", "_trace_chunks"):
            patch.setattr(constraint_module, name, recorded(getattr(constraint_module, name)))
        patch.setattr(constraint_module, "restricted_nonsingular", counted)
        try:
            result = sample(basis, count, seed)
        except SamplingExhausted as exc:
            result = str(exc)
    return result, masks, opened[0]


def assert_the_samplers_agree(monkeypatch, basis, count, seed):
    """Both samplers accept the same draws, chunk for chunk, and each trace is bound_traces of its draw,
    sum 1/mu, within 10 r eps; each draw's flags are those that evaluate_constraints, the svd route,
    gives its orthonormal F. Returns the number of draws whose mu the trace sampler read.
    """
    stack, masks, _ = recorded_sample(monkeypatch, sample_minimum_stack, basis, count, seed)
    traces, trace_masks, opened = recorded_sample(monkeypatch, sample_constraint_traces, basis, count, seed)
    assert len(trace_masks) == len(masks) and all(np.array_equal(a, b) for a, b in zip(trace_masks, masks))
    accepted = np.concatenate(masks)
    shape = (len(accepted), basis.dim, basis.dim - basis.rank)
    draws = np.random.default_rng(seed_sequence(seed)).standard_normal(shape)
    evaluated = evaluate_constraints(basis, orthonormal_rows(draws.transpose(0, 2, 1)))
    assert np.all(evaluated.full_rank_jacobian) and np.all(evaluated.rank_sum_is_n)
    assert np.array_equal(evaluated.utju_nonsingular, accepted)
    if isinstance(stack, str):  # both samplers judge the exhausting chunk, then raise
        assert traces == stack
    else:
        expected = np.array(bound_traces(stack))
        assert len(traces) == count
        assert np.all(np.abs(traces - expected) <= 10 * basis.rank * EPS * expected)
    return opened


def test_the_trace_sampler_returns_the_accepted_traces_as_one_float64_array(monkeypatch):
    # counts inside one chunk, at its boundary and past it, and the blind channel at rank_tol 0.02,
    # whose rejections leave chunks with fewer traces than draws; each array holds the traces of
    # the draws that sample_minimum_stack accepts
    model = BlindChannelModel(3, 3, 1.0)
    blind = fim_gaussian_mean(model, np.random.default_rng(32).uniform(0.5, 1.5, model.param_dim)).matrix
    loose = ranked_svd(blind, 0.02)
    assert len(sampled_draws(loose, 40, 9)[0]) > 40
    half = ranked_svd(make_psd(np.random.default_rng(33), 6, 3))
    for basis, count in [(half, 1), (half, 32), (half, 33), (half, 64), (loose, 40)]:
        traces = sample_constraint_traces(basis, count, 9)
        assert type(traces) is np.ndarray and traces.dtype == np.float64 and traces.shape == (count,)
        assert_the_samplers_agree(monkeypatch, basis, count, 9)


def test_the_trace_sampler_accepts_the_spectral_draws_with_their_traces(monkeypatch):
    # both samplers read each draw in J's chart and judge it by one rule, the trace sampler through
    # a bracket on 1/mu_min that decides a draw when it clears the cutoff by a factor of two, and
    # through mu itself for the rest; the flags are those of the svd route, over cutoffs and scales
    rng = np.random.default_rng(31)
    tols = (1e-10, 0.02, 0.05, 0.1)
    for n in range(2, 9):
        for trial in range(3):
            j = spread_psd(rng, n, int(rng.integers(1, n)), 10.0 ** rng.uniform(-8, 8))
            for tol in tols:
                if n * tol < 1 and (basis := ranked_svd(j, tol)).rank < n:
                    assert_the_samplers_agree(monkeypatch, basis, 40, 10 * n + trial)
    wide = make_psd(np.random.default_rng([7, 1]), 32, 16)
    assert_the_samplers_agree(monkeypatch, ranked_svd(wide), 100, 5)
    # at 0.02 the wide J keeps rank 8 and the bracket rejects all but 2 of the 2,000 draws that
    # exhaust the budget
    assert_the_samplers_agree(monkeypatch, ranked_svd(wide, 0.02), 20, 5)
    traces, _, _ = recorded_sample(monkeypatch, sample_constraint_traces, ranked_svd(wide, 0.02), 20, 5)
    assert traces == "2000 consecutive rejections while sampling minimum constraints"
    model = BlindChannelModel(3, 3, 1.0)
    blind = fim_gaussian_mean(model, np.random.default_rng(32).uniform(0.5, 1.5, model.param_dim)).matrix
    opened = {tol: assert_the_samplers_agree(monkeypatch, ranked_svd(blind, tol), 200, 6) for tol in tols}
    # at 0.02 the bracket leaves about 40% of the blind channel's draws to the rule on mu
    assert opened[0.02] > 0


def scripted_stream(monkeypatch, draws):
    """Make the samplers draw the given (k, n, m) chunk, once, in place of their Gaussian stream."""
    chunks = [np.array(draws, dtype=float)]

    class Scripted:
        def standard_normal(self, shape):
            assert chunks and shape == chunks[0].shape, shape
            return chunks.pop()

    monkeypatch.setattr(constraint_module, "random_stream", lambda seed: Scripted())


def test_sampled_spectra_and_traces_against_exact_rationals(monkeypatch):
    # J = diag(1, 1/4, 2^-12, 0, 0) has unit eigenvectors and a rational Lambda^-1/2, so for each draw
    # X = Lambda^-1 + M'M is rational, and its power sums tr X = sum 1/mu and tr X^2 = sum 1/mu^2 are
    # exact; the first draw's B = [[1, 1], [1, 1 + 2^-8]] leaves U'J_rU a condition number of about
    # 1e8. Both samplers read them within 10 r eps; the qr and eigvalsh of Lambda - YY' that the
    # sampler once took erred by 2.5e-10 (1.1e6 eps) on that draw and 77 eps on the third
    basis = ranked_svd(np.diag([1.0, 0.25, 2.0 ** -12, 0.0, 0.0]))
    assert set(np.abs(np.concatenate([basis.u_r, basis.u_bar], axis=1)).ravel()) == {0.0, 1.0}
    a_blocks = [[[1, -1], [0.5, 2], [0.25, 1]], [[3, 1], [-2, 0.5], [1, -1]],
                [[0.5, 0.5], [1, -1], [0.125, 2]]]
    b_blocks = [[[1, 1], [1, 1 + 2.0 ** -8]], [[2, -1], [1, 3]], [[1, 2], [3, 4]]]
    draws = [basis.u_r @ np.array(a) + basis.u_bar @ np.array(b) for a, b in zip(a_blocks, b_blocks)]
    scripted_stream(monkeypatch, draws)
    mu = sample_minimum_stack(basis, 3, 0).utju_eigs
    scripted_stream(monkeypatch, draws)
    traces = sample_constraint_traces(basis, 3, 0)
    assert mu[0, 2] / mu[0, 0] > 1e8
    root = [Fraction(1), Fraction(2), Fraction(64)]  # Lambda^-1/2
    for i, (a, b) in enumerate(zip(a_blocks, b_blocks)):
        l_mat = exact.solve(exact.transpose(exact.rational(b)), exact.transpose(exact.rational(a)))
        m_mat = [[v * root[c] for c, v in enumerate(row)] for row in l_mat]
        x = exact.matmul(exact.transpose(m_mat), m_mat)
        for c, scale in enumerate(root):
            x[c][c] += scale ** 2
        tr_x, tr_x2 = exact.trace(x), exact.trace(exact.matmul(x, x))
        for computed, power in ((np.sum(1.0 / mu[i]), tr_x), (np.sum(1.0 / mu[i] ** 2), tr_x2), (traces[i], tr_x)):
            assert abs(Fraction(float(computed)) - power) <= 10 * 3 * EPS * power, i


def test_a_draw_whose_b_is_singular_is_rejected_on_its_own():
    # the middle draw's last row is zero, so its B = U_bar'G is exactly singular and its null(F) meets
    # null(J): solve refuses the chunk, and both chunk rules judge it one draw at a time, rejecting
    # that draw and judging the other two as they judge them alone
    basis = ranked_svd(np.diag([2.0, 1.0, 0.0]))
    draws = np.random.default_rng(14).standard_normal((3, 3, 1))
    draws[1, 2] = 0.0
    stacks, traces = constraint_module._stack_chunks(basis), constraint_module._trace_chunks(basis)
    flags, f_jacs, mu = stacks(draws)
    accepted, kept = traces(draws)
    assert flags.tolist() == accepted.tolist() == [True, False, True]
    chart, spectra = constraint_module._chart(basis)
    assert spectra(chart(draws))[1].tolist() == [0.0, 0.0]
    for i in (0, 2):
        alone, alone_f_jacs, alone_mu = stacks(draws[i : i + 1])
        assert alone.tolist() == [True] and np.array_equal(alone_mu[0], mu[i // 2])
        assert np.array_equal(alone_f_jacs[0], f_jacs[i // 2])
        assert traces(draws[i : i + 1])[1].tolist() == [kept[i // 2]]
