import numpy as np
import pytest

import crbkit.constraint as constraint_module
from crbkit import (
    BlindChannelModel,
    ConstraintSpec,
    ConstraintStack,
    FullRankFim,
    InvalidInput,
    SamplingExhausted,
    check_minimum_constraint,
    constrained_crb,
    evaluate_constraints,
    fim_gaussian_mean,
    is_nonsingular,
    load_constraint_spec,
    null_complement,
    optimal_affine_constraint,
    pinv_via_basis,
    ranked_svd,
    sample_constraint_stacks,
    sample_minimum_constraints,
    sample_minimum_stack,
    save_constraint_spec,
)
from util import make_psd, random_orthonormal

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
    assert overdone.details["rank_jacobian"] == 2
    assert overdone.details["rank_fim"] == 1
    assert overdone.details["param_dim"] == 2


def test_check_minimum_details_carry_restricted_eigenvalues():
    report = check_minimum_constraint(DIAG, ConstraintSpec(np.array([[0.0, 1.0]])))
    assert np.isclose(report.details["utju_min_eig"], 2.0)
    assert np.isclose(report.details["utju_max_eig"], 2.0)


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
    s = np.linalg.svd(j)[1]
    rank = int(np.sum(s > s[0] * n * tol))
    m = n - rank
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
        restricted = u.T @ j @ u
        evals = np.linalg.eigvalsh(0.5 * (restricted + restricted.T))
        full_rank = int(np.sum(s_f > s_f[0] * n * tol)) == m
        if full_rank and (evals.size == 0 or evals[0] > tol * evals[-1]):
            accepted.append((f_jac, f"sampled-{len(accepted)} retries={rejects}"))
            rejects = 0
        else:
            rejects += 1
            if rejects >= 100 * count:
                raise SamplingExhausted(f"after {draws} draws")
    return accepted, draws


def test_chunked_sampler_consumes_the_stream_draw_by_draw():
    # a loose rank cutoff makes U'JU count as singular for about 40% of the
    # draws; 70 constraints take three chunks, the last one partial
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
    # rank_tol 0.6 on a 2 x 2 J puts every singular value of an orthonormal
    # frame below the cutoff, so every draw is rejected
    j = np.zeros((2, 2))
    with pytest.raises(SamplingExhausted, match="after 7000 draws"):
        reference_sample(j, 70, 3, 0.6)
    drawn = []
    real = np.linalg.qr
    monkeypatch.setattr(
        constraint_module.np.linalg, "qr", lambda a, mode: drawn.append(len(a)) or real(a, mode)
    )
    with pytest.raises(SamplingExhausted, match="7000 consecutive rejections"):
        sample_minimum_constraints(ranked_svd(j, 0.6), 70, 3)
    assert sum(drawn) == 7000
    assert max(drawn) == 32


def test_sampled_flags_follow_the_row_rank_rule():
    # the sampled rows are orthonormal, so their singular values are 1 and the rule
    # 1 > max(m, n) * rank_tol_rel accepts every row below 1 / max(m, n) and none above it
    j = make_psd(np.random.default_rng(6), 4, 2)
    for tol in (0.25 * (1 - 1e-6), 0.25 * (1 + 1e-6)):
        stack, _ = next(sample_constraint_stacks(ranked_svd(j, tol), 10, 7))
        evaluated = evaluate_constraints(stack.basis, stack.f_jacs)
        for flag in ("full_rank_jacobian", "utju_nonsingular", "rank_sum_is_n"):
            assert np.array_equal(getattr(stack, flag), getattr(evaluated, flag))
        assert np.all(stack.full_rank_jacobian) == np.any(stack.full_rank_jacobian) == (tol < 0.25)


def test_sampled_stack_equals_its_filtered_chunks():
    # a lone chunk with no rejections is returned as it is; rejections (here under a loose cutoff)
    # and counts above CONSTRAINT_CHUNK take the filter and the concatenation
    rng = np.random.default_rng(8)
    cases = [  # basis, count, one chunk, some draw rejected
        (ranked_svd(make_psd(rng, 5, 2)), 20, True, False),
        (ranked_svd(make_psd(rng, 6, 3), 0.05), 20, False, True),
        (ranked_svd(make_psd(rng, 5, 2)), 40, False, False),
    ]
    for basis, count, one_chunk, rejected in cases:
        chunks = list(sample_constraint_stacks(basis, count, 11))
        assert len(chunks) == 1 if one_chunk else len(chunks) > 1
        assert any(not np.all(chunk.is_minimum) for chunk, _ in chunks) == rejected
        stack, labels = sample_minimum_stack(basis, count, 11)
        assert stack.basis is basis
        assert labels == [label for _, chunk_labels in chunks for label in chunk_labels]
        for name in ConstraintStack._fields[1:]:
            reference = np.concatenate([getattr(chunk, name)[chunk.is_minimum] for chunk, _ in chunks])
            assert len(reference) == count and np.array_equal(getattr(stack, name), reference), name
