from pathlib import Path

import numpy as np
import pytest

from crbkit import (
    ConstraintSpec,
    FailingCase,
    InvalidInput,
    NotMinimumConstraint,
    RankDeficientConstraint,
    SingularRestriction,
    TheoremCertificate,
    as_ranked_svd,
    bound_traces,
    certificates_to_csv,
    check_minimum_constraint,
    constrained_crb,
    counterexample_check,
    evaluate_constraints,
    is_psd,
    load_matrix,
    merge_certificates,
    null_complement,
    null_complements,
    optimal_affine_constraint,
    pinv_via_basis,
    random_rank_deficient_psd,
    ranked_svd,
    sample_constraint_stacks,
    sample_minimum_constraints,
    sample_minimum_stack,
    unconstrained_crb,
    verify_constraint_equivalence,
    verify_eigen_dominance,
    verify_min_rank,
    verify_poincare,
    verify_trace_bound,
    write_certificate_witnesses,
)
from crbkit.crb import _bounds
from crbkit.verify import ORTHONORMAL_TOL, _check_orthonormal
from util import make_psd, random_orthonormal

EPS = np.finfo(float).eps
DIAG = np.diag([2.0, 0.0])
ROOT_HALF = 1.0 / np.sqrt(2.0)

# the 4x4 fixture whose restricted bound is not comparable to pinv J in
# the matrix order even though trace and eigenvalue dominance hold
J4 = np.diag([1.0, 1.0, 0.0, 0.0])
V4 = 0.5 * np.array(
    [
        [-1.0, 1.0],
        [-1.0, -1.0],
        [-1.0, 1.0],
        [-1.0, -1.0],
    ]
)


def test_trace_bound_frozen_margins():
    diagonal, axis = [[ROOT_HALF, ROOT_HALF]], [[0.0, 1.0]]
    cert = verify_trace_bound(DIAG, evaluate_constraints(DIAG, np.array([diagonal, axis])))
    assert cert.theorem_id == "trace_bound"
    assert cert.passed
    assert cert.n_cases == 2
    assert cert.witnesses == ()
    # the axis constraint attains the pseudoinverse trace exactly
    assert np.isclose(cert.worst_margin, 0.0, atol=1e-12)
    solo = verify_trace_bound(DIAG, evaluate_constraints(DIAG, np.array([diagonal])))
    assert np.isclose(solo.worst_margin, 0.5, atol=1e-12)


def test_trace_bound_rejects_non_minimum_spec():
    with pytest.raises(NotMinimumConstraint):
        verify_trace_bound(DIAG, evaluate_constraints(DIAG, np.array([[[1.0, 0.0]]])))


def test_trace_bound_many_sampled_constraints():
    specs = sample_minimum_constraints(DIAG, 200, 8)
    cert = verify_trace_bound(DIAG, evaluate_constraints(DIAG, np.stack([spec.f_jac for spec in specs])))
    assert cert.passed
    assert cert.n_cases == 200


def test_eigen_dominance_frozen_examples():
    # spectra (1, 0) versus (0.5, 0): one nonzero pair, margin 0.5
    v = np.array([[ROOT_HALF], [-ROOT_HALF]])
    cert = verify_eigen_dominance(DIAG, v)
    assert cert.passed
    assert cert.n_cases == 1
    assert np.isclose(cert.worst_margin, 0.5, atol=1e-12)

    # V = range basis reproduces the pseudoinverse: all margins zero
    equal = verify_eigen_dominance(DIAG, np.array([[1.0], [0.0]]))
    assert np.isclose(equal.worst_margin, 0.0, atol=1e-12)


def test_eigen_dominance_on_incomparable_fixture():
    cert = verify_eigen_dominance(J4, V4)
    assert cert.passed
    assert cert.n_cases == 2


def test_eigen_dominance_rejects_singular_restriction():
    with pytest.raises(SingularRestriction):
        verify_eigen_dominance(DIAG, np.array([[0.0], [1.0]]))


def test_eigen_dominance_rejects_non_orthonormal_v():
    with pytest.raises(InvalidInput):
        verify_eigen_dominance(DIAG, np.array([[2.0], [0.0]]))
    with pytest.raises(InvalidInput):
        verify_eigen_dominance(DIAG, np.array([[1.0, 0.0]]))


def test_orthonormality_guard_edges():
    # an off-diagonal Gram entry of exactly t: tilted[0, 1] = t gives (V'V)[0, 1] = t and (V'V)[1, 1] = 1
    frame = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    _check_orthonormal(frame, "v")
    _check_orthonormal(np.zeros((3, 0)), "v")
    _check_orthonormal(np.zeros((2, 3, 0)), "v")
    tilted = frame.copy()
    tilted[0, 1] = np.nextafter(ORTHONORMAL_TOL, 0.0)
    _check_orthonormal(tilted, "v")
    _check_orthonormal(np.stack([frame, tilted]), "v")
    tilted[0, 1] = np.nextafter(ORTHONORMAL_TOL, 1.0)
    with pytest.raises(InvalidInput, match="v columns are not orthonormal"):
        _check_orthonormal(tilted, "v")
    with pytest.raises(InvalidInput, match="v columns are not orthonormal"):
        _check_orthonormal(np.stack([frame, tilted]), "v")
    broken = frame.copy()
    broken[2, 0] = np.nan
    with pytest.raises(InvalidInput, match="v columns are not orthonormal"):
        _check_orthonormal(broken, "v")
    with pytest.raises(InvalidInput, match="v columns are not orthonormal"):
        verify_eigen_dominance(DIAG, np.array([[np.nan], [0.0]]))


def per_frame_dominance(basis, frames, margin_tol=1e-9):
    """Plain-numpy reference: one frame at a time, as (margin, label, v) per witness.

    The margins are 1/mu, for the ascending spectrum mu of V'JV, minus the
    descending 1/sigma of J. Margins below -margin_tol are witnesses;
    margin_tol = -inf keeps every case.
    """
    witnesses = []
    for v in frames:
        restricted = v.T @ basis.matrix.entries @ v
        lam = 1.0 / np.linalg.eigvalsh(0.5 * (restricted + restricted.T))
        for i, margin in enumerate(lam - 1.0 / basis.sigma[::-1]):
            if margin < -margin_tol:
                witnesses.append((float(margin), f"eig-index-{i}", v))
    return witnesses


def assert_matches_per_frame(basis, frames, margin_tol=1e-9):
    cert = verify_eigen_dominance(basis, frames, margin_tol)
    expected = per_frame_dominance(basis, frames, margin_tol)
    assert cert.n_cases == len(frames) * basis.rank
    assert [(w.margin, w.label) for w in cert.witnesses] == [(m, label) for m, label, _ in expected]
    for witness, (_, _, v) in zip(cert.witnesses, expected):
        mats = dict(witness.matrices)
        assert np.array_equal(mats["j"], basis.matrix.entries) and np.array_equal(mats["v"], v)
    return cert


def test_stacked_eigen_dominance_equals_per_frame_reference():
    # a margin_tol of -inf keeps every case as a witness, so every margin is compared
    rng = np.random.default_rng(41)
    for n in range(2, 9):
        for rank in range(1, n):
            basis = ranked_svd(random_rank_deficient_psd(n, rank, rng))
            for k in (1, 5, 20):
                specs = sample_minimum_constraints(basis, k, 100 * n + rank)
                _, frames = null_complements(np.stack([spec.f_jac for spec in specs]))
                cert = assert_matches_per_frame(basis, frames, -np.inf)
                assert cert.n_cases == k * rank
                assert cert.worst_margin == min(w.margin for w in cert.witnesses)
                if k == 1:  # a 2-d frame is the k = 1 stack
                    flat = verify_eigen_dominance(basis, frames[0], -np.inf)
                    assert [w.margin for w in flat.witnesses] == [w.margin for w in cert.witnesses]


def test_spectral_dominance_margins_agree_with_the_n_by_n_route():
    # the n x n route took the eigenvalues of B = V (V'JV)^-1 V' and of pinv J by eigvalsh.
    # Each inverse moves its matrix by about n eps cond ||.||_2 and, by Weyl, each eigenvalue
    # as much; the zeros past rank(J) need no inverse and stay within n eps ||.||_2
    rng = np.random.default_rng(46)
    for n in range(2, 9):
        for rank in range(1, n):
            basis = ranked_svd(random_rank_deficient_psd(n, rank, rng))
            stack, _ = sample_minimum_stack(basis, 20, 100 * n + rank)
            cert = verify_eigen_dominance(basis, stack, -np.inf)
            margins = np.array([w.margin for w in cert.witnesses]).reshape(20, rank)
            bounds = _bounds(stack.u, stack.restricted, stack.is_minimum)
            pinv = np.linalg.eigvalsh(basis.pinv.entries)[::-1]
            reference = np.linalg.eigvalsh(bounds)[:, ::-1] - pinv
            mu, sigma = stack.utju_eigs, basis.sigma
            norm = 1.0 / mu[:, :1] + 1.0 / sigma[-1]
            cond = np.maximum(mu[:, -1] / mu[:, 0], sigma[0] / sigma[-1])[:, None]
            assert np.all(np.abs(margins - reference[:, :rank]) <= 10 * n * EPS * cond * norm)
            assert np.all(np.abs(reference[:, rank:]) <= 10 * n * EPS * norm)


def matrix_62():
    """Matrix index 62 of a 100-matrix suite drawn from default_rng(1): n = 4, rank 2."""
    rng = np.random.default_rng(1)
    for _ in range(63):
        n = int(rng.integers(2, 9))
        rank = int(rng.integers(1, n))
        j = random_rank_deficient_psd(n, rank, rng)
    return j.entries


def assert_clears_the_known_false_fail(basis, frames, cert):
    """The spectral margins pass with relative slack 0.08. The n x n route failed frame 11 at
    eig-index-3, a zero of its bound B, by roundoff inside Weyl's bound n eps ||B||_2; returns
    that old margin."""
    assert cert.passed and cert.n_cases == len(frames) * basis.rank == 40
    everything = verify_eigen_dominance(basis, frames, -np.inf)
    assert everything.worst_margin == cert.worst_margin
    relative = [
        w.margin / basis.pinv_eigenvalues.values[int(w.label.rsplit("-", 1)[1])] for w in everything.witnesses
    ]
    assert 0.0797 < min(relative) < 0.0798
    v = frames[11]
    lam = np.linalg.eigvalsh(_bounds(v[None], (v.T @ basis.matrix.entries @ v)[None], np.ones(1, bool))[0])
    assert 0.0 > lam[0] >= -4 * EPS * lam[-1]
    return lam[0]


def test_stacked_eigen_dominance_clears_the_known_false_fail():
    # sampled frame 11 has a bound with eigenvalue about 2.3e8, and the n x n route failed
    # its zero eigenvalue at -4.2e-8; at every scale of J the spectral verdict is PASS
    for scale in (1e-8, 1.0, 1e8):
        basis = ranked_svd(scale * matrix_62())
        specs = sample_minimum_constraints(basis, 20, 62)
        _, frames = null_complements(np.stack([spec.f_jac for spec in specs]))
        cert = assert_matches_per_frame(basis, frames)
        old_margin = assert_clears_the_known_false_fail(basis, frames, cert)
        if scale == 1.0:
            assert -4.3e-8 < old_margin < -4.1e-8


def test_eigen_dominance_stack_rejects_bad_frames():
    good, singular = np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]])
    assert verify_eigen_dominance(DIAG, np.stack([good, good])).n_cases == 2
    with pytest.raises(SingularRestriction, match="frame 1"):
        verify_eigen_dominance(DIAG, np.stack([good, singular, good]))
    with pytest.raises(InvalidInput, match="not orthonormal"):
        verify_eigen_dominance(DIAG, np.stack([good, 2.0 * good]))
    with pytest.raises(InvalidInput):
        verify_eigen_dominance(DIAG, good[None, None])
    with pytest.raises(InvalidInput):
        verify_poincare(DIAG, good[None])


def test_poincare_frozen_examples():
    v = np.array([[ROOT_HALF], [ROOT_HALF]])
    cert = verify_poincare(DIAG, v)
    assert cert.theorem_id == "poincare"
    assert cert.passed
    assert cert.n_cases == 1
    assert np.isclose(cert.worst_margin, 1.0, atol=1e-12)
    aligned = verify_poincare(DIAG, np.array([[1.0], [0.0]]))
    assert np.isclose(aligned.worst_margin, 0.0, atol=1e-12)


def test_poincare_random_suite():
    rng = np.random.default_rng(25)
    for _ in range(100):
        n = int(rng.integers(2, 9))
        rank = int(rng.integers(1, n + 1))
        j = make_psd(rng, n, rank)
        k = int(rng.integers(1, n + 1))
        v = random_orthonormal(rng, n, k)
        assert verify_poincare(j, v).passed


def test_equivalence_frozen_examples():
    alts = [np.array([[0.0, 1.0]]), np.array([[0.0, -3.0]])]
    cert = verify_constraint_equivalence(DIAG, np.zeros(2), alts)
    assert cert.theorem_id == "equivalence"
    assert cert.passed
    assert cert.n_cases == 2
    with pytest.raises(InvalidInput):
        # does not annihilate the range basis
        verify_constraint_equivalence(DIAG, np.zeros(2), [np.array([[1.0, 0.0]])])
    with pytest.raises(InvalidInput):
        # wrong row count
        verify_constraint_equivalence(DIAG, np.zeros(2), [np.eye(2)])


def test_equivalence_under_row_mixing():
    rng = np.random.default_rng(26)
    j = make_psd(rng, 6, 4)
    u_bar_t = ranked_svd(j).u_bar.T
    alts = [u_bar_t]
    for _ in range(5):
        alts.append((rng.standard_normal((2, 2)) + 3.0 * np.eye(2)) @ u_bar_t)
    cert = verify_constraint_equivalence(j, rng.standard_normal(6), alts)
    assert cert.passed
    assert cert.n_cases == 6


def test_equivalence_rejects_small_jacobians_that_do_not_annihilate_the_range():
    # the annihilation test is relative to ||F||, so a small F is not waved through
    for f_jac in (1e-9 * np.array([[1.0, 1.0]]), 1e-9 * np.array([[1.0, 0.0]])):
        with pytest.raises(InvalidInput, match="alternative 0 does not annihilate the range basis"):
            verify_constraint_equivalence(DIAG, np.zeros(2), [f_jac])


def test_equivalence_names_the_first_alternative_that_does_not_annihilate():
    good, bad = np.array([[0.0, 1.0]]), np.array([[1.0, 1.0]])
    with pytest.raises(InvalidInput, match="alternative 1 does not annihilate the range basis"):
        verify_constraint_equivalence(DIAG, np.zeros(2), [good, bad, bad])
    with pytest.raises(InvalidInput, match="alternative 2 has shape"):
        verify_constraint_equivalence(DIAG, np.zeros(2), [good, good, np.eye(2)])


def test_equivalence_margins_equal_one_constrained_bound_at_a_time():
    # at margin_tol = -inf every case is a witness, so the certificate keeps every margin
    rng = np.random.default_rng(27)
    for n in range(2, 9):
        for rank in range(n + 1):
            basis = ranked_svd(make_psd(rng, n, rank))
            m = n - rank
            alts = [rng.standard_normal((m, m)) @ basis.u_bar.T for _ in range(3)]
            cert = verify_constraint_equivalence(basis, np.zeros(n), alts, -np.inf)
            expected = [
                -float(np.linalg.norm(constrained_crb(basis, f_jac).bound.entries - basis.pinv.entries))
                for f_jac in alts
            ]
            assert [w.margin for w in cert.witnesses] == expected


def test_min_rank_certificate():
    cert = verify_min_rank(J4, trials=10, rng_seed=3)
    assert cert.theorem_id == "min_rank"
    assert cert.passed
    # ten deficient draws plus the achievability case
    assert cert.n_cases == 11
    again = verify_min_rank(J4, trials=10, rng_seed=3)
    assert again.worst_margin == cert.worst_margin


def test_min_rank_rejects_full_rank_j():
    with pytest.raises(InvalidInput):
        verify_min_rank(np.eye(2), trials=2, rng_seed=0)


def test_counterexample_certificate():
    cert = counterexample_check()
    assert cert.theorem_id == "counterexample"
    assert cert.passed
    assert cert.n_cases == 3
    assert cert.witnesses == ()
    assert cert.detail.startswith("min_eigenvalue=")
    value = float(cert.detail.split("=", 1)[1])
    assert abs(value - (1.0 - np.sqrt(5.0)) / 2.0) <= 1e-6


def test_counterexample_fixture_values():
    restricted = V4.T @ J4 @ V4
    assert np.allclose(restricted, 0.5 * np.eye(2), atol=1e-12)
    lhs = V4 @ np.linalg.inv(restricted) @ V4.T
    assert np.allclose(lhs, 2.0 * (V4 @ V4.T), atol=1e-12)
    assert np.allclose(np.diag(lhs), 1.0, atol=1e-12)
    diff = lhs - pinv_via_basis(J4).entries
    # indefinite difference: matrix order fails even though trace passes
    assert np.linalg.eigvalsh(diff)[0] < -1e-6
    assert np.isclose(np.trace(diff), 2.0, atol=1e-12)
    evals = np.linalg.eigvalsh(0.5 * (diff + diff.T))
    assert abs(evals[0] - (1.0 - np.sqrt(5.0)) / 2.0) <= 1e-12


def test_merge_certificates_accumulates_cases():
    a = verify_poincare(DIAG, np.array([[1.0], [0.0]]))
    b = verify_poincare(np.diag([3.0, 1.0]), np.array([[1.0], [0.0]]))
    merged = merge_certificates([a, b])
    assert merged.n_cases == a.n_cases + b.n_cases
    assert merged.worst_margin == min(a.worst_margin, b.worst_margin)
    assert merged.passed
    with pytest.raises(InvalidInput):
        merge_certificates([])
    with pytest.raises(InvalidInput):
        merge_certificates([a, counterexample_check()])


def test_certificates_csv_format():
    merged = merge_certificates(
        [
            verify_poincare(DIAG, np.array([[1.0], [0.0]])),
            verify_poincare(np.diag([3.0, 1.0]), np.array([[1.0], [0.0]])),
        ]
    )
    text = certificates_to_csv([merged, counterexample_check()])
    lines = text.splitlines()
    assert lines[0] == "# crb-kit v1"
    assert lines[1] == "theorem_id,passed,n_cases,worst_margin,detail"
    assert lines[2].startswith("poincare,true,2,")
    assert lines[3].startswith("counterexample,true,3,")
    assert "min_eigenvalue=" in lines[3]


def test_witness_files_roundtrip(tmp_path):
    case = FailingCase(label="demo", margin=-0.5, matrices=(("j", np.eye(2)),))
    cert = TheoremCertificate(
        theorem_id="poincare",
        passed=False,
        n_cases=1,
        worst_margin=-0.5,
        witnesses=(case,),
    )
    paths = write_certificate_witnesses(cert, tmp_path)
    assert len(paths) == 2
    notes = [p for p in paths if p.endswith(".txt")]
    assert len(notes) == 1
    note_text = Path(notes[0]).read_text()
    assert "demo" in note_text and "margin" in note_text
    mats = [p for p in paths if p.endswith(".matx")]
    assert np.array_equal(load_matrix(mats[0]), np.eye(2))


def test_passing_certificate_writes_no_witnesses(tmp_path):
    assert write_certificate_witnesses(counterexample_check(), tmp_path) == []


def test_random_rank_deficient_psd_properties():
    rng = np.random.default_rng(27)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        rank = int(rng.integers(1, n))
        m = random_rank_deficient_psd(n, rank, rng)
        assert ranked_svd(m).rank == rank
        assert is_psd(m)
    with pytest.raises(InvalidInput):
        random_rank_deficient_psd(2, 3, rng)


def test_random_suite_trace_and_dominance():
    rng = np.random.default_rng(28)
    for i in range(20):
        n = int(rng.integers(2, 9))
        rank = int(rng.integers(1, n))
        j = random_rank_deficient_psd(n, rank, rng)
        specs = sample_minimum_constraints(j, 10, 1000 + i)
        assert verify_trace_bound(j, evaluate_constraints(j, np.stack([spec.f_jac for spec in specs]))).passed
        for spec in specs[:3]:
            v = null_complement(spec.f_jac)
            assert verify_eigen_dominance(j, v).passed


def test_trace_bound_rejects_a_spec_of_the_wrong_shape():
    # two rows for a nullity of one: rank F + rank J = 3 != 2
    with pytest.raises(NotMinimumConstraint, match="constraint 0 "):
        verify_trace_bound(DIAG, evaluate_constraints(DIAG, np.eye(2)[None]))
    with pytest.raises(InvalidInput):
        verify_trace_bound(DIAG, evaluate_constraints(DIAG, np.zeros((0, 1, 2))))


def assert_same_certificate(a, b):
    """Equal under ==: verdict, case count, worst margin and every witness with its arrays."""
    assert (a.theorem_id, a.passed, a.n_cases, a.worst_margin) == (b.theorem_id, b.passed, b.n_cases, b.worst_margin)
    assert [(w.label, w.margin) for w in a.witnesses] == [(w.label, w.margin) for w in b.witnesses]
    for wa, wb in zip(a.witnesses, b.witnesses):
        assert [name for name, _ in wa.matrices] == [name for name, _ in wb.matrices]
        assert all(np.array_equal(x, y) for (_, x), (_, y) in zip(wa.matrices, wb.matrices))


def assert_stack_path_matches(basis, stack, margin_tol=-np.inf):
    """The sampled stack gives the dominance certificate of its frames under ==, and trace
    margins within a forward-error bound of the per-constraint constrained_crb traces.

    constrained_crb's svd null basis differs from the stack's qr one by roundoff, so U'JU moves
    by about eps ||J||_2, and each trace by c r eps (sigma_1 / mu_min) trace.
    """
    slack = 10 * basis.rank * EPS * basis.sigma[0] / stack.utju_eigs[:, 0] * np.array(bound_traces(stack))
    margins = np.array([constrained_crb(basis, f_jac).trace for f_jac in stack.f_jacs]) - basis.pinv.trace
    trace = verify_trace_bound(basis, stack, margin_tol)
    assert (trace.passed, trace.n_cases) == (bool(margins.min() >= -margin_tol), len(margins))
    assert abs(trace.worst_margin - margins.min()) <= slack.max()
    failing = np.flatnonzero(margins < -margin_tol)
    assert [w.label for w in trace.witnesses] == [f"constraint-{i}" for i in failing]
    for witness, i in zip(trace.witnesses, failing):
        assert abs(witness.margin - margins[i]) <= slack[i]
        assert [name for name, _ in witness.matrices] == ["j", "f_jac"]
        assert np.array_equal(dict(witness.matrices)["f_jac"], stack.f_jacs[i])
    dominance = verify_eigen_dominance(basis, stack, margin_tol)
    assert_same_certificate(dominance, verify_eigen_dominance(basis, stack.u, margin_tol))
    return dominance


def test_sampled_stack_certificates_equal_the_spec_and_frame_paths():
    # a margin_tol of -inf keeps every case as a witness, so every margin and array is compared
    rng = np.random.default_rng(43)
    for n in range(2, 9):
        for rank in range(1, n):
            basis = ranked_svd(random_rank_deficient_psd(n, rank, rng))
            stack, labels = sample_minimum_stack(basis, 20, 100 * n + rank)
            assert [spec.label for spec in sample_minimum_constraints(basis, 20, 100 * n + rank)] == labels
            assert np.all(stack.is_minimum) and stack.u.shape == (20, n, rank)
            cert = assert_stack_path_matches(basis, stack)
            assert cert.n_cases == 20 * rank and len(cert.witnesses) == cert.n_cases


def test_sampled_stack_spans_several_chunks():
    # at a loose cutoff draws are rejected, so 70 constraints take more than three chunks of 32
    rng = np.random.default_rng(44)
    basis = ranked_svd(random_rank_deficient_psd(6, 3, rng), 0.02)
    chunks = list(sample_constraint_stacks(basis, 70, 5))
    assert len(chunks) > 3 and sum(len(labels) for _, labels in chunks) == 70
    stack, labels = sample_minimum_stack(basis, 70, 5)
    assert len(stack.f_jacs) == 70 and labels == [label for _, chunk in chunks for label in chunk]
    assert any(not label.endswith("retries=0") for label in labels)
    accepted = np.concatenate([chunk.f_jacs[chunk.is_minimum] for chunk, _ in chunks])
    assert np.array_equal(stack.f_jacs, accepted)
    assert_stack_path_matches(basis, stack)


def test_sampled_stack_clears_the_known_false_fail():
    for scale in (1e-8, 1.0, 1e8):
        basis = ranked_svd(scale * matrix_62())
        stack, _ = sample_minimum_stack(basis, 20, 62)
        cert = assert_stack_path_matches(basis, stack, 1e-9)
        assert_clears_the_known_false_fail(basis, stack.u, cert)


def test_a_passed_stack_keeps_the_checks():
    basis = ranked_svd(DIAG)
    good = evaluate_constraints(basis, np.array([[[0.0, 1.0]], [[ROOT_HALF, ROOT_HALF]]]))
    assert verify_trace_bound(basis, good).n_cases == 2
    mixed = evaluate_constraints(basis, np.array([[[0.0, 1.0]], [[1.0, 0.0]]]))
    with pytest.raises(NotMinimumConstraint, match="constraint 1 "):
        verify_trace_bound(basis, mixed)
    with pytest.raises(SingularRestriction, match="frame 1 "):
        verify_eigen_dominance(basis, mixed)
    stack, _ = sample_minimum_stack(basis, 5, 3)
    for other_j, tol in ((np.diag([3.0, 0.0]), 1e-10), (DIAG, 1e-8)):
        for verify in (verify_trace_bound, verify_eigen_dominance):
            with pytest.raises(InvalidInput, match="another J"):
                verify(ranked_svd(other_j, tol), stack, 1e-9)
    # the same J, given as an array, is refactored and accepted
    assert_same_certificate(verify_trace_bound(DIAG, stack), verify_trace_bound(basis, stack))


def test_a_stack_is_checked_against_the_values_of_j():
    basis = ranked_svd(DIAG)
    stack, _ = sample_minimum_stack(basis, 5, 3)
    twin = ranked_svd(DIAG)
    assert twin is not basis
    for verify in (verify_trace_bound, verify_eigen_dominance):
        assert_same_certificate(verify(twin, stack, -np.inf), verify(basis, stack, -np.inf))
        for other in (ranked_svd(np.diag([3.0, 0.0])), ranked_svd(DIAG, 1e-8)):
            with pytest.raises(InvalidInput, match="another J"):
                verify(other, stack)


def test_a_rejected_draw_is_reported_from_its_own_chunk():
    # under a loose cutoff some draws leave U'JU singular; the error carries the row rank and
    # U'JU extremes of the chunk's own qr-route evaluation
    basis = ranked_svd(random_rank_deficient_psd(6, 3, np.random.default_rng(48)), 0.05)
    chunk = next(chunk for chunk, _ in sample_constraint_stacks(basis, 20, 9) if not np.all(chunk.is_minimum))
    idx = int(np.argmin(chunk.is_minimum))
    evals = chunk.utju_eigs[idx]
    details = {
        "rank_jacobian": int(chunk.row_rank[idx]), "rank_fim": 3, "param_dim": 6,
        "utju_min_eig": float(evals[0]), "utju_max_eig": float(evals[-1]),
    }
    assert details["rank_jacobian"] == 3 and not chunk.utju_nonsingular[idx]
    with pytest.raises(NotMinimumConstraint) as raised:
        verify_trace_bound(basis, chunk)
    assert str(raised.value) == f"constraint {idx} (unlabeled) is not minimum: {details}"


def test_a_non_minimum_spec_is_reported_with_the_details_of_check_minimum_constraint():
    # F's null space holds a range direction and a null direction of J, so U'JU is singular
    basis = ranked_svd(make_psd(np.random.default_rng(49), 5, 2))
    bad = np.vstack([basis.u_r[:, :1].T, basis.u_bar[:, :2].T])
    report = check_minimum_constraint(basis, ConstraintSpec(bad))
    assert not report.utju_nonsingular and "utju_min_eig" in report.details
    stack = evaluate_constraints(basis, np.stack([basis.u_bar.T, bad]))
    with pytest.raises(NotMinimumConstraint) as raised:
        verify_trace_bound(basis, stack)
    assert str(raised.value) == f"constraint 1 (unlabeled) is not minimum: {report.details}"


def test_every_function_follows_the_rank_rule_of_a_factored_j():
    # rank 2 under the default cutoff 3e-10, rank 1 under 3e-6; J+ at rank 1 is diag(1, 0, 0)
    j = np.diag([1.0, 1e-8, 0.0])
    basis = ranked_svd(j, 1e-6)
    assert basis.rank == 1 and as_ranked_svd(basis) is basis
    assert pinv_via_basis(basis).trace == unconstrained_crb(basis).trace == 1.0
    spec = optimal_affine_constraint(basis, np.zeros(3))
    assert spec.n_constraints == 2
    assert check_minimum_constraint(basis, spec).is_minimum
    assert evaluate_constraints(basis, spec.f_jac[None]).is_minimum.tolist() == [True]
    bound = constrained_crb(basis, spec)
    assert bound.exists and np.isclose(bound.trace, 1.0, rtol=1e-12)
    # F's row rank and U'JU's nonsingularity are decided at 1e-6 too
    weak_row = ConstraintSpec(np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1e-6]]))
    assert not check_minimum_constraint(basis, weak_row).full_rank_jacobian
    assert not constrained_crb(basis, np.array([[0.0, 0.0, 1.0]])).exists
    stack, labels = sample_minimum_stack(basis, 5, 3)
    assert stack.basis is basis and stack.f_jacs.shape == (5, 2, 3)
    assert [chunk_labels for _, chunk_labels in sample_constraint_stacks(basis, 5, 3)] == [labels]
    assert [spec.label for spec in sample_minimum_constraints(basis, 5, 3)] == labels
    assert np.allclose([constrained_crb(basis, f_jac).trace for f_jac in stack.f_jacs], bound_traces(stack))
    # the basis's own stack is accepted without repeating its tolerance
    assert verify_trace_bound(basis, stack).passed and verify_eigen_dominance(basis, stack).passed
    assert verify_constraint_equivalence(basis, np.zeros(3), [basis.u_bar.T]).n_cases == 1
    cert = verify_min_rank(basis, 5, 7, -np.inf)
    expected = per_trial_min_rank(j, 5, 7, 1e-6)
    assert [w.margin for w in cert.witnesses] == [margin for margin, _, _ in expected]
    assert cert.witnesses[-1].margin == 1.0 - 1e-6


def per_trial_min_rank(j, trials, rng_seed, rank_tol_rel=1e-10):
    """Plain reference: draw and evaluate one trial at a time, as (margin, label, f_jac) per case.

    Raises RankDeficientConstraint at the first trial whose rows are dependent.
    """
    basis = ranked_svd(j, rank_tol_rel)
    n, rank = basis.dim, basis.rank
    rng = np.random.default_rng(np.random.SeedSequence(entropy=rng_seed))

    def eig_ratio(f_jac):
        stack = evaluate_constraints(basis, f_jac[None])
        if stack.row_rank[0] < f_jac.shape[0]:
            raise RankDeficientConstraint(stack.row_rank[0], f_jac.shape[0])
        evals = stack.utju_eigs[0]
        if evals.size == 0:
            return 1.0
        return max(0.0, float(evals[0])) / float(evals[-1]) if evals[-1] > 0.0 else 0.0

    cases = []
    for t in range(trials):
        m = int(rng.integers(0, n - rank))
        f_jac = rng.standard_normal((m, n))
        cases.append((rank_tol_rel - eig_ratio(f_jac), f"deficient-{t}-rows-{m}", f_jac))
    f_jac = basis.u_bar.T
    cases.append((eig_ratio(f_jac) - rank_tol_rel, "achievable-at-min-rank", f_jac))
    return cases


def assert_min_rank_matches(j, trials, rng_seed, rank_tol_rel=1e-10):
    cert = verify_min_rank(ranked_svd(j, rank_tol_rel), trials, rng_seed, -np.inf)
    expected = per_trial_min_rank(j, trials, rng_seed, rank_tol_rel)
    assert cert.n_cases == trials + 1 and cert.worst_margin == min(m for m, _, _ in expected)
    assert [(w.margin, w.label) for w in cert.witnesses] == [(m, label) for m, label, _ in expected]
    for witness, (_, _, f_jac) in zip(cert.witnesses, expected):
        mats = dict(witness.matrices)
        assert np.array_equal(mats["j"], ranked_svd(j, rank_tol_rel).matrix.entries)
        assert np.array_equal(mats["f_jac"], f_jac)


def test_stacked_min_rank_equals_per_trial_reference():
    rng = np.random.default_rng(45)
    for n in range(2, 9):
        for rank in range(1, n):
            assert_min_rank_matches(random_rank_deficient_psd(n, rank, rng), 12, 10 * n + rank)


def test_stacked_min_rank_raises_at_the_first_deficient_trial():
    # at a loose cutoff some Gaussian trials count as rank deficient
    rng = np.random.default_rng(46)
    raised = 0
    for seed in range(40):
        j = random_rank_deficient_psd(6, 2, rng)
        try:
            per_trial_min_rank(j, 5, seed, 0.1)
        except RankDeficientConstraint as exc:
            with pytest.raises(RankDeficientConstraint) as stacked:
                verify_min_rank(ranked_svd(j, 0.1), 5, seed)
            assert str(stacked.value) == str(exc)
            raised += 1
        else:
            assert_min_rank_matches(j, 5, seed, 0.1)
    assert 0 < raised < 40
