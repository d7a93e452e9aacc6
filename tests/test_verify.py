import re
from copy import deepcopy
from pathlib import Path

import numpy as np
import pytest

from crbkit import (
    ConstraintSpec,
    FailingCase,
    InvalidInput,
    NotMinimumConstraint,
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
    min_rank_trials,
    null_complement,
    null_complements,
    optimal_affine_constraint,
    pinv_via_basis,
    random_rank_deficient_psd,
    ranked_svd,
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
import crbkit.verify as verify_module
from crbkit.crb import _bounds
from crbkit.matlin import (
    ORTHONORMAL_TOL,
    RankedSvd,
    SymMatrix,
    orthonormal_columns,
    restricted_information,
    restricted_nonsingular,
)
from crbkit.verify import (
    _check_orthonormal,
    _eigen_dominance_stage,
    _equivalence_stage,
    _min_rank_stage,
    _poincare_stage,
    _suite_frames,
    _trace_bound_stage,
)
from util import (
    chart_draws,
    chart_jacobians,
    gaussian_rows,
    make_psd,
    orthonormal_rows,
    random_orthonormal,
)

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
    with pytest.raises(NotMinimumConstraint, match="^V'JV of frame 0 is numerically singular$"):
        verify_eigen_dominance(DIAG, np.array([[0.0], [1.0]]))


def test_eigen_dominance_rejects_non_orthonormal_v():
    with pytest.raises(InvalidInput):
        verify_eigen_dominance(DIAG, np.array([[2.0], [0.0]]))
    with pytest.raises(InvalidInput):
        verify_eigen_dominance(DIAG, np.array([[1.0, 0.0]]))


def test_eigen_dominance_refuses_frames_narrower_than_the_rank():
    # a frame narrower than rank(J) has no 1/mu to set against the last 1/sigma, so it is no case at all
    j = np.diag([2.0, 1.0, 0.0])
    with pytest.raises(InvalidInput, match=r"frames need rank\(J\) = 2 columns, got 1"):
        verify_eigen_dominance(j, np.eye(3)[:, :1])
    basis = ranked_svd(j)
    stack = evaluate_constraints(basis, [[[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]])
    assert null_complements(stack.f_jacs)[1].shape == (1, 3, 1) and not stack.is_minimum[0]
    with pytest.raises(NotMinimumConstraint, match=r"^constraint 0 \(unlabeled\) is not minimum: "):
        verify_eigen_dominance(basis, stack)
    assert verify_eigen_dominance(j, np.eye(3)[:, :2]).worst_margin == 0.0


def test_orthonormality_guard_edges():
    # an off-diagonal Gram entry of exactly t: tilted[0, 1] = t gives (V'V)[0, 1] = t and (V'V)[1, 1] = 1
    frame = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    _check_orthonormal(frame, 3, "v")
    _check_orthonormal(np.zeros((3, 0)), 3, "v")
    _check_orthonormal(np.zeros((2, 3, 0)), 3, "v")
    tilted = frame.copy()
    tilted[0, 1] = np.nextafter(ORTHONORMAL_TOL, 0.0)
    _check_orthonormal(tilted, 3, "v")
    _check_orthonormal(np.stack([frame, tilted]), 3, "v")
    tilted[0, 1] = np.nextafter(ORTHONORMAL_TOL, 1.0)
    with pytest.raises(InvalidInput, match="v columns are not orthonormal"):
        _check_orthonormal(tilted, 3, "v")
    with pytest.raises(InvalidInput, match="v columns are not orthonormal"):
        _check_orthonormal(np.stack([frame, tilted]), 3, "v")
    broken = frame.copy()
    broken[2, 0] = np.nan
    with pytest.raises(InvalidInput, match="v columns are not orthonormal"):
        _check_orthonormal(broken, 3, "v")
    with pytest.raises(InvalidInput, match="v columns are not orthonormal"):
        verify_eigen_dominance(DIAG, np.array([[np.nan], [0.0]]))


def test_frames_with_another_row_count_are_refused():
    # a frame or stack whose row count is not n is refused before any product, its shape named
    j = np.diag([2.0, 1.0, 0.0])
    frames = (np.eye(4)[:, :2], np.eye(2))
    for verify in (verify_poincare, verify_eigen_dominance):
        for v in frames + tuple(np.stack([frame, frame]) for frame in frames):
            with pytest.raises(InvalidInput, match=r"^v must be a tall matrix.*got shape " + re.escape(str(v.shape))):
                verify(j, v)


def per_frame_dominance(basis, frames):
    """Plain-numpy reference: one frame at a time, as (margin, label, v) per case.

    The margins are 1/mu, for the ascending spectrum mu of V'J_rV =
    Y' diag(lambda_r) Y with Y = U_r'V, minus the descending 1/sigma of J.
    """
    cases = []
    for v in frames:
        y = basis.u_r.T @ v
        restricted = y.T @ (basis.eigenvalues[: basis.rank, None] * y)
        lam = 1.0 / np.linalg.eigvalsh(0.5 * (restricted + restricted.T))
        for i, margin in enumerate(lam - 1.0 / basis.sigma[::-1]):
            cases.append((float(margin), f"eig-index-{i}", v))
    return cases


def assert_matches_per_frame(basis, frames, margin_tol=1e-9):
    """Every margin equals the reference's, and the witnesses are its cases below -margin_tol."""
    cert = verify_eigen_dominance(basis, frames, margin_tol)
    expected = per_frame_dominance(basis, frames)
    assert cert.n_cases == len(frames) * basis.rank
    assert cert.margins.tolist() == [m for m, _, _ in expected]
    expected = [case for case in expected if case[0] < -margin_tol]
    assert [(w.margin, w.label) for w in cert.witnesses] == [(m, label) for m, label, _ in expected]
    for witness, (_, _, v) in zip(cert.witnesses, expected):
        mats = dict(witness.matrices)
        assert np.array_equal(mats["j"], basis.matrix.entries) and np.array_equal(mats["v"], v)
    return cert


def test_stacked_eigen_dominance_equals_per_frame_reference():
    # every margin is compared; at margin_tol = -inf every case is a witness, so every witness's inputs are too
    rng = np.random.default_rng(41)
    for n in range(2, 9):
        for rank in range(1, n):
            basis = ranked_svd(random_rank_deficient_psd(n, rank, rng))
            for k in (1, 5, 20):
                specs = sample_minimum_constraints(basis, k, 100 * n + rank)
                _, frames = null_complements(np.stack([spec.f_jac for spec in specs]))
                cert = assert_matches_per_frame(basis, frames)
                assert cert.n_cases == k * rank
                assert cert.worst_margin == min(cert.margins.tolist())
                assert_matches_per_frame(basis, frames, -np.inf)
                if k == 1:  # a 2-d frame is the k = 1 stack
                    flat = verify_eigen_dominance(basis, frames[0])
                    assert flat.margins.tolist() == cert.margins.tolist()


def test_spectral_dominance_margins_agree_with_the_n_by_n_route():
    # the n x n route took the eigenvalues of B = V (V'JV)^-1 V' and of pinv J by eigvalsh.
    # Each inverse moves its matrix by about n eps cond ||.||_2 and, by Weyl, each eigenvalue
    # as much; the zeros past rank(J) need no inverse and stay within n eps ||.||_2
    rng = np.random.default_rng(46)
    for n in range(2, 9):
        for rank in range(1, n):
            basis = ranked_svd(random_rank_deficient_psd(n, rank, rng))
            # a sampled stack has no frames: both routes read the svd null bases of its constraints
            f_jacs = orthonormal_rows(sample_minimum_stack(basis, 20, 100 * n + rank).f_jacs)
            stack = evaluate_constraints(basis, f_jacs)
            margins = verify_eigen_dominance(basis, stack).margins.reshape(20, rank)
            u = null_complements(stack.f_jacs)[1]
            (bounds,) = _bounds([u], restricted_information([basis], [u])[0])
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
    assert cert.worst_margin == min(cert.margins.tolist())
    # case c sets 1/mu against the 1/sigma at eig-index c % rank
    relative = cert.margins / np.tile(basis.pinv_eigenvalues[: basis.rank], len(frames))
    assert 0.0797 < min(relative) < 0.0798
    v = frames[11]
    lam = np.linalg.eigvalsh(_bounds([v[None]], [(v.T @ basis.matrix.entries @ v)[None]])[0][0])
    assert 0.0 > lam[0] >= -4 * EPS * lam[-1]
    return lam[0]


def test_stacked_eigen_dominance_clears_the_known_false_fail():
    # frame 11 of these 20 Haar-uniform constraints, once sampled from seed 62, has a bound with
    # eigenvalue about 2.3e8, and the n x n route failed its zero eigenvalue at -4.2e-8; at every
    # scale of J the spectral verdict is PASS
    for scale in (1e-8, 1.0, 1e8):
        basis = ranked_svd(scale * matrix_62())
        _, frames = null_complements(gaussian_rows(62, 20, 4, 2))
        cert = assert_matches_per_frame(basis, frames)
        old_margin = assert_clears_the_known_false_fail(basis, frames, cert)
        if scale == 1.0:
            assert -4.3e-8 < old_margin < -4.1e-8


def test_eigen_dominance_stack_rejects_bad_frames():
    good, singular = np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]])
    assert verify_eigen_dominance(DIAG, np.stack([good, good])).n_cases == 2
    with pytest.raises(NotMinimumConstraint, match="^V'JV of frame 1 is numerically singular$"):
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
    cert = verify_constraint_equivalence(DIAG, alts)
    assert cert.theorem_id == "equivalence"
    assert cert.passed
    assert cert.n_cases == 2
    with pytest.raises(InvalidInput):
        # does not annihilate the range basis
        verify_constraint_equivalence(DIAG, [np.array([[1.0, 0.0]])])
    with pytest.raises(InvalidInput):
        # wrong row count
        verify_constraint_equivalence(DIAG, [np.eye(2)])


def test_equivalence_under_row_mixing():
    rng = np.random.default_rng(26)
    j = make_psd(rng, 6, 4)
    u_bar_t = ranked_svd(j).u_bar.T
    alts = [u_bar_t]
    for _ in range(5):
        alts.append((rng.standard_normal((2, 2)) + 3.0 * np.eye(2)) @ u_bar_t)
    cert = verify_constraint_equivalence(j, alts)
    assert cert.passed
    assert cert.n_cases == 6


def test_equivalence_rejects_small_jacobians_that_do_not_annihilate_the_range():
    # the annihilation test is relative to ||F||, so a small F is not waved through
    for f_jac in (1e-9 * np.array([[1.0, 1.0]]), 1e-9 * np.array([[1.0, 0.0]])):
        with pytest.raises(InvalidInput, match="alternative 0 does not annihilate the range basis"):
            verify_constraint_equivalence(DIAG, [f_jac])


def test_equivalence_names_the_first_alternative_that_does_not_annihilate():
    good, bad = np.array([[0.0, 1.0]]), np.array([[1.0, 1.0]])
    with pytest.raises(InvalidInput, match="alternative 1 does not annihilate the range basis"):
        verify_constraint_equivalence(DIAG, [good, bad, bad])
    with pytest.raises(InvalidInput, match="alternative 2 has shape"):
        verify_constraint_equivalence(DIAG, [good, good, np.eye(2)])


def test_equivalence_margins_equal_one_constrained_bound_at_a_time():
    rng = np.random.default_rng(27)
    for n in range(2, 9):
        for rank in range(n + 1):
            basis = ranked_svd(make_psd(rng, n, rank))
            m = n - rank
            alts = [rng.standard_normal((m, m)) @ basis.u_bar.T for _ in range(3)]
            cert = verify_constraint_equivalence(basis, alts)
            expected = [
                -float(np.linalg.norm(constrained_crb(basis, f_jac).bound.entries - basis.pinv.entries))
                for f_jac in alts
            ]
            assert cert.margins.tolist() == expected


def test_equivalence_takes_one_array_of_alternatives_or_a_list():
    # the (k, m, n) array that evaluate_constraints takes gives the margins of the list of its alternatives
    rng = np.random.default_rng(28)
    basis = ranked_svd(make_psd(rng, 5, 2))
    alts = orthonormal_columns(rng.standard_normal((4, 3, 3))) @ basis.u_bar.T
    for stacked in (alts, np.stack([basis.u_bar.T, basis.u_bar.T]), basis.u_bar.T[None]):
        cert = verify_constraint_equivalence(basis, stacked)
        assert cert.n_cases == len(stacked)
        assert cert.margins.tolist() == verify_constraint_equivalence(basis, list(stacked)).margins.tolist()
    with pytest.raises(InvalidInput, match="^certificate needs at least one case$"):
        verify_constraint_equivalence(basis, alts[:0])


def test_equivalence_reads_orthonormal_rows_at_unit_singular_values(monkeypatch):
    # an svd that gives all but the first unit singular value 2 ulp low puts them below the cutoff
    # 4 * rank_tol = 1 - 1 ulp; orthonormal rows keep their full row rank regardless, and rows that a
    # mix leaves non-orthonormal keep the svd rule
    basis = ranked_svd(np.diag([1.0, 1.0, 0.0, 0.0]), np.nextafter(0.25, 0.0))
    real = np.linalg.svd

    def ulp_low(a, *args, **kwargs):
        u, s, vh = real(a, *args, **kwargs)
        s[..., 1:] = np.nextafter(np.nextafter(s[..., 1:], 0.0), 0.0)
        return u, s, vh

    monkeypatch.setattr(np.linalg, "svd", ulp_low)
    mixes = [np.eye(2), np.array([[0.6, 0.8], [-0.8, 0.6]])]
    assert verify_constraint_equivalence(basis, [mix @ basis.u_bar.T for mix in mixes]).passed
    with pytest.raises(NotMinimumConstraint, match=r"^constraint 0 \(unlabeled\) is not minimum: \{'rank_jacobian': 1"):
        verify_constraint_equivalence(basis, [np.diag([1.0, 0.5]) @ basis.u_bar.T])


def test_min_rank_certificate():
    cert = verify_min_rank(J4, trials=10, rng_seed=3)
    assert cert.theorem_id == "min_rank"
    assert cert.passed
    # ten deficient draws plus the achievability case
    assert cert.n_cases == 11
    again = verify_min_rank(J4, trials=10, rng_seed=3)
    assert again.worst_margin == cert.worst_margin


def test_min_rank_rejects_full_rank_j():
    # the verifier refuses it; the draw, which has no row count below n - rank = 0, gives zero slots
    slots, rows = min_rank_trials(np.eye(2), 2, 0)
    assert not slots.any() and slots.shape == (3, 2, 2) and rows == [0, 0, 0]
    with pytest.raises(InvalidInput, match="^J is numerically nonsingular; the rank claim is vacuous$"):
        verify_min_rank(np.eye(2), 2, 0)


def test_min_rank_refuses_zero_trials():
    for draw in (min_rank_trials, verify_min_rank):
        with pytest.raises(InvalidInput) as info:
            draw(np.diag([1.0, 0.0]), trials=0, rng_seed=0)
        assert str(info.value) == "trials must be positive, got 0"


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
    # merging concatenates margins and witnesses in order and judges nothing again
    basis = ranked_svd(DIAG)
    parts = [
        verify_module._certify("poincare", [basis], [np.array(margins)], lambda k, i: (f"case-{i}", {}), 1e-9)
        for margins in ([0.5, -1.0], [0.25], [-2.0, 3.0])
    ]
    merged = merge_certificates(parts)
    assert merged.margins.tolist() == [0.5, -1.0, 0.25, -2.0, 3.0]
    assert [w.margin for w in merged.witnesses] == [-1.0, -2.0]
    assert (merged.passed, merged.n_cases, merged.worst_margin) == (False, 5, -2.0)
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
    cert = TheoremCertificate(theorem_id="poincare", margins=np.array([-0.5]), witnesses=(case,))
    assert (cert.passed, cert.n_cases, cert.worst_margin) == (False, 1, -0.5)
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
    # nor makes the directory it would have written them to
    assert write_certificate_witnesses(counterexample_check(), tmp_path / "w") == []
    assert not (tmp_path / "w").exists()


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
    """Equal under ==: verdict, every margin and every witness with its arrays."""
    assert (a.theorem_id, a.passed, a.margins.tolist()) == (b.theorem_id, b.passed, b.margins.tolist())
    assert [(w.label, w.margin) for w in a.witnesses] == [(w.label, w.margin) for w in b.witnesses]
    for wa, wb in zip(a.witnesses, b.witnesses):
        assert [name for name, _ in wa.matrices] == [name for name, _ in wb.matrices]
        assert all(np.array_equal(x, y) for (_, x), (_, y) in zip(wa.matrices, wb.matrices))


def assert_stack_path_matches(basis, stack, margin_tol=-np.inf):
    """The sampled stack gives trace and dominance margins within a forward-error bound of the
    per-constraint constrained_crb traces and of the dominance margins of the svd null bases of
    its draws' orthonormal rows F, which its witnesses hold.

    The stack reads mu in J's chart, to about eps of the largest 1/mu; the svd route forms U'JU from
    a null basis, which moves it by about eps ||J||_2, so each 1/mu, and each trace, by
    c r eps (sigma_1 / mu_min) of itself.
    """
    relative = 10 * basis.rank * EPS * basis.sigma[0] / stack.utju_eigs[:, 0]
    slack = relative * np.array(bound_traces(stack))
    f_jacs = orthonormal_rows(stack.f_jacs)
    margins = np.array([constrained_crb(basis, f_jac).trace for f_jac in f_jacs]) - basis.pinv.trace
    trace = verify_trace_bound(basis, stack, margin_tol)
    assert (trace.passed, trace.n_cases) == (bool(margins.min() >= -margin_tol), len(margins))
    assert np.all(np.abs(trace.margins - margins) <= slack)
    assert abs(trace.worst_margin - margins.min()) <= slack.max()
    failing = np.flatnonzero(margins < -margin_tol)
    assert [w.label for w in trace.witnesses] == [f"constraint-{i}" for i in failing]
    for witness, i in zip(trace.witnesses, failing):
        assert witness.margin == trace.margins[i]
        assert [name for name, _ in witness.matrices] == ["j", "f_jac"]
        assert np.array_equal(dict(witness.matrices)["f_jac"], f_jacs[i])
    dominance = verify_eigen_dominance(basis, stack, margin_tol)
    frames = null_complements(f_jacs)[1]
    margins = verify_eigen_dominance(basis, frames).margins
    assert (dominance.passed, dominance.n_cases) == (bool(margins.min() >= -margin_tol), len(margins))
    case_slack = (relative[:, None] / stack.utju_eigs).ravel()
    assert np.all(np.abs(dominance.margins - margins) <= case_slack)
    failing = np.flatnonzero(margins < -margin_tol)
    assert [w.label for w in dominance.witnesses] == [f"eig-index-{c % basis.rank}" for c in failing]
    for witness, c in zip(dominance.witnesses, failing):
        assert witness.margin == dominance.margins[c]
        assert [name for name, _ in witness.matrices] == ["j", "f_jac"]
        assert np.array_equal(dict(witness.matrices)["f_jac"], f_jacs[c // basis.rank])
    return dominance


def test_sampled_stack_certificates_equal_the_spec_and_frame_paths():
    # every margin is compared; a margin_tol of -inf keeps every case as a witness, so every array is too
    rng = np.random.default_rng(43)
    for n in range(2, 9):
        for rank in range(1, n):
            basis = ranked_svd(random_rank_deficient_psd(n, rank, rng))
            stack = sample_minimum_stack(basis, 20, 100 * n + rank)
            specs = sample_minimum_constraints(basis, 20, 100 * n + rank)
            assert np.array_equal([spec.f_jac for spec in specs], orthonormal_rows(stack.f_jacs))
            assert np.all(stack.is_minimum)
            cert = assert_stack_path_matches(basis, stack)
            assert cert.n_cases == 20 * rank and len(cert.witnesses) == cert.n_cases


def test_sampled_stack_spans_several_chunks():
    # 70 constraints drawn in one call, here at a loose cutoff; the stack holds the
    # Jacobians of all of them, in draw order, as the documented law (util.chart_draws) draws them,
    # since N's column norms and directions came from two streams
    rng = np.random.default_rng(44)
    basis = ranked_svd(random_rank_deficient_psd(6, 3, rng), 0.02)
    l_mats = chart_draws(basis, 70, 5)
    stack = sample_minimum_stack(basis, 70, 5)
    assert len(stack.f_jacs) == 70
    bound = 8 * EPS * (1.0 + np.linalg.norm(l_mats, axis=(1, 2)))[:, None, None]
    assert np.all(np.abs(stack.f_jacs - chart_jacobians(basis, l_mats)) <= bound)
    assert_stack_path_matches(basis, stack)


def test_sampled_stack_clears_the_known_false_fail():
    # the known false fail's constraints (see above), evaluated as one stack
    for scale in (1e-8, 1.0, 1e8):
        basis = ranked_svd(scale * matrix_62())
        stack = evaluate_constraints(basis, gaussian_rows(62, 20, 4, 2))
        assert assert_stack_path_matches(basis, stack, 1e-9).passed
        frames = null_complements(orthonormal_rows(stack.f_jacs))[1]
        assert_clears_the_known_false_fail(basis, frames, verify_eigen_dominance(basis, frames, 1e-9))


def test_a_witness_of_an_evaluated_stack_replays_within_its_bound():
    # a witness holds the orthonormal rows of F, not F: for F = A G with cond(A) = 1e6 the two null
    # spaces differ by about eps cond(F), so a replayed witness meets its margin only within the unit
    # eps cond(F) ||J||_2 ||B(F)||_2^2 (at most 0.11 of it here and 0.32 over 800 such F; never exact)
    rng = np.random.default_rng(45)
    replayed = 0
    for _ in range(40):
        n = int(rng.integers(3, 9))
        rank = int(rng.integers(1, n - 1))
        basis, m = ranked_svd(random_rank_deficient_psd(n, rank, rng)), n - rank
        mix = random_orthonormal(rng, m, m) * np.logspace(0.0, -6.0, m) @ random_orthonormal(rng, m, m)
        f_jac = mix @ rng.standard_normal((m, n))
        stack = evaluate_constraints(basis, f_jac[None])
        unit = EPS * np.linalg.cond(f_jac) * np.linalg.norm(basis.matrix.entries, 2)
        unit *= np.linalg.norm(constrained_crb(basis, f_jac).bound, 2) ** 2
        for verify in (verify_trace_bound, verify_eigen_dominance):
            cert = verify(basis, stack, -np.inf)
            witness = dict(cert.witnesses[0].matrices)["f_jac"]
            assert np.array_equal(witness, orthonormal_rows(f_jac[None])[0])
            again = verify(basis, evaluate_constraints(basis, witness[None]), -np.inf)
            assert np.abs(again.margins - cert.margins).max() <= unit
            replayed += not np.array_equal(again.margins, cert.margins)
    assert replayed > 0


def test_a_passed_stack_keeps_the_checks():
    basis = ranked_svd(DIAG)
    good = evaluate_constraints(basis, np.array([[[0.0, 1.0]], [[ROOT_HALF, ROOT_HALF]]]))
    assert verify_trace_bound(basis, good).n_cases == 2
    mixed = evaluate_constraints(basis, np.array([[[0.0, 1.0]], [[1.0, 0.0]]]))
    with pytest.raises(NotMinimumConstraint, match="constraint 1 "):
        verify_trace_bound(basis, mixed)
    with pytest.raises(NotMinimumConstraint, match="constraint 1 "):
        verify_eigen_dominance(basis, mixed)
    stack = sample_minimum_stack(basis, 5, 3)
    for other_j, tol in ((np.diag([3.0, 0.0]), 1e-10), (DIAG, 1e-8)):
        for verify in (verify_trace_bound, verify_eigen_dominance):
            with pytest.raises(InvalidInput, match="another J"):
                verify(ranked_svd(other_j, tol), stack, 1e-9)
    # the same J, given as an array, is refactored and accepted
    assert_same_certificate(verify_trace_bound(DIAG, stack), verify_trace_bound(basis, stack))


def test_a_stack_is_checked_against_the_values_of_j():
    basis = ranked_svd(DIAG)
    stack = sample_minimum_stack(basis, 5, 3)
    twin = ranked_svd(DIAG)
    assert twin is not basis
    for verify in (verify_trace_bound, verify_eigen_dominance):
        assert_same_certificate(verify(twin, stack, -np.inf), verify(basis, stack, -np.inf))
        for other in (ranked_svd(np.diag([3.0, 0.0])), ranked_svd(DIAG, 1e-8)):
            with pytest.raises(InvalidInput, match="another J"):
                verify(other, stack)


def test_a_rejected_draw_is_reported_from_its_own_chunk():
    # under a loose cutoff some Haar-uniform constraints leave U'JU singular; evaluated as one
    # stack, with such a constraint among them, they report the row rank and U'JU extremes of their
    # own evaluation
    basis = ranked_svd(random_rank_deficient_psd(6, 3, np.random.default_rng(48)), 0.05)
    stack = evaluate_constraints(basis, gaussian_rows(9, 20, 6, 3))
    assert 0 < np.sum(stack.is_minimum) < 20
    idx = int(np.argmin(stack.is_minimum))
    evals = stack.utju_eigs[idx]
    details = {
        "rank_jacobian": int(stack.row_rank[idx]), "rank_fim": 3, "param_dim": 6,
        "utju_min_eig": float(evals[0]), "utju_max_eig": float(evals[-1]),
    }
    assert details["rank_jacobian"] == 3 and not stack.utju_nonsingular[idx]
    with pytest.raises(NotMinimumConstraint) as raised:
        verify_trace_bound(basis, stack)
    assert str(raised.value) == f"constraint {idx} (unlabeled) is not minimum: {details}"


def test_a_non_minimum_spec_is_reported_with_the_details_of_check_minimum_constraint():
    # F's null space holds a range direction and a null direction of J, so U'JU is singular
    basis = ranked_svd(make_psd(np.random.default_rng(49), 5, 2))
    bad = np.vstack([basis.u_r[:, :1].T, basis.u_bar[:, :2].T])
    report = check_minimum_constraint(basis, ConstraintSpec(bad))
    assert not report.utju_nonsingular and "utju_min_eig" in report.details(0)
    stack = evaluate_constraints(basis, np.stack([basis.u_bar.T, bad]))
    with pytest.raises(NotMinimumConstraint) as raised:
        verify_trace_bound(basis, stack)
    assert str(raised.value) == f"constraint 1 (unlabeled) is not minimum: {report.details(0)}"


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
    stack = sample_minimum_stack(basis, 5, 3)
    assert stack.basis is basis and stack.f_jacs.shape == (5, 2, 3)
    specs = sample_minimum_constraints(basis, 5, 3)
    assert [spec.label for spec in specs] == [f"sampled-{i}" for i in range(5)]
    assert np.array_equal([spec.f_jac for spec in specs], orthonormal_rows(stack.f_jacs))
    assert np.allclose([constrained_crb(basis, spec).trace for spec in specs], bound_traces(stack))
    # the basis's own stack is accepted without repeating its tolerance
    assert verify_trace_bound(basis, stack).passed and verify_eigen_dominance(basis, stack).passed
    assert verify_constraint_equivalence(basis, [basis.u_bar.T]).n_cases == 1
    assert_min_rank_matches(j, 5, 7, 1e-6)
    # J_r = diag(1, 0, 0): the achievable U'J_rU is 1 x 1, mu = 1 against the cutoff 1 * 1 * 1e-6
    assert verify_min_rank(basis, 5, 7).margins[-1] == 1.0 / 1e-6 - 1.0


def per_trial_min_rank(j, trials, rng_seed, rank_tol_rel=1e-10):
    """Plain reference: draw, orthonormalize and evaluate one trial at a time.

    One call draws every trial's row count m and a second one Gaussian
    (n, n - rank) block per trial; trial t's draw is the transpose of block
    t's leading m columns. Each draw's rows are orthonormalized by a reduced
    qr of its transpose, signed so that R's diagonal is positive
    (orthonormal_rows), and evaluated alone through evaluate_constraints,
    whose svd gives another null basis than the verifier's qr. The margin is
    -(mu_min / c - 1) for a deficient trial and mu_min / c - 1 for the
    achievable one, c = sigma_1 p rank_tol_rel the cutoff of a p x p
    U'J_rU. Returns (margin, label, f_jac, c) per case.
    """
    basis = ranked_svd(j, rank_tol_rel)
    n, rank = basis.dim, basis.rank
    rng = np.random.default_rng(np.random.SeedSequence(entropy=rng_seed))

    def case(draw, label, sign):
        f_jac = orthonormal_rows(draw[None])[0]
        stack = evaluate_constraints(basis, f_jac[None])
        assert stack.full_rank_jacobian[0]
        mu = stack.utju_eigs[0]
        cutoff = basis.sigma[0] * mu.size * rank_tol_rel
        return sign * (mu[0] / cutoff - 1.0), label, f_jac, cutoff

    counts = rng.integers(0, n - rank, size=trials)
    blocks = rng.standard_normal((trials, n, n - rank))
    cases = []
    for t, m in enumerate(counts.tolist()):
        cases.append(case(blocks[t, :, :m].T, f"deficient-{t}-rows-{m}", -1.0))
    cases.append(case(basis.u_bar.T, "achievable-at-min-rank", 1.0))
    return cases


def assert_min_rank_matches(j, trials, rng_seed, rank_tol_rel=1e-10):
    """Labels and row counts match exactly, F is the reference's orthonormal rows, and each
    margin agrees within 10 n eps sigma_1 / c: the two null bases move mu_min by about eps sigma_1.
    At margin_tol = -inf every case is a witness, so every label and F is compared."""
    basis = ranked_svd(j, rank_tol_rel)
    cert = verify_min_rank(basis, trials, rng_seed, -np.inf)
    expected = per_trial_min_rank(j, trials, rng_seed, rank_tol_rel)
    assert cert.n_cases == trials + 1
    assert [w.label for w in cert.witnesses] == [label for _, label, _, _ in expected]
    assert [w.margin for w in cert.witnesses] == cert.margins.tolist()
    gaps = []
    for witness, got, (margin, _, f_jac, cutoff) in zip(cert.witnesses, cert.margins, expected):
        mats = dict(witness.matrices)
        assert np.array_equal(mats["j"], basis.matrix.entries)
        assert mats["f_jac"].shape == f_jac.shape and np.allclose(mats["f_jac"], f_jac, rtol=0.0, atol=1e-13)
        gaps.append(abs(got - margin) / (10 * basis.dim * EPS * basis.sigma[0] / cutoff))
    assert max(gaps) <= 1.0
    assert cert.worst_margin == min(cert.margins.tolist())


def test_stacked_min_rank_equals_per_trial_reference():
    rng = np.random.default_rng(45)
    for n in range(2, 9):
        for rank in range(1, n):
            assert_min_rank_matches(random_rank_deficient_psd(n, rank, rng), 12, 10 * n + rank)


def test_min_rank_completes_at_a_loose_cutoff():
    # orthonormal trial rows have singular values of one, so a cutoff below 1/n never calls them
    # rank deficient; Gaussian rows judged by their own singular values failed the row-rank test
    # at some of these seeds
    rng = np.random.default_rng(46)
    for seed in range(40):
        assert_min_rank_matches(random_rank_deficient_psd(6, 2, rng), 5, seed, 0.1)


def test_min_rank_margins_change_sign_where_the_one_rule_does(monkeypatch):
    # every trial's mu_min pinned one step above, then one step below, the cutoff c = basis.cutoff(p)
    # of its p x p U'J_rU: at margin_tol 0 exactly the trials whose claim restricted_nonsingular
    # contradicts fail, by one rounding of mu_min / c; each null basis comes padded to n columns by
    # its m zeroed ones, so its own spectrum starts at index m
    basis = ranked_svd(np.diag([2.0, 1.0, 0.0, 0.0]))
    real = verify_module.restricted_information
    for step, nonsingular, failing in ((np.inf, True, "deficient-"), (-np.inf, False, "achievable-")):
        # the six deficient trials come first, the achievable case last
        claimed = np.arange(7) < 6 if failing == "deficient-" else np.arange(7) == 6

        def pinned(bases, stacks):
            # a stage of one J: the lists of its basis and its padded Q, and of its U'J_rU and their spectra
            (basis,), (u,) = bases, stacks
            restricted, mu = real(bases, stacks)
            mu = mu[0].copy()
            for i, m in enumerate(np.sum(~u.any(axis=1), axis=1)):
                mu[i, m] = np.nextafter(basis.cutoff(mu.shape[1] - m), step)
                mu[i, m:] = np.maximum(mu[i, m:], mu[i, m])  # still ascending: mu_min alone decides
                assert restricted_nonsingular(basis, mu[i, m:]) == nonsingular
            return restricted, [mu]

        monkeypatch.setattr(verify_module, "restricted_information", pinned)
        cert = verify_min_rank(basis, 6, 3, 0.0)
        assert cert.witnesses and all(w.label.startswith(failing) for w in cert.witnesses)
        assert [w.margin for w in cert.witnesses] == cert.margins[claimed].tolist()
        assert all(-EPS <= margin < 0.0 for margin in cert.margins[claimed])
        assert all(0.0 <= margin <= EPS for margin in cert.margins[~claimed])


def test_min_rank_refuses_a_zero_j():
    # the cutoff of a zero J is zero, so margins in its units do not exist; the verifier refuses it, while
    # the draw refuses no J: a zero J defines its row counts, and a nonsingular J draws nothing, so a
    # Generator handed to that call keeps its state
    zero = np.zeros((3, 3))
    slots, rows = min_rank_trials(zero, 5, 0)
    assert slots.shape == (6, 3, 3) and rows[-1] == 3
    with pytest.raises(InvalidInput, match="^J is zero; the rank claim has no cutoff to measure against$"):
        verify_min_rank(zero, 5, 0)
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    min_rank_trials(np.eye(3), 5, rng)
    assert rng.bit_generator.state == state


def test_the_pass_rule_keeps_a_margin_equal_to_minus_margin_tol():
    # a case fails unless its margin >= -margin_tol: the boundary passes, the next double below fails
    tol = 1e-9
    below = float(np.nextafter(-tol, -np.inf))
    margins = np.array([1.0, -tol, below, 0.0])
    basis = ranked_svd(np.eye(2))
    cert = verify_module._certify("poincare", [basis], [margins], lambda k, i: (f"case-{i}", {}), tol)
    assert [(w.label, w.margin) for w in cert.witnesses] == [("case-2", below)]
    assert (cert.passed, cert.n_cases, cert.worst_margin) == (False, 4, below)
    assert cert.margins.tolist() == margins.tolist() and not cert.margins.flags.writeable
    assert verify_module._certify("poincare", [basis], [np.array([-tol])], lambda k, i: ("unused", {}), tol).passed


def test_ranked_svd_refuses_a_cutoff_that_calls_unit_rows_dependent():
    # at rank_tol_rel >= 1/n the rank rule would drop singular values of one (and give every J rank 0),
    # so min_rank and the samplers never meet a J factored under it
    refusal = r"^rank_tol_rel 0.25 gives every 4 x 4 matrix rank 0; 4 \* rank_tol_rel must be below 1$"
    with pytest.raises(InvalidInput, match=refusal):
        ranked_svd(np.diag([1.0, 0.5, 0.0, 0.0]), 0.25)


WITNESS_J = make_psd(np.random.default_rng(37), 4, 2)
WITNESSED = {
    "trace_bound": (lambda b, tol: verify_trace_bound(b, sample_minimum_stack(b, 3, 0), tol), "f_jac"),
    "eigen_dominance stack": (lambda b, tol: verify_eigen_dominance(b, sample_minimum_stack(b, 3, 0), tol), "f_jac"),
    "eigen_dominance frames": (lambda b, tol: verify_eigen_dominance(b, b.u_r[None], tol), "v"),
    "poincare": (lambda b, tol: verify_poincare(b, b.u_r, tol), "v"),
    "equivalence": (lambda b, tol: verify_constraint_equivalence(b, [b.u_bar.T, -b.u_bar.T], tol), "f_jac"),
    "min_rank": (lambda b, tol: verify_min_rank(b, 3, 0, tol), "f_jac"),
}


@pytest.mark.parametrize("name", WITNESSED)
def test_every_witness_holds_j_first_then_the_verifiers_own_matrix(tmp_path, name):
    # at margin_tol = -inf the pass rule margin >= inf fails every case, so each case is a witness
    verify, own = WITNESSED[name]
    basis = ranked_svd(WITNESS_J)
    cert = verify(basis, -np.inf)
    assert cert.n_cases > 0 and len(cert.witnesses) == cert.n_cases
    for witness in cert.witnesses:
        assert [label for label, _ in witness.matrices] == ["j", own]
        assert np.array_equal(witness.matrices[0][1], basis.matrix.entries)
    paths = write_certificate_witnesses(cert, tmp_path)
    for idx in range(cert.n_cases):
        assert str(tmp_path / f"{cert.theorem_id}_{idx:03d}_j.matx") in paths
        assert np.array_equal(load_matrix(tmp_path / f"{cert.theorem_id}_{idx:03d}_j.matx"), basis.matrix.entries)


def every_shape_twice():
    """A stage of 56 singular J, each (n, rank) with n from 2 to 8 twice, and the inputs certify draws for them:
    per theorem its one-J verifier, its stage, the stage's columns of inputs and the verifier's, in THEOREM_IDS
    order. min_rank's stage takes the complete Q and row counts of _suite_frames; its verifier draws them from a
    copy of each J's stream at the point where _suite_frames draws them, past the Poincare frame and the mixes."""
    matrices = []
    for copy in range(2):
        for n in range(2, 9):
            for rank in range(1, n):
                rng = np.random.default_rng([copy, n, rank])
                matrices.append((ranked_svd(random_rank_deficient_psd(n, rank, rng)), rng))
    bases, trials_rngs = [basis for basis, _ in matrices], [deepcopy(rng) for _, rng in matrices]
    frame, mixes, trials_q, rows = zip(*_suite_frames(matrices))
    for basis, rng in zip(bases, trials_rngs):
        rng.standard_normal((basis.dim, basis.rank)), rng.standard_normal((3,) + (basis.dim - basis.rank,) * 2)
    stacks = [sample_minimum_stack(basis, 20, i) for i, basis in enumerate(bases)]
    shared = [
        (verify_trace_bound, _trace_bound_stage, [stacks]),
        (verify_eigen_dominance, _eigen_dominance_stage, [stacks]),
        (verify_poincare, _poincare_stage, [frame]),
        (verify_constraint_equivalence, _equivalence_stage, [[mix @ b.u_bar.T for mix, b in zip(mixes, bases)]]),
    ]
    # each call draws from its own copy, so every call draws the same trials
    min_rank = lambda basis, rng, tol: verify_min_rank(basis, 5, deepcopy(rng), tol)
    return bases, [(one, stage, columns, columns) for one, stage, columns in shared] + [
        (min_rank, _min_rank_stage, [trials_q, rows], [trials_rngs]),
    ]


def test_a_stage_of_every_shape_twice_gives_each_matrix_its_own_certificate():
    # each stacked eigvalsh, svd and inv of a stage takes every operand of one shape, here at least two: a stacked
    # call runs LAPACK on each matrix as one call would, so the stage's margins are the one-J verifiers' bit for
    # bit; at margin_tol = -inf every case fails, and each witness holds its own matrix's J, label and matrices
    bases, theorems = every_shape_twice()
    assert sorted({(b.dim, b.rank) for b in bases}) == [(n, r) for n in range(2, 9) for r in range(1, n)]
    assert len(bases) == 56
    for one, stage, columns, own in theorems:
        for tol in (1e-9, -np.inf):
            cert = stage(bases, *columns, tol)
            singles = [one(basis, *(column[k] for column in own), tol) for k, basis in enumerate(bases)]
            assert cert.theorem_id == singles[0].theorem_id
            assert cert.margins.tobytes() == np.concatenate([single.margins for single in singles]).tobytes()
            want = [(k, w) for k, single in enumerate(singles) for w in single.witnesses]
            assert len(cert.witnesses) == len(want) == (cert.n_cases if tol < 0 else 0)
            for got, (k, w) in zip(cert.witnesses, want):
                assert (got.label, got.margin) == (w.label, w.margin)
                assert np.array_equal(got.matrices[0][1], bases[k].matrix.entries)
                assert [name for name, _ in got.matrices] == [name for name, _ in w.matrices]
                assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(got.matrices, w.matrices))


def test_a_dominance_stage_of_frames_and_a_stack_gives_each_matrix_its_own_certificate():
    # a frame stack, a single frame and a sampled stack, of three J of different sizes, in one stage call: each
    # J's margins and witnesses are its one-J verifier's bit for bit; at margin_tol = -inf every case is a witness
    rng = np.random.default_rng(49)
    bases = [ranked_svd(random_rank_deficient_psd(n, rank, rng)) for n, rank in ((5, 3), (4, 2), (6, 4))]
    vs = [orthonormal_columns(rng.standard_normal((7, 5, 3))), random_orthonormal(rng, 4, 2),
          sample_minimum_stack(bases[2], 9, 3)]
    for tol in (1e-9, -np.inf):
        cert = _eigen_dominance_stage(bases, vs, tol)
        singles = [verify_eigen_dominance(basis, v, tol) for basis, v in zip(bases, vs)]
        assert cert.margins.tobytes() == np.concatenate([single.margins for single in singles]).tobytes()
        assert cert.n_cases == 7 * 3 + 2 + 9 * 4
        want = [(k, w) for k, single in enumerate(singles) for w in single.witnesses]
        assert len(cert.witnesses) == len(want) == (cert.n_cases if tol < 0 else 0)
        for got, (k, w) in zip(cert.witnesses, want):
            assert (got.label, got.margin) == (w.label, w.margin)
            assert np.array_equal(got.matrices[0][1], bases[k].matrix.entries)
            assert [name for name, _ in got.matrices] == [name for name, _ in w.matrices]
            assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(got.matrices, w.matrices))


def test_a_stage_takes_each_equivalence_margin_as_np_linalg_norm_does(monkeypatch):
    # with J+ read off by a random symmetric matrix of scale 1e-17 to 10, each bound's difference from it is a
    # random n x n matrix; the stage's one matmul per size gives the norm that np.linalg.norm gives each
    # difference bit for bit, where a sum over axes (1, 2) differs in about half of such draws
    rng, noise = np.random.default_rng(48), {}
    real = RankedSvd.pinv.func

    def off(basis):
        if id(basis) not in noise:
            a = rng.standard_normal((basis.dim, basis.dim)) * 10.0 ** rng.uniform(-17.0, 1.0)
            noise[id(basis)] = a + a.T
        return SymMatrix(real(basis).entries + noise[id(basis)])

    monkeypatch.setattr(RankedSvd, "pinv", property(off))
    bases, theorems = every_shape_twice()
    alternatives = theorems[3][2][0]
    margins = _equivalence_stage(bases, alternatives, -np.inf).margins
    bounds = [(b, constrained_crb(b, f).bound.entries) for b, fs in zip(bases, alternatives) for f in fs]
    want = [-np.linalg.norm(bound - b.pinv.entries) for b, bound in bounds]
    assert margins.tolist() == want
