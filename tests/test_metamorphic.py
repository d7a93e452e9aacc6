"""Metamorphic tests of the constrained bound B = U (U'JU)^-1 U'.

Each case is a random PSD J with n from 2 to 8 and one sampled minimum
constraint F. Transforming J and F together must transform B as the
theory says. Each tolerance is TOL_FACTOR * n * eps * kappa * |B|, with
kappa = |J| / mu_min read from the spectrum mu of U'JU, times cond(A) or
cond(M) where the transform has one. kappa and not cond(U'JU) sets the
roundoff of B: for a rank-one J, U'JU is 1 x 1, and its condition number
is 1 however small mu is next to |J|. The last test scales J alone and
checks that no decision made about it moves.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from crbkit import (
    constrained_crb,
    evaluate_constraints,
    pinv_via_basis,
    ranked_svd,
    sample_minimum_constraints,
    verify_eigen_dominance,
    verify_min_rank,
    verify_poincare,
    verify_trace_bound,
)
from util import make_psd, random_orthonormal

# The largest error over 3,000 random cases was 6 units of n * eps * kappa * |B| (times cond(A) or cond(M)).
TOL_FACTOR = 64

EPS = np.finfo(float).eps

METAMORPHIC = settings(deadline=None, max_examples=25)


@st.composite
def cases(draw):
    """(rng, J, F, B, tol): a PSD J of size 2 to 8, one sampled minimum constraint F, its bound B,
    and the tolerance unit TOL_FACTOR * n * eps * kappa * |B|."""
    n = draw(st.integers(2, 8))
    rank = draw(st.integers(1, n - 1))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    j = make_psd(rng, n, rank)
    f = sample_minimum_constraints(j, 1, seed)[0].f_jac
    mu_min = evaluate_constraints(j, f[None]).utju_eigs[0, 0]
    b = constrained_crb(j, f).bound.entries
    return rng, j, f, b, TOL_FACTOR * n * EPS * np.linalg.norm(j, 2) / mu_min * np.linalg.norm(b, 2)


def random_invertible(rng, n):
    """Q1 diag(s) Q2' with log s spread evenly over [-1, 1]: cond = e^2, and never orthogonal."""
    s = np.exp(np.linspace(-1.0, 1.0, n))
    return (random_orthonormal(rng, n, n) * s) @ random_orthonormal(rng, n, n).T


def verdicts(j, f, v):
    """F's minimum-constraint flags and the trace, dominance and Poincare verdicts for F and a frame V."""
    basis = ranked_svd(j)
    stack = evaluate_constraints(basis, f[None])
    flags = (stack.full_rank_jacobian[0], stack.utju_nonsingular[0], stack.rank_sum_is_n[0])
    certs = (verify_trace_bound(basis, stack), verify_eigen_dominance(basis, stack), verify_poincare(basis, v))
    return flags + tuple(bool(cert.passed) for cert in certs)


@METAMORPHIC
@given(cases(), st.booleans())
def test_rotating_j_and_f_rotates_the_bound_and_keeps_the_verdicts(case, permute):
    # J -> QJQ', F -> FQ' for a rotation or a permutation Q gives QBQ'
    rng, j, f, b, tol = case
    n, rank = j.shape[0], ranked_svd(j).rank
    q = np.eye(n)[rng.permutation(n)] if permute else random_orthonormal(rng, n, n)
    rotated = constrained_crb(q @ j @ q.T, f @ q.T).bound.entries
    assert np.abs(rotated - q @ b @ q.T).max() <= tol
    v = random_orthonormal(rng, n, rank)
    assert verdicts(q @ j @ q.T, f @ q.T, q @ v) == verdicts(j, f, v) == (True,) * 6


@METAMORPHIC
@given(cases())
def test_mixing_the_constraint_rows_leaves_the_bound(case):
    # F -> AF for an invertible A keeps F's null space, so B stays
    rng, j, f, b, tol = case
    a = rng.standard_normal((f.shape[0], f.shape[0]))
    mixed = constrained_crb(j, a @ f).bound.entries
    assert np.abs(mixed - b).max() <= tol * np.linalg.cond(a)


@METAMORPHIC
@given(cases())
def test_reparametrization_maps_the_constrained_bound(case):
    # phi = M theta has information M^-T J M^-1 and constraint Jacobian F M^-1, whose null basis is MU,
    # so the constrained bound becomes MBM'
    rng, j, f, b, tol = case
    m = random_invertible(rng, j.shape[0])
    m_inv = np.linalg.inv(m)
    mapped = constrained_crb(m_inv.T @ j @ m_inv, f @ m_inv).bound.entries
    assert np.abs(mapped - m @ b @ m.T).max() <= tol * np.linalg.cond(m)


@METAMORPHIC
@given(cases())
def test_the_pseudoinverse_does_not_follow_a_non_orthogonal_reparametrization(case):
    # M J+ M' is a generalized inverse of M^-T J M^-1 but not its Moore-Penrose one unless M'M maps
    # range(J) into itself; J+'s roundoff is set by sigma_max / sigma_min of J's nonzero spectrum
    rng, j, *_ = case
    m = random_invertible(rng, j.shape[0])
    m_inv = np.linalg.inv(m)
    basis = ranked_svd(j)
    mapped = m @ basis.pinv.entries @ m.T
    kappa = basis.sigma[0] / basis.sigma[-1]
    tol = TOL_FACTOR * j.shape[0] * EPS * kappa * np.linalg.cond(m) * np.linalg.norm(mapped, 2)
    # the two differ by six orders of magnitude more than roundoff could make them
    assert np.abs(pinv_via_basis(m_inv.T @ j @ m_inv).entries - mapped).max() > 1e6 * tol


def minimum_flags(basis, stacks, seed):
    """The three flags of each evaluated stack, and of 10 sampled constraints' orthonormal rows."""
    sampled = np.array([spec.f_jac for spec in sample_minimum_constraints(basis, 10, seed)])
    evaluated = [evaluate_constraints(basis, f_jacs) for f_jacs in [*stacks, sampled]]
    return [[s.full_rank_jacobian, s.utju_nonsingular, s.rank_sum_is_n] for s in evaluated]


@METAMORPHIC
@given(st.integers(2, 8), st.integers(0, 2**32 - 1), st.sampled_from([1e-10, 0.02]))
def test_scaling_j_keeps_every_flag_and_the_min_rank_verdict(n, seed, tol):
    # J -> cJ scales J's cutoff, and the cutoff of every U'J_rU, with J, so no flag of an evaluated
    # stack moves, nor of the sampled constraints, which are minimum at every scale; min_rank's margins, in
    # units of that cutoff, move by roundoff: mu by about n eps sigma_1, so each margin by n eps / tol
    rng = np.random.default_rng(seed)
    j = make_psd(rng, n, int(rng.integers(1, n)))
    stacks = [rng.standard_normal((5, m, n)) for m in range(1, n)]
    reference = ranked_svd(j, tol)
    flags = minimum_flags(reference, stacks, seed)
    margins = verify_min_rank(reference, 10, seed).margins
    for c in (1e-8, 1e-4, 1e4, 1e8):
        basis = ranked_svd(c * j, tol)
        assert basis.rank == reference.rank
        for scaled, original in zip(minimum_flags(basis, stacks, seed), flags, strict=True):
            assert all(np.array_equal(a, b) for a, b in zip(scaled, original))
        scaled = verify_min_rank(basis, 10, seed).margins
        assert np.all(np.abs(scaled - margins) <= TOL_FACTOR * n * EPS / tol)
        assert verify_min_rank(basis, 10, seed).passed == verify_min_rank(reference, 10, seed).passed
