"""Acceptance gate: one test per published criterion.

Each test prints a single line

    criterion N (<name>): PASS

when it succeeds (run pytest with -s or -rP to see the lines; a pytest
failure is the FAIL verdict for that criterion). Tolerances are pinned
inside each test and every test enforces its runtime budget.
"""

import time

import numpy as np
import pytest

from crbkit import (
    BlindChannelModel,
    constrained_crb,
    counterexample_check,
    fim_gaussian_mean,
    fim_monte_carlo,
    moore_penrose_residuals,
    null_complement,
    optimal_affine_constraint,
    pinv_via_basis,
    ranked_svd,
    sample_minimum_constraints,
    verify_constraint_equivalence,
    verify_eigen_dominance,
    verify_min_rank,
)
from util import make_psd, svd_pinv_oracle


def _report(number, name, elapsed, budget):
    assert elapsed < budget, f"criterion {number} took {elapsed:.2f}s, budget {budget}s"
    print(f"criterion {number} ({name}): PASS in {elapsed:.2f}s (budget {budget}s)")


def _random_psd_cases(seed, count):
    """The shared corpus of random PSD matrices: dims 2..8, any rank >= 1."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(2, 9))
        rank = int(rng.integers(1, n + 1))
        yield make_psd(rng, n, rank), rank


def test_criterion_1_pseudoinverse_identity():
    start = time.perf_counter()
    for j, _ in _random_psd_cases(101, 100):
        p = pinv_via_basis(j).entries
        oracle = svd_pinv_oracle(j)
        assert np.linalg.norm(p - oracle) <= 1e-8 * np.linalg.norm(oracle)
        assert max(moore_penrose_residuals(j, p)) <= 1e-8
    _report(1, "basis-form pseudoinverse matches the SVD oracle", time.perf_counter() - start, 5)


def test_criterion_2_null_space_constraint_recovers_pseudoinverse():
    start = time.perf_counter()
    for j, _ in _random_psd_cases(101, 100):
        basis = ranked_svd(j)
        report = constrained_crb(j, basis.u_bar.T)
        assert report.exists
        gap = np.linalg.norm(report.bound.entries - pinv_via_basis(j).entries)
        assert gap <= 1e-9
    _report(2, "null-space constraint reproduces the pseudoinverse", time.perf_counter() - start, 5)


@pytest.fixture(scope="module")
def constraint_sweep():
    """2000 random minimum constraints over 100 singular matrices.

    Shared by criteria 3 and 4; the elapsed time is charged against the
    30-second budget of criterion 3 and reported for criterion 4.
    """
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    trace_margins = []
    dominance_margins = []
    optimal_gaps = []
    for i in range(100):
        n = int(rng.integers(2, 9))
        rank = int(rng.integers(1, n))
        j = make_psd(rng, n, rank)
        base = pinv_via_basis(j).trace
        for spec in sample_minimum_constraints(j, 20, 3000 + i):
            report = constrained_crb(j, spec)
            trace_margins.append(report.trace - base)
            v = null_complement(spec.f_jac)
            dominance_margins.append(verify_eigen_dominance(j, v).worst_margin)
        optimal = optimal_affine_constraint(j, np.zeros(n))
        optimal_gaps.append(abs(constrained_crb(j, optimal).trace - base))
    elapsed = time.perf_counter() - start
    return {
        "trace_margins": np.array(trace_margins),
        "dominance_margins": np.array(dominance_margins),
        "optimal_gaps": np.array(optimal_gaps),
        "elapsed": elapsed,
    }


def test_criterion_3_trace_bound_with_optimal_equality(constraint_sweep):
    margins = constraint_sweep["trace_margins"]
    assert margins.size == 2000
    assert margins.min() >= -1e-9
    assert constraint_sweep["optimal_gaps"].max() <= 1e-9
    _report(3, "trace bound over 2000 minimum constraints", constraint_sweep["elapsed"], 30)


def test_criterion_4_per_index_eigenvalue_dominance(constraint_sweep):
    margins = constraint_sweep["dominance_margins"]
    assert margins.size == 2000
    assert margins.min() >= -1e-9
    _report(4, "per-index eigenvalue dominance", constraint_sweep["elapsed"], 30)


def test_criterion_5_incomparable_counterexample():
    start = time.perf_counter()
    cert = counterexample_check()
    assert cert.passed
    reported = float(cert.detail.split("=", 1)[1])
    assert abs(reported - (-0.6180339887498949)) <= 1e-6

    j = np.diag([1.0, 1.0, 0.0, 0.0])
    v = 0.5 * np.array(
        [
            [-1.0, 1.0],
            [-1.0, -1.0],
            [-1.0, 1.0],
            [-1.0, -1.0],
        ]
    )
    lhs = v @ np.linalg.inv(v.T @ j @ v) @ v.T
    diff = lhs - pinv_via_basis(j).entries
    assert np.linalg.eigvalsh(diff)[0] < -1e-6
    assert np.trace(diff) >= -1e-9
    assert verify_eigen_dominance(j, v).worst_margin >= -1e-9
    _report(5, "matrix order fails while trace and eigenvalue order hold", time.perf_counter() - start, 1)


def test_criterion_6_minimum_constraint_row_count():
    start = time.perf_counter()
    rng = np.random.default_rng(303)
    for i in range(100):
        n = int(rng.integers(2, 7))
        rank = int(rng.integers(1, n))
        j = make_psd(rng, n, rank)
        cert = verify_min_rank(j, trials=5, rng_seed=4000 + i)
        assert cert.passed
    _report(6, "n - rank(J) constraint rows are necessary and sufficient", time.perf_counter() - start, 10)


def test_criterion_7_blind_channel_nullity():
    start = time.perf_counter()
    rng = np.random.default_rng(404)
    for s_len in (2, 3, 4):
        for h_len in (2, 3, 4):
            model = BlindChannelModel(s_len, h_len)
            for _ in range(20):
                theta = rng.uniform(0.5, 1.5, model.param_dim)
                j = fim_gaussian_mean(model, theta).matrix
                basis = ranked_svd(j)
                assert basis.rank == model.param_dim - 1
                direction = model.ambiguity_direction(theta)
                assert np.linalg.norm(j.entries @ direction) <= 1e-8 * basis.sigma[0]
    _report(7, "blind-channel information has nullity exactly one", time.perf_counter() - start, 5)


def test_criterion_8_monte_carlo_matches_analytic():
    start = time.perf_counter()
    model = BlindChannelModel(2, 2)
    theta = np.random.default_rng(11).uniform(0.5, 1.5, 4)
    analytic = fim_gaussian_mean(model, theta).matrix.entries
    estimate = fim_monte_carlo(model, theta, 100_000, 2024)
    diff = np.abs(estimate.matrix.entries - analytic).max()
    assert diff <= 5.0 * estimate.std_err_bound
    _report(8, "Monte-Carlo information within 5 reported standard errors", time.perf_counter() - start, 60)


def test_criterion_9_equivalent_constraints_share_the_bound():
    start = time.perf_counter()
    rng = np.random.default_rng(505)
    j = make_psd(rng, 6, 3)
    null_rows = ranked_svd(j).u_bar.T
    alts = []
    while len(alts) < 50:
        mix = rng.standard_normal((3, 3))
        if abs(np.linalg.det(mix)) < 1e-3:
            continue
        alts.append(mix @ null_rows)
    cert = verify_constraint_equivalence(j, alts)
    assert cert.passed
    assert cert.n_cases == 50
    _report(9, "row-space-preserving constraints give identical bounds", time.perf_counter() - start, 5)
