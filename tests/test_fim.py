import numpy as np
import pytest

from crbkit import (
    BlindChannelModel,
    FimEstimate,
    GaussianMeanModel,
    InvalidInput,
    NumericalFailure,
    fim_gaussian_mean,
    fim_monte_carlo,
    gaussian_location,
    is_psd,
    ranked_svd,
)
from crbkit.fim import PARTITION_SIZE
from crbkit.matlin import seed_sequence


def test_identity_location_fim():
    est = fim_gaussian_mean(gaussian_location(2), [0.0, 0.0])
    assert est.method == "analytic"
    assert est.std_err_bound == 0.0
    assert np.array_equal(est.matrix.entries, np.eye(2))


def test_unit_blind_channel_fim():
    est = fim_gaussian_mean(BlindChannelModel(1, 1, 1.0), [1.0, 1.0])
    assert np.array_equal(est.matrix.entries, np.ones((2, 2)))
    assert ranked_svd(est.matrix).rank == 1


def test_noise_scaling_divides_fim_exactly():
    theta = [1.2, 0.7, 0.9]
    base = fim_gaussian_mean(BlindChannelModel(2, 1, 1.0), theta).matrix.entries
    quarter = fim_gaussian_mean(BlindChannelModel(2, 1, 4.0), theta).matrix.entries
    assert np.array_equal(quarter, base / 4.0)


def test_monte_carlo_location_within_five_standard_errors():
    est = fim_monte_carlo(gaussian_location(2), [0.3, -0.7], 100_000, 5)
    assert est.method == "monte_carlo"
    assert est.n_samples == 100_000
    diff = np.abs(est.matrix.entries - np.eye(2)).max()
    assert diff <= 5.0 * est.std_err_bound


def test_monte_carlo_blind_channel_within_five_standard_errors():
    model = BlindChannelModel(2, 2)
    theta = np.random.default_rng(11).uniform(0.5, 1.5, 4)
    analytic = fim_gaussian_mean(model, theta).matrix.entries
    est = fim_monte_carlo(model, theta, 100_000, 2024)
    diff = np.abs(est.matrix.entries - analytic).max()
    assert diff <= 5.0 * est.std_err_bound


def test_monte_carlo_error_shrinks_at_root_n_rate():
    # RMS error over three seeds should fall by ~sqrt(10) per tenfold
    # increase in samples; allow a factor-of-two band around that rate.
    model = BlindChannelModel(2, 2)
    theta = np.random.default_rng(11).uniform(0.5, 1.5, 4)
    analytic = fim_gaussian_mean(model, theta).matrix.entries
    rms = []
    for n in (1_000, 10_000, 100_000):
        errs = [
            np.linalg.norm(fim_monte_carlo(model, theta, n, seed).matrix.entries - analytic)
            for seed in range(3)
        ]
        rms.append(float(np.sqrt(np.mean(np.square(errs)))))
    lo, hi = np.sqrt(10.0) / 2.0, 2.0 * np.sqrt(10.0)
    assert lo <= rms[0] / rms[1] <= hi
    assert lo <= rms[1] / rms[2] <= hi


def test_monte_carlo_pseudoinverse_trace_against_the_inverse_wishart():
    # W = G / sigma of this blind channel is 5 x 6 of full row rank p = 5, so the estimate W'SW has the
    # pseudoinverse W+ S^-1 W+', with N S ~ Wishart_p(N, I). With A = W+'W+ = (WW')^-1, tr A = tr J+, and
    # the inverse-Wishart moments give tr Jhat+ the exact mean tr A N/(N - p - 1) and variance
    # N^2 [2 (tr A)^2 + 2 (N - p - 1) tr A^2] / [(N - p)(N - p - 1)^2 (N - p - 3)]. Over seeds 0 to 5999 the
    # z-scores read mean -0.012, sd 1.006 and 94.85% within 1.96; over these 400, 0.055, 0.941 and 94.75%
    model = BlindChannelModel(3, 3, 1.0)
    theta = np.random.default_rng(0).uniform(0.5, 1.5, 6)
    w = model.jac_at(theta)  # G / sigma at sigma 1
    a = np.linalg.inv(w @ w.T)
    big_n, p, runs = 1000, 5, 400
    mean = np.trace(a) * big_n / (big_n - p - 1)
    var = big_n**2 * (2 * np.trace(a) ** 2 + 2 * (big_n - p - 1) * np.trace(a @ a))
    var /= (big_n - p) * (big_n - p - 1) ** 2 * (big_n - p - 3)
    estimates = (fim_monte_carlo(model, theta, big_n, seed).matrix for seed in range(runs))
    traces = np.array([ranked_svd(estimate).pinv.trace for estimate in estimates])
    z = (traces - mean) / np.sqrt(var)
    assert abs(z.mean()) <= 3 / np.sqrt(runs)
    assert abs(z.std(ddof=1) - 1) <= 3 / np.sqrt(2 * runs)
    assert abs(np.mean(np.abs(z) <= 1.96) - 0.95) <= 3 * np.sqrt(0.95 * 0.05 / runs)


def test_monte_carlo_is_deterministic_per_seed():
    model = BlindChannelModel(2, 2)
    theta = np.array([1.0, 0.8, 1.2, 0.6])
    a = fim_monte_carlo(model, theta, 9_000, 3)
    b = fim_monte_carlo(model, theta, 9_000, 3)
    assert np.array_equal(a.matrix.entries, b.matrix.entries)
    assert a.std_err_bound == b.std_err_bound
    c = fim_monte_carlo(model, theta, 9_000, 4)
    assert not np.array_equal(a.matrix.entries, c.matrix.entries)


def test_monte_carlo_estimate_is_symmetric_psd():
    est = fim_monte_carlo(BlindChannelModel(2, 2), [1.0, 0.8, 1.2, 0.6], 2_000, 21)
    m = est.matrix.entries
    assert np.array_equal(m, m.T)
    assert is_psd(est.matrix)
    # not clipped: W'SW keeps J's one-dimensional null space, to roundoff of either sign
    evals = np.linalg.eigvalsh(m)
    assert abs(evals[0]) <= 1e-14 * evals[-1] < evals[1]
    assert est.std_err_bound > 0.0


def test_monte_carlo_rejects_tiny_sample_budget():
    with pytest.raises(InvalidInput):
        fim_monte_carlo(gaussian_location(1), [0.0], 99, 0)
    with pytest.raises(InvalidInput):
        fim_monte_carlo(gaussian_location(2), [0.0], 1_000, 0)


def first_overflow(scale, n_samples, seed):
    """Index of the first draw whose z * scale overflows, from the partition streams."""
    for part in range(-(-n_samples // PARTITION_SIZE)):
        count = min(PARTITION_SIZE, n_samples - part * PARTITION_SIZE)
        z = np.random.default_rng(seed_sequence(seed, part)).standard_normal(count)
        with np.errstate(over="ignore"):
            overflow = np.flatnonzero(np.isinf(z * scale))
        if overflow.size:
            return part * PARTITION_SIZE + int(overflow[0])
    return None


def test_non_finite_score_reports_global_sample_index():
    # under mean t * scale the score is scale * z, which overflows for large |z|; the second
    # case first overflows in partition 1 and the third in the last, partial partition (808 of
    # 9000 samples), and the global index must survive
    cases = ((1e308, 6_000, 0, 37), (4e307, 12_000, 6, 6_808), (5e307, 9_000, 16, 8_263))
    for scale, n_samples, seed, expected in cases:
        model = GaussianMeanModel(
            mean_fn=lambda t: scale * t,
            mean_jac=lambda t: np.array([[scale]]),
            noise_var=1.0,
            param_dim=1,
            obs_dim=1,
        )
        assert first_overflow(scale, n_samples, seed) == expected
        with np.errstate(over="ignore"), pytest.raises(NumericalFailure) as err:
            fim_monte_carlo(model, [0.0], n_samples, seed)
        assert err.value.sample_index == expected
        assert str(err.value) == f"non-finite score at sample {expected}"


def test_estimate_fields_default_for_analytic():
    est = fim_gaussian_mean(gaussian_location(3), np.zeros(3))
    assert isinstance(est, FimEstimate)
    assert est.n_samples == 0
    assert est.std_err_bound == 0.0


def per_sample_fim(model, theta, n_samples, seed):
    """Reference mean and std_err_bound: sample and score one draw at a time from the partition streams."""
    scores = []
    for part in range(-(-n_samples // PARTITION_SIZE)):
        rng = np.random.default_rng(seed_sequence(seed, part))
        count = min(PARTITION_SIZE, n_samples - part * PARTITION_SIZE)
        scores += [model.score(model.sample(theta, rng), theta) for _ in range(count)]
    scores = np.array(scores)
    squares = scores * scores
    mean = scores.T @ scores / n_samples
    var = (squares.T @ squares - n_samples * mean * mean) / (n_samples - 1)
    return mean, float(np.linalg.norm(np.sqrt(np.maximum(var, 0.0) / n_samples)))


def _offset_mean_model():
    jac = np.random.default_rng(16).standard_normal((4, 3))
    return GaussianMeanModel(
        mean_fn=lambda t: jac @ t + 1.0,
        mean_jac=lambda t: jac,
        noise_var=2.3,
        param_dim=3,
        obs_dim=4,
    )


@pytest.mark.parametrize(
    "model, theta",
    [
        (BlindChannelModel(3, 3, 0.5), [1.1, 0.6, 1.4, 0.9, 1.3, 0.7]),
        (_offset_mean_model(), [0.3, -0.2, 0.9]),
    ],
    ids=["blind_channel", "offset_mean"],
)
def test_batched_gaussian_mean_path_matches_per_sample_loop(model, theta):
    # 9000 samples span three partitions, the last one partial
    batched = fim_monte_carlo(model, theta, 9_000, 31)
    looped, std_err_bound = per_sample_fim(model, theta, 9_000, 31)
    scale = np.abs(looped).max()
    assert np.abs(batched.matrix.entries - looped).max() <= 1e-12 * scale
    assert batched.std_err_bound == pytest.approx(std_err_bound, rel=1e-12, abs=0.0)
    assert batched.n_samples == 9_000


def test_gaussian_mean_path_evaluates_the_jacobian_once():
    jac_calls = []

    def mean_jac(t):
        jac_calls.append(t)
        return np.eye(2)

    model = GaussianMeanModel(
        mean_fn=lambda t: t, mean_jac=mean_jac, noise_var=1.0, param_dim=2, obs_dim=2
    )
    fim_monte_carlo(model, [0.1, 0.2], 9_000, 0)
    assert len(jac_calls) == 1


def test_non_finite_gaussian_jacobian_fails_at_sample_zero():
    model = GaussianMeanModel(
        mean_fn=lambda t: t,
        mean_jac=lambda t: np.full((2, 2), np.nan),
        noise_var=1.0,
        param_dim=2,
        obs_dim=2,
    )
    with pytest.raises(NumericalFailure) as err:
        fim_monte_carlo(model, [0.1, 0.2], 1_000, 0)
    assert err.value.sample_index == 0


def test_million_sample_entries_within_isserlis_standard_errors():
    # The score s is N(0, J), so Var(s_i s_j) = J_ii J_jj + J_ij^2 (Isserlis)
    # gives each entry of the N-sample mean its own standard error.
    model = BlindChannelModel(2, 2)
    theta = np.random.default_rng(11).uniform(0.5, 1.5, 4)
    jac = model.jac_at(theta)
    analytic = jac.T @ jac / model.noise_var
    n = 1_000_000
    est = fim_monte_carlo(model, theta, n, 2024)
    diag = np.diag(analytic)
    std_err = np.sqrt((np.outer(diag, diag) + analytic**2) / n)
    assert np.all(np.abs(est.matrix.entries - analytic) <= 5.0 * std_err)
    # the reported bound is the Frobenius norm of the estimated std errors
    assert est.std_err_bound == pytest.approx(np.linalg.norm(std_err), rel=0.05)
