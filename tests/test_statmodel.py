import numpy as np
import pytest

from crbkit import (
    BlindChannelModel,
    GaussianMeanModel,
    InvalidInput,
    fim_gaussian_mean,
    gaussian_location,
    random_rank_deficient_psd,
    ranked_svd,
)


def test_reciprocal_scaling_leaves_output_unchanged():
    rng = np.random.default_rng(10)
    s = rng.uniform(0.5, 1.5, 3)
    h = rng.uniform(0.5, 1.5, 4)
    model = BlindChannelModel(3, 4)
    base = model.mean_at(np.concatenate([s, h]))
    for alpha in (2.0, -1.0, 0.5):
        # powers of two scale exactly in binary floating point
        assert np.array_equal(model.mean_at(np.concatenate([alpha * s, h / alpha])), base)


def test_mean_jac_frozen_examples():
    assert np.array_equal(BlindChannelModel(1, 1).jac_at([1.0, 1.0]), [[1.0, 1.0]])
    jac = BlindChannelModel(2, 1).jac_at([1.0, 0.0, 1.0])
    assert np.array_equal(jac, [[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])


def test_mean_jac_matches_finite_differences():
    rng = np.random.default_rng(11)
    model = BlindChannelModel(3, 3)
    theta = rng.uniform(0.5, 1.5, 6)
    jac = model.jac_at(theta)
    step = 1e-6
    fd = np.empty_like(jac)
    for i in range(theta.size):
        up = theta.copy()
        dn = theta.copy()
        up[i] += step
        dn[i] -= step
        fd[:, i] = (model.mean_at(up) - model.mean_at(dn)) / (2.0 * step)
    assert np.abs(jac - fd).max() <= 1e-6


def test_ambiguity_direction_frozen_example():
    d = BlindChannelModel(1, 1).ambiguity_direction([1.0, 2.0])
    assert np.allclose(d, np.array([1.0, -2.0]) / np.sqrt(5.0), atol=1e-15)
    assert np.isclose(np.linalg.norm(d), 1.0, atol=1e-15)


def test_ambiguity_direction_rejects_zero_parameter():
    with pytest.raises(InvalidInput, match="^ambiguity direction undefined at theta = 0$"):
        BlindChannelModel(1, 1).ambiguity_direction([0.0, 0.0])


def test_ambiguity_direction_lies_in_fim_kernel():
    rng = np.random.default_rng(12)
    for s_len in (2, 3, 4):
        for h_len in (2, 3, 4):
            model = BlindChannelModel(s_len, h_len, 0.7)
            theta = rng.uniform(0.5, 1.5, model.param_dim)
            j = fim_gaussian_mean(model, theta).matrix.entries
            direction = model.ambiguity_direction(theta)
            assert np.isclose(np.linalg.norm(direction), 1.0, atol=1e-12)
            assert np.linalg.norm(j @ direction) <= 1e-8 * np.linalg.norm(j, 2)


def test_fim_nullity_is_one_at_generic_parameters():
    rng = np.random.default_rng(13)
    for s_len in (2, 3, 4):
        for h_len in (2, 3, 4):
            model = BlindChannelModel(s_len, h_len)
            for _ in range(20):
                theta = rng.uniform(0.5, 1.5, model.param_dim)
                j = fim_gaussian_mean(model, theta).matrix
                assert ranked_svd(j).rank == model.param_dim - 1


def gaussian_log_density(model, y, theta):
    """log N(y; mean_at(theta), noise_var I), written out for reference."""
    resid = y - model.mean_at(theta)
    return -0.5 * (model.obs_dim * np.log(2.0 * np.pi * model.noise_var) + resid @ resid / model.noise_var)


def _tanh_mean_model():
    jac = np.random.default_rng(16).standard_normal((4, 3))
    # a nonlinear mean and noise variance other than 1
    return GaussianMeanModel(
        mean_fn=lambda t: np.tanh(jac @ t),
        mean_jac=lambda t: (1.0 - np.tanh(jac @ t) ** 2)[:, None] * jac,
        noise_var=2.3,
        param_dim=3,
        obs_dim=4,
    )


def test_log_density_finite_on_samples():
    # samples of y ~ N(mu, sigma^2 I) have mean log density -(d log(2 pi sigma^2) + d) / 2,
    # and the log density has variance d / 2
    model = BlindChannelModel(2, 3, 1.3)
    rng = np.random.default_rng(15)
    theta = rng.uniform(0.5, 1.5, model.param_dim)
    logs = []
    for _ in range(2000):
        y = model.sample(theta, rng)
        assert y.shape == (model.obs_dim,)
        logs.append(gaussian_log_density(model, y, theta))
    assert np.all(np.isfinite(logs))
    d = model.obs_dim
    expected = -0.5 * (d * np.log(2.0 * np.pi * 1.3) + d)
    assert abs(np.mean(logs) - expected) <= 5.0 * np.sqrt(d / 2.0 / len(logs))


def test_score_matches_finite_differences():
    # central differences of the log density, with steps 1e-5 (1 + |theta_i|)
    rng = np.random.default_rng(14)
    for model in (BlindChannelModel(3, 2, 0.8), _tanh_mean_model()):
        theta = rng.uniform(0.5, 1.5, model.param_dim)
        y = model.sample(theta, rng)
        approx = np.empty(model.param_dim)
        for i in range(model.param_dim):
            step = np.zeros(model.param_dim)
            step[i] = 1e-5 * (1.0 + abs(theta[i]))
            up, down = (gaussian_log_density(model, y, theta + sign * step) for sign in (1, -1))
            approx[i] = (up - down) / (2.0 * step[i])
        exact = model.score(y, theta)
        assert np.all(np.abs(exact - approx) <= 1e-4 * (1.0 + np.abs(approx)))


def test_score_has_zero_mean_at_true_parameter():
    model = BlindChannelModel(3, 3, 0.5)
    theta = np.random.default_rng(4).uniform(0.5, 1.5, 6)
    rng = np.random.default_rng(99)
    scores = np.array([model.score(model.sample(theta, rng), theta) for _ in range(2000)])
    mean = scores.mean(axis=0)
    std_err = scores.std(axis=0, ddof=1) / np.sqrt(scores.shape[0])
    assert np.all(np.abs(mean) <= 3.0 * std_err)


def test_gaussian_model_rejects_bad_noise():
    with pytest.raises(InvalidInput, match=r"^noise_var must be positive and finite, got 0\.0$"):
        gaussian_location(2, noise_var=0.0)
    for noise_var in (-1.0, np.inf, np.nan):
        with pytest.raises(InvalidInput, match=f"^noise_var must be positive and finite, got {noise_var}$"):
            GaussianMeanModel(
                mean_fn=lambda t: t, mean_jac=lambda t: np.eye(2), noise_var=noise_var, param_dim=2, obs_dim=2
            )


@pytest.mark.parametrize(
    "build",
    [
        lambda value: BlindChannelModel(2, 3, noise_var=value),
        lambda value: gaussian_location(2, noise_var=value),
        lambda value: GaussianMeanModel(lambda t: t, lambda t: np.eye(2), value, 2, 2),
    ],
    ids=["blind_channel", "gaussian_location", "gaussian_mean"],
)
def test_a_noise_var_that_is_not_a_number_is_refused_by_name(build):
    # text or None would leak Python's TypeError from the comparison, and True would build a model of variance 1
    for value in ("1", None, True, np.bool_(True), [1.0]):
        with pytest.raises(InvalidInput) as info:
            build(value)
        assert str(info.value) == f"noise_var must be a number, got {value!r}"
    for value in (2, np.float32(0.5), np.int64(3)):  # Python and numpy numbers are variances
        assert build(value).noise_var == value
    with pytest.raises(InvalidInput, match="^noise_var must be positive and finite, got -1$"):
        build(-1)


def test_gaussian_model_rejects_an_empty_parameter_and_a_jacobian_of_another_shape():
    with pytest.raises(InvalidInput) as info:
        gaussian_location(0)
    assert str(info.value) == "dim must be positive, got 0"
    with pytest.raises(InvalidInput) as info:
        GaussianMeanModel(mean_fn=lambda t: t, mean_jac=lambda t: np.eye(1), noise_var=1.0, param_dim=0, obs_dim=1)
    assert str(info.value) == "dimensions must be positive, got (0, 1)"
    model = GaussianMeanModel(mean_fn=lambda t: t, mean_jac=lambda t: np.eye(3), noise_var=1.0, param_dim=2, obs_dim=2)
    with pytest.raises(InvalidInput) as info:
        model.jac_at([1.0, 2.0])
    assert str(info.value) == "mean_jac returned shape (3, 3), expected (2, 2)"


def test_blind_channel_rejects_bad_dims():
    with pytest.raises(InvalidInput, match=r"^filter lengths must be positive, got \(0, 3\)$"):
        BlindChannelModel(0, 3)
    with pytest.raises(InvalidInput, match=r"^noise_var must be positive and finite, got -1\.0$"):
        BlindChannelModel(3, 2, noise_var=-1.0)


def test_a_size_that_is_not_an_integer_is_refused_by_name():
    # a size counts parameters, observations or rows: a float or a bool is refused by name before it is
    # summed into param_dim or handed to numpy; numpy integers are sizes too
    def gaussian(param_dim, obs_dim):
        return GaussianMeanModel(lambda t: t, lambda t: np.eye(2), 1.0, param_dim, obs_dim)

    cases = [
        (lambda: BlindChannelModel(2.0, 3), "s_len must be an integer, got 2.0"),
        (lambda: BlindChannelModel(True, 2), "s_len must be an integer, got True"),
        (lambda: BlindChannelModel(2, np.float64(3.0)), f"h_len must be an integer, got {np.float64(3.0)!r}"),
        (lambda: gaussian(1.5, 2), "param_dim must be an integer, got 1.5"),
        (lambda: gaussian(2, False), "obs_dim must be an integer, got False"),
        (lambda: gaussian_location(2.5), "dim must be an integer, got 2.5"),
    ]
    for build, message in cases:
        with pytest.raises(InvalidInput) as info:
            build()
        assert str(info.value) == message
    assert BlindChannelModel(np.int64(2), np.int32(3)).param_dim == 5
    assert gaussian_location(np.int64(2)).obs_dim == 2
    rng = np.random.default_rng(27)
    for n, rank, name in ((3.0, 1, "n"), (3, 1.5, "rank"), (True, 1, "n"), (3, np.float64(1.0), "rank")):
        with pytest.raises(InvalidInput, match=f"^{name} must be an integer, got "):
            random_rank_deficient_psd(n, rank, rng)
    assert random_rank_deficient_psd(np.int64(3), np.int32(1), rng).entries.shape == (3, 3)


def test_blind_channel_split_roundtrip():
    model = BlindChannelModel(2, 3)
    theta = np.arange(5.0)
    s, h = model.split(theta)
    assert np.array_equal(s, [0.0, 1.0])
    assert np.array_equal(h, [2.0, 3.0, 4.0])
    assert np.array_equal(model.mean_at(theta), np.convolve(s, h))
