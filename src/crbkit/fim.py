"""Fisher information of Gaussian-mean models: analytic and Monte Carlo.

The analytic route computes G'G / sigma^2 from the mean Jacobian G and
the noise variance sigma^2. The Monte-Carlo route averages score outer
products over simulated observations with a deterministic,
partition-derived random stream, so the result is reproducible for a
given seed regardless of how the work would be split across workers.
The score of y = mu + sigma z is G'z / sigma, so a partition of k draws
is one (k, obs_dim) normal draw times G / sigma and two matrix products.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailure
from .matlin import SymMatrix, _check_count, seed_sequence
from .statmodel import GaussianMeanModel

# Samples per derived stream; the stream for partition p is seeded from
# (rng_seed, p), and partitions are reduced in index order.
PARTITION_SIZE = 4096

MIN_MC_SAMPLES = 100


@dataclass(frozen=True, eq=False)
class FimEstimate:
    """Fisher information estimate.

    method is "analytic" or "monte_carlo". For Monte-Carlo estimates
    std_err_bound is the Frobenius norm of the entrywise standard errors;
    it is 0.0 for analytic estimates.
    """

    matrix: SymMatrix
    method: str
    n_samples: int = 0
    std_err_bound: float = 0.0


def fim_gaussian_mean(model: GaussianMeanModel, theta) -> FimEstimate:
    """Exact Fisher information G'G / noise_var of a Gaussian-mean model."""
    jac = model.jac_at(theta)
    return FimEstimate(matrix=SymMatrix((jac.T @ jac) / model.noise_var), method="analytic")


def fim_monte_carlo(
    model: GaussianMeanModel, theta, n_samples: int, rng_seed: int
) -> FimEstimate:
    """Monte-Carlo Fisher information from score outer products.

    The model is sampled a partition at a time: its scores are the rows
    of Z @ (G / sigma) for a (k, obs_dim) standard-normal draw Z, with
    sigma^2 the noise variance and G the mean Jacobian at theta. That
    draw consumes the partition's stream exactly as k sequential
    standard_normal(obs_dim) draws, so sample i sees the same z as under
    model.sample.

    The estimate is the sample mean W'SW (W = G / sigma, S the draws'
    second moment), symmetrized by SymMatrix and, like G'G / sigma^2, not
    clipped: it is PSD up to roundoff that the rank rule of ranked_svd
    reads as zero. Raises InvalidInput unless n_samples is an integer of
    at least MIN_MC_SAMPLES, and NumericalFailure naming the global index
    of the first sample whose score is non-finite.
    """
    _check_count(n_samples, "n_samples", MIN_MC_SAMPLES)
    # score(mean + sigma z) = (G / sigma)' z; G times 1/sigma rounds as a solve against sigma I
    whitened_jac = model.jac_at(theta) * (1.0 / np.sqrt(model.noise_var))

    total = np.zeros((model.param_dim, model.param_dim))
    total_sq = np.zeros_like(total)
    for part, start in enumerate(range(0, n_samples, PARTITION_SIZE)):
        count = min(PARTITION_SIZE, n_samples - start)
        rng = np.random.default_rng(seed_sequence(rng_seed, part))
        scores = rng.standard_normal((count, model.obs_dim)) @ whitened_jac
        if not np.isfinite(scores).all():
            # the row-wise scan runs only on failure, to name the first bad sample
            index = start + int(np.argmin(np.isfinite(scores).all(axis=1)))
            raise NumericalFailure(f"non-finite score at sample {index}", sample_index=index)
        squares = scores * scores
        # fixed reduction order: partitions fold in by index
        total += scores.T @ scores
        total_sq += squares.T @ squares

    mean = total / n_samples
    # entrywise sample variance of the outer products
    var = (total_sq - n_samples * mean * mean) / (n_samples - 1)
    std_err_bound = float(np.linalg.norm(np.sqrt(np.maximum(var, 0.0) / n_samples)))
    return FimEstimate(SymMatrix(mean), "monte_carlo", n_samples, std_err_bound)
