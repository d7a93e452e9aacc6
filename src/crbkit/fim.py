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

from .errors import InvalidInput, NumericalFailure
from .matlin import SymMatrix, seed_sequence
from .statmodel import GaussianMeanModel

# Samples per derived stream; the stream for partition p is seeded from
# (rng_seed, p), and partitions are reduced in index order.
PARTITION_SIZE = 4096

MIN_MC_SAMPLES = 100


@dataclass(frozen=True, eq=False)
class FimEstimate:
    """Fisher information estimate.

    method is "analytic" or "monte_carlo". For Monte-Carlo estimates
    std_err_bound is the Frobenius norm of the entrywise standard errors
    and clip_magnitude records how far the smallest eigenvalue had to be
    raised to reach zero; both are 0.0 for analytic estimates.
    """

    matrix: SymMatrix
    method: str
    n_samples: int = 0
    std_err_bound: float = 0.0
    clip_magnitude: float = 0.0


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

    The sample mean is symmetrized and its negative eigenvalues are
    clipped to zero so downstream positive-semidefinite preconditions
    hold; the clip size is reported. Raises NumericalFailure naming the
    global index of the first sample whose score is non-finite.
    """
    if n_samples < MIN_MC_SAMPLES:
        raise InvalidInput(f"n_samples must be at least {MIN_MC_SAMPLES}, got {n_samples}")
    # score(mean + sigma z) = (G / sigma)' z; G times 1/sigma rounds as a solve against sigma I
    whitened_jac = model.jac_at(theta) * (1.0 / np.sqrt(model.noise_var))

    dim = model.param_dim
    total = np.zeros((dim, dim))
    total_sq = np.zeros((dim, dim))
    n_partitions = (n_samples + PARTITION_SIZE - 1) // PARTITION_SIZE
    drawn = 0
    for part in range(n_partitions):
        count = min(PARTITION_SIZE, n_samples - drawn)
        rng = np.random.default_rng(seed_sequence(rng_seed, part))
        scores = rng.standard_normal((count, model.obs_dim)) @ whitened_jac
        if not np.isfinite(scores).all():
            # the row-wise scan runs only on failure, to name the first bad sample
            index = drawn + int(np.argmin(np.isfinite(scores).all(axis=1)))
            raise NumericalFailure(f"non-finite score at sample {index}", sample_index=index)
        squares = scores * scores
        # fixed reduction order: partitions fold in by index
        total += scores.T @ scores
        total_sq += squares.T @ squares
        drawn += count

    mean = total / n_samples
    # entrywise sample variance of the outer products
    var = (total_sq - n_samples * mean * mean) / (n_samples - 1)
    np.maximum(var, 0.0, out=var)
    std_err = np.sqrt(var / n_samples)
    std_err_bound = float(np.linalg.norm(std_err))

    sym = 0.5 * (mean + mean.T)
    evals, evecs = np.linalg.eigh(sym)
    clip = max(0.0, -float(evals[0]))
    if clip > 0.0:
        sym = (evecs * np.maximum(evals, 0.0)) @ evecs.T
    return FimEstimate(
        matrix=SymMatrix(sym),
        method="monte_carlo",
        n_samples=n_samples,
        std_err_bound=std_err_bound,
        clip_magnitude=clip,
    )
