"""Statistical observation models.

GaussianMeanModel is y ~ N(mean(theta), noise_var I) for a differentiable
mean map, with its mean Jacobian, samples and analytic score.
gaussian_location is its identity-mean case. BlindChannelModel is the
blind single-channel model y = s * h + noise: it owns its convolution
mean, the Jacobian of that mean and the direction of the scalar exchange
(a*s, h/a), which makes the Fisher information singular with a
one-dimensional null space.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidInput
from .matlin import _allocated, _as_floats, _as_vector, _check_kind


@dataclass(frozen=True, eq=False)
class GaussianMeanModel:
    """y ~ N(mean_fn(theta), noise_var I) with a differentiable mean map.

    noise_var is the variance of every noise entry, a positive and finite
    number. mean_fn maps a param_dim vector to an obs_dim vector and
    mean_jac returns the (obs_dim, param_dim) Jacobian of that map. Both
    sizes are integers of at least 1. Python or numpy, but not bools.
    """

    mean_fn: Callable[[np.ndarray], np.ndarray]
    mean_jac: Callable[[np.ndarray], np.ndarray]
    noise_var: float
    param_dim: int
    obs_dim: int

    def __post_init__(self):
        _check_kind("an integer", param_dim=self.param_dim, obs_dim=self.obs_dim)
        if self.param_dim < 1 or self.obs_dim < 1:
            raise InvalidInput(f"dimensions must be positive, got ({self.param_dim}, {self.obs_dim})")
        _check_kind("a number", noise_var=self.noise_var)
        if not 0.0 < self.noise_var < np.inf:
            raise InvalidInput(f"noise_var must be positive and finite, got {self.noise_var}")

    def mean_at(self, theta) -> np.ndarray:
        th = _as_vector(InvalidInput, theta, self.param_dim, "theta")
        return _as_vector(InvalidInput, self.mean_fn(th), self.obs_dim, "mean_fn(theta)")

    def jac_at(self, theta) -> np.ndarray:
        th = _as_vector(InvalidInput, theta, self.param_dim, "theta")
        jac = _as_floats(InvalidInput, self.mean_jac(th), "mean_jac(theta)")
        if jac.shape != (self.obs_dim, self.param_dim):
            raise InvalidInput(
                f"mean_jac returned shape {jac.shape}, expected ({self.obs_dim}, {self.param_dim})"
            )
        return jac

    def sample(self, theta, rng: np.random.Generator) -> np.ndarray:
        return self.mean_at(theta) + np.sqrt(self.noise_var) * rng.standard_normal(self.obs_dim)

    def score(self, y, theta) -> np.ndarray:
        resid = _as_vector(InvalidInput, y, self.obs_dim, "y") - self.mean_at(theta)
        return self.jac_at(theta).T @ resid / self.noise_var


def gaussian_location(dim: int, noise_var: float = 1.0) -> GaussianMeanModel:
    """Gaussian model with identity mean map and isotropic noise."""
    _check_kind("an integer", dim=dim)
    if dim < 1:
        raise InvalidInput(f"dim must be positive, got {dim}")
    eye = _allocated(lambda shape: np.eye(*shape), (dim, dim), "dim")
    return GaussianMeanModel(
        mean_fn=lambda th: np.asarray(th, dtype=float),
        mean_jac=lambda th: eye,
        noise_var=noise_var,
        param_dim=dim,
        obs_dim=dim,
    )


class BlindChannelModel(GaussianMeanModel):
    """Blind single-channel model y = s * h + w, w ~ N(0, noise_var I).

    theta stacks the source s (length s_len) and the channel h (length
    h_len). The likelihood depends on theta only through s * h, so
    (a*s, h/a) is observationally equivalent to (s, h) for every a != 0
    and the Fisher information has a one-dimensional null space at
    generic theta.
    """

    def __init__(self, s_len: int, h_len: int, noise_var: float = 1.0):
        _check_kind("an integer", s_len=s_len, h_len=h_len)
        if s_len < 1 or h_len < 1:
            raise InvalidInput(f"filter lengths must be positive, got ({s_len}, {h_len})")
        for name, value in (("s_len", s_len), ("h_len", h_len)):
            object.__setattr__(self, name, value)
        super().__init__(
            mean_fn=lambda th: np.convolve(*self.split(th)),
            mean_jac=self._convolution_jac,
            noise_var=noise_var,
            param_dim=s_len + h_len,
            obs_dim=s_len + h_len - 1,
        )

    def split(self, theta) -> tuple[np.ndarray, np.ndarray]:
        th = _as_vector(InvalidInput, theta, self.param_dim, "theta")
        return th[: self.s_len], th[self.s_len :]

    def _convolution_jac(self, th: np.ndarray) -> np.ndarray:
        """Jacobian of s * h at a theta that jac_at has checked.

        The column for s_i is a copy of h shifted down by i; the column
        for h_j is a copy of s shifted down by j.
        """
        s_len, h_len = self.s_len, self.h_len
        s, h = th[:s_len], th[s_len:]
        jac = _allocated(np.zeros, (self.obs_dim, self.param_dim), "mean_jac")
        for i in range(s_len):
            jac[i : i + h_len, i] = h
        for j in range(h_len):
            jac[j : j + s_len, s_len + j] = s
        return jac

    def ambiguity_direction(self, theta) -> np.ndarray:
        """Unit tangent (s, -h) / |theta| of the scalar exchange (a*s, h/a) at a = 1.

        It lies in the null space of the Fisher information at generic theta.
        """
        s, h = self.split(theta)
        direction = np.concatenate([s, -h])
        norm = float(np.linalg.norm(direction))
        if norm == 0.0:
            raise InvalidInput("ambiguity direction undefined at theta = 0")
        return direction / norm
