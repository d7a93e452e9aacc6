"""Dense symmetric linear algebra for information-matrix work.

Provides the rank-revealing decomposition, the basis-form pseudoinverse
U_r (U_r' M U_r)^-1 U_r', null-space complements of constraint Jacobians,
and small eigenvalue utilities. Everything is real, dense, and double
precision; all rank and definiteness decisions go through explicit
tolerances with stated defaults.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidInput, InvalidMatrix, RankDeficientConstraint

# Relative rank cutoff: singular values <= sigma_max * n * DEFAULT_RANK_TOL_REL
# are treated as zero.
DEFAULT_RANK_TOL_REL = 1e-10

# Relative slack for positive semidefiniteness checks.
DEFAULT_PSD_TOL_REL = 1e-9


def _as_2d(values, name: str = "matrix") -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 2:
        raise InvalidMatrix(f"{name} must be 2-d, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidMatrix(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True, eq=False)
class SymMatrix:
    """Real symmetric matrix, symmetrized and frozen on construction.

    Construction averages the input with its transpose, so
    entries[i, j] == entries[j, i] holds exactly afterwards. Entries must
    be finite; the stored array is read-only.
    """

    entries: np.ndarray

    def __post_init__(self):
        arr = _as_2d(self.entries)
        if arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
            raise InvalidMatrix(f"expected a nonempty square matrix, got shape {arr.shape}")
        arr = 0.5 * (arr + arr.T)
        arr.flags.writeable = False
        object.__setattr__(self, "entries", arr)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @property
    def trace(self) -> float:
        return float(np.trace(self.entries))

    def __array__(self, dtype=None, copy=None):
        return np.array(self.entries, dtype=dtype)


def as_sym_matrix(m) -> SymMatrix:
    """Coerce an array-like to SymMatrix; a SymMatrix or RankedSvd passes through."""
    if isinstance(m, RankedSvd):
        return m.matrix
    return m if isinstance(m, SymMatrix) else SymMatrix(np.asarray(m, dtype=float))


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.array(arr, dtype=float)
    arr.flags.writeable = False
    return arr


def seed_sequence(entropy: int, *spawn_key: int) -> np.random.SeedSequence:
    """The one seed derivation: the stream of spawn_key under a top-level seed."""
    return np.random.SeedSequence(entropy=entropy, spawn_key=spawn_key)


def _rank_cutoff(s: np.ndarray, size: int, rank_tol_rel: float) -> np.ndarray:
    """Rank from descending singular values (last axis): those above s_max * size * rank_tol_rel."""
    if rank_tol_rel <= 0:
        raise InvalidInput(f"rank_tol_rel must be positive, got {rank_tol_rel}")
    return np.sum(s > s[..., :1] * size * rank_tol_rel, axis=-1)


@dataclass(frozen=True, eq=False)
class RankedSvd:
    """Symmetric matrix J (matrix) factored once by its rank-revealing decomposition.

    u_r:   (n, r) orthonormal basis of the numerical range.
    sigma: (r,) singular values above the rank cutoff, descending.
    u_bar: (n, n - r) orthonormal basis of the numerical null space.
    rank:  r, decided with rank_tol_rel. The pseudoinverse and its
    eigenvalues are computed on first use and kept.
    """

    matrix: SymMatrix
    u_r: np.ndarray
    sigma: np.ndarray
    u_bar: np.ndarray
    rank: int
    rank_tol_rel: float

    def __post_init__(self):
        object.__setattr__(self, "u_r", _freeze(self.u_r))
        object.__setattr__(self, "sigma", _freeze(self.sigma))
        object.__setattr__(self, "u_bar", _freeze(self.u_bar))

    @property
    def dim(self) -> int:
        return self.u_r.shape[0]

    def range_projector(self) -> np.ndarray:
        """Orthogonal projector U_r U_r' onto the numerical range."""
        return self.u_r @ self.u_r.T

    def null_projector(self) -> np.ndarray:
        """Orthogonal projector onto the numerical null space."""
        return self.u_bar @ self.u_bar.T

    @cached_property
    def pinv(self) -> SymMatrix:
        """Moore-Penrose pseudoinverse U_r (U_r' J U_r)^-1 U_r' by _bounds; zero for rank 0."""
        restricted = self.u_r.T @ self.matrix.entries @ self.u_r
        return SymMatrix(_bounds(self.u_r[None], restricted[None], np.ones(1, dtype=bool))[0])

    @cached_property
    def pinv_eigenvalues(self) -> EigenSpectrum:
        """Eigenvalues of pinv, descending: 1/sigma and n - r zeros, as J is positive semidefinite."""
        return EigenSpectrum(np.concatenate([1.0 / self.sigma, np.zeros(self.dim - self.rank)]))


@dataclass(frozen=True, eq=False)
class EigenSpectrum:
    """Eigenvalues of a symmetric matrix, sorted descending."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.sort(np.asarray(self.values, dtype=float))[::-1]
        object.__setattr__(self, "values", _freeze(vals))

    def __len__(self) -> int:
        return self.values.shape[0]


def restricted_information(j: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """U'JU for a (k, n, r) stack of bases U, and the ascending eigenvalues of its symmetrized form."""
    restricted = u.transpose(0, 2, 1) @ j @ u
    return restricted, np.linalg.eigvalsh(0.5 * (restricted + restricted.transpose(0, 2, 1)))


def _bounds(u: np.ndarray, restricted: np.ndarray, exists: np.ndarray) -> np.ndarray:
    """U (U'JU)^-1 U', symmetrized, for a (k, n, r) stack of bases U; one inv call for all.

    restricted is the (k, r, r) stack of U'JU. Where exists (k,) is False
    the identity stands in for U'JU, and the entry is no bound.
    """
    restricted = np.where(exists[:, None, None], restricted, np.eye(restricted.shape[1]))
    bounds = u @ np.linalg.inv(restricted) @ u.transpose(0, 2, 1)
    return 0.5 * (bounds + bounds.transpose(0, 2, 1))


def ranked_svd(m, rank_tol_rel: float = DEFAULT_RANK_TOL_REL) -> RankedSvd:
    """Decompose a symmetric matrix into range and null bases.

    Singular values below or at sigma_max * n * rank_tol_rel count as zero.
    The zero matrix yields rank 0 with u_bar spanning the whole space.
    """
    sym = as_sym_matrix(m)
    u, s, _ = np.linalg.svd(sym.entries)
    rank = int(_rank_cutoff(s, sym.dim, rank_tol_rel))
    return RankedSvd(sym, u[:, :rank], s[:rank], u[:, rank:], rank, rank_tol_rel)


def as_ranked_svd(m, rank_tol_rel: float = DEFAULT_RANK_TOL_REL) -> RankedSvd:
    """Factor m with ranked_svd, or pass through a RankedSvd made with rank_tol_rel."""
    if isinstance(m, RankedSvd) and m.rank_tol_rel == rank_tol_rel:
        return m
    return ranked_svd(m, rank_tol_rel)


def pinv_via_basis(m, rank_tol_rel: float = DEFAULT_RANK_TOL_REL) -> SymMatrix:
    """Moore-Penrose pseudoinverse through the range-basis identity.

    Computes U_r (U_r' M U_r)^-1 U_r' with U_r from ranked_svd. For the
    zero matrix this is the zero matrix.
    """
    return as_ranked_svd(m, rank_tol_rel).pinv


def eigvals_desc(m) -> EigenSpectrum:
    """Eigenvalues of a symmetric matrix in descending order."""
    sym = as_sym_matrix(m)
    return EigenSpectrum(np.linalg.eigvalsh(sym.entries))


def is_psd(m, psd_tol: float | None = None, psd_tol_rel: float = DEFAULT_PSD_TOL_REL) -> bool:
    """True iff the smallest eigenvalue is >= -psd_tol.

    psd_tol defaults to psd_tol_rel times the largest absolute
    eigenvalue of m.
    """
    sym = as_sym_matrix(m)
    evals = np.linalg.eigvalsh(sym.entries)
    if psd_tol is None:
        psd_tol = psd_tol_rel * float(np.max(np.abs(evals)))
    if psd_tol < 0:
        raise InvalidInput(f"psd_tol must be nonnegative, got {psd_tol}")
    return bool(evals[0] >= -psd_tol)


def null_complements(f_jacs: np.ndarray, rank_tol_rel: float = DEFAULT_RANK_TOL_REL):
    """Row ranks (k,) and orthonormal null bases (k, n, n - m) of (k, m, n) Jacobians.

    One svd call gives both; where ranks[i] == m, f_jacs[i] @ u[i] = 0.
    """
    m, n = f_jacs.shape[1:]
    _, s, vh = np.linalg.svd(f_jacs)
    return _rank_cutoff(s, max(m, n), rank_tol_rel), vh[:, m:].transpose(0, 2, 1)


def null_complement(f_jac, rank_tol_rel: float = DEFAULT_RANK_TOL_REL) -> np.ndarray:
    """Orthonormal basis U of the null space of a full-row-rank Jacobian.

    For an (m, n) Jacobian with m <= n, returns U of shape (n, n - m) with
    U'U = I and f_jac @ U = 0. An empty Jacobian (m = 0) yields the
    identity. Raises RankDeficientConstraint when the numerical row rank
    is below m.
    """
    jac = _as_2d(f_jac, "constraint Jacobian")
    ranks, u = null_complements(jac[None], rank_tol_rel)
    if ranks[0] < jac.shape[0]:
        raise RankDeficientConstraint(ranks[0], jac.shape[0])
    return u[0]


def nonsingular(evals: np.ndarray, rank_tol_rel: float = DEFAULT_RANK_TOL_REL) -> np.ndarray:
    """True where the smallest ascending eigenvalue (last axis) exceeds rank_tol_rel
    times the largest; a 0 x 0 matrix, with no eigenvalues, counts as nonsingular."""
    if evals.shape[-1] == 0:
        return np.ones(evals.shape[:-1], dtype=bool)
    return evals[..., 0] > rank_tol_rel * evals[..., -1]


def is_nonsingular(a, rank_tol_rel: float = DEFAULT_RANK_TOL_REL) -> bool:
    """Relative nonsingularity test for a symmetric matrix (see nonsingular)."""
    arr = _as_2d(a, "matrix")
    if arr.shape[0] != arr.shape[1]:
        raise InvalidMatrix(f"expected square input, got shape {arr.shape}")
    return bool(nonsingular(np.linalg.eigvalsh(0.5 * (arr + arr.T)), rank_tol_rel))


def orthonormal_columns(a) -> np.ndarray:
    """Orthonormalize the columns of full-column-rank (..., n, k) matrices.

    QR with the sign of R's diagonal fixed to +1, so Gaussian input maps
    to a uniformly distributed orthonormal frame. A stack is one qr call.
    """
    arr = np.asarray(a, dtype=float)
    if arr.ndim < 2 or not np.all(np.isfinite(arr)):
        raise InvalidMatrix(f"matrix must be finite with at least 2 dimensions, got shape {arr.shape}")
    if arr.shape[-1] > arr.shape[-2]:
        raise InvalidInput(f"need at least as many rows as columns, got {arr.shape}")
    return _sign_fixed_columns(*np.linalg.qr(arr))


def _sign_fixed_columns(q: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Leading columns of a QR's q, one per column of r, signed so that R's diagonal is nonnegative."""
    signs = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    signs[signs == 0] = 1.0
    return q[..., : r.shape[-1]] * signs[..., None, :]


def moore_penrose_residuals(m, p) -> tuple[float, float, float, float]:
    """Relative Frobenius residuals of the four Moore-Penrose conditions.

    Returns (|MPM - M|/|M|, |PMP - P|/|P|, |(MP)' - MP|/|MP|,
    |(PM)' - PM|/|PM|), with 0/0 read as 0.
    """
    m_arr = _as_2d(m, "matrix")
    p_arr = _as_2d(p, "candidate pseudoinverse")

    def rel(num: np.ndarray, den: np.ndarray) -> float:
        den_norm = float(np.linalg.norm(den))
        num_norm = float(np.linalg.norm(num))
        if den_norm == 0.0:
            return 0.0 if num_norm == 0.0 else float("inf")
        return num_norm / den_norm

    mp = m_arr @ p_arr
    pm = p_arr @ m_arr
    return (
        rel(mp @ m_arr - m_arr, m_arr),
        rel(pm @ p_arr - p_arr, p_arr),
        rel(mp.T - mp, mp),
        rel(pm.T - pm, pm),
    )
