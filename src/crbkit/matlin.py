"""Dense symmetric linear algebra for information-matrix work.

Provides the rank-revealing decomposition, the basis-form pseudoinverse
U_r (U_r' M U_r)^-1 U_r', null-space complements of constraint Jacobians,
and small eigenvalue utilities. Everything is real, dense, and double
precision; all rank and definiteness decisions go through explicit
tolerances with stated defaults.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    """Coerce an array-like (or pass through a SymMatrix) to SymMatrix."""
    return m if isinstance(m, SymMatrix) else SymMatrix(np.asarray(m, dtype=float))


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.array(arr, dtype=float)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class RankedSvd:
    """Rank-revealing decomposition of a symmetric matrix.

    u_r:   (n, r) orthonormal basis of the numerical range.
    sigma: (r,) singular values above the rank cutoff, descending.
    u_bar: (n, n - r) orthonormal basis of the numerical null space.
    rank:  r.
    """

    u_r: np.ndarray
    sigma: np.ndarray
    u_bar: np.ndarray
    rank: int

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


@dataclass(frozen=True, eq=False)
class EigenSpectrum:
    """Eigenvalues of a symmetric matrix, sorted descending."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.sort(np.asarray(self.values, dtype=float))[::-1]
        object.__setattr__(self, "values", _freeze(vals))

    def __len__(self) -> int:
        return self.values.shape[0]


def ranked_svd(m, rank_tol_rel: float = DEFAULT_RANK_TOL_REL) -> RankedSvd:
    """Decompose a symmetric matrix into range and null bases.

    Singular values below or at sigma_max * n * rank_tol_rel count as zero.
    The zero matrix yields rank 0 with u_bar spanning the whole space.
    """
    if rank_tol_rel <= 0:
        raise InvalidInput(f"rank_tol_rel must be positive, got {rank_tol_rel}")
    sym = as_sym_matrix(m)
    u, s, _ = np.linalg.svd(sym.entries)
    cutoff = s[0] * sym.dim * rank_tol_rel if s.size else 0.0
    rank = int(np.sum(s > cutoff))
    return RankedSvd(u_r=u[:, :rank], sigma=s[:rank], u_bar=u[:, rank:], rank=rank)


def pinv_via_basis(m, rank_tol_rel: float = DEFAULT_RANK_TOL_REL) -> SymMatrix:
    """Moore-Penrose pseudoinverse through the range-basis identity.

    Computes U_r (U_r' M U_r)^-1 U_r' with U_r from ranked_svd. For the
    zero matrix this is the zero matrix.
    """
    sym = as_sym_matrix(m)
    basis = ranked_svd(sym, rank_tol_rel)
    restricted = basis.u_r.T @ sym.entries @ basis.u_r
    pinv = basis.u_r @ np.linalg.inv(restricted) @ basis.u_r.T
    return SymMatrix(pinv)


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


def null_complement(f_jac, rank_tol_rel: float = DEFAULT_RANK_TOL_REL) -> np.ndarray:
    """Orthonormal basis U of the null space of a full-row-rank Jacobian.

    For an (m, n) Jacobian with m <= n, returns U of shape (n, n - m) with
    U'U = I and f_jac @ U = 0. An empty Jacobian (m = 0) yields the
    identity. Raises RankDeficientConstraint when the numerical row rank
    is below m.
    """
    if rank_tol_rel <= 0:
        raise InvalidInput(f"rank_tol_rel must be positive, got {rank_tol_rel}")
    jac = _as_2d(f_jac, "constraint Jacobian")
    m, n = jac.shape
    if n == 0:
        raise InvalidMatrix("constraint Jacobian has zero columns")
    if m == 0:
        return np.eye(n)
    if m > n:
        raise RankDeficientConstraint(f"Jacobian has {m} rows but only {n} columns")
    _, s, vh = np.linalg.svd(jac)
    cutoff = s[0] * max(m, n) * rank_tol_rel if s.size else 0.0
    rank = int(np.sum(s > cutoff))
    if rank < m:
        raise RankDeficientConstraint(
            f"Jacobian row rank {rank} below row count {m}; rows are dependent"
        )
    return vh[m:].T


def is_nonsingular(a, rank_tol_rel: float = DEFAULT_RANK_TOL_REL) -> bool:
    """Relative nonsingularity test for a symmetric matrix.

    True iff the smallest eigenvalue exceeds rank_tol_rel times the
    largest. Empty (0, 0) input counts as nonsingular.
    """
    arr = _as_2d(a, "matrix")
    if arr.shape[0] != arr.shape[1]:
        raise InvalidMatrix(f"expected square input, got shape {arr.shape}")
    if arr.shape[0] == 0:
        return True
    evals = np.linalg.eigvalsh(0.5 * (arr + arr.T))
    return bool(evals[0] > rank_tol_rel * evals[-1])


def orthonormal_columns(a) -> np.ndarray:
    """Orthonormalize the columns of a full-column-rank (n, k) matrix.

    QR with the sign of R's diagonal fixed to +1, so Gaussian input maps
    to a uniformly distributed orthonormal frame.
    """
    arr = _as_2d(a, "matrix")
    if arr.shape[1] > arr.shape[0]:
        raise InvalidInput(f"need at least as many rows as columns, got {arr.shape}")
    q, r = np.linalg.qr(arr)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs


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
