"""Dense symmetric linear algebra for information-matrix work.

Provides the rank-revealing decomposition, one eigh of J that also gives
its spectrum and pseudoinverse U_r diag(1/lambda_r) U_r', null-space
complements of constraint Jacobians, and small eigenvalue utilities.
Everything is real, dense, and double precision; all rank and definiteness
decisions go through explicit tolerances with stated defaults.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidInput, InvalidMatrix, NotMinimumConstraint
from .matx import format_float

# Relative rank cutoff: singular values <= sigma_max * n * DEFAULT_RANK_TOL_REL
# are treated as zero.
DEFAULT_RANK_TOL_REL = 1e-10

# Rows or columns whose Gram matrix is within this (max-abs) of the identity are orthonormal.
ORTHONORMAL_TOL = 1e-10
_EPS = np.finfo(float).eps


def _as_floats(error: type[Exception], values, name: str) -> np.ndarray:
    """values as a float array; error naming name where numpy cannot convert them, as text or a ragged list, and
    where they are complex, which a cast to float would drop the imaginary part of."""
    try:
        arr = np.asarray(values)
        if arr.dtype.kind != "c":
            return np.asarray(arr, dtype=float)
    except (TypeError, ValueError):
        raise error(f"{name} is not an array of numbers") from None
    raise error(f"{name} has complex entries; only real numbers are accepted")


def _as_vector(error: type[Exception], values, size: int, name: str) -> np.ndarray:
    """values flattened to a float vector of size entries; error naming name otherwise."""
    arr = _as_floats(error, values, name).ravel()
    if arr.size != size:
        raise error(f"{name} must have length {size}, got {arr.size}")
    return arr


def _as_2d(error: type[Exception], values, name: str) -> np.ndarray:
    arr = _as_floats(error, values, name)
    if arr.ndim != 2:
        raise error(f"{name} must be 2-d, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise error(f"{name} contains non-finite entries")
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
        arr = _as_2d(InvalidMatrix, self.entries, "matrix")
        if arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
            raise InvalidMatrix(f"expected a nonempty square matrix, got shape {arr.shape}")
        arr = 0.5 * (arr + arr.T)
        if not np.all(np.isfinite(arr)):  # a + a' overflows past half the largest double
            raise InvalidMatrix("matrix is too large for double precision: its symmetrized entries overflow")
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
    return m if isinstance(m, SymMatrix) else SymMatrix(m)


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.array(arr, dtype=float)
    arr.flags.writeable = False
    return arr


_KINDS = {"an integer": (int, np.integer), "a number": (int, float, np.integer, np.floating)}


def _check_kind(kind: str, **values) -> None:
    """InvalidInput naming the first of values that is not kind, a key of _KINDS: a Python or numpy one, not a bool.
    "a number" admits a Python int only within double range, where float() and comparisons with floats hold."""
    for name, value in values.items():
        if not isinstance(value, _KINDS[kind]) or isinstance(value, bool):
            raise InvalidInput(f"{name} must be {kind}, got {value!r}")
        if kind == "a number" and isinstance(value, int) and not abs(value) <= float(np.finfo(float).max):
            raise InvalidInput(f"{name} must be a number within double range, got an integer of {value.bit_length()} bits")


def _check_count(value, name: str, least: int) -> None:
    """InvalidInput naming value unless it is an integer (Python or numpy, not a bool) no smaller than least."""
    _check_kind("an integer", **{name: value})
    if value < least:
        floor = {0: "nonnegative", 1: "positive"}.get(least, f"at least {least}")
        raise InvalidInput(f"{name} must be {floor}, got {value}")


def _allocated(draw, shape: tuple, name: str) -> np.ndarray:
    """draw(shape), or InvalidInput naming name and shape where numpy cannot allocate that array."""
    try:
        return draw(shape)
    except (ValueError, MemoryError):  # numpy's "maximum allowed size/dimension exceeded" or "unable to allocate"
        raise InvalidInput(f"{name} asks for a {shape} array, more than numpy can allocate") from None


def seed_sequence(entropy: int, *spawn_key: int) -> np.random.SeedSequence:
    """The one seed derivation: the stream of spawn_key under a top-level seed, a nonnegative integer."""
    _check_count(entropy, "seed", 0)
    return np.random.SeedSequence(entropy=entropy, spawn_key=spawn_key)


def _check_rule(size: int, rank_tol_rel: float) -> None:
    """InvalidInput unless rank_tol_rel is a number in [eps, 1 / size); from 1 / size on all size x size ranks are 0."""
    _check_kind("a number", rank_tol_rel=rank_tol_rel)
    if not _EPS <= rank_tol_rel < np.inf:  # below machine epsilon roundoff would count as signal
        raise InvalidInput(f"rank_tol_rel must be positive and finite, at least machine epsilon, got {rank_tol_rel}")
    if size * rank_tol_rel >= 1:
        zero = f"rank_tol_rel {format_float(rank_tol_rel)} gives every {size} x {size} matrix rank 0"
        raise InvalidInput(f"{zero}; {size} * rank_tol_rel must be below 1")


def _cutoff(s_max, size, rank_tol_rel: float):
    """The rank rule's threshold s_max * size * rank_tol_rel, elementwise: singular values at or below it count as
    zero. A plain product: _check_rule checks the rule once per factorization, in _rank_cutoff and RankedSvd."""
    return s_max * size * rank_tol_rel


def _rank_cutoff(s: np.ndarray, size: int, rank_tol_rel: float) -> np.ndarray:
    """Rank from descending singular values (last axis): those above _cutoff(s_max, size, rank_tol_rel)."""
    _check_rule(size, rank_tol_rel)
    return np.sum(s > _cutoff(s[..., :1], size, rank_tol_rel), axis=-1)


@dataclass(frozen=True, eq=False)
class RankedSvd:
    """Information matrix J (matrix) factored once by one eigendecomposition, ordered by |lambda| descending.

    eigenvalues: (n,) J's signed eigenvalues, in the column order of [u_r, u_bar];
           those the rank rule keeps are positive (see ranked_svd).
    u_r:   (n, r) orthonormal basis of the numerical range.
    sigma: (r,) singular values |lambda| above the rank cutoff, descending
           (a symmetric J's singular vectors are its eigenvectors: Golub & Van Loan).
    u_bar: (n, n - r) orthonormal basis of the numerical null space.
    rank:  r, decided with rank_tol_rel. The pseudoinverse and its
    eigenvalues are computed on first use and kept.
    """

    matrix: SymMatrix
    eigenvalues: np.ndarray
    u_r: np.ndarray
    sigma: np.ndarray
    u_bar: np.ndarray
    rank: int
    rank_tol_rel: float

    def __post_init__(self):
        _check_rule(self.matrix.dim, self.rank_tol_rel)
        for name in ("eigenvalues", "u_r", "sigma", "u_bar"):
            object.__setattr__(self, name, _freeze(getattr(self, name)))

    @property
    def dim(self) -> int:
        return self.u_r.shape[0]

    def cutoff(self, size):
        """_cutoff(sigma_max, size, rank_tol_rel), the rule's threshold at J's scale, at sizes up to n; J's own at n."""
        return _cutoff(abs(self.eigenvalues[0]), size, self.rank_tol_rel)

    @cached_property
    def pinv(self) -> SymMatrix:
        """Moore-Penrose pseudoinverse U_r diag(1/lambda_r) U_r'; zero for rank 0."""
        return SymMatrix((self.u_r / self.eigenvalues[: self.rank]) @ self.u_r.T)

    @cached_property
    def pinv_eigenvalues(self) -> np.ndarray:
        """Descending eigenvalues of pinv: 1/sigma reversed and n - r zeros."""
        return _freeze(np.concatenate([1.0 / self.sigma[::-1], np.zeros(self.dim - self.rank)]))


def restricted_information(bases: list, us: list) -> tuple[list, list]:
    """U'J_rU = Y' diag(lambda_r) Y, Y = U_r'U, symmetrized, for each J of bases and its (k, n, p) stack of bases U
    in us, and their ascending eigenvalues, as lists in order, with one eigvalsh call for the stacks of each k and p
    (_per_shape); J_r = U_r diag(lambda_r) U_r' is J as its rank rule reads it, the J of J+ and so of every margin,
    which differs from J by what the rule zeroes: roundoff under the default rule."""
    restricted = []
    for basis, u in zip(bases, us):
        y = basis.u_r.T @ u
        one = y.transpose(0, 2, 1) @ (basis.eigenvalues[: basis.rank, None] * y)
        restricted.append(0.5 * (one + one.swapaxes(-1, -2)))
    return restricted, _per_shape(np.linalg.eigvalsh, restricted)


def restricted_nonsingular(basis: RankedSvd, mu: np.ndarray) -> np.ndarray:
    """The one rule for p x p U'J_rU with spectra mu (last axis): J's rank rule at J's scale keeps all p eigenvalues,
    mu > basis.cutoff(p); a 0 x 0 U'J_rU counts as nonsingular. U has orthonormal columns, so mu lies within
    sigma_max, and a rank-one J's 1 x 1 U'J_rU is judged against J. At n, not p, the cutoff would reach sigma_max as
    n rank_tol_rel nears 1, past mu_min <= sigma_r. At p an optimal constraint's mu_min, sigma_r, clears the cutoff by
    sigma_max (n - p) rank_tol_rel: roundoff in mu of a few eps sigma_max can exceed that room at rank_tol_rel = eps."""
    return np.all(mu > basis.cutoff(mu.shape[-1]), axis=-1)


def _bounds(us: list, restricted: list) -> list:
    """U (U'JU)^-1 U', symmetrized, for each (k, n, r) stack of bases U of us and its (k, r, r) stack of nonsingular
    U'JU in restricted, in order, with one inv call per shape (_per_shape); FloatingPointError for the first inverse
    that overflows."""
    bounds = []
    for u, inverse in zip(us, _per_shape(np.linalg.inv, restricted)):
        if not np.isfinite(inverse).all():
            raise FloatingPointError("overflow encountered in the inverse of U'JU")
        bound = u @ inverse @ u.transpose(0, 2, 1)
        bounds.append(0.5 * (bound + bound.transpose(0, 2, 1)))
    return bounds


def _factored(ms: list, rank_tol_rel: float):
    """Symmetric matrices split into range and null bases under the rank rule, in order: one eigh call per size."""
    syms = [as_sym_matrix(m) for m in ms]
    eighs = _per_shape(lambda stack: zip(*np.linalg.eigh(stack)), [sym.entries for sym in syms])
    for sym, (lam, u) in zip(syms, eighs):
        order = np.argsort(-np.abs(lam), kind="stable")
        lam, u, s = lam[order], u[:, order], np.abs(lam[order])
        rank = int(_rank_cutoff(s, sym.dim, rank_tol_rel))
        yield RankedSvd(sym, lam, u[:, :rank], s[:rank], u[:, rank:], rank, rank_tol_rel)


def ranked_svds(ms: list, rank_tol_rel: float = DEFAULT_RANK_TOL_REL) -> list[RankedSvd]:
    """Decompose a list of positive semidefinite J into range and null bases, with one stacked eigh call per size.

    J by J, in list order: sigma = |lambda| at or below sigma_max * n * rank_tol_rel count as zero, and InvalidMatrix
    refuses the first J that keeps a negative one or whose tr J+ = sum 1/sigma reaches half the largest double, so
    that J+ and sums of two entries stay finite. A zero J has rank 0. Each basis equals J's alone, bit for bit.
    """
    bases = []
    for basis in _factored(ms, rank_tol_rel):
        if not is_psd(basis):
            lam, cutoff = basis.eigenvalues.min(), basis.cutoff(basis.dim)
            kept = f"eigenvalue {format_float(lam)} is negative and kept by the rank cutoff {format_float(cutoff)}"
            raise InvalidMatrix(f"information matrix is not positive semidefinite: {kept}")
        if not sum(1.0 / s for s in basis.sigma.tolist()) < 0.5 * np.finfo(float).max:  # Python floats: inf
            least = format_float(basis.sigma[-1])
            small = f"its least kept eigenvalue {least} makes tr J+ reach half the largest double"
            raise InvalidMatrix(f"information matrix has no pseudoinverse in double precision: {small}")
        bases.append(basis)
    return bases


def ranked_svd(m, rank_tol_rel: float = DEFAULT_RANK_TOL_REL) -> RankedSvd:
    """Decompose a positive semidefinite J into range and null bases with one eigh call: ranked_svds([m])."""
    return ranked_svds([m], rank_tol_rel)[0]


def as_ranked_svd(m) -> RankedSvd:
    """m itself if it is a RankedSvd, else ranked_svd(m) under the default rank rule.

    Every function that takes J factors it here, so each refuses an indefinite J, and
    a J factored as ranked_svd(J, tol) carries tol into each rank decision made about it:
    J's rank, a constraint's row rank, and whether U'JU is nonsingular.
    """
    return m if isinstance(m, RankedSvd) else ranked_svd(m)


def pinv_via_basis(m) -> SymMatrix:
    """Moore-Penrose pseudoinverse through the range basis.

    Computes U_r diag(1/lambda_r) U_r' with U_r and lambda_r from
    as_ranked_svd(m). For the zero matrix this is the zero matrix.
    """
    return as_ranked_svd(m).pinv


def eigvals_desc(m) -> np.ndarray:
    """Eigenvalues of a symmetric matrix in descending order, read-only."""
    return _freeze(np.linalg.eigvalsh(as_sym_matrix(m).entries)[::-1])


def is_psd(m) -> bool:
    """True iff every eigenvalue that the rank rule keeps is positive: a RankedSvd's rule, else the default; never refuses."""
    basis = m if isinstance(m, RankedSvd) else next(_factored([m], DEFAULT_RANK_TOL_REL))
    return bool(np.all(basis.eigenvalues[: basis.rank] > 0))


def null_complements(f_jacs: np.ndarray, rank_tol_rel: float = DEFAULT_RANK_TOL_REL):
    """Row ranks (k,) and orthonormal null bases (k, n, n - m) of (k, m, n) Jacobians, or of a (g, k, m, n) stack.

    One svd call gives both; where ranks[i] == m, f_jacs[i] @ u[i] = 0. Rows orthonormal within ORTHONORMAL_TOL
    have rank m: their singular values are one, which every rule _cutoff admits keeps, but the svd gives them as
    1 +- a few ulp, so by its count alone some would fall to the cutoff a few ulp below rank_tol_rel = 1 / max(m, n).
    """
    f_jacs = _as_floats(InvalidMatrix, f_jacs, "constraint Jacobians")
    if f_jacs.ndim < 2:
        raise InvalidMatrix(f"constraint Jacobians must have at least 2 dimensions, got shape {f_jacs.shape}")
    m, n = f_jacs.shape[-2:]
    _, s, vh = np.linalg.svd(f_jacs)
    unit = np.abs(f_jacs @ f_jacs.swapaxes(-1, -2) - np.eye(m)).max(axis=(-2, -1), initial=0.0) <= ORTHONORMAL_TOL
    return np.where(unit, m, _rank_cutoff(s, max(m, n), rank_tol_rel)), vh[..., m:, :].swapaxes(-1, -2)


def null_complement(f_jac) -> np.ndarray:
    """Orthonormal basis U of the null space of a full-row-rank Jacobian.

    For an (m, n) Jacobian with m <= n, returns U of shape (n, n - m) with
    U'U = I and f_jac @ U = 0. An empty Jacobian (m = 0) yields the
    identity. Raises NotMinimumConstraint when the numerical row rank
    is below m under the default rank rule.
    """
    jac = _as_2d(InvalidMatrix, f_jac, "constraint Jacobian")
    ranks, u = null_complements(jac[None])
    if ranks[0] < jac.shape[0]:
        raise NotMinimumConstraint(f"Jacobian row rank {ranks[0]} below row count {jac.shape[0]}; rows are dependent")
    return u[0]


def is_nonsingular(a) -> bool:
    """True iff the default rank rule keeps every singular value of symmetric a; a 0 x 0 one counts as nonsingular."""
    arr = _as_2d(InvalidMatrix, a, "matrix")
    return arr.shape == (0, 0) or next(_factored([arr], DEFAULT_RANK_TOL_REL)).rank == arr.shape[0]


def orthonormal_columns(a) -> np.ndarray:
    """Orthonormalize the columns of full-column-rank (..., n, k) matrices.

    QR with the sign of R's diagonal fixed to +1, so Gaussian input maps
    to a uniformly distributed orthonormal frame. A stack is one qr call.
    """
    arr = _as_floats(InvalidMatrix, a, "matrix")
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


def _per_shape(fn, blocks: list[np.ndarray]) -> list:
    """fn's result for each block, in order, from one fn call per distinct shape on the stack of every block of
    that shape; fn maps a (k, ...) stack to k results, as a stacked numpy.linalg call does. A lone C-contiguous block
    of its shape goes in as a view, uncopied."""
    results: list = [None] * len(blocks)
    groups: dict = {}  # the indices of each shape, in one pass
    for i, block in enumerate(blocks):
        groups.setdefault(block.shape, []).append(i)
    for index in groups.values():
        stack = np.array([blocks[i] for i in index]) if len(index) > 1 else np.ascontiguousarray(blocks[index[0]][None])
        for i, result in zip(index, fn(stack), strict=True):
            results[i] = result
    return results


def moore_penrose_residuals(m, p) -> tuple[float, float, float, float]:
    """Relative Frobenius residuals of the four Moore-Penrose conditions.

    Returns (|MPM - M|/|M|, |PMP - P|/|P|, |(MP)' - MP|/|MP|,
    |(PM)' - PM|/|PM|), with 0/0 read as 0.
    """
    m_arr = _as_2d(InvalidMatrix, m, "matrix")
    p_arr = _as_2d(InvalidMatrix, p, "candidate pseudoinverse")
    if p_arr.shape != m_arr.T.shape:
        raise InvalidInput(f"candidate pseudoinverse {p_arr.shape} of a {m_arr.shape} matrix must be {m_arr.T.shape}")

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
