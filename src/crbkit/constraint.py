"""Parameter constraints for singular Fisher information.

A constraint f(theta) = 0 enters the bound only through its Jacobian F.
This module checks the three minimum-constraint requirements (full row
rank, nonsingular restricted information U'JU, rank F + rank J = n),
synthesizes the optimal affine constraint from the information null
space, and samples random minimum constraints for experiments.
Constraints are evaluated in stacks: one svd (one complete qr for a
sampled chunk) and one eigvalsh call per stack of Jacobians.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

import numpy as np

from .errors import FullRankFim, InvalidInput, SamplingExhausted
from .matlin import (
    RankedSvd,
    _freeze,
    _rank_cutoff,
    _sign_fixed_columns,
    as_ranked_svd,
    nonsingular,
    null_complements,
    restricted_information,
    seed_sequence,
)
from .matx import _parse_block, dump_matrix, format_float

# Rejection budget: sampling gives up after 100 * count consecutive misses.
REJECTION_BUDGET_FACTOR = 100

# Constraints drawn, checked and bounded per stacked LAPACK call. Larger
# chunks are no faster and cost memory: for 1000 constraints of a 32 x 32 J,
# peak RSS was 79 MB in one stack, 45 MB in chunks of 128 and 41 in chunks of 32.
CONSTRAINT_CHUNK = 32


@dataclass(frozen=True, eq=False)
class ConstraintSpec:
    """Constraint identified by its Jacobian, with optional affine data.

    f_jac is (m, n) with m <= n. offset, when present, makes the
    constraint globally affine: f(theta) = f_jac @ theta + offset.
    """

    f_jac: np.ndarray
    offset: np.ndarray | None = None
    label: str = ""

    def __post_init__(self):
        jac = np.asarray(self.f_jac, dtype=float)
        if jac.ndim != 2:
            raise InvalidInput(f"f_jac must be 2-d, got shape {jac.shape}")
        if not np.all(np.isfinite(jac)):
            raise InvalidInput("f_jac contains non-finite entries")
        m, n = jac.shape
        if n == 0 or m > n:
            raise InvalidInput(f"f_jac shape {jac.shape} must satisfy 0 <= m <= n, n >= 1")
        object.__setattr__(self, "f_jac", _freeze(jac))
        if self.offset is not None:
            offset = np.asarray(self.offset, dtype=float).ravel()
            if offset.size != m:
                raise InvalidInput(f"offset must have length {m}, got {offset.size}")
            if not np.all(np.isfinite(offset)):
                raise InvalidInput("offset contains non-finite entries")
            object.__setattr__(self, "offset", _freeze(offset))

    @property
    def n_constraints(self) -> int:
        return self.f_jac.shape[0]

    @property
    def param_dim(self) -> int:
        return self.f_jac.shape[1]


@dataclass(frozen=True)
class MinConstraintReport:
    """Outcome of the three minimum-constraint requirements.

    is_minimum is the conjunction of the three flags. details carries the
    numeric ranks and the extreme eigenvalues of U'JU.
    """

    full_rank_jacobian: bool
    utju_nonsingular: bool
    rank_sum_is_n: bool
    is_minimum: bool
    details: dict = field(default_factory=dict)


class ConstraintStack(NamedTuple):
    """Minimum-constraint evaluation of a (k, m, n) stack f_jacs against J.

    basis is J as factored, with the rank rule of every flag. One svd
    call gives row_rank (k,) and the null bases u (k, n, n - m); a sampled
    chunk takes u from its qr and row_rank from unit singular values.
    restricted holds U'JU, and one eigvalsh call gives utju_eigs, the
    ascending eigenvalues of its symmetrized form. The last three fields
    are the requirement flags, each of shape (k,).
    """

    basis: RankedSvd
    f_jacs: np.ndarray
    row_rank: np.ndarray
    u: np.ndarray
    restricted: np.ndarray
    utju_eigs: np.ndarray
    full_rank_jacobian: np.ndarray
    utju_nonsingular: np.ndarray
    rank_sum_is_n: np.ndarray

    @property
    def is_minimum(self) -> np.ndarray:
        return self.full_rank_jacobian & self.utju_nonsingular & self.rank_sum_is_n

    def details(self, i: int) -> dict:
        """The ranks behind constraint i's flags and, for a full-rank F, U'JU's extreme eigenvalues."""
        basis, evals = self.basis, self.utju_eigs[i]
        details = {"rank_jacobian": int(self.row_rank[i]), "rank_fim": basis.rank, "param_dim": basis.dim}
        if self.full_rank_jacobian[i] and evals.size:
            details["utju_min_eig"] = float(evals[0])
            details["utju_max_eig"] = float(evals[-1])
        return details


def evaluate_constraints(j, f_jacs) -> ConstraintStack:
    """Evaluate the three minimum-constraint requirements for a (k, m, n) stack."""
    basis = as_ranked_svd(j)
    f_jacs = np.asarray(f_jacs, dtype=float)
    if f_jacs.ndim != 3 or f_jacs.shape[2] != basis.dim or not np.all(np.isfinite(f_jacs)):
        raise InvalidInput(f"constraints {f_jacs.shape} are not finite (k, m, {basis.dim}) Jacobians")
    return _evaluated(basis, f_jacs, *null_complements(f_jacs, basis.rank_tol_rel))


def _evaluated(basis: RankedSvd, f_jacs, row_rank, u) -> ConstraintStack:
    """The stack of f_jacs given their row ranks and null bases: U'JU, its spectrum and the flags."""
    restricted, evals = restricted_information(basis.matrix.entries, u)
    full_rank = row_rank == f_jacs.shape[1]
    return ConstraintStack(
        basis=basis,
        f_jacs=f_jacs,
        row_rank=row_rank,
        u=u,
        restricted=restricted,
        utju_eigs=evals,
        full_rank_jacobian=full_rank,
        utju_nonsingular=full_rank & nonsingular(evals, basis.rank_tol_rel),
        rank_sum_is_n=row_rank + basis.rank == basis.dim,
    )


def check_minimum_constraint(j, spec: ConstraintSpec) -> MinConstraintReport:
    """Evaluate the three minimum-constraint requirements of F against J."""
    basis = as_ranked_svd(j)
    if spec.param_dim != basis.dim:
        raise InvalidInput(
            f"constraint has {spec.param_dim} columns but J is {basis.dim} x {basis.dim}"
        )
    stack = evaluate_constraints(basis, spec.f_jac[None])
    flags = [bool(flag[0]) for flag in stack[-3:]]  # full rank, U'JU nonsingular, rank sum n
    return MinConstraintReport(*flags, all(flags), stack.details(0))


def optimal_affine_constraint(j, theta0) -> ConstraintSpec:
    """Affine minimum constraint built from the null space of J.

    F is an orthonormal basis of the null space transposed and
    C = -F theta0, so f(theta) = F theta + C vanishes at theta0. The
    constrained bound under this constraint equals the pseudoinverse of
    J. Raises FullRankFim when J is nonsingular.
    """
    basis = as_ranked_svd(j)
    point = np.asarray(theta0, dtype=float).ravel()
    if point.size != basis.dim:
        raise InvalidInput(f"theta0 must have length {basis.dim}, got {point.size}")
    if basis.rank == basis.dim:
        raise FullRankFim("J is numerically nonsingular; no constraint is needed")
    f_jac = basis.u_bar.T
    return ConstraintSpec(f_jac=f_jac, offset=-f_jac @ point, label="optimal-affine")


def sample_constraint_stacks(j, count: int, rng_seed: int) -> Iterator[tuple[ConstraintStack, list[str]]]:
    """Draw random minimum constraints for a singular J, one evaluated chunk at a time.

    Each Jacobian is the transpose of an orthonormalized Gaussian
    (n, n - rank J) matrix, redrawn until it passes the minimum-constraint
    check; one complete qr per chunk gives the Jacobians and their null
    bases. Draws are made CONSTRAINT_CHUNK at a time, never more than a
    draw-by-draw loop would make, and accepted in draw order, so the
    random stream is consumed as by one draw at a time. Yields (stack,
    labels): stack.is_minimum marks the accepted draws, labels names them.
    Raises SamplingExhausted after 100 * count consecutive rejections and
    FullRankFim when J is nonsingular.
    """
    if count < 1:
        raise InvalidInput(f"count must be positive, got {count}")
    basis = as_ranked_svd(j)
    n, m = basis.dim, basis.dim - basis.rank
    if m == 0:
        raise FullRankFim("J is numerically nonsingular; minimum constraints are empty")
    rng = np.random.default_rng(seed_sequence(rng_seed))
    budget = REJECTION_BUDGET_FACTOR * count
    accepted = 0
    consecutive_rejects = 0
    while accepted < count:
        k = min(count - accepted, budget - consecutive_rejects, CONSTRAINT_CHUNK)
        q, r = np.linalg.qr(rng.standard_normal((k, n, m)), mode="complete")
        f_jacs = _sign_fixed_columns(q, r).transpose(0, 2, 1)
        # F's rows are orthonormal, so the rank rule of null_complements sees singular values of one
        row_rank = _rank_cutoff(np.ones((k, m)), n, basis.rank_tol_rel)
        # a contiguous U gives U'JU bit for bit as a stack of frames does
        stack = _evaluated(basis, f_jacs, row_rank, np.ascontiguousarray(q[..., m:]))
        labels = []
        for ok in stack.is_minimum:
            if ok:
                labels.append(f"sampled-{accepted} retries={consecutive_rejects}")
                accepted += 1
                consecutive_rejects = 0
            else:
                consecutive_rejects += 1
                if consecutive_rejects >= budget:
                    raise SamplingExhausted(
                        f"{budget} consecutive rejections while sampling minimum constraints"
                    )
        yield stack, labels


def sample_minimum_stack(j, count: int, rng_seed: int) -> tuple[ConstraintStack, list[str]]:
    """The accepted draws of sample_constraint_stacks as one evaluated stack, with their labels.

    A single chunk with no rejections is returned as it is.
    """
    chunks, labels = [], []
    for stack, chunk_labels in sample_constraint_stacks(j, count, rng_seed):
        chunks.append(stack)
        labels += chunk_labels
    if len(chunks) == 1 and len(labels) == len(stack.f_jacs):
        return stack, labels
    kept = [[field[chunk.is_minimum] for field in chunk[1:]] for chunk in chunks]
    return ConstraintStack(stack.basis, *map(np.concatenate, zip(*kept))), labels


def sample_minimum_constraints(j, count: int, rng_seed: int) -> list[ConstraintSpec]:
    """Draw random minimum constraints for a singular J; deterministic for a given seed.

    See sample_constraint_stacks.
    """
    stack, labels = sample_minimum_stack(j, count, rng_seed)
    return [ConstraintSpec(f_jac=f_jac, label=label) for f_jac, label in zip(stack.f_jacs, labels)]


def save_constraint_spec(path, spec: ConstraintSpec) -> None:
    """Write a constraint as a matx block plus an optional offset line."""
    text = dump_matrix(spec.f_jac)
    if spec.offset is not None:
        text += "offset " + " ".join(format_float(v) for v in spec.offset) + "\n"
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


def load_constraint_spec(path, label: str = "") -> ConstraintSpec:
    """Read a constraint written by save_constraint_spec."""
    if not os.path.isfile(path):
        raise InvalidInput(f"no such constraint file {path}")
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    jac, pos = _parse_block(lines, 0)
    offset = None
    for line in lines[pos:]:
        fields = line.split()
        if not fields:
            continue
        if fields[0] != "offset" or offset is not None:
            raise InvalidInput(f"unexpected content in constraint file: {line!r}")
        try:
            offset = np.array([float(v) for v in fields[1:]])
        except ValueError as exc:
            raise InvalidInput("non-numeric offset value") from exc
    return ConstraintSpec(f_jac=jac, offset=offset, label=label)
