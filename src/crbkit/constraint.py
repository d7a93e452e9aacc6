"""Parameter constraints for singular Fisher information.

A constraint f(theta) = 0 enters the bound only through its Jacobian F.
This module checks the three minimum-constraint requirements (full row
rank, nonsingular restricted information U'J_rU, rank F + rank J = n),
synthesizes the optimal affine constraint from the information null
space, and samples random minimum constraints for experiments: one
evaluated stack, its traces, or labeled specs.
One evaluator, _evaluate, makes one svd and one eigvalsh call per stack
of Jacobians for evaluate_constraints, constrained_crb and the
equivalence certificate. Both samplers read draws in J's chart instead.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import FullRankFim, InvalidInput, SamplingExhausted
from .matlin import (
    RankedSvd,
    _freeze,
    as_ranked_svd,
    null_complements,
    orthonormal_columns,
    random_stream,
    restricted_information,
    restricted_nonsingular,
)
from .matx import _parse_block, dump_matrix, format_row

# Rejection budget: sampling gives up after 100 * count consecutive misses.
REJECTION_BUDGET_FACTOR = 100

# Constraints drawn, checked and bounded per stacked LAPACK call. Larger
# chunks are no faster and cost memory: for 1000 constraints of a 32 x 32 J,
# peak RSS was 53 MB in one stack, 42 MB in chunks of 128 and 40 in chunks of 32.
CONSTRAINT_CHUNK = 32

# The trace sampler's bracket on 1/mu_min decides a draw only when it clears the cutoff by this
# factor; the rule reads mu itself for every draw nearer the cutoff.
BRACKET_SAFETY = 2.0


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


class ConstraintStack(NamedTuple):
    """Minimum-constraint evaluation of a (k, m, n) stack f_jacs against J.

    basis is J as factored, with the rank rule of every flag. row_rank
    (k,) and utju_eigs, the ascending eigenvalues of each U'J_rU, come from
    one svd and one eigvalsh in _evaluate, or from J's chart in a sampled
    stack, whose f_jacs are its Gaussian draws G' (see _chart). The stack
    keeps no U or U'J_rU; _evaluate gives them. The flags are each (k,).
    A sampled stack's flags are those of its draws' orthonormal rows, not of
    G': near 1/n the svd rule calls full-rank-flagged draws rank deficient.
    """

    basis: RankedSvd
    f_jacs: np.ndarray
    row_rank: np.ndarray
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
    return _evaluate(j, f_jacs)[0]


def _evaluate(j, f_jacs) -> tuple[ConstraintStack, np.ndarray, np.ndarray]:
    """The one evaluator of Jacobian stacks: the evaluated stack, each null basis U and each U'J_rU.
    f_jacs is validated once; one null_complements (svd) call gives each row rank and U, and one
    restricted_information (eigvalsh) call each U'J_rU and its spectrum, as _bounds takes them."""
    basis = as_ranked_svd(j)
    f_jacs = _jacobian_stack(basis, f_jacs)
    row_rank, u = null_complements(f_jacs, basis.rank_tol_rel)
    restricted, mu = restricted_information(basis, u)
    return _evaluated(basis, f_jacs, row_rank, mu), u, restricted


def _jacobian_stack(basis: RankedSvd, f_jacs) -> np.ndarray:
    """f_jacs as a float (k, m, n) array of Jacobians for the n x n J of basis; InvalidInput otherwise."""
    try:
        f_jacs = np.asarray(f_jacs, dtype=float)
    except ValueError:  # a ragged list of Jacobians, or entries that are not numbers
        raise InvalidInput(f"constraints are not finite (k, m, {basis.dim}) Jacobians of one shape") from None
    if f_jacs.ndim != 3 or f_jacs.shape[2] != basis.dim or not np.all(np.isfinite(f_jacs)):
        raise InvalidInput(f"constraints {f_jacs.shape} are not finite (k, m, {basis.dim}) Jacobians")
    return f_jacs


def _evaluated(basis: RankedSvd, f_jacs, row_rank, evals) -> ConstraintStack:
    """The stack of f_jacs given their row ranks and the ascending spectra of U'J_rU: adds the flags."""
    full_rank = row_rank == f_jacs.shape[1]
    return ConstraintStack(
        basis=basis,
        f_jacs=f_jacs,
        row_rank=row_rank,
        utju_eigs=evals,
        full_rank_jacobian=full_rank,
        utju_nonsingular=full_rank & restricted_nonsingular(basis, evals),
        rank_sum_is_n=row_rank + basis.rank == basis.dim,
    )


def check_minimum_constraint(j, spec: ConstraintSpec) -> ConstraintStack:
    """The three minimum-constraint requirements of F against J: the one-row stack of spec.f_jac."""
    basis = as_ranked_svd(j)
    if spec.param_dim != basis.dim:
        raise InvalidInput(
            f"constraint has {spec.param_dim} columns but J is {basis.dim} x {basis.dim}"
        )
    return evaluate_constraints(basis, spec.f_jac[None])


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


def _sampled(j, count: int, rng_seed, rule) -> tuple:
    """The samplers' one draw-and-budget loop, over chunks of Gaussian (k, n, n - rank J) draws.

    rule(basis) gives the chunk rule, which maps a chunk to its accept mask and then its arrays over
    the accepted draws. Returns each accepted draw's index among all draws, then each of the rule's
    arrays concatenated, in draw order. Draws from random_stream(rng_seed) are made CONSTRAINT_CHUNK
    at a time, never more than a draw-by-draw loop would make, and accepted in draw order, so the
    stream is consumed as by one draw at a time. Raises SamplingExhausted after 100 * count
    consecutive rejections, FullRankFim when J is nonsingular and InvalidMatrix when ranked_svd refuses J.
    """
    if count < 1:
        raise InvalidInput(f"count must be positive, got {count}")
    basis = as_ranked_svd(j)  # the chart takes Lambda^-1/2, so ranked_svd refuses an indefinite J
    n, m = basis.dim, basis.dim - basis.rank
    if m == 0:
        raise FullRankFim("J is numerically nonsingular; minimum constraints are empty")
    judge = rule(basis)
    rng = random_stream(rng_seed)
    budget = REJECTION_BUDGET_FACTOR * count
    hits, parts = [], []
    accepted = drawn = consecutive_rejects = 0
    while accepted < count:
        k = min(count - accepted, budget - consecutive_rejects, CONSTRAINT_CHUNK)
        is_minimum, *arrays = judge(rng.standard_normal((k, n, m)))
        chunk_hits = np.flatnonzero(is_minimum)
        if chunk_hits.size:
            accepted += chunk_hits.size
            consecutive_rejects = k - 1 - int(chunk_hits[-1])
        else:  # k never overdraws the budget, so only a chunk that accepts nothing can exhaust it
            consecutive_rejects += k
            if consecutive_rejects >= budget:
                raise SamplingExhausted(f"{budget} consecutive rejections while sampling minimum constraints")
        hits.append(drawn + chunk_hits)
        parts.append(arrays)
        drawn += k
    return np.concatenate(hits), *(np.concatenate(part) for part in zip(*parts))


def _chart(basis: RankedSvd):
    """J's chart of a chunk of Gaussian (k, n, m) draws G: chart(draws) gives each draw's L, spectra(L) its mu.

    In J's eigenbasis A = U_r'G and B = U_bar'G. Where B is nonsingular, F
    has row rank m and null(F) is spanned by W = U_r - U_bar L, L = B^-T A'
    (one batched solve). As W'J_rW = Lambda, the bound U (U'J_rU)^-1 U' is
    W Lambda^-1 W', and its nonzero eigenvalues 1/mu are those of the r x r
    X = Lambda^-1 + M'M, M = L Lambda^-1/2. An exactly singular B, whose
    null(F) meets null(J), makes solve refuse the chunk, which is solved
    again draw by draw; that draw reads as an infinite L. A non-finite X
    reads mu = 0. The rule rejects both.
    """
    n, r = basis.dim, basis.rank
    eigenvectors_t = np.concatenate([basis.u_r, basis.u_bar], axis=1).T
    root, diagonal = np.sqrt(1.0 / basis.sigma), np.diag(1.0 / basis.sigma)

    def chart(draws):
        ab = eigenvectors_t @ draws
        try:
            return np.linalg.solve(ab[:, r:].transpose(0, 2, 1), ab[:, :r].transpose(0, 2, 1))
        except np.linalg.LinAlgError:  # some B is exactly singular: each draw alone, that one as an infinite L
            return np.concatenate([chart(g[None]) for g in draws]) if len(draws) > 1 else np.full((1, n - r, r), np.inf)

    def spectra(l_mat):
        with np.errstate(all="ignore"):  # cli.main raises on overflow; an X that overflows is a rejection
            m_mat = l_mat * root
            x = diagonal + m_mat.transpose(0, 2, 1) @ m_mat
            broken = ~np.isfinite(x).all(axis=(1, 2))
            x[broken] = diagonal
            mu = 1.0 / np.linalg.eigvalsh(x)[:, ::-1]
        mu[broken] = 0.0
        return mu

    return chart, spectra


def _stack_chunks(basis: RankedSvd):
    """The chunk rule of sample_minimum_stack and sample_minimum_constraints: a chunk's accept mask, then
    its accepted draws G' and their mu, read in J's chart. A nonsingular B gives G' row rank m = n - rank J,
    so restricted_nonsingular alone decides is_minimum; no qr orthonormalizes G'."""
    chart, spectra = _chart(basis)

    def judge(draws):
        mu = spectra(chart(draws))
        accept = restricted_nonsingular(basis, mu)
        return accept, draws.transpose(0, 2, 1)[accept], mu[accept]

    return judge


def _trace_chunks(basis: RankedSvd):
    """The chunk rule of sample_constraint_traces: a chunk's accept mask, then the accepted draws' traces
    tr X = sum 1/lambda_i + ||M||_F^2.

    1/mu_min = lambda_max(X) lies between max_i (1/lambda_i + ||M e_i||^2)
    and 1/lambda_r + ||M||_F^2 (see _chart). This bracket decides a draw
    when it clears the cutoff c = basis.cutoff(r) by BRACKET_SAFETY, and
    the rule reads the mu of the rest, so both samplers accept the same
    draws. An M that overflows reads as an infinite trace, a rejection.
    """
    chart, spectra = _chart(basis)
    inv_lam, cutoff = 1.0 / basis.sigma, basis.cutoff(basis.rank)
    inv_lam_sum, inv_lam_max, safe_cutoff = inv_lam.sum(), inv_lam.max(initial=0.0), BRACKET_SAFETY * cutoff

    def judge(draws):
        l_mat = chart(draws)
        with np.errstate(all="ignore"):
            columns = np.sum(np.square(l_mat), axis=1) * inv_lam  # ||M e_i||^2
            frobenius = columns.sum(axis=1)
            accept = safe_cutoff * (inv_lam_max + frobenius) < 1.0
            undecided = ~(accept | (np.max(inv_lam + columns, axis=1, initial=0.0) * cutoff > BRACKET_SAFETY))
        if undecided.any():
            accept[undecided] = restricted_nonsingular(basis, spectra(l_mat[undecided]))
        return accept, inv_lam_sum + frobenius[accept]

    return judge


def sample_constraint_traces(j, count: int, rng_seed: int) -> np.ndarray:
    """The (count,) traces of the draws that sample_minimum_stack(j, count, rng_seed) accepts, in draw order.

    The same draws, budget and errors (see _sampled); each trace is read
    in closed form (see _trace_chunks), with no qr or F, and no eigvalsh
    but for the draws that the bracket leaves open.
    """
    return _sampled(j, count, rng_seed, _trace_chunks)[1]


def sample_minimum_stack(j, count: int, rng_seed: int) -> ConstraintStack:
    """Draw count random minimum constraints for a singular J as one evaluated stack, in draw order.

    Each Jacobian is the transpose G' of a Gaussian (n, n - rank J) draw that passed the
    minimum-constraint check (see _stack_chunks, and _sampled for the draws, the budget and the
    errors); its flags are those of its orthonormal rows (see ConstraintStack).
    """
    basis = as_ranked_svd(j)
    _, f_jacs, mu = _sampled(basis, count, rng_seed, _stack_chunks)
    return _evaluated(basis, f_jacs, np.full(count, f_jacs.shape[1]), mu)


def sample_minimum_constraints(j, count: int, rng_seed: int) -> list[ConstraintSpec]:
    """Draw random minimum constraints for a singular J; deterministic for a given seed.

    The draws of sample_minimum_stack; each F holds the orthonormal rows of an accepted draw G' (one
    sign-fixed qr for all), and the i-th is labeled "sampled-i retries=d", d the draws rejected since
    the one before.
    """
    hits, f_jacs, _ = _sampled(j, count, rng_seed, _stack_chunks)
    labels = [f"sampled-{i} retries={d}" for i, d in enumerate(np.diff(hits, prepend=-1) - 1)]
    rows = orthonormal_columns(f_jacs.transpose(0, 2, 1))
    return [ConstraintSpec(f_jac=f_t.T, label=label) for f_t, label in zip(rows, labels)]


def save_constraint_spec(path, spec: ConstraintSpec) -> None:
    """Write a constraint as a matx block plus an optional offset line."""
    text = dump_matrix(spec.f_jac)
    if spec.offset is not None:
        text += "offset " + format_row(spec.offset.tolist()) + "\n"
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
