"""Parameter constraints for singular Fisher information.

A constraint f(theta) = 0 enters the bound only through its Jacobian F.
This module checks the three minimum-constraint requirements (full row
rank, nonsingular restricted information U'J_rU, rank F + rank J = n),
synthesizes the optimal affine constraint from the information null
space, and samples random minimum constraints for experiments: one
evaluated stack, its traces, or labeled specs.
One evaluator, _evaluate, makes one svd and one eigvalsh call per shape
for a stage of J and their Jacobian stacks: for evaluate_constraints and
constrained_crb a stage of one, for the equivalence certificate many. The
samplers draw in J's chart instead, where every draw is a minimum constraint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import InvalidInput
from .matlin import (
    RankedSvd,
    _allocated,
    _as_2d,
    _as_floats,
    _as_vector,
    _check_count,
    _freeze,
    _per_shape,
    as_ranked_svd,
    null_complements,
    orthonormal_columns,
    restricted_information,
    restricted_nonsingular,
    seed_sequence,
)
from .matx import _parse_block, dump_matrix, format_row, read_ascii

# The sampler's ladder of steps: draw i of a sample is delta N with delta = STEPS[i % 6] and N
# standard normal, shrunk where needed (see _sampled); the smallest steps are near-optimal probes.
STEPS = (1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0)


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
        jac = _as_2d(InvalidInput, self.f_jac, "f_jac")
        m, n = jac.shape
        if n == 0 or m > n:
            raise InvalidInput(f"f_jac shape {jac.shape} must satisfy 0 <= m <= n, n >= 1")
        object.__setattr__(self, "f_jac", _freeze(jac))
        if self.offset is not None:
            offset = _as_vector(InvalidInput, self.offset, m, "offset")
            if not np.all(np.isfinite(offset)):
                raise InvalidInput("offset contains non-finite entries")
            object.__setattr__(self, "offset", _freeze(offset))

    @property
    def n_constraints(self) -> int:
        return self.f_jac.shape[0]

    @property
    def param_dim(self) -> int:
        return self.f_jac.shape[1]


@dataclass(frozen=True, eq=False)
class ConstraintStack:
    """Minimum-constraint evaluation of a (k, m, n) stack f_jacs against J.

    basis is J as factored, with the rank rule of every flag. row_rank
    (k,) and utju_eigs, the ascending eigenvalues of each U'J_rU, come from
    one svd and one eigvalsh in _evaluate, or from J's chart in a sampled
    stack (see sample_minimum_stack). The stack keeps no U or U'J_rU;
    _evaluate gives them. The flags are each (k,), read from row_rank and
    utju_eigs on first use and kept.
    """

    basis: RankedSvd
    f_jacs: np.ndarray
    row_rank: np.ndarray
    utju_eigs: np.ndarray

    @cached_property
    def full_rank_jacobian(self) -> np.ndarray:
        return self.row_rank == self.f_jacs.shape[1]

    @cached_property
    def utju_nonsingular(self) -> np.ndarray:
        return self.full_rank_jacobian & restricted_nonsingular(self.basis, self.utju_eigs)

    @cached_property
    def rank_sum_is_n(self) -> np.ndarray:
        return self.row_rank + self.basis.rank == self.basis.dim

    @cached_property
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
    return _evaluate([j], [f_jacs])[0][0]


def _evaluate(js: list, f_jacs: list) -> tuple[list[ConstraintStack], list, list]:
    """The one evaluator of Jacobian stacks: for each J of js, all of one rank rule, and its (k, m, n) stack of f_jacs,
    validated in order, the evaluated stack, its null bases U and its U'J_rU, as _bounds takes them, in three lists.
    One svd call (null_complements) per (k, m, n) gives row ranks and U, and one eigvalsh call per (k, p) gives mu."""
    bases = [as_ranked_svd(j) for j in js]
    stacks = [_jacobian_stack(basis, stack) for basis, stack in zip(bases, f_jacs)]
    (rank_tol_rel,) = {basis.rank_tol_rel for basis in bases}
    row_ranks, us = zip(*_per_shape(lambda group: zip(*null_complements(group, rank_tol_rel)), stacks))
    restricted, spectra = restricted_information(bases, us)
    return [ConstraintStack(*fields) for fields in zip(bases, stacks, row_ranks, spectra)], list(us), restricted


def _jacobian_stack(basis: RankedSvd, f_jacs) -> np.ndarray:
    """f_jacs as a float (k, m, n) array of Jacobians for the n x n J of basis; InvalidInput otherwise."""
    try:
        f_jacs = _as_floats(InvalidInput, f_jacs, "constraints")
    except InvalidInput:  # a ragged list of Jacobians, entries that are not numbers, or complex ones
        raise InvalidInput(f"constraints are not finite (k, m, {basis.dim}) Jacobians of one shape") from None
    if f_jacs.ndim != 3 or f_jacs.shape[2] != basis.dim or not np.all(np.isfinite(f_jacs)):
        raise InvalidInput(f"constraints {f_jacs.shape} are not finite (k, m, {basis.dim}) Jacobians")
    return f_jacs


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
    J. Raises InvalidInput when J is nonsingular.
    """
    basis = as_ranked_svd(j)
    point = _as_vector(InvalidInput, theta0, basis.dim, "theta0")
    if basis.rank == basis.dim:
        raise InvalidInput("J is numerically nonsingular; no constraint is needed")
    f_jac = basis.u_bar.T
    return ConstraintSpec(f_jac=f_jac, offset=-f_jac @ point, label="optimal-affine")


def _sampled(j, count: int, rng: np.random.Generator):
    """J factored, then its count draws in J's chart, all at once: each draw's ||L_j||^2 (count, r) and ||M||_F^2.

    Draw i is L = t delta_i N: N an (n - r, r) standard normal block, delta_i = STEPS[i % 6], and t <= 1 the largest
    factor with c ||M||_F^2 <= (1 - c / lambda_r) / 2, M = L Lambda^-1/2 and c = basis.cutoff(r), and with ||M||_F^2
    at most half the double range above sum 1/lambda_i, a cap that binds only past half the largest double; t and
    ||M||_F^2 are formed in units of 2^unit, near 1/lambda_r, an exact scaling with which no step overflows.
    F = (U_bar + U_r L')' has row rank m = n - r, and null(F) is spanned by W = U_r - U_bar L. As W'J_rW = Lambda,
    the bound U (U'J_rU)^-1 U' of Gorman and Hero is W Lambda^-1 W', whose nonzero eigenvalues 1/mu are those of the
    r x r X = Lambda^-1 + M'M. So 1/mu_min <= 1/lambda_r + ||M||_F^2 < 1/c: restricted_nonsingular keeps every draw,
    and tr X = sum 1/lambda_i + ||M||_F^2, which reads N only through its squared column norms C_j, chi^2(m) and
    independent of the columns' directions (Muirhead 1982). So tr B(F) - tr J+ = ||M||_F^2 >= 0, zero iff
    null(F) = range(J), and lambda_i(X) >= lambda_i(Lambda^-1) by Weyl: the paper's trace and eigenvalue bounds.
    The (count, r) C are one draw from the Generator rng; _sample_stacks draws the directions from rng next. Raises
    InvalidInput for a count that is not a positive integer or whose draw numpy cannot allocate or when J is
    nonsingular, and InvalidMatrix when ranked_svd refuses J.
    """
    _check_count(count, "count", 1)
    basis = as_ranked_svd(j)  # the chart takes Lambda^-1/2, so ranked_svd refuses an indefinite J
    m, r = basis.dim - basis.rank, basis.rank
    if m == 0:
        raise InvalidInput("J is numerically nonsingular; minimum constraints are empty")
    inv_lam = 1.0 / basis.sigma
    unit = max(0, math.frexp(inv_lam.max(initial=0.0))[1])  # 2^unit is 1 where lambda_r > 1
    limit = math.ldexp(0.5 * (np.finfo(float).max - inv_lam.sum()), -unit)  # the cap, on ||M||_F^2 / 2^unit
    if r:  # and the room, c ||M||_F^2 <= (1 - c / lambda_r) / 2
        cutoff = basis.cutoff(r)
        limit = min(limit, 0.5 * (1.0 - cutoff / basis.sigma[-1]) / math.ldexp(cutoff, unit))
    norms = _allocated(lambda shape: rng.chisquare(m, shape), (count, r), "count")  # C, each column's ||N_j||^2
    step_2 = np.square(STEPS)[np.arange(count) % len(STEPS)]  # delta^2
    squares = step_2 * (norms @ np.ldexp(inv_lam, -unit))  # ||delta N Lambda^-1/2||_F^2 / 2^unit
    shrink = limit / np.maximum(limit, squares)  # t^2
    return basis, (shrink * step_2)[:, None] * norms, np.ldexp(np.minimum(squares, limit), unit)


def sample_constraint_traces(j, count: int, rng_seed: int) -> np.ndarray:
    """The (count,) traces of the constraints of sample_minimum_stack(j, count, rng_seed), in draw order.

    Each is tr X = sum 1/lambda_i + ||M||_F^2, read in closed form from its draw's column norms (see _sampled), drawn
    from the stream seed_sequence(rng_seed): no direction, no LAPACK call, no F and no mu.
    """
    basis, _, squares = _sampled(j, count, np.random.default_rng(seed_sequence(rng_seed)))
    return np.sum(1.0 / basis.sigma) + squares


def _sample_stacks(js: list, count: int, rngs: list) -> list[ConstraintStack]:
    """For each singular J of js and its Generator of rngs, count random minimum constraints as one evaluated stack.
    Draw i's N_j = sqrt(C_j) g_j / ||g_j|| takes its norm from _sampled's draw of C and its direction from a
    (count, n - r, r) standard normal g that the same Generator draws next, so N is standard normal. Each Jacobian is
    F = U_bar' + L U_r', kept as drawn (the bound reads F only through null(F)); its mu come from the eigvalsh of its
    X = Lambda^-1 + M'M. Every J's X of one shape (count, r, r) get one stacked eigvalsh: each stack equals its J's
    own bit for bit. F's rows are not orthonormal, but its singular values are at least one, so the svd row-rank rule
    of evaluate_constraints gives it row rank m unless sigma_max(F) max(m, n) rank_tol_rel reaches one: at a loose
    rule, evaluate its orthonormal rows instead."""
    samples, xs = [], []
    for j, rng in zip(js, rngs):
        basis, l_squares, _ = _sampled(j, count, rng)
        g = _allocated(rng.standard_normal, (count, basis.dim - basis.rank, basis.rank), "count")
        l_mat = g * np.sqrt(l_squares / np.einsum("kij,kij->kj", g, g))[:, None, :]  # t delta_i N
        m_mat = l_mat * np.sqrt(1.0 / basis.sigma)
        xs.append(np.diag(1.0 / basis.sigma) + m_mat.transpose(0, 2, 1) @ m_mat)
        samples.append((basis, basis.u_bar.T + l_mat @ basis.u_r.T))
    return [ConstraintStack(basis, f_jacs, np.full(count, basis.dim - basis.rank), 1.0 / spectrum[:, ::-1])
            for (basis, f_jacs), spectrum in zip(samples, _per_shape(np.linalg.eigvalsh, xs))]


def sample_minimum_stack(j, count: int, rng_seed: int) -> ConstraintStack:
    """count random minimum constraints for a singular J: the _sample_stacks of J on the stream seed_sequence(rng_seed),
    which draws the norms of all count draws, then their directions."""
    return _sample_stacks([j], count, [np.random.default_rng(seed_sequence(rng_seed))])[0]


def sample_minimum_constraints(j, count: int, rng_seed: int) -> list[ConstraintSpec]:
    """Draw random minimum constraints for a singular J; deterministic for a given seed.

    The constraints of sample_minimum_stack, each F the orthonormal rows of
    its Jacobian, the i-th labeled "sampled-i": one sign-fixed qr of all,
    which gives each F of its own qr bit for bit.
    """
    rows = orthonormal_columns(sample_minimum_stack(j, count, rng_seed).f_jacs.transpose(0, 2, 1))
    return [ConstraintSpec(f_jac=f_t.T, label=f"sampled-{i}") for i, f_t in enumerate(rows)]


def save_constraint_spec(path, spec: ConstraintSpec) -> None:
    """Write a constraint as a matx block plus an optional offset line."""
    text = dump_matrix(spec.f_jac)
    if spec.offset is not None:
        text += "offset " + format_row(spec.offset.tolist()) + "\n"
    Path(path).write_text(text, encoding="ascii")


def load_constraint_spec(path) -> ConstraintSpec:
    """Read a constraint written by save_constraint_spec, unlabeled."""
    lines = read_ascii(path, f"no such constraint file {path}").splitlines()
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
    return ConstraintSpec(f_jac=jac, offset=offset)
