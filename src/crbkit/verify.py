"""Certified numerical checks of the bound inequalities.

Each verifier returns a TheoremCertificate that keeps every case's signed
slack, in case order, as margins. A case fails unless its margin >=
-margin_tol and is kept as a replayable witness: J, then the case's own
matrices; a certificate passes when it has no witness. merge_certificates
concatenates margins and witnesses and judges nothing again. Each public
verifier is the stage of one J, verify_min_rank once it has drawn its
trials: its stage function (_poincare_stage, ...) checks many J as one
certificate, with one stacked eigvalsh, svd or inv call per operand
shape, which gives each J's margins bit for bit.
_certify_stage checks one certify stage from what each J's stream draws
after J: the frames of _suite_frames, then the sampled constraints.

Checks covered:
  trace_bound      tr(constrained CRB) >= tr(pinv J) for minimum constraints
  eigen_dominance  sorted eigenvalues of V (V'JV)^-1 V' dominate those of pinv J
  poincare         sorted eigenvalues of V'J_rV are dominated by those of J_r
  equivalence      every full-row-rank F annihilating the range basis,
                   evaluated as constrained_crb evaluates it, reproduces pinv J
  min_rank         fewer than n - rank(J) constraints always leave U'J_rU
                   singular; n - rank(J) suffice via the optimal constraint
  counterexample   a fixed 4x4 case where the matrix-order comparison with
                   pinv J fails even though trace and eigenvalue dominance hold
"""

from __future__ import annotations

import os
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .constraint import ConstraintStack, _evaluate, _sample_stacks
from .crb import bound_traces
from .errors import CrbKitError, InvalidInput, NotMinimumConstraint
from .matlin import (
    ORTHONORMAL_TOL,
    SymMatrix,
    _allocated,
    _as_floats,
    _bounds,
    _check_count,
    _check_kind,
    _freeze,
    _per_shape,
    as_ranked_svd,
    orthonormal_columns,
    ranked_svd,
    restricted_information,
    restricted_nonsingular,
    seed_sequence,
)
from .matx import dump_matrix, format_float, save_matrix

DEFAULT_MARGIN_TOL = 1e-9

# First line of every CSV file and of the manifest.
CSV_VERSION_LINE = "# crb-kit v1"


def _csv_text(head: list[str], rows: list[str]) -> str:
    """The v1 CSV layout: CSV_VERSION_LINE, the head lines, then one line per row, each line ending in a newline."""
    return "\n".join([CSV_VERSION_LINE, *head, *rows]) + "\n"


# Non-PSD threshold for the counterexample: the difference matrix must
# have an eigenvalue at least this far below zero.
COUNTEREXAMPLE_NEG_EIG = 1e-6

THEOREM_IDS = (
    "trace_bound",
    "eigen_dominance",
    "poincare",
    "equivalence",
    "min_rank",
    "counterexample",
)

# Per matrix of a certify stage: equivalence mixes, min_rank trials, and min_rank's first slot in _suite_frames.
CERTIFY_EQUIVALENCE_ALTS = 3
CERTIFY_MIN_RANK_TRIALS = 5
MIN_RANK_SLOT = 1 + CERTIFY_EQUIVALENCE_ALTS

# Range of the nonzero eigenvalues of random_rank_deficient_psd.
RANDOM_PSD_EIG_RANGE = (0.5, 2.0)


@dataclass(frozen=True, eq=False)
class FailingCase:
    """One case that violated its inequality, with replayable inputs."""

    label: str
    margin: float
    matrices: tuple[tuple[str, np.ndarray], ...]

    def as_text(self) -> str:
        parts = [f"label: {self.label}", f"margin: {format_float(self.margin)}"]
        for name, arr in self.matrices:
            parts.append(f"{name}:")
            parts.append(dump_matrix(arr).rstrip("\n"))
        return "\n".join(parts) + "\n"


@dataclass(frozen=True, eq=False)
class TheoremCertificate:
    """Outcome of one inequality: every case's margin, in case order, and the failing cases.

    margins is a read-only float64 array; witnesses are the cases that
    _certify judged failing, in case order. detail is free text for a
    headline number, e.g. the counterexample's most negative eigenvalue.
    """

    theorem_id: str
    margins: np.ndarray
    witnesses: tuple[FailingCase, ...] = ()
    detail: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "margins", _freeze(self.margins))

    @property
    def passed(self) -> bool:
        return not self.witnesses

    @property
    def n_cases(self) -> int:
        return self.margins.size

    @property
    def worst_margin(self) -> float:
        return float(self.margins.min())


def passes(margins: np.ndarray, margin_tol: float) -> np.ndarray:
    """The one pass rule, for certificates and experiment alike: margin >= -margin_tol; a NaN margin fails.
    A margin_tol of -inf makes every case a witness; the margins themselves are kept whatever the verdict."""
    return margins >= -margin_tol


def _certify(
    theorem_id: str, bases: list, margins: list[np.ndarray], case: Callable[[int, int], tuple], margin_tol: float,
    detail: str = "",
) -> TheoremCertificate:
    """The certificate of the margins of each J of bases, in order, under the pass rule of passes, margin_tol a
    number other than NaN, which it refuses; each J needs a case. case(k, i) gives J k's failing case i's label and
    matrices; its witness holds J k, the matrix of bases[k], first, then those matrices."""
    _check_kind("a number", margin_tol=margin_tol)
    if margin_tol != margin_tol:  # only NaN is unequal to itself, of any float type
        raise InvalidInput(f"margin_tol must not be NaN, got {margin_tol!r}")
    if not all(part.size for part in margins):
        raise InvalidInput("certificate needs at least one case")
    flat, starts = np.concatenate(margins), np.cumsum([0] + [part.size for part in margins]).tolist()
    witnesses = []
    for c in np.flatnonzero(~passes(flat, margin_tol)).tolist():
        k = bisect_right(starts, c) - 1
        label, mats = case(k, c - starts[k])
        witnesses.append(FailingCase(label, float(flat[c]), (("j", bases[k].matrix.entries), *mats.items())))
    return TheoremCertificate(theorem_id, flat, tuple(witnesses), detail)


def merge_certificates(certs: list[TheoremCertificate]) -> TheoremCertificate:
    """Fold same-theorem certificates into one by concatenating their margins and witnesses."""
    if not certs:
        raise InvalidInput("nothing to merge")
    theorem_id = certs[0].theorem_id
    if any(c.theorem_id != theorem_id for c in certs):
        raise InvalidInput("cannot merge certificates of different theorems")
    witnesses = tuple(w for c in certs for w in c.witnesses)
    detail = next((c.detail for c in certs if c.detail), "")
    return TheoremCertificate(theorem_id, np.concatenate([c.margins for c in certs]), witnesses, detail)


def _check_orthonormal(v: np.ndarray, n: int, name: str) -> None:
    """v is a tall (n, r) matrix or a (k, n, r) stack of them, with orthonormal columns."""
    if v.ndim not in (2, 3) or v.shape[-2] != n or v.shape[-1] > n:
        raise InvalidInput(f"{name} must be a tall matrix of {n} rows or a stack of them, got shape {v.shape}")
    error = np.abs(v.swapaxes(-1, -2) @ v - np.eye(v.shape[-1])).max(initial=0.0)
    if not error <= ORTHONORMAL_TOL:  # a NaN error fails too
        raise InvalidInput(f"{name} columns are not orthonormal")


def _minimum_stack(basis, stack: ConstraintStack) -> ConstraintStack:
    """The one gate of the minimum-constraint rule: stack, if it was evaluated against the J of basis under its
    rank rule (else InvalidInput) and is_minimum holds for each constraint (else NotMinimumConstraint, the first)."""
    other = stack.basis
    same = other is basis or (other.rank_tol_rel == basis.rank_tol_rel and np.array_equal(other.matrix, basis.matrix))
    if not same:
        raise InvalidInput("constraint stack was evaluated against another J or rank_tol_rel")
    failed = np.flatnonzero(~stack.is_minimum)
    if failed.size:
        idx = int(failed[0])
        raise NotMinimumConstraint(f"constraint {idx} (unlabeled) is not minimum: {stack.details(idx)}")
    return stack


def _stack_witness(stack: ConstraintStack, i: int) -> dict[str, np.ndarray]:
    """Constraint i of a stack as a witness: the orthonormal rows of one sign-fixed qr of its f_jac."""
    return {"f_jac": orthonormal_columns(stack.f_jacs[i].T).T}


def verify_trace_bound(j, stack: ConstraintStack, margin_tol: float = DEFAULT_MARGIN_TOL) -> TheoremCertificate:
    """Check tr(constrained CRB) >= tr(pinv J) for minimum constraints.

    stack is a ConstraintStack evaluated against J (as
    evaluate_constraints or sample_minimum_stack returns it), whose
    spectra of U'JU are used as they are. Witnesses hold the orthonormal
    rows of each f_jac's sign-fixed qr, a sampled draw's F; for an f_jac
    that is not orthonormal a replayed witness meets its margin only within
    eps cond(f_jac) ||J||_2 ||B(f_jac)||_2^2. Raises what _minimum_stack
    raises: NotMinimumConstraint when some constraint is not minimum, and
    InvalidInput for a stack evaluated against another J or rank rule.
    """
    return _trace_bound_stage([as_ranked_svd(j)], [stack], margin_tol)


def _trace_bound_stage(bases: list, stacks: list, margin_tol: float) -> TheoremCertificate:
    """verify_trace_bound of each J of bases and its stack, as one certificate."""
    stacks = [_minimum_stack(basis, stack) for basis, stack in zip(bases, stacks)]
    margins = [bound_traces(stack) - basis.pinv.trace for basis, stack in zip(bases, stacks)]
    case = lambda k, i: (f"constraint-{i}", _stack_witness(stacks[k], i))
    return _certify("trace_bound", bases, margins, case, margin_tol)


def verify_eigen_dominance(j, v, margin_tol: float = DEFAULT_MARGIN_TOL) -> TheoremCertificate:
    """Check sorted-eigenvalue dominance of V (V'JV)^-1 V' over pinv J.

    v is one (n, r) frame or a (k, n, r) stack of frames, each with
    orthonormal columns, as many as rank(J), or a ConstraintStack
    evaluated against J, whose spectra of U'JU are used as they are; it
    passes the gate _minimum_stack, so its frames, the null bases of its
    f_jacs, are rank(J) wide, and its witnesses hold and replay f_jac as
    verify_trace_bound's do, in place of v. Margins compare the nonzero
    eigenvalues, 1/mu of V'J_rV with 1/sigma of J, frame by frame; the
    zeros agree exactly and are not cases. Raises InvalidInput for frames
    of another width (a narrower one has no 1/mu to set against the last
    1/sigma, a wider one leaves V'JV singular), and NotMinimumConstraint
    when restricted_nonsingular calls some V'J_rV singular, as
    _minimum_stack does for a stack.
    """
    return _eigen_dominance_stage([as_ranked_svd(j)], [v], margin_tol)


def _eigen_dominance_stage(bases: list, vs: list, margin_tol: float) -> TheoremCertificate:
    """verify_eigen_dominance of each J of bases and its v, as one certificate; each J's frames are read apart."""
    margins, mats = [], []
    for basis, v in zip(bases, vs):
        if isinstance(v, ConstraintStack):
            mu = _minimum_stack(basis, v).utju_eigs
            mats.append(lambda i, stack=v: _stack_witness(stack, i))
        else:
            v_arr = _as_floats(InvalidInput, v, "v")
            _check_orthonormal(v_arr, basis.dim, "v")
            frames = v_arr.reshape((-1,) + v_arr.shape[-2:])
            if frames.shape[2] != basis.rank:
                raise InvalidInput(f"frames need rank(J) = {basis.rank} columns, got {frames.shape[2]}")
            mu = restricted_information([basis], [frames])[1][0]
            if not np.all(exists := restricted_nonsingular(basis, mu)):
                raise NotMinimumConstraint(f"V'JV of frame {np.argmin(exists)} is numerically singular")
            mats.append(lambda i, frames=frames: {"v": frames[i]})
        # 1/mu descends as mu ascends, as 1/sigma does
        margins.append((1.0 / mu - basis.pinv_eigenvalues[: basis.rank]).ravel())
    case = lambda k, c: (f"eig-index-{c % bases[k].rank}", mats[k](c // bases[k].rank))
    return _certify("eigen_dominance", bases, margins, case, margin_tol)


def verify_poincare(j, v, margin_tol: float = DEFAULT_MARGIN_TOL) -> TheoremCertificate:
    """Check lambda_i(V'J_rV) <= lambda_i(J_r) for i up to V's width; J_r's spectrum is sigma, then n - r zeros."""
    return _poincare_stage([as_ranked_svd(j)], [v], margin_tol)


def _poincare_stage(bases: list, vs: list, margin_tol: float) -> TheoremCertificate:
    """verify_poincare of each J of bases and its v, as one certificate."""
    frames = []
    for basis, v in zip(bases, vs):
        frames.append(_as_floats(InvalidInput, v, "v"))
        if frames[-1].ndim != 2:
            raise InvalidInput(f"v must be a tall matrix, got shape {frames[-1].shape}")
        _check_orthonormal(frames[-1], basis.dim, "v")
    margins = []
    for basis, mu in zip(bases, restricted_information(bases, [v[None] for v in frames])[1]):
        lam = np.append(basis.sigma, np.zeros(basis.dim - basis.rank))
        margins.append(lam[: mu.shape[1]] - mu[0, ::-1])
    return _certify("poincare", bases, margins, lambda k, i: (f"eig-index-{i}", {"v": frames[k]}), margin_tol)


def verify_constraint_equivalence(j, alt_jacobians, margin_tol: float = DEFAULT_MARGIN_TOL) -> TheoremCertificate:
    """Check that every Jacobian annihilating the range basis gives pinv J.

    alt_jacobians, a list of (m, n) alternatives F, m = n - rank(J), or a
    (k, m, n) array, is evaluated as one stack, as constrained_crb
    evaluates [F]. Each F must satisfy ||F U_r|| <= 1e-8 ||F|| and pass
    the gate _minimum_stack, which raises NotMinimumConstraint for the
    first F that is not a minimum constraint; the margin is minus the
    Frobenius distance of its bound U (U'J_rU)^-1 U' from pinv J.
    """
    return _equivalence_stage([as_ranked_svd(j)], [alt_jacobians], margin_tol)


def _equivalence_stage(bases: list, alternatives: list, margin_tol: float) -> TheoremCertificate:
    """verify_constraint_equivalence of each J of bases, all of one rank rule, and its alternatives, as one
    certificate: constraint._evaluate evaluates every J's stack, and _bounds forms every bound."""
    stacks = []
    for basis, alt_jacobians in zip(bases, alternatives):
        n, m = basis.dim, basis.dim - basis.rank
        f_jacs = [_as_floats(InvalidInput, f_jac, f"alternative {idx}") for idx, f_jac in enumerate(alt_jacobians)]
        if not f_jacs:
            raise InvalidInput("certificate needs at least one case")
        for idx, f_arr in enumerate(f_jacs):
            if f_arr.shape != (m, n):
                raise InvalidInput(f"alternative {idx} has shape {f_arr.shape}, expected ({m}, {n})")
        stacks.append(f_jacs)
    evaluated, us, restricted = _evaluate(bases, stacks)
    for basis, stack in zip(bases, evaluated):
        f_jacs = stack.f_jacs
        stray = np.linalg.norm(f_jacs @ basis.u_r, axis=(1, 2)) > 1e-8 * np.linalg.norm(f_jacs, axis=(1, 2))
        if stray.any():
            raise InvalidInput(f"alternative {np.argmax(stray)} does not annihilate the range basis")
        _minimum_stack(basis, stack)
    diffs = [(bound - basis.pinv.entries).reshape(len(bound), 1, -1)
             for basis, bound in zip(bases, _bounds(us, restricted))]
    # each norm as np.linalg.norm takes it, the dot product of the flattened difference with itself, one matmul
    # for the differences of each size; a norm over axes (1, 2) sums in another order
    margins = _per_shape(lambda diff: -np.sqrt(diff @ diff.swapaxes(-1, -2))[..., 0, 0], diffs)
    case = lambda k, i: (f"alternative-{i}", {"f_jac": evaluated[k].f_jacs[i]})
    return _certify("equivalence", bases, margins, case, margin_tol)


def min_rank_trials(j, trials: int, rng_seed) -> tuple[np.ndarray, list[int]]:
    """The one draw of min_rank's inputs: (trials + 1, n, n) slots and their row counts.

    From rng_seed, a Generator drawn from in place or a nonnegative integer seed of the
    stream seed_sequence(rng_seed), one call draws every trial's row count m < n - rank(J),
    and one a Gaussian (n, n - rank) block per trial, its columns past m zeroed; U_bar
    comes last, with n - rank rows. Each slot is zero-padded to n columns, so one qr of the
    slots, or of any stack of (n, n) blocks that holds them, gives each slot's complete Q:
    a zero column adds a reflector with tau = 0. A nonsingular J, where n - rank is 0,
    draws nothing and gets zero slots; verify_min_rank refuses it, as it does a zero J.
    Refuses trials whose slots numpy cannot allocate, as the samplers refuse such a count.
    """
    _check_count(trials, "trials", 1)
    basis = as_ranked_svd(j)
    n, m = basis.dim, basis.dim - basis.rank
    rng = rng_seed if isinstance(rng_seed, np.random.Generator) else np.random.default_rng(seed_sequence(rng_seed))
    slots = _allocated(np.zeros, (trials + 1, n, n), "trials")  # first: no other array of the draw is larger
    counts = rng.integers(0, m, size=trials) if m else np.zeros(trials, dtype=int)
    slots[:-1, :, :m] = np.where(np.arange(m) < counts[:, None, None], rng.standard_normal((trials, n, m)), 0.0)
    slots[-1, :, :m] = basis.u_bar
    return slots, counts.tolist() + [m]


def verify_min_rank(j, trials: int, rng_seed, margin_tol: float = DEFAULT_MARGIN_TOL) -> TheoremCertificate:
    """Check that n - rank(J) constraint rows are necessary and sufficient.

    The cases are the trials that min_rank_trials(j, trials, rng_seed)
    draws, then U_bar's, each slot's complete Q from one sign-fixed qr
    (orthonormal_columns) of them, as certify takes them. Case i's
    constraint F is Q's leading m_i columns, transposed, m_i its row
    count, and its null basis U the rest. A deficient case, fewer than n - rank(J) rows,
    requires U'J_rU numerically singular; the last, the optimal affine
    constraint, must leave U'J_rU nonsingular. One restricted_information
    call reads every U'J_rU, with Q's leading columns zeroed. Margins,
    1 - mu_min / c for a deficient case and mu_min / c - 1 for the
    achievable one, are in units of the cutoff c = basis.cutoff(p) of
    restricted_nonsingular for p x p U'J_rU, so J's scale moves none, and
    under the default rule they read about 1 and sigma_r / c. F's rows are
    orthonormal, so no row rank is checked, and witnesses hold the F
    evaluated. Refuses a nonsingular or a zero J, and what
    min_rank_trials refuses.
    """
    basis = as_ranked_svd(j)
    slots, rows = min_rank_trials(basis, trials, rng_seed)
    return _min_rank_stage([basis], [orthonormal_columns(slots)], [rows], margin_tol)


def _min_rank_stage(bases: list, qs: list, counts: list, margin_tol: float) -> TheoremCertificate:
    """verify_min_rank of each J of bases, as one certificate, from the complete Q of the slots that
    min_rank_trials drew for it and their row counts."""
    padded = []
    for basis, q, rows in zip(bases, qs, counts):
        if basis.rank == basis.dim:
            raise InvalidInput("J is numerically nonsingular; the rank claim is vacuous")
        if basis.rank == 0:
            raise InvalidInput("J is zero; the rank claim has no cutoff to measure against")
        # m zeroed columns add m zeros below U'J_rU's own spectrum (to roundoff): mu_min is at index m
        padded.append(np.where(np.arange(basis.dim) >= np.array(rows)[:, None, None], q, 0.0))
    margins = []
    for basis, rows, mu in zip(bases, counts, restricted_information(bases, padded)[1]):
        scaled = mu[np.arange(len(rows)), rows] / basis.cutoff(basis.dim - np.array(rows))  # mu_min / c
        # deficient constraints must leave U'J_rU singular (mu_min at or below c); the achievable must not
        margins.append(np.append(1.0 - scaled[:-1], scaled[-1] - 1.0))
    case = lambda k, i: (f"deficient-{i}-rows-{counts[k][i]}" if i + 1 < len(counts[k]) else "achievable-at-min-rank",
                         {"f_jac": qs[k][i, :, : counts[k][i]].T})
    return _certify("min_rank", bases, margins, case, margin_tol)


def _suite_frames(matrices: list) -> list[tuple]:
    """Per (basis, rng) of matrices, what rng draws after J, in order: the Poincare frame, the equivalence mixes,
    and min_rank's trials, as their complete Q and row counts. Each matrix's draws go zero-padded into one
    (10, n, n) block, min_rank_trials' slots last, and the blocks of one n get one sign-fixed qr
    (orthonormal_columns): a zero column adds a reflector with tau = 0, and the zero rows below a mix leave its
    leading Q and R as they are."""
    blocks, kept = [], []
    for basis, rng in matrices:
        n, rank, m = basis.dim, basis.rank, basis.dim - basis.rank
        block = np.zeros((MIN_RANK_SLOT, n, n))
        block[0, :, :rank] = rng.standard_normal((n, rank))
        block[1:, :m, :m] = rng.standard_normal((CERTIFY_EQUIVALENCE_ALTS, m, m))
        slots, counts = min_rank_trials(basis, CERTIFY_MIN_RANK_TRIALS, rng)
        blocks.append(np.concatenate([block, slots]))
        kept.append((rank, m, counts))
    return [(q[0, :, :rank], q[1:MIN_RANK_SLOT, :m, :m], q[MIN_RANK_SLOT:], counts)
            for q, (rank, m, counts) in zip(_per_shape(orthonormal_columns, blocks), kept)]


def _certify_stage(matrices: list, constraints_count: int, margin_tol: float, start: int):
    """Each theorem's certificate but the counterexample's over the (basis, rng) of matrices, suite matrices start,
    start + 1, ..., from what each rng draws after J: its _suite_frames, then constraints_count sampled constraints.
    One check of each theorem for the stage. The first failure raises CrbKitError("certify matrix i, theorem: ...")
    as if each J went through THEOREM_IDS in turn, a sampler's as its trace_bound: a failed stage is certified again
    one J at a time, each rng put back first, so each J redraws what it drew. A FloatingPointError escapes as it is."""
    bases, rngs = zip(*matrices)
    theorem, certificates, states = 0, [], [rng.bit_generator.state for rng in rngs]
    frame, mixes, trials_q, rows = zip(*_suite_frames(matrices))
    try:
        stacks = _sample_stacks(bases, constraints_count, rngs)
        # orthonormal (m, m) mixes keep U_bar's rows orthonormal, so no ill-conditioned mix fails the row-rank test
        alternatives = [mix @ basis.u_bar.T for mix, basis in zip(mixes, bases)]
        checks = [(_trace_bound_stage, stacks), (_eigen_dominance_stage, stacks), (_poincare_stage, frame),
                  (_equivalence_stage, alternatives), (_min_rank_stage, trials_q, rows)]
        for theorem, (check, *inputs) in enumerate(checks):
            certificates.append(check(bases, *inputs, margin_tol))
    except (CrbKitError, np.linalg.LinAlgError, FloatingPointError) as exc:
        for rng, state in zip(rngs, states):
            rng.bit_generator.state = state
        for i in range(len(matrices)) if len(matrices) > 1 else []:
            _certify_stage(matrices[i : i + 1], constraints_count, margin_tol, start + i)
        if isinstance(exc, FloatingPointError):
            raise
        raise CrbKitError(f"certify matrix {start}, {THEOREM_IDS[theorem]}: {exc}") from exc
    return certificates


def counterexample_check() -> TheoremCertificate:
    """Fixed 4x4 case splitting matrix order from trace and eigenvalue order.

    With J = diag(1, 1, 0, 0) and a particular orthonormal V, the matrix
    D = V (V'JV)^-1 V' - pinv(J) is indefinite (its most negative
    eigenvalue is (1 - sqrt 5)/2), yet tr(D) >= 0 and sorted-eigenvalue
    dominance still holds. The certificate margins are: how far D's
    smallest eigenvalue sits below the -1e-6 indefiniteness threshold,
    tr(D), and the worst eigenvalue-dominance slack: (sqrt 5 - 1)/2 - 1e-6,
    2 and 1, which no nonnegative tolerance fails, so it takes none.
    """
    basis = ranked_svd(np.diag([1.0, 1.0, 0.0, 0.0]))
    v = 0.5 * np.array([[-1.0, 1.0], [-1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
    margin_dominance = verify_eigen_dominance(basis, v).worst_margin  # which refuses a v of the wrong width first
    diff = _bounds([v[None]], restricted_information([basis], [v[None]])[0])[0][0] - basis.pinv.entries  # symmetric
    min_eig = float(np.linalg.eigvalsh(diff)[0])
    margin_indefinite = -COUNTEREXAMPLE_NEG_EIG - min_eig
    margin_trace = float(np.trace(diff))
    margins = np.array([margin_indefinite, margin_trace, margin_dominance])
    labels = ("difference-indefinite", "trace-still-dominates", "eigenvalues-still-dominate")
    detail = f"min_eigenvalue={format_float(min_eig)}"
    case = lambda k, i: (labels[i], {"v": v})
    return _certify("counterexample", [basis], [margins], case, DEFAULT_MARGIN_TOL, detail)


def random_rank_deficient_psd(n: int, rank: int, rng: np.random.Generator) -> SymMatrix:
    """Random PSD matrix with exactly n - rank zero eigenvalues.

    Built as Q diag(d) Q' with Q Haar orthogonal, the sign-fixed qr of a
    Gaussian (n, n) block, and the nonzero entries of d drawn after it,
    uniformly from RANDOM_PSD_EIG_RANGE. n and rank are integers (Python or numpy, not a bool), n
    one whose (n, n) block numpy can allocate, and rng a numpy Generator.
    """
    if not isinstance(rng, np.random.Generator):
        raise InvalidInput(f"rng must be a numpy Generator, got {rng!r}")
    return _random_psds([(n, rank, rng)])[0]


def _random_psds(shapes) -> list[SymMatrix]:
    """random_rank_deficient_psd(n, rank, rng) of each (n, rank, rng) in shapes, drawn from each rng in turn; the
    Gaussian blocks of one n are orthonormalized by one sign-fixed qr."""
    blocks, kept = [], []
    for n, rank, rng in shapes:
        _check_kind("an integer", n=n, rank=rank)
        if n < 1 or rank < 0 or rank > n:
            raise InvalidInput(f"need 0 <= rank <= n, got rank={rank}, n={n}")
        blocks.append(_allocated(rng.standard_normal, (n, n), "n"))
        kept.append(np.append(rng.uniform(*RANDOM_PSD_EIG_RANGE, rank), np.zeros(n - rank)))
    return [SymMatrix((q * d) @ q.T) for q, d in zip(_per_shape(orthonormal_columns, blocks), kept)]


def certificates_to_csv(certs: list[TheoremCertificate]) -> str:
    """Render certificates as CSV under CSV_VERSION_LINE."""
    rows = [f"{cert.theorem_id},{'true' if cert.passed else 'false'},{cert.n_cases},"
            f"{format_float(cert.worst_margin)},{cert.detail}" for cert in certs]
    return _csv_text(["theorem_id,passed,n_cases,worst_margin,detail"], rows)


def write_certificate_witnesses(cert: TheoremCertificate, directory) -> list[str]:
    """Write each witness of a failed certificate as matx files plus a note.

    Returns the written file paths; a passing certificate writes nothing, not even the directory.
    """
    if not cert.witnesses:
        return []
    written: list[str] = []
    os.makedirs(directory, exist_ok=True)
    for idx, witness in enumerate(cert.witnesses):
        stem = f"{cert.theorem_id}_{idx:03d}"
        note_path = os.path.join(directory, f"{stem}.txt")
        Path(note_path).write_text(witness.as_text(), encoding="ascii")
        written.append(note_path)
        for name, arr in witness.matrices:
            mat_path = os.path.join(directory, f"{stem}_{name}.matx")
            save_matrix(mat_path, arr)
            written.append(mat_path)
    return written
