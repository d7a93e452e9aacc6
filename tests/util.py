"""Shared test helpers.

The pseudoinverse oracle here deliberately uses the reciprocal-singular-value
route so library results are checked against an independent construction.
"""

import numpy as np

from crbkit.cli import derived_rng
from crbkit.constraint import sample_minimum_constraints
from crbkit.matlin import seed_sequence
from crbkit.verify import random_rank_deficient_psd


def make_psd(rng, n, rank, lo=0.5, hi=2.0):
    """Random symmetric PSD matrix with exact rank via Q diag(d) Q^T."""
    q = random_orthonormal(rng, n, n)
    d = np.zeros(n)
    d[:rank] = rng.uniform(lo, hi, rank)
    m = (q * d) @ q.T
    return 0.5 * (m + m.T)


def random_orthonormal(rng, n, k):
    """Orthonormal n x k frame from a Gaussian draw, sign-fixed QR."""
    a = rng.standard_normal((n, k))
    q, r = np.linalg.qr(a)
    return q * np.where(np.diag(r) < 0.0, -1.0, 1.0)


def orthonormal_rows(f_jacs):
    """The orthonormal rows of each (m, n) Jacobian from one reduced qr, signed so that R's diagonal is
    positive: for a sampled stack's draws G', the F that its specs and witnesses give, the rows it once held."""
    q, r = np.linalg.qr(np.asarray(f_jacs).transpose(0, 2, 1))
    return (q * np.where(np.diagonal(r, axis1=1, axis2=2) < 0.0, -1.0, 1.0)[:, None, :]).transpose(0, 2, 1)


def sampled_draws(basis, count, seed):
    """Every draw G' that sample_minimum_constraints(basis, count, seed) made, in draw order, and the
    index of each accepted one, read from the retries= labels of its specs. The sampler consumes its
    stream as one draw at a time would, and its last draw is its last accepted one."""
    specs = sample_minimum_constraints(basis, count, seed)
    hits = np.cumsum([int(spec.label.split("retries=")[1]) + 1 for spec in specs]) - 1
    shape = (hits[-1] + 1, basis.dim, basis.dim - basis.rank)
    return np.random.default_rng(seed_sequence(seed)).standard_normal(shape).transpose(0, 2, 1), hits


def sampler_chunks(hits, count):
    """The chunk sizes of the sampler's loop for a sample that accepted the draws hits: each chunk makes
    as many draws as can still be accepted, at most 32, and never overdraws the budget of 100 * count."""
    chunks, accepted, rejects = [], 0, 0
    while accepted < count:
        drawn = sum(chunks)
        chunks.append(min(count - accepted, 100 * count - rejects, 32))
        inside = hits[(hits >= drawn) & (hits < drawn + chunks[-1])]
        accepted += inside.size
        rejects = drawn + chunks[-1] - 1 - inside[-1] if inside.size else rejects + chunks[-1]
    return chunks


def svd_pinv_oracle(a):
    """Pseudoinverse by inverting singular values above a relative cutoff."""
    a = np.asarray(a, dtype=float)
    u, s, vh = np.linalg.svd(a)
    cutoff = s[0] * max(a.shape) * 1e-10 if s.size else 0.0
    keep = s > cutoff
    return (vh[keep].T / s[keep]) @ u[:, keep].T


def suite_streams(seed, count):
    """Each certify suite matrix's J and rank and its stream past J, rebuilt from the documented streams:
    the shapes from ("certify-shapes"), then J from matrix i's own stream ("certify-matrix", i)."""
    shapes = derived_rng(seed, "certify-shapes")
    for i in range(count):
        n = int(shapes.integers(2, 9))
        rank = int(shapes.integers(1, n))
        rng = derived_rng(seed, "certify-matrix", i)
        yield random_rank_deficient_psd(n, rank, rng), rank, rng
