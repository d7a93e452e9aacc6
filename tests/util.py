"""Shared test helpers.

The pseudoinverse oracle here deliberately uses the reciprocal-singular-value
route so library results are checked against an independent construction.
"""

import importlib.util
import sys

import numpy as np

from crbkit.cli import derived_rng
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


def chart_draws(basis, count, seed):
    """The draws L (count, n - r, r) of a sample of count constraints from seed, made one at a time by the
    documented law: draw i is t delta_i N, delta_i the i-th of (1e-3, 1e-2, 1e-1, 1, 10, 100) in turn, and
    t <= 1 the largest factor with c ||L Lambda^-1/2||_F^2 <= (1 - c / lambda_r) / 2, c = sigma_1 r rank_tol_rel.
    One stream, seed_sequence(seed), draws every draw's r squared column norms C, chi^2(n - r), and then every
    draw's (n - r, r) standard normal g; N's columns are sqrt(C_j) g_j / ||g_j||."""
    n, r = basis.dim, basis.rank
    rng = np.random.default_rng(seed_sequence(seed))
    c = basis.sigma[0] * r * basis.rank_tol_rel if r else 0.0
    room = 0.5 * (1.0 - c / basis.sigma[-1]) if r else 0.5
    all_norms = [rng.chisquare(n - r, r) for _ in range(count)]
    draws = []
    for i, norms in enumerate(all_norms):
        g = rng.standard_normal((n - r, r))
        scaled = (1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0)[i % 6] * g * np.sqrt(norms / np.sum(g**2, axis=0))
        gap = c * np.sum(scaled**2 / basis.sigma)
        draws.append(scaled * (np.sqrt(room / gap) if gap > room else 1.0))
    return np.array(draws).reshape(count, n - r, r)


def chart_jacobians(basis, l_mats):
    """The Jacobians F = U_bar' + L U_r' of draws L: each F's rows span the complement of
    null(F) = span(U_r - U_bar L)."""
    return basis.u_bar.T + l_mats @ basis.u_r.T


def gaussian_rows(seed, count, n, m):
    """The orthonormal rows (count, m, n) of count Gaussian (n, m) draws from seed_sequence(seed), one
    sign-fixed qr: Haar-uniform constraints, the inputs that the samplers once drew from that seed."""
    draws = np.random.default_rng(seed_sequence(seed)).standard_normal((count, n, m))
    return orthonormal_rows(draws.transpose(0, 2, 1))


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


def load_tool(path):
    """The script at path as a module named after its file, as it runs: registered in sys.modules, where
    dataclasses look their module up, and with its directory on sys.path, so that it imports its neighbours."""
    if str(path.parent) not in sys.path:
        sys.path.append(str(path.parent))
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module
