"""The three benchmark workloads: input generation and output checks.

Every workload turns the benchmark seed into a list of jobs. A job is one
`crbkit` command line with inputs no other job in the run shares. The
checks recompute what they can with plain numpy, independent of crbkit,
and return `(problems, known)`: an empty list of problems means the job's
outputs are right, and `known` marks a job whose only problem is a known
false FAIL of the program on otherwise complete output.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Optional

import numpy as np

# Jobs per second of --seconds: about the rate at which the reference host
# (see PROBE_REF_S in worker.py) runs them. A run does all of its jobs, however
# long they take, so the jobs a seed gives, and which of them fail, repeat
# exactly; a clock that cut the run short would make both vary with host speed.
JOBS_PER_S = {"certify_suite": 2.7, "experiment_wide": 1.1, "mc_blind_channel": 1.6}
# The traced run needs this many jobs (half of them traced) at least.
MIN_JOBS = 8


def job_count(workload: str, seconds: float) -> int:
    """Jobs in one run of `workload` (at most 1000, see job_seed)."""
    return min(1000, max(MIN_JOBS, round(seconds * JOBS_PER_S[workload])))

CERTIFY_COUNT = 20  # matrices per certify job
CERTIFY_CONSTRAINTS = 20  # sampled constraints per matrix, fixed by the CLI

EXPERIMENT_DIM = 32
EXPERIMENT_RANK = 16
EXPERIMENT_COUNT = 1000  # constraints per experiment job

MC_S_LEN = 3
MC_H_LEN = 3
MC_NOISE_VAR = 0.5
# The CLI's default sample count (DEFAULT_SAMPLES in cli.py); it spans
# three of fim.py's 4096-sample partitions.
MC_SAMPLES = 10000
MC_TOL_STD_ERRS = 5.0

EXIT_CERTIFICATE = 4  # the CLI's documented exit code for a failed certificate


@dataclass
class Job:
    index: int
    argv: list[str]
    items: int
    # reference data the output check needs (e.g. the input matrix)
    ref: dict = field(default_factory=dict)
    # Writes the job's input file; called, untimed, just before the job.
    # Creating files on a shared disk took from 3 to 80 ms per hundred
    # files, so writing them all during set-up made setup_s noisy.
    write_input: Optional[Callable[[], None]] = None


def job_seed(seed: int, index: int) -> int:
    """CLI seed of one job, distinct across the jobs of a run and across run seeds."""
    return seed * 1000 + index


def _csv_rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="ascii") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def _config(path: Path) -> dict[str, str]:
    values = {}
    for line in path.read_text(encoding="ascii").splitlines():
        if "=" in line and not line.startswith("#"):
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    return values


def _read_matx(path: Path) -> np.ndarray:
    lines = path.read_text(encoding="ascii").split("\n")
    n, m = (int(v) for v in lines[0].split())
    return np.array([[float(v) for v in line.split()] for line in lines[1 : n + 1]]).reshape(n, m)


def _write_matx(path: Path, a: np.ndarray) -> None:
    rows = [f"{a.shape[0]} {a.shape[1]}"]
    rows += [" ".join(f"{v:.17g}" for v in row) for row in a]
    path.write_text("\n".join(rows) + "\n", encoding="ascii")


# --- certify_suite --------------------------------------------------------


def certify_jobs(seed: int, inputs: Path, count: int) -> list[Job]:
    return [
        Job(
            index=i,
            argv=["certify", "--count", str(CERTIFY_COUNT), "--seed", str(job_seed(seed, i))],
            items=CERTIFY_COUNT,
        )
        for i in range(count)
    ]


def certify_check(job: Job, out: Path, rc) -> tuple[list[str], bool]:
    """Six complete certificates, all passed.

    The known false FAIL is an `eigen_dominance` margin a little below
    -margin_tol on an ill-conditioned sampled constraint (ROADMAP item 4).
    A job that exits 4 with complete certificates and only that FAIL is
    `known`; any other failed certificate or exit code is not.
    """
    rows = _csv_rows(out / "certificates.csv")
    failed = [row for row in rows if row["passed"] != "true"]
    problems = [] if rc == (EXIT_CERTIFICATE if failed else 0) else [f"exit code {rc}"]
    if len(rows) != 6:
        problems.append(f"certificates.csv has {len(rows)} rows, expected 6")
    for row in rows:
        if row["theorem_id"] == "trace_bound" and int(row["n_cases"]) != CERTIFY_CONSTRAINTS * CERTIFY_COUNT:
            problems.append(f"trace_bound n_cases {row['n_cases']}, expected {CERTIFY_CONSTRAINTS * CERTIFY_COUNT}")
    known = bool(failed) and not problems and all(row["theorem_id"] == "eigen_dominance" for row in failed)
    problems += [f"{row['theorem_id']} not passed, worst margin {row['worst_margin']}" for row in failed]
    return problems, known


# --- experiment_wide ------------------------------------------------------


def random_psd(rng: np.random.Generator, n: int, rank: int) -> np.ndarray:
    """Exactly symmetric PSD matrix Q diag(d) Q' with n - rank zero eigenvalues."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    q *= np.where(np.diag(r) < 0, -1.0, 1.0)
    d = np.zeros(n)
    d[:rank] = rng.uniform(0.5, 2.0, rank)
    a = (q * d) @ q.T
    return 0.5 * (a + a.T)


def experiment_jobs(seed: int, inputs: Path, count: int) -> list[Job]:
    rng = np.random.default_rng([seed, 1])
    jobs = []
    for i in range(count):
        j = random_psd(rng, EXPERIMENT_DIM, EXPERIMENT_RANK)
        path = inputs / f"J_{i}.matx"
        argv = [
            "experiment", "--input", str(path), "--count", str(EXPERIMENT_COUNT),
            "--seed", str(job_seed(seed, i)),
        ]
        job = Job(index=i, argv=argv, items=EXPERIMENT_COUNT, ref={"j": j}, write_input=partial(_write_matx, path, j))
        jobs.append(job)
    return jobs


def experiment_check(job: Job, out: Path, rc) -> tuple[list[str], bool]:
    problems = [] if rc == 0 else [f"exit code {rc}"]
    manifest = _config(out / "manifest.cfg")
    margin_tol = float(manifest["margin_tol"])
    rank_tol = float(manifest["rank_tol"])
    text = (out / "traces.csv").read_text(encoding="ascii")
    baseline = float(text.split("# baseline_trace = ", 1)[1].split("\n", 1)[0])
    rows = _csv_rows(out / "traces.csv")
    if [int(r["sample_index"]) for r in rows] != list(range(EXPERIMENT_COUNT)):
        problems.append(f"traces.csv has {len(rows)} rows, expected {EXPERIMENT_COUNT}")
    worst = min((float(r["margin"]) for r in rows), default=0.0)
    if worst < -margin_tol:
        problems.append(f"margin {worst:.3e} below -margin_tol")
    j = job.ref["j"]
    expected = float(np.trace(np.linalg.pinv(j, rtol=j.shape[0] * rank_tol)))
    if abs(baseline - expected) > 1e-9 * abs(expected):
        problems.append(f"baseline_trace {baseline!r} != numpy pinv trace {expected!r}")
    return problems, False


# --- mc_blind_channel -----------------------------------------------------


def mc_jobs(seed: int, inputs: Path, count: int) -> list[Job]:
    jobs = []
    for i in range(count):
        path = inputs / f"mc_{i}.cfg"
        config = (
            "model = blind_channel\n"
            f"s_len = {MC_S_LEN}\nh_len = {MC_H_LEN}\nnoise_var = {MC_NOISE_VAR}\n"
            f"fim_method = monte_carlo\nsamples = {MC_SAMPLES}\n"
            f"seed = {job_seed(seed, i)}\n"
        )
        write = partial(path.write_text, config, encoding="ascii")
        jobs.append(Job(index=i, argv=["analyze", "--input", str(path)], items=MC_SAMPLES, write_input=write))
    return jobs


def convolution_jacobian(s: np.ndarray, h: np.ndarray) -> np.ndarray:
    """d(s * h)/d(s, h), one np.convolve per unit vector."""
    cols = [np.convolve(e, h) for e in np.eye(s.size)]
    cols += [np.convolve(s, e) for e in np.eye(h.size)]
    return np.column_stack(cols)


def mc_check(job: Job, out: Path, rc) -> tuple[list[str], bool]:
    """Rank, sample count, and every FIM entry within MC_TOL_STD_ERRS of G'G/sigma^2.

    The score s = G'(y - mu)/sigma^2 is N(0, J), so by Isserlis' theorem
    Var(s_i s_j) = J_ii J_jj + J_ij^2, and the mean of N outer products has
    standard error sqrt((J_ii J_jj + J_ij^2) / N) in entry (i, j). The
    program's eigenvalue clip moves no entry by more than its magnitude.
    """
    problems = [] if rc == 0 else [f"exit code {rc}"]
    report = {r["key"]: r["value"] for r in _csv_rows(out / "analysis.csv")}
    param_dim = MC_S_LEN + MC_H_LEN
    if int(report["rank"]) != param_dim - 1:
        problems.append(f"rank {report['rank']}, expected {param_dim - 1}")
    if int(report["fim_samples"]) != MC_SAMPLES:
        problems.append(f"fim_samples {report['fim_samples']}, expected {MC_SAMPLES}")
    manifest = _config(out / "manifest.cfg")
    theta = np.array([float(v) for v in manifest["theta"].split()])
    g = convolution_jacobian(theta[:MC_S_LEN], theta[MC_S_LEN:])
    expected = g.T @ g / float(manifest["noise_var"])
    diag = np.diag(expected)
    std_err = np.sqrt((np.outer(diag, diag) + expected**2) / MC_SAMPLES)
    limit = MC_TOL_STD_ERRS * std_err + float(report["fim_clip_magnitude"])
    excess = np.abs(_read_matx(out / "j.matx") - expected) / limit
    if not np.all(excess <= 1.0):
        problems.append(f"FIM entry error {float(np.max(excess)):.3g}x its limit of {MC_TOL_STD_ERRS:g} std errors")
    return problems, False


WORKLOADS = {
    "certify_suite": (certify_jobs, certify_check),
    "experiment_wide": (experiment_jobs, experiment_check),
    "mc_blind_channel": (mc_jobs, mc_check),
}
