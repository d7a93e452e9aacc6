import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import crbkit
from crbkit import (
    BlindChannelModel,
    GaussianMeanModel,
    RankedSvd,
    SymMatrix,
    bound_traces,
    constrained_crb,
    fim_gaussian_mean,
    fim_monte_carlo,
    load_constraint_spec,
    load_matrix,
    ranked_svd,
    sample_constraint_traces,
    sample_minimum_constraints,
    save_matrix,
)
from crbkit.cli import CERTIFY_STAGE, build_parser, derived_rng, main
from crbkit.constraint import _sample_stacks
from crbkit.matlin import DEFAULT_RANK_TOL_REL, orthonormal_columns, seed_sequence
from crbkit.matx import format_float
from crbkit.verify import (
    DEFAULT_MARGIN_TOL,
    _min_rank_stage,
    _suite_frames,
    certificates_to_csv,
    counterexample_check,
    merge_certificates,
    min_rank_trials,
    random_rank_deficient_psd,
    verify_constraint_equivalence,
    verify_eigen_dominance,
    verify_poincare,
    verify_trace_bound,
)
from util import chart_draws, load_tool, make_psd, suite_streams


EPS = np.finfo(float).eps
CLI_DIGEST = Path(__file__).resolve().parents[1] / "tools" / "cli_digest.py"


def write_diag_matrix(tmp_path):
    path = tmp_path / "j.matx"
    path.write_text("2 2\n2 0\n0 0\n")
    return path


def write_identity_matrix(tmp_path):
    path = tmp_path / "eye.matx"
    path.write_text("2 2\n1 0\n0 1\n")
    return path


def test_derived_streams_are_stable_and_distinct():
    a = derived_rng(0, "theta").uniform(size=3)
    b = derived_rng(0, "theta").uniform(size=3)
    assert np.array_equal(a, b)
    c = derived_rng(0, "certify-shapes").uniform(size=3)
    assert not np.array_equal(a, c)


def test_the_cli_draws_what_the_library_draws_from_the_seed(tmp_path):
    # a Monte-Carlo J is fim_monte_carlo(model, theta, samples, seed) and experiment's traces are
    # sample_constraint_traces(ranked_svd(J, rank_tol), count, seed), bit for bit, with the run's seed passed as it is
    config = tmp_path / "mc.cfg"
    config.write_text("model = blind_channel\nfim_method = monte_carlo\n")
    assert main(["analyze", "--input", str(config), "--seed", "5", "--out", str(tmp_path / "a")]) == 0
    manifest = dict(line.split(" = ") for line in (tmp_path / "a" / "manifest.cfg").read_text().splitlines()[1:])
    theta = np.array([float(value) for value in manifest["theta"].split()])
    j = load_matrix(tmp_path / "a" / "j.matx")
    assert np.array_equal(j, fim_monte_carlo(BlindChannelModel(3, 3, 1.0), theta, 10000, 5).matrix.entries)
    argv = ["experiment", "--input", str(tmp_path / "a" / "j.matx"), "--count", "40", "--seed", "3"]
    assert main(argv + ["--rank-tol", "0.02", "--out", str(tmp_path / "e")]) == 0
    _, traces = experiment_traces(tmp_path / "e")
    assert np.array_equal(traces, sample_constraint_traces(ranked_svd(j, 0.02), 40, 3))


def test_seed_derivation_keeps_every_stream(tmp_path):
    # sha256 of every output of six runs: a Monte-Carlo analyze (a), an experiment of its J (e) and the same at
    # rank_tol 0.02 (e2), a certify suite (c), a certify of a's J (c2) and an analyze of a's J as a matrix input (m).
    # They pin the labeled CLI streams, the Monte-Carlo partitions, the sampler and the min_rank trials, the analyze
    # runs' pseudoinverse, constrained bound, constraint and report, each run's certificates or traces, and each
    # run's manifest: its setting lines are those its command reads, and its input or model branch follows the kind
    # of input. Last, the seed derivation matches numpy's SeedSequence. CHANGES.md gives the reason for each retake;
    # the last came when the Monte-Carlo J and experiment's constraints came to be drawn from --seed's own streams.
    config = tmp_path / "mc.cfg"
    config.write_text("model = blind_channel\nfim_method = monte_carlo\nsamples = 9000\n")
    assert main(["analyze", "--input", str(config), "--seed", "4", "--out", str(tmp_path / "a")]) == 0
    j_path = str(tmp_path / "a" / "j.matx")
    argv = ["experiment", "--input", j_path, "--count", "40", "--seed", "3", "--out", str(tmp_path / "e")]
    assert main(argv) == 0
    assert main(["certify", "--count", "5", "--seed", "11", "--out", str(tmp_path / "c")]) == 0
    # 40 constraints, twice the suite's 20 a matrix, from one draw of the sampler
    argv = ["certify", "--input", j_path, "--count", "40", "--seed", "2", "--out", str(tmp_path / "c2")]
    assert main(argv) == 0
    # a matrix input takes the manifest's input branch and writes j.matx with the manifest
    assert main(["analyze", "--input", j_path, "--out", str(tmp_path / "m")]) == 0
    # at rank_tol 0.02 J has rank 3, and t shrinks some draws to the edge c ||M||_F^2 = (1 - c / lambda_r) / 2
    argv = ["experiment", "--input", j_path, "--count", "40", "--seed", "3", "--rank-tol", "0.02"]
    assert main(argv + ["--out", str(tmp_path / "e2")]) == 0
    basis = ranked_svd(load_matrix(j_path), 0.02)
    cutoff, l_mats = basis.cutoff(basis.rank), chart_draws(basis, 40, 3)
    edge = np.isclose(cutoff * np.sum(l_mats**2 / basis.sigma, axis=(1, 2)), 0.5 * (1.0 - cutoff / basis.sigma[-1]))
    assert basis.rank == 3 and 0 < np.sum(edge) < 40
    outputs = ("a/j.matx", "a/analysis.csv", "a/j_pinv.matx", "a/crb_constrained.matx", "a/constraint.matx",
               "e/traces.csv", "e2/traces.csv", "c/certificates.csv", "c2/certificates.csv")
    outputs += ("m/j.matx", "m/analysis.csv", "m/j_pinv.matx", "m/crb_constrained.matx", "m/constraint.matx")
    outputs += ("e/j.matx", "c2/j.matx")
    outputs += tuple(f"{run}/manifest.cfg" for run in ("a", "e", "e2", "c", "c2", "m"))
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in outputs}
    assert digests == {
        "a/j.matx": "6ef7483a7f8a3f9e1ee9cf81af9eb1296faea83a4f9c99d0f5c420d37ad01716",
        "a/analysis.csv": "85cac659d8558f13026443997f3677334b55c674d4e2a679c1e0e1374fd83845",
        "a/j_pinv.matx": "f36edb17cc8969426099f48688e22e2ef0bc59224c6207defff8f6b2d16841e9",
        "a/crb_constrained.matx": "30486de7cd6b191e7ec298a89429c0b47a9600f10d73558bedecb92bbcf45d50",
        "a/constraint.matx": "870c9276d76d51ab7e6f7685ec73cbeb0db8586c4d6a2ce9f4f708842af55a5b",
        "e/traces.csv": "aa39649f95d592f8ea218c076744f778bc07e896abfe90434bdd89dc81e6a5f6",
        "e2/traces.csv": "32811668a8356e7df0db0e570c9feefe4982a543e5f8ab8a8acded28575f2173",
        "c/certificates.csv": "40d8972bddd1b152f09cc298af1477a3220f8033044c7cc4138aeb096e7d1a5b",
        "c2/certificates.csv": "97065103cd53dd6ae15a82829b22adf9d777be9131f3ae119bd051ac91296a33",
        "m/j.matx": "6ef7483a7f8a3f9e1ee9cf81af9eb1296faea83a4f9c99d0f5c420d37ad01716",
        "m/analysis.csv": "ce63f3ad2e5b3dff32d3dc413d285700178428b471596b2aaa012e90e5215c91",
        "m/j_pinv.matx": "f36edb17cc8969426099f48688e22e2ef0bc59224c6207defff8f6b2d16841e9",
        "m/crb_constrained.matx": "30486de7cd6b191e7ec298a89429c0b47a9600f10d73558bedecb92bbcf45d50",
        "m/constraint.matx": "beaf81c3a96990a60a445304d20684b6e95a4f975fcbc2bd5f5e662036d86540",
        "e/j.matx": "6ef7483a7f8a3f9e1ee9cf81af9eb1296faea83a4f9c99d0f5c420d37ad01716",
        "c2/j.matx": "6ef7483a7f8a3f9e1ee9cf81af9eb1296faea83a4f9c99d0f5c420d37ad01716",
        "a/manifest.cfg": "ddefabf55065f13b3cbd0aeebbbaca0c7e81c2095d5a3209fff9699119ee787b",
        "e/manifest.cfg": "c25b4625ddd4ee340cb21b0a6a2276018d1782ec7655922738782bb63337a79d",
        "e2/manifest.cfg": "eba451e13f98b2f196a4966ea6045baab78152d1b1464683fa70653b14154d83",
        "c/manifest.cfg": "893a5a51a220abfbf1823bd3791fb5eddaba6ff21e674f272db524d23b38cf91",
        "c2/manifest.cfg": "ee1f422e7a6bcdb467e77235cfc408a2db906f81e75931809e6b2c8f71fc8f2e",
        "m/manifest.cfg": "174c3846c2ca068833e2ff022a6d294601b342a97753550764e8558aa4f39e0d",
    }
    for key in [(), (3,), (1234, 5)]:
        old = np.random.SeedSequence(entropy=11, spawn_key=key).generate_state(4)
        assert np.array_equal(seed_sequence(11, *key).generate_state(4), old)


def certificates_from_streams(matrices, constraints_count):
    """certificates.csv of certify, from the verifiers, and min_rank's stage, called on inputs drawn as documented,
    one matrix and one qr at a time: matrix i's stream draws the Poincare frame, the equivalence mixes, the
    min_rank trials' row counts and Gaussian blocks, then the sampled constraints' column norms and directions, in
    that order."""
    parts = []
    for basis, rng in matrices:
        n, rank, m = basis.dim, basis.rank, basis.dim - basis.rank
        frame = orthonormal_columns(rng.standard_normal((n, rank)))
        mixes = orthonormal_columns(rng.standard_normal((3, m, m)))
        counts = rng.integers(0, m, size=5)
        draws = np.where(np.arange(m) < counts[:, None, None], rng.standard_normal((5, n, m)), 0.0)
        trials_q = np.linalg.qr(np.concatenate([draws, basis.u_bar[None]]), mode="complete")[0]
        (stack,) = _sample_stacks([basis], constraints_count, [rng])
        parts.append([
            verify_trace_bound(basis, stack),
            verify_eigen_dominance(basis, stack),
            verify_poincare(basis, frame),
            verify_constraint_equivalence(basis, mixes @ basis.u_bar.T),
            _min_rank_stage([basis], [trials_q], [counts.tolist() + [m]], DEFAULT_MARGIN_TOL),
        ])
    certificates = [merge_certificates(list(theorem)) for theorem in zip(*parts)] + [counterexample_check()]
    return certificates_to_csv(certificates)


def test_each_certify_matrix_draws_its_inputs_from_one_stream(tmp_path):
    # a suite matrix's stream ("certify-matrix", i) draws J first; certify --input draws from index 0. The
    # CLI takes one qr per matrix size for the J of a stage of 20 matrices and one for their other frames,
    # the reference one per matrix and draw: seed 6's 20 matrices have 5 sizes, at rank_tol 0.1 the factored
    # rank of some J is below the drawn one, and 45 matrices run in three stages
    suites = [(11, 4, DEFAULT_RANK_TOL_REL), (6, 20, DEFAULT_RANK_TOL_REL), (6, 20, 0.1), (6, 45, DEFAULT_RANK_TOL_REL)]
    for seed, count, tol in suites:
        out = tmp_path / f"s{seed}-{count}-{tol}"
        argv = ["certify", "--count", str(count), "--seed", str(seed), "--rank-tol", str(tol)]
        assert main(argv + ["--out", str(out)]) == 0
        streams = list(suite_streams(seed, count))
        matrices = [(ranked_svd(j, tol), rng) for j, _, rng in streams]
        assert (out / "certificates.csv").read_text() == certificates_from_streams(matrices, 20)
        assert count != 20 or len({j.dim for j, _, _ in streams}) == 5
        assert (tol == 0.1) == any(basis.rank < rank for (basis, _), (_, rank, _) in zip(matrices, streams))
    path = tmp_path / "j.matx"
    save_matrix(path, make_psd(np.random.default_rng(5), 6, 3))
    assert main(["certify", "--input", str(path), "--count", "40", "--seed", "3", "--out", str(tmp_path / "i")]) == 0
    matrices = [(ranked_svd(load_matrix(tmp_path / "i" / "j.matx")), derived_rng(3, "certify-matrix", 0))]
    assert (tmp_path / "i" / "certificates.csv").read_text() == certificates_from_streams(matrices, 40)


def test_one_padded_qr_per_size_gives_each_frame_of_the_unpadded_draws():
    # _suite_frames takes every matrix's Poincare frame, equivalence mixes and min_rank Q from one qr per size
    # of their zero-padded (10, n, n) blocks, signed so that R's diagonal is nonnegative; the reference
    # orthonormalizes each unpadded draw alone, min_rank's slots by a complete qr with their leading columns
    # signed by R's diagonal. The mixes and min_rank's Q are bit-identical; so are the frames up to n = 7, while
    # at n = 8 forming the padded block's complete Q moves some frames of rank 2, 3, 4 and 6 by at most 1.5 eps
    # (unit columns, 2,000 draws per rank on OpenBLAS), so 2 eps is asserted
    eps, worst = np.finfo(float).eps, 0.0
    for seed in range(10):
        matrices, reference = [], []
        for n in range(2, 9):
            for rank in range(1, n):
                basis = ranked_svd(random_rank_deficient_psd(n, rank, np.random.default_rng([seed, n, rank])))
                matrices.append((basis, np.random.default_rng([seed, n, rank, 1])))
                rng, m = np.random.default_rng([seed, n, rank, 1]), n - rank
                frame = orthonormal_columns(rng.standard_normal((n, rank)))
                mixes = orthonormal_columns(rng.standard_normal((3, m, m)))
                slots, rows = min_rank_trials(basis, 5, rng)
                trials_q, r = np.linalg.qr(slots[:, :, :m], mode="complete")
                trials_q[:, :, :m] *= np.where(np.diagonal(r, axis1=1, axis2=2) < 0.0, -1.0, 1.0)[:, None, :]
                reference.append((frame, mixes, trials_q, rows))
        for (frame, mixes, trials_q, rows), want in zip(_suite_frames(matrices), reference, strict=True):
            assert np.array_equal(mixes, want[1]) and np.array_equal(trials_q, want[2]) and rows == want[3]
            assert frame.shape == want[0].shape
            worst = max(worst, np.abs(frame - want[0]).max() / eps)
    assert worst <= 2.0


def test_a_certify_suite_derives_one_stream_per_matrix(tmp_path, monkeypatch):
    # the shapes' stream, then per matrix its own stream, which draws its sampled constraints too: 21
    # derivations for 20 matrices, where four per matrix made 81, before the sampler came to draw from
    # the matrix's stream, three per matrix 61 and seven per matrix 141; certify --input derives its
    # one stream, index 0
    calls = []
    for name, module in list(sys.modules.items()):
        if name.startswith("crbkit") and hasattr(module, "seed_sequence"):
            real = module.seed_sequence
            monkeypatch.setattr(module, "seed_sequence", lambda *a, real=real: calls.append(a) or real(*a))
    for seed in (0, 6):
        calls.clear()
        assert main(["certify", "--count", "20", "--seed", str(seed), "--out", str(tmp_path / str(seed))]) == 0
        assert len(calls) == 21
    calls.clear()
    j_path = str(write_diag_matrix(tmp_path))
    assert main(["certify", "--input", j_path, "--count", "20", "--out", str(tmp_path / "i")]) == 0
    assert len(calls) == 1


def test_monte_carlo_whitening_keeps_the_benchmark_outputs(tmp_path):
    # the benchmark's Monte-Carlo config; at noise_var = 0.5 whitening G by sigma rounds, and
    # these digests, taken when G was whitened by a solve against the Cholesky factor of the
    # noise covariance, pin that rounding; at seed 2, G / sigma differs from G * (1 / sigma)
    # in 9 of the Jacobian's 30 entries; analysis.csv's digest was retaken when J came to be
    # factored by one eigh, which moves its singular values and bounds by roundoff, when
    # the constrained bound came to be formed from U'J_rU, which moves it by 8e-15 relative,
    # and when J came to be factored with no clip of its least eigenvalue and the constraint's
    # offset to vanish at theta; both digests were retaken then, and again when the Monte-Carlo
    # J came to be drawn from the streams of --seed itself, not of an integer derived from it
    config = tmp_path / "mc.cfg"
    config.write_text(
        "model = blind_channel\ns_len = 3\nh_len = 3\nnoise_var = 0.5\n"
        "fim_method = monte_carlo\nsamples = 10000\n"
    )
    assert main(["analyze", "--input", str(config), "--seed", "2", "--out", str(tmp_path / "a")]) == 0
    digests = {
        name: hashlib.sha256((tmp_path / "a" / name).read_bytes()).hexdigest()
        for name in ("j.matx", "analysis.csv")
    }
    assert digests == {
        "j.matx": "f538d0f83f0bd1b4884c702e911fbceb515a609f114650a8bf79047dcbfa6b5b",
        "analysis.csv": "b3672715b9e55020d1eceeaefcabfcd45a6141ac1a6a0f213a23f8cdc2b9e5b4",
    }


def test_experiment_keeps_its_bytes_at_the_benchmark_shape(tmp_path):
    # a 32 x 32 rank-16 J, the experiment_wide shape: 100 rows of 17-digit traces and margins,
    # a 32-column j.matx and its manifest; digests taken before the CSV rows and the matx rows
    # came to be formatted with one % call each, and traces.csv's retaken when the sampler came to
    # draw each constraint in J's chart, and again when it came to draw each constraint's squared
    # column norms, chi^2(n - r), in place of its (n - r, r) normals, and again when experiment
    # came to draw its constraints from the stream of --seed itself
    save_matrix(tmp_path / "wide.matx", make_psd(np.random.default_rng(32), 32, 16))
    argv = ["experiment", "--input", str(tmp_path / "wide.matx"), "--count", "100", "--seed", "7"]
    assert main(argv + ["--out", str(tmp_path / "e")]) == 0
    digests = {
        name: hashlib.sha256((tmp_path / "e" / name).read_bytes()).hexdigest()
        for name in ("traces.csv", "j.matx", "manifest.cfg")
    }
    assert digests == {
        "traces.csv": "0bc58726179107dcf4e639c41d490f617a2cc0ab8f982ea731682501b768d622",
        "j.matx": "acbecc7739d845219311320dce136a816bbdbc3496433ff92810a096a5d98f1b",
        "manifest.cfg": "1e5e25f85510744b87cfe4a5981a5fe78933cd0f35b4d3d0ce5fb489c00c8564",
    }


def test_analyze_singular_matrix(tmp_path):
    j = write_diag_matrix(tmp_path)
    out = tmp_path / "run"
    assert main(["analyze", "--input", str(j), "--out", str(out)]) == 0

    csv = (out / "analysis.csv").read_text()
    assert csv.startswith("# crb-kit v1\n")
    assert "rank,1" in csv
    assert "nullity,1" in csv
    assert "singular_fim_warning,true" in csv
    assert "trace_pinv,0.5" in csv
    assert "trace_constrained,0.5" in csv
    assert "constraint,optimal-affine" in csv

    assert np.allclose(load_matrix(out / "j_pinv.matx"), np.diag([0.5, 0.0]))
    assert np.array_equal(load_matrix(out / "j.matx"), np.diag([2.0, 0.0]))
    constraint_lines = (out / "constraint.matx").read_text().splitlines()
    assert constraint_lines[0] == "1 2"
    assert (out / "manifest.cfg").exists()


def test_analyze_full_rank_notes_no_constraint(tmp_path):
    path = write_identity_matrix(tmp_path)
    out = tmp_path / "run"
    assert main(["analyze", "--input", str(path), "--out", str(out)]) == 0
    csv = (out / "analysis.csv").read_text()
    assert "singular_fim_warning,false" in csv
    assert "constraint,none" in csv
    assert "no constraint needed" in csv
    assert np.allclose(load_matrix(out / "j_pinv.matx"), np.eye(2))
    assert not (out / "constraint.matx").exists()


def test_analyze_blind_channel_config(tmp_path):
    cfg = tmp_path / "model.cfg"
    cfg.write_text("model = blind_channel\ns_len = 3\nh_len = 3\nnoise_var = 1\nseed = 7\n")
    out = tmp_path / "run"
    assert main(["analyze", "--input", str(cfg), "--out", str(out)]) == 0
    csv = (out / "analysis.csv").read_text()
    assert "n,6" in csv
    assert "nullity,1" in csv
    assert "fim_method,analytic" in csv
    manifest = (out / "manifest.cfg").read_text()
    assert "model = blind_channel" in manifest
    assert "theta = " in manifest


@pytest.mark.parametrize("fim_method", ["analytic", "monte_carlo"])
def test_a_model_runs_optimal_constraint_vanishes_at_its_theta(tmp_path, fim_method):
    # the constraint F theta + C vanished at theta = 0 for every input; F theta + C read -0.767 at
    # the manifest's theta of analyze --model blind_channel --seed 7
    cfg = tmp_path / "model.cfg"
    cfg.write_text(f"model = blind_channel\nfim_method = {fim_method}\n")
    assert main(["analyze", "--input", str(cfg), "--seed", "7", "--out", str(tmp_path / "a")]) == 0
    manifest = (tmp_path / "a" / "manifest.cfg").read_text().splitlines()
    theta = np.array(next(line for line in manifest if line.startswith("theta = ")).split()[2:], dtype=float)
    spec = load_constraint_spec(tmp_path / "a" / "constraint.matx")
    f_norm = np.linalg.norm(spec.f_jac)
    assert np.linalg.norm(spec.offset) > 0.5
    assert np.linalg.norm(spec.f_jac @ theta + spec.offset) <= 1e-14 * f_norm * np.linalg.norm(theta)


def test_analyze_monte_carlo_config(tmp_path):
    cfg = tmp_path / "mc.cfg"
    cfg.write_text(
        "model = gaussian_location\ndim = 2\nfim_method = monte_carlo\nsamples = 400\nseed = 5\n"
    )
    out = tmp_path / "run"
    assert main(["analyze", "--input", str(cfg), "--out", str(out)]) == 0
    csv = (out / "analysis.csv").read_text()
    assert "fim_method,monte_carlo" in csv
    assert "fim_samples,400" in csv
    assert "fim_std_err_bound," in csv
    assert "constraint,none" in csv


def test_model_manifest_rerun_is_bit_identical(tmp_path):
    cfg = tmp_path / "model.cfg"
    cfg.write_text("model = blind_channel\nseed = 3\n")
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(["analyze", "--input", str(cfg), "--out", str(out1)]) == 0
    assert main(["analyze", "--input", str(out1 / "manifest.cfg"), "--out", str(out2)]) == 0
    for name in ("analysis.csv", "j.matx", "j_pinv.matx", "constraint.matx", "crb_constrained.matx"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_matrix_manifest_rerun_is_bit_identical(tmp_path):
    j = write_diag_matrix(tmp_path)
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(["analyze", "--input", str(j), "--out", str(out1)]) == 0
    assert main(["analyze", "--input", str(out1 / "manifest.cfg"), "--out", str(out2)]) == 0
    assert (out1 / "analysis.csv").read_bytes() == (out2 / "analysis.csv").read_bytes()
    assert (out1 / "j.matx").read_bytes() == (out2 / "j.matx").read_bytes()


@pytest.mark.parametrize("command, output", [("certify", "certificates.csv"), ("experiment", "traces.csv")])
def test_matrix_manifest_rerun_of_certify_and_experiment(tmp_path, command, output):
    # the manifest's "input = j.matx" names a file written with it
    path = tmp_path / "in.matx"
    path.write_text("3 3\n2 0.5 0\n0.5 1 0\n0 0 0\n")
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main([command, "--input", str(path), "--count", "12", "--seed", "5", "--out", str(out1)]) == 0
    assert main([command, "--input", str(out1 / "manifest.cfg"), "--out", str(out2)]) == 0
    for name in (output, "j.matx", "manifest.cfg"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_every_setting_flag_reaches_the_manifest_and_reruns(tmp_path):
    # experiment reads all five settings and analyze three of them; each flag given is a manifest line, followed by
    # the input's lines: a matrix's j.matx, or a Monte-Carlo model whose J the rerun draws again
    j = write_diag_matrix(tmp_path)
    mc = tmp_path / "mc.cfg"
    mc.write_text("model = blind_channel\nfim_method = monte_carlo\n")
    flags = {
        "--seed": ("7", "seed = 7"), "--count": ("9", "count = 9"), "--samples": ("500", "samples = 500"),
        "--rank-tol": ("1e-8", "rank_tol = 1e-08"), "--margin-tol": ("1e-7", "margin_tol = 9.9999999999999995e-08"),
    }
    analyze = ("--seed", "--samples", "--rank-tol")
    bounds = ("analysis.csv", "j_pinv.matx", "constraint.matx", "crb_constrained.matx")
    runs = [
        ("experiment", j, tuple(flags), ("j.matx", "traces.csv")),
        ("analyze", j, analyze, ("j.matx",) + bounds),
        ("analyze", mc, analyze, bounds),
    ]
    for command, source, given, outputs in runs:
        out1, out2 = tmp_path / command / source.stem / "a", tmp_path / command / source.stem / "b"
        argv = [arg for flag in given for arg in (flag, flags[flag][0])]
        assert main([command, "--input", str(source), *argv, "--out", str(out1)]) == 0
        manifest = (out1 / "manifest.cfg").read_text().splitlines()
        settings = [flags[flag][1] for flag in given]
        if source == j:
            assert manifest[3:] == settings + ["input = j.matx"]
        else:
            assert manifest[3:4 + len(given)] == settings + ["model = blind_channel"]
            assert "fim_method = monte_carlo" in manifest
        assert main([command, "--input", str(out1 / "manifest.cfg"), "--out", str(out2)]) == 0
        for name in ("manifest.cfg",) + outputs:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


BAD_SETTING_CASES = [
    (["certify", "--seed", "-1"], None, "seed must be nonnegative"),
    (["analyze", "--model", "blind_channel", "--seed", "-1"], None, "seed must be nonnegative"),
    (["analyze"], "model = blind_channel\nseed = -2\n", "seed must be nonnegative"),
    (["certify", "--count", "1", "--samples", "0"], None, "samples must be positive"),
    (["analyze", "--model", "blind_channel", "--samples", "-5"], None, "samples must be positive"),
    (["analyze"], "model = blind_channel\nsamples = 0\n", "samples must be positive"),
    # the Monte-Carlo floor is fim_monte_carlo's, checked as the model's J is drawn
    (["analyze"], "model = blind_channel\nfim_method = monte_carlo\nsamples = 50\n", "n_samples must be at least 100"),
]


@pytest.mark.parametrize(
    "argv, config, rule",
    BAD_SETTING_CASES,
    # ids name the argv and config columns only, as pytest would name a two-column case
    ids=[f"argv{i}-{config}" for i, (_, config, _) in enumerate(BAD_SETTING_CASES)],
)
def test_negative_seed_exits_2(tmp_path, capsys, argv, config, rule):
    # a seed below 0 or a sample count below 1, or below 100 for Monte Carlo, from a flag or a
    # config file; the value comes last
    value = config.split()[-1] if config else argv[-1]
    if config is not None:
        path = tmp_path / "neg.cfg"
        path.write_text(config)
        argv = argv + ["--input", str(path)]
    assert main(argv + ["--out", str(tmp_path / "o")]) == 2
    stage = "reading input" if rule.startswith("n_samples") else "resolving configuration"
    assert capsys.readouterr().err == f"error: {stage}: {rule}, got {value}\n"
    # --out is made once the config resolves, so a refusal while reading input leaves it behind, empty
    made = stage == "reading input"
    assert (tmp_path / "o").exists() == made
    assert not made or not any((tmp_path / "o").iterdir())


@pytest.mark.parametrize("value", ["inf", "1e400"])
@pytest.mark.parametrize("key", ["rank_tol", "margin_tol"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_non_finite_tolerance_exits_2(tmp_path, capsys, source, key, value):
    # an infinite margin_tol would pass every certificate and an infinite rank_tol rank J 0
    j = write_diag_matrix(tmp_path)
    if source == "flag":
        argv = ["certify", "--input", str(j), "--" + key.replace("_", "-"), value]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"input = j.matx\n{key} = {value}\n")
        argv = ["certify", "--input", str(cfg)]
    assert main(argv + ["--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"error: resolving configuration: {key} must be finite, got inf\n"
    assert not (tmp_path / "o").exists()


def test_repeated_main_calls_are_independent(tmp_path, capsys):
    # every main call in a process shares one parser; no call may leave a value for the next
    build_parser.cache_clear()
    j = write_diag_matrix(tmp_path)
    assert main(["analyze", "--input", str(j), "--seed", "5", "--out", str(tmp_path / "a")]) == 0
    assert main(["analyze", "--input", str(j), "--out", str(tmp_path / "b")]) == 0
    assert "seed = 5" in (tmp_path / "a" / "manifest.cfg").read_text().splitlines()
    assert "seed = 0" in (tmp_path / "b" / "manifest.cfg").read_text().splitlines()
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--input", str(j), "--seed", "five"])
    assert exc.value.code == 2
    assert main(["analyze", "--input", str(j), "--out", str(tmp_path / "c")]) == 0
    assert (tmp_path / "c" / "manifest.cfg").read_bytes() == (tmp_path / "b" / "manifest.cfg").read_bytes()
    info = build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 3)


@pytest.mark.parametrize("input_name", ["utf8.matx", "binary.matx", "ref.cfg"])
def test_non_ascii_input_exits_2(tmp_path, capsys, input_name):
    (tmp_path / "utf8.matx").write_bytes("2 2\n# caf\u00e9\n2 0\n0 0\n".encode("utf-8"))
    (tmp_path / "binary.matx").write_bytes(bytes(range(256)))
    (tmp_path / "ref.cfg").write_text("input = utf8.matx\n")
    argv = ["analyze", "--input", str(tmp_path / input_name), "--out", str(tmp_path / "o")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: resolving configuration: 'ascii' codec can't decode byte ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("fim_method", ["analytic", "monte_carlo"])
@pytest.mark.parametrize("theta", ["nan 1 1 1 1 1", "1 1 inf 1 1 1", "1 1 1 1 1 -inf"])
def test_non_finite_theta_exits_2(tmp_path, capsys, theta, fim_method):
    cfg = tmp_path / "theta.cfg"
    cfg.write_text(f"model = blind_channel\nfim_method = {fim_method}\ntheta = {theta}\n")
    assert main(["analyze", "--input", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err == f"error: resolving configuration: config key theta has non-finite entries: {theta!r}\n"


@pytest.mark.parametrize("noise_var", ["inf", "nan", "-1"])
def test_non_finite_or_negative_noise_var_exits_2(tmp_path, capsys, noise_var):
    cfg = tmp_path / "noise.cfg"
    cfg.write_text(f"model = blind_channel\nnoise_var = {noise_var}\n")
    assert main(["analyze", "--input", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err == f"error: reading input: noise_var must be positive and finite, got {float(noise_var)}\n"


def test_flags_override_config_values(tmp_path):
    cfg = tmp_path / "model.cfg"
    cfg.write_text("model = blind_channel\nseed = 3\n")
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(["analyze", "--input", str(cfg), "--out", str(out1)]) == 0
    assert main(["analyze", "--input", str(cfg), "--seed", "4", "--out", str(out2)]) == 0
    assert "seed = 4" in (out2 / "manifest.cfg").read_text()
    assert (out1 / "j.matx").read_text() != (out2 / "j.matx").read_text()


@pytest.mark.parametrize(
    "config, params",
    [
        ("model = gaussian_location\ndim = 3\nnoise_var = 2\n", "dim = 3\nnoise_var = 2\n"),
        ("model = blind_channel\nh_len = 2\n", "s_len = 3\nh_len = 2\nnoise_var = 1\n"),
    ],
)
def test_model_manifest_lists_the_model_parameters(tmp_path, config, params):
    cfg = tmp_path / "model.cfg"
    cfg.write_text(config)
    assert main(["analyze", "--input", str(cfg), "--out", str(tmp_path / "o")]) == 0
    lines = (tmp_path / "o" / "manifest.cfg").read_text().splitlines(keepends=True)
    assert lines[:6] == [
        "# crb-kit v1 manifest\n", "command = analyze\n", f"version = {crbkit.__version__}\n",
        "seed = 0\n", "samples = 10000\n", "rank_tol = 1e-10\n",
    ]
    model = config.splitlines(keepends=True)[0]
    assert "".join(lines[6:-1]) == model + params + "fim_method = analytic\n"
    assert lines[-1].startswith("theta = ")


@pytest.mark.parametrize(
    "config, key, where",
    [
        ("model = gaussian_location\ns_len = 9\n", "s_len", "to model gaussian_location"),
        ("model = blind_channel\ndim = 9\n", "dim", "to model blind_channel"),
        ("input = j.matx\ns_len = 5\n", "s_len", "without a model"),
        ("input = j.matx\nfim_method = monte_carlo\ntheta = 1 2\n", "fim_method", "without a model"),
        ("seed = 3\ntheta = 1 2\n", "theta", "without a model"),
    ],
)
def test_config_key_that_does_not_apply_exits_2(tmp_path, capsys, config, key, where):
    # a key that the run would drop, and so leave out of its manifest, is refused
    save_matrix(tmp_path / "j.matx", np.diag([2.0, 1.0, 0.0]))
    cfg = tmp_path / "stray.cfg"
    cfg.write_text(config)
    assert main(["analyze", "--input", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"error: resolving configuration: config key {key!r} does not apply {where}\n"
    assert not (tmp_path / "o" / "manifest.cfg").exists()


@pytest.mark.parametrize(
    "text, message",
    [
        (
            "model = blind_channel\nseed = 3 # x\n",
            "resolving configuration: config key seed is not an integer: '3 # x'",
        ),
        (
            "model = blind_channel\nsamples = 2.5\n",
            "resolving configuration: config key samples is not an integer: '2.5'",
        ),
        (
            "model = blind_channel\nfim_method = bogus\n",
            "resolving configuration: fim_method must be analytic or monte_carlo, got 'bogus'",
        ),
        ("model = blind_channel\nseed 3\n", "resolving configuration: config line 2 is not 'key = value': 'seed 3'"),
        (
            "model = blind_channel\ntheta = 1 x 2 3 4 5\n",
            "resolving configuration: config key theta is not a vector: '1 x 2 3 4 5'",
        ),
        ("model = blind_channel\ntheta = 1 2\n", "reading input: theta has length 2, model needs 6"),
        # a file of comments is no config, so it is read as a matrix
        ("# only a comment\n", "resolving configuration: matx: header must be 'n m', got '# only a comment'"),
    ],
    ids=["seed-comment", "samples-float", "fim-method", "no-equals", "theta-word", "theta-length", "comment-only"],
)
def test_malformed_config_value_exits_2(tmp_path, capsys, text, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    assert main(["analyze", "--input", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "o" / "manifest.cfg").exists()


def test_unknown_model_in_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("model = nosuch\n")
    assert main(["analyze", "--input", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err == (
        "error: resolving configuration: unknown model 'nosuch'; "
        "choose from ('blind_channel', 'gaussian_location')\n"
    )


def test_malformed_matrix_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.matx"
    bad.write_text("2 2\n1 2\n3 oops\n")
    assert main(["analyze", "--input", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert "error:" in capsys.readouterr().err


def test_missing_input_file_exits_2(tmp_path):
    absent = tmp_path / "absent.matx"
    assert main(["analyze", "--input", str(absent), "--out", str(tmp_path / "o")]) == 2


def test_analyze_without_input_exits_2(tmp_path, capsys):
    assert main(["analyze", "--out", str(tmp_path / "o")]) == 2
    assert "requires --input or --model" in capsys.readouterr().err


def test_both_input_and_model_exit_2(tmp_path):
    j = write_diag_matrix(tmp_path)
    code = main(
        ["analyze", "--input", str(j), "--model", "blind_channel", "--out", str(tmp_path / "o")]
    )
    assert code == 2


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("modle = blind_channel\n")
    assert main(["analyze", "--input", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "unknown config key" in capsys.readouterr().err


def test_config_key_given_twice_exits_2(tmp_path, capsys):
    cfg = tmp_path / "twice.cfg"
    cfg.write_text("model = blind_channel\n# a comment\nseed = 3\nseed = 4\n")
    assert main(["analyze", "--input", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err == "error: resolving configuration: config key 'seed' is given twice, on lines 3 and 4\n"
    assert not (tmp_path / "o" / "analysis.csv").exists()


def test_config_with_model_and_input_exits_2(tmp_path):
    cfg = tmp_path / "both.cfg"
    cfg.write_text("model = blind_channel\ninput = j.matx\n")
    assert main(["analyze", "--input", str(cfg), "--out", str(tmp_path / "o")]) == 2


def recorded_trace_bounds(monkeypatch):
    """The (basis, stack, certificate) of every matrix whose trace bound certify checks, in order; the certificate
    is verify_trace_bound's of that matrix alone, whose margins its stage's certificate holds."""
    calls, real = [], crbkit.verify._trace_bound_stage

    def stage(bases, stacks, tol):
        calls.extend((basis, stack, real([basis], [stack], tol)) for basis, stack in zip(bases, stacks))
        return real(bases, stacks, tol)

    monkeypatch.setattr(crbkit.verify, "_trace_bound_stage", stage)
    return calls


def test_certify_probes_come_within_1e_4_of_the_pseudoinverse_trace_on_every_matrix(tmp_path, monkeypatch):
    # the sampler's smallest step, 1e-3, gives trace gaps ||M||_F^2 about 1e-6 of tr J+; under the
    # Haar-uniform law only 12.5% of J had one of 20 samples within 1% of it
    calls = recorded_trace_bounds(monkeypatch)
    for seed in range(5):
        assert main(["certify", "--count", "20", "--seed", str(seed), "--out", str(tmp_path / str(seed))]) == 0
    assert len(calls) == 100
    for basis, stack, _ in calls:
        assert 0.0 <= min(bound_traces(stack)) / basis.pinv.trace - 1.0 <= 1e-4


def test_certify_catches_a_pseudoinverse_one_percent_too_large(tmp_path, monkeypatch, capsys):
    # with J+ overstated by 1%, every J's near-optimal probes fall below its trace, so trace_bound
    # fails with witnesses of all 20 J (7 of 8 J passed it under the Haar-uniform law)
    real = RankedSvd.pinv.func
    monkeypatch.setattr(RankedSvd, "pinv", property(lambda basis: SymMatrix(1.01 * real(basis).entries)))
    calls = recorded_trace_bounds(monkeypatch)
    out = tmp_path / "o"
    assert main(["certify", "--count", "20", "--seed", "5", "--out", str(out)]) == 4
    assert "trace_bound: FAILED" in capsys.readouterr().out
    assert len(calls) == 20 and not any(cert.passed for _, _, cert in calls)
    witnessed = {path.read_bytes() for path in (out / "witnesses").glob("trace_bound_*_j.matx")}
    assert len(witnessed) == 20


def test_certify_suite_passes_and_prints_per_theorem(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["certify", "--count", "4", "--seed", "1", "--out", str(out)]) == 0

    lines = (out / "certificates.csv").read_text().splitlines()
    assert lines[0] == "# crb-kit v1"
    assert lines[1] == "theorem_id,passed,n_cases,worst_margin,detail"
    assert len(lines) == 8
    names = [line.split(",")[0] for line in lines[2:]]
    assert names == [
        "trace_bound",
        "eigen_dominance",
        "poincare",
        "equivalence",
        "min_rank",
        "counterexample",
    ]
    for line in lines[2:]:
        assert line.split(",")[1] == "true"
    assert "min_eigenvalue=-0.618" in lines[-1]
    assert not (out / "witnesses").exists()

    stdout = capsys.readouterr().out
    for name in names:
        assert f"{name}: passed" in stdout


def test_certify_passes_at_minus_its_worst_margin_and_fails_one_ulp_below(tmp_path):
    # certify --count 3 --seed 0 has equivalence worst margin w = -2.86e-15; the pass rule keeps a margin
    # equal to -margin_tol, so the run passes at margin_tol = -w and fails at the next double toward zero
    argv = ["certify", "--count", "3", "--seed", "0"]

    def passed_column(out):
        return {row.split(",")[0]: row.split(",")[1] for row in (out / "certificates.csv").read_text().splitlines()[2:]}

    assert main(argv + ["--out", str(tmp_path / "a")]) == 0
    rows = [row.split(",") for row in (tmp_path / "a" / "certificates.csv").read_text().splitlines()[2:]]
    worst = float(dict((row[0], row[3]) for row in rows)["equivalence"])
    assert -2.87e-15 < worst < -2.85e-15
    out = tmp_path / "at"
    assert main(argv + ["--margin-tol", repr(-worst), "--out", str(out)]) == 0
    assert set(passed_column(out).values()) == {"true"} and not (out / "witnesses").exists()
    out = tmp_path / "below"
    assert main(argv + ["--margin-tol", repr(float(np.nextafter(-worst, 0.0))), "--out", str(out)]) == 4
    column = passed_column(out)
    assert column.pop("equivalence") == "false" and set(column.values()) == {"true"}
    notes = sorted((out / "witnesses").glob("*.txt"))
    assert notes and all(note.name.startswith("equivalence_") for note in notes)
    assert all(f"margin: {format_float(worst)}\n" in note.read_text() for note in notes)


def test_equivalence_witnesses_replay_their_margins(tmp_path):
    # at margin_tol 1e-320 every equivalence case of 3 matrices is a witness; each one's J and F, read back,
    # give exactly the margin its note records
    out = tmp_path / "w"
    assert main(["certify", "--count", "3", "--seed", "0", "--margin-tol", "1e-320", "--out", str(out)]) == 4
    notes = sorted((out / "witnesses").glob("equivalence_*.txt"))
    assert len(notes) == 9
    for note in notes:
        stem = str(note)[: -len(".txt")]
        j, f_jac = load_matrix(stem + "_j.matx"), load_matrix(stem + "_f_jac.matx")
        cert = verify_constraint_equivalence(j, [f_jac], -np.inf)
        assert f"margin: {format_float(cert.margins[0])}\n" in note.read_text()
        assert cert.margins[0] == cert.witnesses[0].margin


def test_a_reused_out_keeps_no_output_of_an_earlier_run(tmp_path, capsys, monkeypatch):
    # a run's first write removes every output that an earlier run of any command left in --out, and nothing else:
    # after each run the reused --out holds the names and bytes of the same run into a fresh --out, and a file that
    # no command writes. A run refused before its outputs leaves --out byte for byte as it was
    read_files = load_tool(CLI_DIGEST).read_files
    for name, diagonal in (("singular", [2.0, 1.0, 0.0]), ("full", [2.0, 1.0, 0.5]), ("indefinite", [1.0, -1.0, 0.0])):
        save_matrix(tmp_path / f"{name}.matx", np.diag(diagonal))
    singular, full = ["--input", str(tmp_path / "singular.matx")], ["--input", str(tmp_path / "full.matx")]
    suite = ["certify", "--count", "3", "--seed", "3"]
    runs = [
        (["experiment", *singular, "--count", "5"], 0),
        (["analyze", *singular], 0),
        ([*suite, "--margin-tol", "1e-320"], 4),
        (["experiment", *singular, "--count", "5"], 0),
        (["analyze", *full], 0),
        (["analyze", *singular], 0),
        ([*suite, "--margin-tol", "1e-320"], 4),
        (suite, 0),
    ]
    out = tmp_path / "reused"
    out.mkdir()
    (out / "notes.txt").write_text("kept\n")
    for index, (argv, code) in enumerate(runs):
        assert main([*argv, "--out", str(out)]) == code, argv
        assert main([*argv, "--out", str(tmp_path / f"fresh-{index}")]) == code, argv
        assert read_files(out) == read_files(tmp_path / f"fresh-{index}") | {"notes.txt": b"kept\n"}, argv
    assert (tmp_path / "fresh-6" / "witnesses").is_dir()
    capsys.readouterr()

    def fail(*args):
        raise np.linalg.LinAlgError("stage failed")

    # the refused runs: a rank_tol that zeroes every eigenvalue, an indefinite J, and a failure in a certify stage
    # and in analyze's constrained bound, each after J is factored
    monkeypatch.setattr(crbkit.cli, "_certify_stage", fail)
    monkeypatch.setattr(crbkit.cli, "constrained_crb", fail)
    refusals = [
        (["analyze", *full, "--rank-tol", "0.5"], 2, "error: checking rank_tol: "),
        (["analyze", "--input", str(tmp_path / "indefinite.matx")], 2, "error: reading input: "),
        (suite, 3, "error: linear algebra failure: stage failed"),
        (["analyze", *singular], 3, "error: linear algebra failure: stage failed"),
    ]
    before = read_files(out)
    for argv, code, err in refusals:
        assert main([*argv, "--out", str(out)]) == code, argv
        assert capsys.readouterr().err.startswith(err)
        assert read_files(out) == before, argv
    monkeypatch.undo()
    # a stale file at the name of the witnesses directory is removed like any other output
    stale = tmp_path / "stale"
    stale.mkdir()
    (stale / "witnesses").write_text("stale\n")
    assert main([*suite, "--margin-tol", "1e-320", "--out", str(stale)]) == 4
    assert read_files(stale) == read_files(tmp_path / "fresh-6")


def test_main_keeps_no_state_between_runs(tmp_path):
    # twelve commands through main twice in one process, the second pass in reverse order, each into its own fresh
    # --out: every run gives the same exit code, stdout, stderr and files, whatever ran before it
    digest = load_tool(CLI_DIGEST)
    inputs = {
        "singular.matx": np.diag([2.0, 1.0, 0.0]),
        "full.matx": np.diag([2.0, 1.0, 0.5]),
        "indefinite.matx": np.diag([1.0, -1.0, 0.0]),
        "mc.cfg": "model = blind_channel\nfim_method = monte_carlo\nsamples = 500\n",
    }
    commands = [
        ["analyze", "--input", "{tmp}/singular.matx"],
        ["analyze", "--model", "blind_channel"],
        ["analyze", "--input", "{tmp}/mc.cfg", "--seed", "2"],
        ["analyze", "--input", "{tmp}/full.matx"],
        ["certify", "--count", "2", "--seed", "1"],
        ["certify", "--count", "3", "--seed", "3", "--margin-tol", "1e-320"],
        ["certify", "--input", "{tmp}/singular.matx", "--count", "5"],
        ["experiment", "--input", "{tmp}/singular.matx", "--count", "20"],
        ["experiment", "--input", "{tmp}/mc.cfg", "--count", "10"],
        ["analyze", "--input", "{tmp}/indefinite.matx"],
        ["certify", "--input", "{tmp}/full.matx"],
        ["analyze", "--count", "3"],
    ]
    passes = []
    for name, order in (("first", range(len(commands))), ("second", reversed(range(len(commands))))):
        directory = tmp_path / name
        directory.mkdir()
        digest.write_inputs(directory, inputs)
        results = {}
        for i in order:
            out = directory / f"out-{i}"
            results[i] = (*digest.sweep_run(main, commands[i], directory, out), digest.read_files(out))
        passes.append(results)
    assert passes[0] == passes[1]
    assert sorted({code for code, *_ in passes[0].values()}) == ["0", "2", "4", "argparse"]


def test_certify_rerun_is_byte_identical(tmp_path):
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    assert main(["certify", "--count", "3", "--seed", "9", "--out", str(out1)]) == 0
    assert main(["certify", "--count", "3", "--seed", "9", "--out", str(out2)]) == 0
    assert (out1 / "certificates.csv").read_bytes() == (out2 / "certificates.csv").read_bytes()
    out3 = tmp_path / "r3"
    assert main(["certify", "--count", "3", "--seed", "10", "--out", str(out3)]) == 0
    assert (out1 / "certificates.csv").read_bytes() != (out3 / "certificates.csv").read_bytes()


def test_certify_suite_reruns_from_its_manifest(tmp_path, capsys):
    # a suite run's manifest names neither a model nor an input matrix; such a config reruns
    # the suite, and analyze or experiment refuse it: analyze by the count it does not read
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["certify", "--count", "2", "--seed", "4", "--rank-tol", "1e-9", "--out", str(out1)]) == 0
    assert main(["certify", "--input", str(out1 / "manifest.cfg"), "--out", str(out2)]) == 0
    for name in ("certificates.csv", "manifest.cfg"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    capsys.readouterr()
    rules = {
        "analyze": "config key 'count' does not apply to analyze",
        "experiment": "experiment requires --input or --model naming a matrix or a model",
    }
    for command, rule in rules.items():
        assert main([command, "--input", str(out1 / "manifest.cfg"), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: resolving configuration: {rule}\n"


def test_certify_at_a_loose_rank_tol_builds_its_equivalence_mixes(tmp_path):
    # orthonormal mixes of U_bar' keep its orthonormal rows, so no mix fails the row-rank test
    assert main(["certify", "--count", "5", "--seed", "2", "--rank-tol", "0.01", "--out", str(tmp_path / "o")]) == 0


def test_certify_reads_the_equivalence_mixes_row_rank_from_unit_singular_values(tmp_path, capsys):
    # a few ulp below 1/8 the svd gave some mixes' unit singular values as 1 - a few ulp, at or below
    # the cutoff, and certify exited 3 at 7 of these seeds (14, 16, 25, 28, 30, 33 and 34)
    argv = ["certify", "--count", "2", "--rank-tol", "0.12499999999999999"]
    for seed in range(40):
        assert main(argv + ["--seed", str(seed), "--out", str(tmp_path / str(seed))]) == 0, capsys.readouterr().err


def refusal(tol: str, n: int) -> str:
    """The rank rule's refusal of a rank_tol_rel of 1/n or more, as matlin words it."""
    return f"rank_tol_rel {tol} gives every {n} x {n} matrix rank 0; {n} * rank_tol_rel must be below 1"


@pytest.mark.parametrize("command", [["analyze"], ["experiment", "--count", "30"], ["certify", "--count", "20"]])
def test_rank_tol_that_ranks_every_matrix_zero_exits_2(tmp_path, capsys, command):
    # the rank rule keeps |lambda| > |lambda|_max * n * rank_tol, so from 1/n on it keeps none
    path = tmp_path / "j.matx"
    path.write_text("3 3\n1 0 0\n0 0 0\n0 0 0\n")
    below, above = (repr(float(np.nextafter(1 / 3, to))) for to in (0, 1))
    assert main(command + ["--input", str(path), "--rank-tol", below, "--out", str(tmp_path / "a")]) == 0
    capsys.readouterr()
    assert main(command + ["--input", str(path), "--rank-tol", above, "--out", str(tmp_path / "b")]) == 2
    err = capsys.readouterr().err
    assert err == f"error: checking rank_tol: {refusal(above, 3)}\n"
    assert not (tmp_path / "b" / "manifest.cfg").exists()


@pytest.mark.parametrize("n", [4, 8])
def test_analyze_keeps_the_optimal_constraint_one_ulp_below_one_over_n(tmp_path, capsys, n):
    # the optimal constraint's rows are orthonormal, but the svd gave some of their unit singular values
    # as 1 - a few ulp, at or below the cutoff, and analyze exited 3 on 118 of 120 such random J; the rows
    # of diag(1, 0, 0)'s null basis are exact, so it needs a rotated J to show
    tol = repr(float(np.nextafter(1 / n, 0)))
    rng = np.random.default_rng(n)
    for i in range(10):
        path = tmp_path / f"j{i}.matx"
        crbkit.save_matrix(path, make_psd(rng, n, int(rng.integers(1, n))))
        out = tmp_path / f"o{i}"
        argv = ["analyze", "--input", str(path), "--rank-tol", tol, "--out", str(out)]
        assert main(argv) == 0, capsys.readouterr().err
        assert "\nconstraint_exists,true\n" in (out / "analysis.csv").read_text()


def test_certify_suite_checks_rank_tol_against_each_matrix(tmp_path, capsys):
    # seed 41 draws matrices of sizes 3, 2 and 2, so a rank_tol up to just below 1/3 passes,
    # where one check against the largest size a suite can draw, 8, would refuse 0.2
    argv = ["certify", "--count", "3", "--seed", "41", "--rank-tol"]
    for tol in ("0.2", repr(float(np.nextafter(1 / 3, 0)))):
        assert main(argv + [tol, "--out", str(tmp_path / "a")]) == 0
    capsys.readouterr()
    above = repr(float(np.nextafter(1 / 3, 1)))
    assert main(argv + [above, "--out", str(tmp_path / "b")]) == 2
    err = capsys.readouterr().err
    assert err == f"error: checking rank_tol: {refusal(above, 3)}\n"
    assert not (tmp_path / "b" / "certificates.csv").exists()


def test_rank_tol_refusal_comes_before_the_psd_refusal(tmp_path, capsys):
    # a rank rule that calls every eigenvalue zero cannot judge definiteness
    path = tmp_path / "indefinite.matx"
    path.write_text("2 2\n1 0\n0 -1\n")
    assert main(["analyze", "--input", str(path), "--rank-tol", "0.9", "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err == f"error: checking rank_tol: {refusal('0.90000000000000002', 2)}\n"


def test_certify_singular_matrix_input(tmp_path):
    j = write_diag_matrix(tmp_path)
    out = tmp_path / "run"
    assert main(["certify", "--input", str(j), "--count", "10", "--out", str(out)]) == 0
    lines = (out / "certificates.csv").read_text().splitlines()
    trace_row = next(line for line in lines if line.startswith("trace_bound,"))
    assert trace_row.split(",")[2] == "10"


def test_min_rank_passes_at_a_loose_cutoff_that_its_own_ratio_rule_failed(tmp_path):
    # at rank_tol 0.05 the rank rule's cutoff 0.728 calls 0.589 zero; min_rank judged U'JU by
    # mu_min / mu_max against rank_tol instead, called deficient trials nonsingular and exited 4 at
    # these seeds; now it judges U'J_rU by the one rule, the sampler's
    path = tmp_path / "j.matx"
    crbkit.save_matrix(path, np.diag([1.82, 1.8, 1.72, 1.36, 0.91, 0.82, 0.589, 0.0]))
    for seed in ("1", "2", "7"):
        argv = ["certify", "--input", str(path), "--count", "5", "--rank-tol", "0.05", "--seed", seed]
        assert main(argv + ["--out", str(tmp_path / seed)]) == 0
        rows = [line.split(",") for line in (tmp_path / seed / "certificates.csv").read_text().splitlines()[2:]]
        assert next(row for row in rows if row[0] == "min_rank")[1:3] == ["true", "6"]


def test_certify_completes_where_a_gaussian_min_rank_trial_was_rank_deficient(tmp_path):
    # at a loose rank cutoff J has rank 1, and a Gaussian Jacobian with four rows drawn for the
    # min_rank check failed the row-rank test (exit 3); its orthonormalized rows have singular
    # values of one, which a cutoff below 1/n keeps
    q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((6, 6)))
    path = tmp_path / "ill.matx"
    crbkit.save_matrix(path, (q * [1e3, 1.0, 1e-3, 0.0, 0.0, 0.0]) @ q.T)
    argv = ["certify", "--input", str(path), "--rank-tol", "0.05", "--count", "70", "--seed", "5"]
    assert main(argv + ["--out", str(tmp_path / "o")]) == 0
    rows = [line.split(",") for line in (tmp_path / "o" / "certificates.csv").read_text().splitlines()[2:]]
    min_rank = next(row for row in rows if row[0] == "min_rank")
    assert min_rank[1:3] == ["true", "6"] and float(min_rank[3]) > 0.04


def test_certify_names_the_certificate_that_cannot_be_built(tmp_path, capsys, monkeypatch):
    def cannot_build(*args):
        raise crbkit.NotMinimumConstraint("V'JV of frame 0 is numerically singular")

    monkeypatch.setattr(crbkit.verify, "_poincare_stage", cannot_build)
    assert main(["certify", "--count", "2", "--seed", "5", "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err == "error: certify matrix 0, poincare: V'JV of frame 0 is numerically singular\n"
    assert "Traceback" not in err


def test_a_nonsingular_suite_j_is_refused_by_matrix_and_theorem_in_matrix_order(tmp_path, capsys, monkeypatch):
    # no drawn J factors as nonsingular under a rank_tol the CLI accepts, so J is swapped for the identity;
    # the frames stage draws nothing for it and leaves the refusal to the verifiers, matrix by matrix
    real = crbkit.cli._random_psds

    def swapped(*indices):
        def draw(shapes):
            return [SymMatrix(np.eye(j.entries.shape[0])) if i in indices else j for i, j in enumerate(real(shapes))]

        monkeypatch.setattr(crbkit.cli, "_random_psds", draw)

    argv = ["certify", "--count", "4", "--seed", "5", "--out", str(tmp_path / "o")]
    swapped(1)
    assert main(argv) == 3
    refusal = "trace_bound: J is numerically nonsingular; minimum constraints are empty"
    assert capsys.readouterr().err == f"error: certify matrix 1, {refusal}\n"

    def cannot_build(*args):
        raise crbkit.NotMinimumConstraint("V'JV of frame 0 is numerically singular")

    # an earlier matrix's failure comes first
    swapped(2)
    monkeypatch.setattr(crbkit.verify, "_poincare_stage", cannot_build)
    assert main(argv) == 3
    assert capsys.readouterr().err == "error: certify matrix 0, poincare: V'JV of frame 0 is numerically singular\n"


def test_a_stage_reports_its_first_failing_matrix_before_a_later_ones_earlier_theorem(tmp_path, capsys, monkeypatch):
    # matrix 1's Poincare frame is not orthonormal, and matrix 2's J, swapped for the identity, is refused by its
    # sampler, which counts as its trace_bound; the stage's trace_bound check fails at matrix 2 before its poincare
    # check runs, yet matrix 1's poincare comes first, as when each matrix went through THEOREM_IDS in turn. The
    # frame is spoiled wherever matrix 1's J is framed, so the one-matrix retry, which draws its frames again, meets it
    real_psds, real_frames = crbkit.cli._random_psds, crbkit.verify._suite_frames
    j1 = list(suite_streams(5, 2))[1][0].entries

    def frames(matrices):
        drawn = real_frames(matrices)
        for i, (basis, _) in enumerate(matrices):
            if np.array_equal(basis.matrix.entries, j1):
                frame, *rest = drawn[i]
                drawn[i] = (1.01 * frame, *rest)
        return drawn

    monkeypatch.setattr(crbkit.cli, "_random_psds", lambda shapes: [
        SymMatrix(np.eye(j.dim)) if i == 2 else j for i, j in enumerate(real_psds(shapes))])
    monkeypatch.setattr(crbkit.verify, "_suite_frames", frames)
    assert main(["certify", "--count", "4", "--seed", "5", "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err == "error: certify matrix 1, poincare: v columns are not orthonormal\n"


def test_a_failed_stage_is_certified_again_on_the_constraints_it_drew(tmp_path, capsys, monkeypatch):
    # each matrix's stream draws its sampled constraints after its frames; a stage that fails is certified again
    # one matrix at a time from the streams' states before the sample, so the retry meets the constraints that
    # failed. Drawing on from where the stage left off, no retried stack is matrix 7's, and the report falls back
    # to the stage's first matrix
    argv = ["certify", "--count", "20", "--seed", "5", "--out", str(tmp_path / "o")]
    calls = recorded_trace_bounds(monkeypatch)
    assert main(argv) == 0
    planted = calls[7][1].f_jacs.tobytes()
    real = crbkit.verify._trace_bound_stage

    def stage(bases, stacks, tol):
        if any(stack.f_jacs.tobytes() == planted for stack in stacks):
            raise crbkit.CrbKitError("planted")
        return real(bases, stacks, tol)

    monkeypatch.setattr(crbkit.verify, "_trace_bound_stage", stage)
    capsys.readouterr()
    assert main(argv) == 3
    assert capsys.readouterr().err == "error: certify matrix 7, trace_bound: planted\n"


def test_a_suite_draws_each_stages_shapes_as_the_stage_starts(tmp_path, capsys, monkeypatch):
    # a suite of 100,000 matrices whose first stage fails draws no more than two stages' (n, rank) pairs; drawing
    # every pair before the first stage took 200,000 integers calls, 3 s and 70 MB at a count of 1,000,000
    calls, real = [], crbkit.cli.derived_rng

    class Counted:
        def __init__(self, rng):
            self.rng = rng

        def integers(self, *args):
            calls.append(args)
            return self.rng.integers(*args)

    def derived(seed, label, index=0):
        return Counted(real(seed, label, index)) if label == "certify-shapes" else real(seed, label, index)

    def fail(*args):
        raise crbkit.CrbKitError("certify matrix 0, trace_bound: refused")

    monkeypatch.setattr(crbkit.cli, "derived_rng", derived)
    monkeypatch.setattr(crbkit.cli, "_certify_stage", fail)
    assert main(["certify", "--count", "100000", "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err == "error: certify matrix 0, trace_bound: refused\n"
    assert 0 < len(calls) <= 2 * CERTIFY_STAGE


def test_certify_full_rank_input_exits_2(tmp_path, capsys):
    path = write_identity_matrix(tmp_path)
    assert main(["certify", "--input", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "nonsingular" in capsys.readouterr().err


def test_experiment_traces_dominate_baseline(tmp_path):
    j = write_diag_matrix(tmp_path)
    out = tmp_path / "run"
    code = main(
        ["experiment", "--input", str(j), "--count", "200", "--seed", "2", "--out", str(out)]
    )
    assert code == 0
    lines = (out / "traces.csv").read_text().splitlines()
    assert lines[0] == "# crb-kit v1"
    assert lines[1] == "# baseline_trace = 0.5"
    assert lines[2] == "sample_index,trace,margin"
    rows = [line.split(",") for line in lines[3:]]
    assert len(rows) == 200
    assert [r[0] for r in rows] == [str(i) for i in range(200)]
    traces = np.array([float(r[1]) for r in rows])
    margins = np.array([float(r[2]) for r in rows])
    assert traces.min() >= 0.5 - 1e-9
    assert np.allclose(margins, traces - 0.5, atol=1e-12)


def test_experiment_rerun_is_byte_identical(tmp_path):
    j = write_diag_matrix(tmp_path)
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(["experiment", "--input", str(j), "--count", "50", "--out", str(out1)]) == 0
    assert main(["experiment", "--input", str(j), "--count", "50", "--out", str(out2)]) == 0
    assert (out1 / "traces.csv").read_bytes() == (out2 / "traces.csv").read_bytes()


def test_an_experiments_first_traces_are_the_experiment_of_that_count(tmp_path):
    # experiment draws its column norms from one stream in draw order, so the first 20 rows of a run of 40 are
    # the rows of a run of 20, byte for byte, under the same baseline line
    path = tmp_path / "j.matx"
    save_matrix(path, make_psd(np.random.default_rng(9), 6, 3))
    lines = {}
    for count in ("40", "20"):
        argv = ["experiment", "--input", str(path), "--count", count, "--seed", "3", "--out", str(tmp_path / count)]
        assert main(argv) == 0
        lines[count] = (tmp_path / count / "traces.csv").read_bytes().splitlines(keepends=True)
    assert len(lines["40"]) == 43 and len(lines["20"]) == 23
    assert lines["40"][1].startswith(b"# baseline_trace = ")
    assert lines["40"][:23] == lines["20"]


def test_experiment_exits_3_on_a_trace_below_the_baseline_after_writing_its_outputs(tmp_path, capsys, monkeypatch):
    # sampled traces are never below tr J+ by more than roundoff, so the sampler is replaced by one whose are
    monkeypatch.setattr(crbkit.cli, "sample_constraint_traces", lambda basis, count, seed: np.full(count, -0.5))
    out = tmp_path / "o"
    argv = ["experiment", "--input", str(write_diag_matrix(tmp_path)), "--count", "3", "--out", str(out)]
    assert main(argv) == 3
    assert capsys.readouterr().err == "error: experiment: observed trace margin -1 below -margin_tol\n"
    lines = (out / "traces.csv").read_text().splitlines()
    assert lines[1:] == ["# baseline_trace = 0.5", "sample_index,trace,margin", "0,-0.5,-1", "1,-0.5,-1", "2,-0.5,-1"]
    assert (out / "manifest.cfg").is_file()


def test_experiment_exits_3_on_a_nan_trace_as_a_certificate_fails_one(tmp_path, capsys, monkeypatch):
    # one pass rule, verify.passes, for certify and experiment: NaN >= -margin_tol is false, where
    # experiment's own test, worst < -margin_tol, passed it and exited 0
    traces = lambda basis, count, seed: np.where(np.arange(count) == 1, np.nan, 1.0)
    monkeypatch.setattr(crbkit.cli, "sample_constraint_traces", traces)
    out = tmp_path / "o"
    argv = ["experiment", "--input", str(write_diag_matrix(tmp_path)), "--count", "3", "--out", str(out)]
    assert main(argv) == 3
    assert capsys.readouterr().err == "error: experiment: observed trace margin nan below -margin_tol\n"
    assert (out / "traces.csv").read_text().splitlines()[3:] == ["0,1,0.5", "1,nan,nan", "2,1,0.5"]


def test_experiment_full_rank_exits_2(tmp_path):
    path = write_identity_matrix(tmp_path)
    assert main(["experiment", "--input", str(path), "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("count", [10**18, 10**20])
@pytest.mark.parametrize("command, code, prefix", [
    ("experiment", 2, "sampling constraints"), ("certify", 3, "certify matrix 0, trace_bound"),
])
def test_a_count_numpy_cannot_allocate_ends_in_one_error_line(tmp_path, capsys, command, code, prefix, count):
    # the sampler draws a sample's (count, r) column norms whole and refuses, by its size, a draw numpy cannot
    # allocate (at least 8e18 bytes here, so nothing is allocated): experiment as for a nonsingular J, certify as
    # for its sampler's other refusals
    argv = [command, "--input", str(write_diag_matrix(tmp_path)), "--count", str(count), "--out", str(tmp_path / "o")]
    assert main(argv) == code
    message = f"count asks for a {(count, 1)} array, more than numpy can allocate"
    assert capsys.readouterr().err == f"error: {prefix}: {message}\n"


@pytest.mark.parametrize("command", ["analyze", "certify", "experiment"])
@pytest.mark.parametrize("config, message", [
    ("model = gaussian_location\ndim = 10000000000\n", f"dim asks for a {(10**10, 10**10)}"),
    ("model = blind_channel\ns_len = 10000000000000000000\n", f"theta asks for a {(10**19 + 3,)}"),
], ids=["gaussian_location", "blind_channel"])
def test_a_model_size_numpy_cannot_allocate_ends_in_one_error_line(tmp_path, capsys, command, config, message):
    # each size is past numpy's maximum size or dimension, so numpy refuses it before allocating anything
    path = tmp_path / "model.cfg"
    path.write_text(config, encoding="ascii")
    assert main([command, "--input", str(path), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"error: reading input: {message} array, more than numpy can allocate\n"
    assert not (tmp_path / "o" / "manifest.cfg").exists()


def experiment_traces(out):
    """The sample indices and traces of an experiment run's traces.csv."""
    rows = [line.split(",") for line in (out / "traces.csv").read_text().splitlines()[3:]]
    return [int(row[0]) for row in rows], np.array([float(row[1]) for row in rows])


def test_experiment_rows_are_the_constrained_bounds_of_the_sampled_specs(tmp_path):
    # a third route to each row: sample_minimum_constraints gives the i-th accepted draw's F, and
    # constrained_crb bounds it through an svd null basis and the spectrum of U'J_rU; a row agrees
    # with its bound within that route's forward error 10 n eps sigma_1 / mu_min; at rank_tol 0.02
    # the blind channel's J rejects most draws, and the bracket leaves 100 of its 275 to the rule on mu
    rng = np.random.default_rng(41)
    blind = fim_gaussian_mean(BlindChannelModel(3, 3), rng.uniform(0.5, 1.5, 6)).matrix.entries
    for j, count, tol in ((make_psd(rng, 6, 3), 40, "1e-10"), (make_psd(rng, 32, 16), 64, "1e-10"),
                          (blind, 100, "0.02")):
        path = tmp_path / "j.matx"
        save_matrix(path, j)
        out = tmp_path / f"{j.shape[0]}-{tol}"
        assert main(["experiment", "--input", str(path), "--count", str(count), "--seed", "8",
                     "--rank-tol", tol, "--out", str(out)]) == 0
        indices, traces = experiment_traces(out)
        basis = ranked_svd(load_matrix(path), float(tol))
        specs = sample_minimum_constraints(basis, count, 8)
        reports = [constrained_crb(basis, spec) for spec in specs]
        expected = np.array([report.trace for report in reports])
        slack = 10 * basis.dim * EPS * basis.sigma[0] * np.array([report.eigenvalues[0] for report in reports])
        assert indices == list(range(count))
        assert np.all(np.abs(traces - expected) <= slack * expected)
    # the zero J still writes zero traces and margins, and a full-rank J is still refused
    path = tmp_path / "zero.matx"
    path.write_text("3 3\n0 0 0\n0 0 0\n0 0 0\n")
    assert main(["experiment", "--input", str(path), "--count", "40", "--out", str(tmp_path / "z")]) == 0
    assert (tmp_path / "z" / "traces.csv").read_text().splitlines()[3:] == [f"{i},0,0" for i in range(40)]
    path = write_identity_matrix(tmp_path)
    assert main(["experiment", "--input", str(path), "--out", str(tmp_path / "f")]) == 2


@pytest.mark.parametrize("command", ["analyze", "certify", "experiment"])
def test_indefinite_matrix_input_exits_2(tmp_path, capsys, command):
    path = tmp_path / "indefinite.matx"
    path.write_text("3 3\n1 0 0\n0 -1 0\n0 0 0\n")
    assert main([command, "--input", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: reading input: information matrix is not positive semidefinite")
    assert err.count("\n") == 1
    assert "Traceback" not in err


ZERO_ANALYSIS = {
    "2 2\n0 0\n0 0\n": "n,2\nrank,0\nnullity,2\nsingular_fim_warning,true\ntrace_pinv,0\n"
    "eig_pinv_1,0\neig_pinv_2,0\nconstraint,optimal-affine\nconstraint_rows,2\n"
    "constraint_exists,true\ntrace_constrained,0\neig_crb_1,0\neig_crb_2,0\n",
    "1 1\n0\n": "n,1\nrank,0\nnullity,1\nsingular_fim_warning,true\ntrace_pinv,0\n"
    "eig_pinv_1,0\nconstraint,optimal-affine\nconstraint_rows,1\n"
    "constraint_exists,true\ntrace_constrained,0\neig_crb_1,0\n",
}


@pytest.mark.parametrize("matrix", sorted(ZERO_ANALYSIS))
def test_zero_matrix_input(tmp_path, capsys, matrix):
    # J = 0: analyze and experiment report zero bounds, certify rejects it
    path = tmp_path / "zero.matx"
    path.write_text(matrix)
    assert main(["analyze", "--input", str(path), "--out", str(tmp_path / "a")]) == 0
    expected = "# crb-kit v1\nkey,value\ncommand,analyze\n" + ZERO_ANALYSIS[matrix]
    assert (tmp_path / "a" / "analysis.csv").read_text() == expected
    argv = ["experiment", "--input", str(path), "--count", "40", "--out", str(tmp_path / "e")]
    assert main(argv) == 0
    lines = (tmp_path / "e" / "traces.csv").read_text().splitlines()
    assert lines[1] == "# baseline_trace = 0"
    assert lines[3:] == [f"{i},0,0" for i in range(40)]
    capsys.readouterr()
    assert main(["certify", "--input", str(path), "--out", str(tmp_path / "c")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: certify: input information matrix is zero;")
    assert err.count("\n") == 1
    assert not (tmp_path / "c" / "certificates.csv").exists()


HUGE_ENTRIES = ("2 2\n1e308 0\n0 1e308\n", "3 3\n1e308 0 0\n0 1e308 0\n0 0 0\n")
HUGE_PINV = (
    "2 2\n3e-309 0\n0 0\n",
    "3 3\n4e-309 0 0\n0 2e-309 0\n0 0 0\n",
    "model = blind_channel\nnoise_var = 1e308\n",
    "2 2\n1e-308 0\n0 0\n",
    "2 2\n1e-310 0\n0 0\n",
)


@pytest.mark.parametrize("matrix", HUGE_ENTRIES + HUGE_PINV)
@pytest.mark.parametrize("command", ["analyze", "certify", "experiment"])
def test_huge_matrix_input_exits_2(tmp_path, capsys, matrix, command):
    # finite entries whose sums overflow exit with the overflow line; a singular J whose tr J+ = sum 1/sigma
    # is not below half the largest double (the config's J is G'G / 1e308) is refused where ranked_svd factors
    # it, before a 1/sigma (below 5.6e-309) or the sum of two J+ entries (1e308 each at 1e-308) leaves double
    # range; RuntimeWarnings are errors under the test settings
    path = tmp_path / "huge.matx"
    path.write_text(matrix)
    assert main([command, "--input", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    if matrix in HUGE_ENTRIES:
        assert err.startswith("error: input values too large for double precision: overflow encountered")
    else:
        assert err.startswith("error: reading input: information matrix has no pseudoinverse in double precision: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["analyze", "certify", "experiment"])
def test_a_j_whose_pseudoinverse_fits_in_double_precision_is_accepted(tmp_path, capsys, command):
    # tr J+ = 2.5e307 is below half the largest double, 8.99e307
    path = tmp_path / "tiny.matx"
    path.write_text("2 2\n4e-308 0\n0 0\n")
    count = [] if command == "analyze" else ["--count", "12"]  # analyze samples no constraint
    assert main([command, "--input", str(path), *count, "--out", str(tmp_path / "o")]) == 0
    assert capsys.readouterr().err == ""


def test_a_j_near_the_underflow_edge_passes_certify_and_experiment(tmp_path):
    # at diag(1e-307, 0) the sampler's steps 10 and 100 would give bounds beyond double range: both
    # commands exited 2 with the overflow line; the cap on ||M||_F^2 keeps every trace finite
    path = tmp_path / "tiny.matx"
    path.write_text("2 2\n1e-307 0\n0 0\n")
    argv = ["--input", str(path), "--count", "12", "--out"]
    assert main(["experiment", *argv, str(tmp_path / "e")]) == 0
    _, traces = experiment_traces(tmp_path / "e")
    assert traces.size == 12 and np.all(np.isfinite(traces)) and np.all(traces >= 1e307)
    assert main(["certify", *argv, str(tmp_path / "c")]) == 0
    rows = [line.split(",") for line in (tmp_path / "c" / "certificates.csv").read_text().splitlines()[2:]]
    assert [row[1] for row in rows] == ["true"] * 6
    assert all(np.isfinite(float(row[3])) for row in rows)


def test_monte_carlo_overflow_exits_2(tmp_path, capsys):
    # scores 1e308 * z overflow in the first partition's product, before the finiteness check
    cfg = tmp_path / "huge.cfg"
    cfg.write_text("model = blind_channel\ns_len = 1\nh_len = 1\ntheta = 1e308 1e308\nfim_method = monte_carlo\n")
    assert main(["analyze", "--input", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: input values too large for double precision: overflow encountered")
    assert err.count("\n") == 1


def test_a_non_finite_monte_carlo_score_exits_3_and_writes_nothing(tmp_path, capsys, monkeypatch):
    # no built-in model reaches this refusal: a non-finite score needs an overflow first, which main's errstate
    # turns into exit 2 (above); a mean Jacobian of NaN gives NaN scores with no overflow
    def nan_location(dim, noise_var):
        return GaussianMeanModel(mean_fn=lambda th: th, mean_jac=lambda th: np.full((dim, dim), np.nan),
                                 noise_var=noise_var, param_dim=dim, obs_dim=dim)

    monkeypatch.setitem(crbkit.cli.MODELS, "gaussian_location", (nan_location, {"dim": 4, "noise_var": 1.0}))
    cfg = tmp_path / "nan.cfg"
    cfg.write_text("model = gaussian_location\nfim_method = monte_carlo\nsamples = 200\n")
    out = tmp_path / "o"
    assert main(["analyze", "--input", str(cfg), "--out", str(out)]) == 3
    assert capsys.readouterr().err == "error: estimating information matrix: non-finite score at sample 0\n"
    assert list(out.iterdir()) == []


@pytest.mark.parametrize(
    "argv, csv",
    [
        (["analyze"], "analysis.csv"),
        (["certify", "--count", "2"], "certificates.csv"),
        (["experiment", "--count", "5"], "traces.csv"),
    ],
)
def test_failed_output_write_exits_2(tmp_path, capsys, argv, csv):
    out = tmp_path / "o"
    (out / csv).mkdir(parents=True)
    if argv[0] != "certify":
        argv = argv + ["--input", str(write_diag_matrix(tmp_path))]
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: writing outputs: ") and str(out / csv) in err
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [["analyze", "--input"], ["certify", "--count", "2"], ["certify", "--input"], ["experiment", "--input"]],
)
def test_failed_factorization_exits_3(tmp_path, capsys, monkeypatch, argv):
    def fail(*args):
        raise np.linalg.LinAlgError("SVD did not converge")

    # a suite's J are factored by stage, an input J alone
    monkeypatch.setattr(crbkit.cli, "ranked_svd" if argv[-1] == "--input" else "ranked_svds", fail)
    if argv[-1] == "--input":
        argv = argv + [str(write_diag_matrix(tmp_path))]
    assert main(argv + ["--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err == "error: linear algebra failure: SVD did not converge\n"


@pytest.mark.parametrize("rank_tol", [None, "1e-3"])
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize(
    "command", [["analyze"], ["certify", "--count", "10"], ["experiment", "--count", "10"]], ids=lambda argv: argv[0]
)
def test_one_rule_decides_rank_and_definiteness(tmp_path, capsys, command, n, rank_tol):
    # J = diag(1, lam) or diag(1, lam, 0); the rank rule keeps |lam| > 1 * n * rank_tol, and J is PSD when
    # every eigenvalue it keeps is positive: lam at minus the cutoff is zero, one ulp beyond it is refused
    cutoff = 1.0 * n * float(rank_tol or DEFAULT_RANK_TOL_REL)
    beyond = float(np.nextafter(-cutoff, -np.inf))
    flags = ["--rank-tol", rank_tol] if rank_tol else []
    codes, errs = {}, {}
    for name, lam in (("zero", 0.0), ("inside", -cutoff), ("beyond", beyond)):
        path = tmp_path / f"{name}.matx"
        crbkit.save_matrix(path, np.diag([1.0, lam, 0.0][:n]))
        codes[name] = main(command + ["--input", str(path), *flags, "--out", str(tmp_path / name)])
        errs[name] = capsys.readouterr().err
    assert codes == {"zero": 0, "inside": 0, "beyond": 2}
    assert errs["beyond"] == (
        "error: reading input: information matrix is not positive semidefinite: "
        f"eigenvalue {format_float(beyond)} is negative and kept by the rank cutoff {format_float(cutoff)}\n"
    )
    assert not (tmp_path / "beyond" / "manifest.cfg").exists()
    # inside the cutoff lam is zero: the run reports what it reports for lam = 0, and no negative trace
    if command[0] == "analyze":
        for name in ("zero", "inside"):
            rows = dict(line.split(",") for line in (tmp_path / name / "analysis.csv").read_text().splitlines()[2:])
            assert (rows["rank"], rows["trace_pinv"]) == ("1", "1")
    if command[0] == "experiment":
        for name in ("zero", "inside"):
            assert (tmp_path / name / "traces.csv").read_text().splitlines()[1] == "# baseline_trace = 1"


def test_psd_tol_is_neither_a_flag_nor_a_config_key(tmp_path, capsys):
    j = write_diag_matrix(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--input", str(j), "--psd-tol", "1e-9"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --psd-tol 1e-9" in capsys.readouterr().err
    # an analyze manifest written while the setting existed holds seed, count, samples, rank_tol, psd_tol and
    # margin_tol lines, psd_tol on line 8, which is refused first; with every line analyze does not read
    # deleted (psd_tol, count and margin_tol) it reruns
    out = tmp_path / "a"
    assert main(["analyze", "--input", str(j), "--out", str(out)]) == 0
    lines = (out / "manifest.cfg").read_text().splitlines(keepends=True)
    assert lines[3:6] == ["seed = 0\n", "samples = 10000\n", "rank_tol = 1e-10\n"]
    old = ["count = 100\n", *lines[4:6], "psd_tol = 1.0000000000000001e-09\n", "margin_tol = 1.0000000000000001e-09\n"]
    (out / "old.cfg").write_text("".join(lines[:4] + old + lines[6:]))
    capsys.readouterr()
    assert main(["analyze", "--input", str(out / "old.cfg"), "--out", str(tmp_path / "b")]) == 2
    assert capsys.readouterr().err == "error: resolving configuration: unknown config key 'psd_tol' on line 8\n"
    kept = [line for line in lines[:4] + old + lines[6:] if not line.startswith(("psd_tol", "count", "margin_tol"))]
    (out / "old.cfg").write_text("".join(kept))
    assert main(["analyze", "--input", str(out / "old.cfg"), "--out", str(tmp_path / "c")]) == 0
    for name in ("manifest.cfg", "analysis.csv", "j.matx", "j_pinv.matx", "constraint.matx", "crb_constrained.matx"):
        assert (out / name).read_bytes() == (tmp_path / "c" / name).read_bytes()


@pytest.mark.parametrize("tol", ["1e-20", repr(float(np.nextafter(np.finfo(float).eps, 0)))])
@pytest.mark.parametrize(
    "argv", [["analyze"], ["experiment", "--count", "3"], ["certify", "--count", "3"], ["certify"]]
)
def test_rank_tol_below_machine_epsilon_exits_2_before_factoring(tmp_path, capsys, monkeypatch, argv, tol):
    # at 1e-20 the blind channel's J at seed 0 came out rank 6 of 6, with a trace_pinv of -6.6e15;
    # ranked_svd refuses the rule after its eigh, before it returns J factored, and what a refused
    # run must never reach is no function here, so a run that went on to a bound or a sample fails
    if argv != ["certify"]:  # a bare certify runs its suite
        argv = argv + ["--model", "blind_channel"]
    for module, name in ((crbkit.cli, "unconstrained_crb"), (crbkit.verify, "_sample_stacks"),
                         (crbkit.cli, "sample_constraint_traces")):
        monkeypatch.setattr(module, name, None)
    assert main(argv + ["--rank-tol", tol, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        f"error: checking rank_tol: rank_tol_rel must be positive and finite, at least machine epsilon, got {tol}\n"
    )
    assert not (tmp_path / "o" / "manifest.cfg").exists()


def test_rank_tol_at_machine_epsilon_keeps_the_blind_channel_ambiguity(tmp_path):
    eps = repr(float(np.finfo(float).eps))
    assert main(["analyze", "--model", "blind_channel", "--rank-tol", eps, "--out", str(tmp_path / "o")]) == 0
    assert "\nrank,5\n" in (tmp_path / "o" / "analysis.csv").read_text()


def test_console_entry_point_reports_version(tmp_path):
    # Runs the script target declared in pyproject.toml the way the
    # generated console script does, so no install is needed.
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text())["project"]
    module, attr = project["scripts"]["crbkit"].split(":")
    package_root = str(Path(crbkit.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    code = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    result = subprocess.run(
        [sys.executable, "-c", code, "--version"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=env,
    )
    expected = f"crbkit {crbkit.__version__}"
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == expected
    assert expected == f"crbkit {project['version']}"


@pytest.mark.skipif(shutil.which("crbkit") is None, reason="crbkit is not installed on PATH")
def test_installed_console_script_reports_version():
    result = subprocess.run([shutil.which("crbkit"), "--version"], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == f"crbkit {crbkit.__version__}"
