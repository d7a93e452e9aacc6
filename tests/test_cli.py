import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import crbkit
from crbkit import load_matrix
from crbkit.cli import build_parser, derived_rng, derived_seed, main
from crbkit.matlin import seed_sequence


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
    assert derived_seed(0, "fim-mc") == derived_seed(0, "fim-mc")
    assert derived_seed(0, "fim-mc") != derived_seed(1, "fim-mc")
    assert derived_seed(0, "fim-mc", 0) != derived_seed(0, "fim-mc", 1)


def test_seed_derivation_keeps_every_stream(tmp_path):
    # digests of the outputs once the seed derivations became one helper, the sampled bounds
    # were read from the spectrum of U'JU and the sampler took one complete qr per chunk; they
    # cover the labeled CLI streams, the Monte-Carlo partitions, the sampler and the min_rank
    # trials
    config = tmp_path / "mc.cfg"
    config.write_text("model = blind_channel\nfim_method = monte_carlo\nsamples = 9000\n")
    assert main(["analyze", "--input", str(config), "--seed", "4", "--out", str(tmp_path / "a")]) == 0
    j_path = str(tmp_path / "a" / "j.matx")
    argv = ["experiment", "--input", j_path, "--count", "40", "--seed", "3", "--out", str(tmp_path / "e")]
    assert main(argv) == 0
    assert main(["certify", "--count", "5", "--seed", "11", "--out", str(tmp_path / "c")]) == 0
    # 40 constraints take two sampler chunks, so this run goes through their concatenation
    argv = ["certify", "--input", j_path, "--count", "40", "--seed", "2", "--out", str(tmp_path / "c2")]
    assert main(argv) == 0
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("a/j.matx", "e/traces.csv", "c/certificates.csv", "c2/certificates.csv")
    }
    assert digests == {
        "a/j.matx": "9348655c0c0c552985c5b31fa64f8ca30b87e45339efa249065345330155d7b6",
        "e/traces.csv": "4999e91c992a1a5697ed7e7ee8d0918ce050501e6051b5331f95213a998ff5ce",
        "c/certificates.csv": "58e01bd1b62ff1decb92a91b24624f8cb0ee2259bf7195ba2ae41dd30390c701",
        "c2/certificates.csv": "b062559b21f04970c182db75df8ac13510be90b4ab8c7e4dbbf4f1576bd1b006",
    }
    for key in [(), (3,), (1234, 5)]:
        old = np.random.SeedSequence(entropy=11, spawn_key=key).generate_state(4)
        assert np.array_equal(seed_sequence(11, *key).generate_state(4), old)


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
    j = write_diag_matrix(tmp_path)
    flags = ["--seed", "7", "--count", "9", "--samples", "500", "--rank-tol", "1e-8",
             "--psd-tol", "1e-6", "--margin-tol", "1e-7"]
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(["analyze", "--input", str(j), *flags, "--out", str(out1)]) == 0
    manifest = (out1 / "manifest.cfg").read_text().splitlines()
    assert manifest[3:] == [
        "seed = 7", "count = 9", "samples = 500", "rank_tol = 1e-08",
        "psd_tol = 9.9999999999999995e-07", "margin_tol = 9.9999999999999995e-08", "input = j.matx",
    ]
    assert main(["analyze", "--input", str(out1 / "manifest.cfg"), "--out", str(out2)]) == 0
    outputs = ("analysis.csv", "j.matx", "j_pinv.matx", "constraint.matx", "crb_constrained.matx")
    for name in ("manifest.cfg",) + outputs:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


@pytest.mark.parametrize(
    "argv, config",
    [
        (["certify", "--seed", "-1"], None),
        (["analyze", "--model", "blind_channel", "--seed", "-1"], None),
        (["analyze"], "model = blind_channel\nseed = -2\n"),
    ],
)
def test_negative_seed_exits_2(tmp_path, capsys, argv, config):
    if config is not None:
        path = tmp_path / "neg.cfg"
        path.write_text(config)
        argv = argv + ["--input", str(path)]
    assert main(argv + ["--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: resolving configuration: seed must be nonnegative, got -")
    assert err.count("\n") == 1


@pytest.mark.parametrize("value", ["inf", "1e400"])
@pytest.mark.parametrize("key", ["rank_tol", "psd_tol", "margin_tol"])
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
        ("model = gaussian_location\ns_len = 9\n", "dim = 4\nnoise_var = 1\n"),
        ("model = blind_channel\nh_len = 2\n", "s_len = 3\nh_len = 2\nnoise_var = 1\n"),
    ],
)
def test_model_manifest_lists_the_model_parameters(tmp_path, config, params):
    cfg = tmp_path / "model.cfg"
    cfg.write_text(config)
    assert main(["analyze", "--input", str(cfg), "--out", str(tmp_path / "o")]) == 0
    lines = (tmp_path / "o" / "manifest.cfg").read_text().splitlines(keepends=True)
    assert lines[:9] == [
        "# crb-kit v1 manifest\n", "command = analyze\n", f"version = {crbkit.__version__}\n",
        "seed = 0\n", "count = 100\n", "samples = 10000\n", "rank_tol = 1e-10\n",
        "psd_tol = 1.0000000000000001e-09\n", "margin_tol = 1.0000000000000001e-09\n",
    ]
    model = config.splitlines(keepends=True)[0]
    assert "".join(lines[9:-1]) == model + params + "fim_method = analytic\n"
    assert lines[-1].startswith("theta = ")


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


def test_config_with_model_and_input_exits_2(tmp_path):
    cfg = tmp_path / "both.cfg"
    cfg.write_text("model = blind_channel\ninput = j.matx\n")
    assert main(["analyze", "--input", str(cfg), "--out", str(tmp_path / "o")]) == 2


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


def test_certify_rerun_is_byte_identical(tmp_path):
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    assert main(["certify", "--count", "3", "--seed", "9", "--out", str(out1)]) == 0
    assert main(["certify", "--count", "3", "--seed", "9", "--out", str(out2)]) == 0
    assert (out1 / "certificates.csv").read_bytes() == (out2 / "certificates.csv").read_bytes()
    out3 = tmp_path / "r3"
    assert main(["certify", "--count", "3", "--seed", "10", "--out", str(out3)]) == 0
    assert (out1 / "certificates.csv").read_bytes() != (out3 / "certificates.csv").read_bytes()


def test_certify_singular_matrix_input(tmp_path):
    j = write_diag_matrix(tmp_path)
    out = tmp_path / "run"
    assert main(["certify", "--input", str(j), "--count", "10", "--out", str(out)]) == 0
    lines = (out / "certificates.csv").read_text().splitlines()
    trace_row = next(line for line in lines if line.startswith("trace_bound,"))
    assert trace_row.split(",")[2] == "10"


def test_certify_names_the_certificate_that_cannot_be_built(tmp_path, capsys):
    # at a loose rank cutoff J has rank 1, and a random 5 x 5 mix drawn for
    # the equivalence check fails the row-rank test
    q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((6, 6)))
    path = tmp_path / "ill.matx"
    crbkit.save_matrix(path, (q * [1e3, 1.0, 1e-3, 0.0, 0.0, 0.0]) @ q.T)
    argv = ["certify", "--input", str(path), "--rank-tol", "0.05", "--count", "70", "--seed", "5"]
    assert main(argv + ["--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: certify matrix 0, equivalence: Jacobian row rank ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


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


def test_experiment_full_rank_exits_2(tmp_path):
    path = write_identity_matrix(tmp_path)
    assert main(["experiment", "--input", str(path), "--out", str(tmp_path / "o")]) == 2


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


@pytest.mark.parametrize("matrix", ["2 2\n1e308 0\n0 1e308\n", "3 3\n1e308 0 0\n0 1e308 0\n0 0 0\n"])
@pytest.mark.parametrize("command", ["analyze", "certify", "experiment"])
def test_huge_matrix_input_exits_2(tmp_path, capsys, matrix, command):
    # finite entries whose sums overflow; RuntimeWarnings are errors under the test settings
    path = tmp_path / "huge.matx"
    path.write_text(matrix)
    assert main([command, "--input", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: input values too large for double precision: overflow encountered")
    assert err.count("\n") == 1


def test_monte_carlo_overflow_exits_2(tmp_path, capsys):
    # scores 1e308 * z overflow in the first partition's product, before the finiteness check
    cfg = tmp_path / "huge.cfg"
    cfg.write_text("model = blind_channel\ns_len = 1\nh_len = 1\ntheta = 1e308 1e308\nfim_method = monte_carlo\n")
    assert main(["analyze", "--input", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: input values too large for double precision: overflow encountered")
    assert err.count("\n") == 1


def test_psd_tol_sets_the_negative_eigenvalue_slack(tmp_path):
    path = tmp_path / "slightly_negative.matx"
    path.write_text("3 3\n1 0 0\n0 -1e-12 0\n0 0 0\n")
    assert main(["analyze", "--input", str(path), "--out", str(tmp_path / "a")]) == 0
    tight = ["analyze", "--input", str(path), "--psd-tol", "1e-13", "--out", str(tmp_path / "b")]
    assert main(tight) == 2


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
