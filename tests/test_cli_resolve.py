"""How cli resolves a run: a RunConfig checked as made and frozen after, J and theta returned by
information_matrix, one table of commands that names the settings each reads, one rule for config files, and analyze
at the rank boundary."""

import argparse
import dataclasses
import inspect

import numpy as np
import pytest

from crbkit import InvalidInput, constrained_crb, load_matrix, optimal_affine_constraint, ranked_svd, save_matrix
from crbkit.cli import COMMANDS, SETTINGS, RunConfig, build_parser, information_matrix, main, write_manifest

EPS = float(np.finfo(float).eps)


def _analysis_rows(out):
    lines = (out / "analysis.csv").read_text(encoding="ascii").splitlines()[2:]  # past the version and header lines
    return dict(line.split(",", 1) for line in lines)


def _analyze_at_eps(tmp_path, capsys, j, name):
    """analyze of J at --rank-tol eps through main: its analysis.csv rows, and the library's constrained_crb of J's
    optimal constraint under the same rule, both read from the J that the matx file holds."""
    save_matrix(tmp_path / f"{name}.matx", j)
    out = tmp_path / name
    code = main(["analyze", "--input", str(tmp_path / f"{name}.matx"), "--rank-tol", repr(EPS), "--out", str(out)])
    assert (code, capsys.readouterr().err) == (0, "")
    basis = ranked_svd(load_matrix(tmp_path / f"{name}.matx"), EPS)
    return _analysis_rows(out), constrained_crb(basis, optimal_affine_constraint(basis, np.zeros(basis.dim)))


def _check_boundary_report(out, rows, bound):
    # a bound that is not finite reads false with trace inf, and writes no eig_crb rows and no crb_constrained.matx
    assert rows["constraint_exists"] == ("true" if bound.exists else "false")
    assert (out / "crb_constrained.matx").exists() == bound.exists
    assert sum(key.startswith("eig_crb_") for key in rows) == (len(bound.eigenvalues) if bound.exists else 0)
    assert bound.exists or rows["trace_constrained"] == "inf"


def test_analyze_at_the_rank_boundary_reports_a_bound_that_does_not_exist(tmp_path, capsys):
    # sigma_4 lies 1.1 n eps sigma_1 above zero, so at rank_tol = eps both J's rank and whether its optimal
    # constraint's U'JU reads singular rest on roundoff, which the BLAS kernel sets; on the default kernel J has rank 4
    # and U'JU reads singular, where analyze once saved the missing bound and raised AttributeError
    q = np.linalg.qr(np.random.default_rng(83).standard_normal((5, 5)))[0]
    j = (q * np.array([1.0, 0.5, 0.5, 1.1 * 5 * EPS, 0.0])) @ q.T
    rows, bound = _analyze_at_eps(tmp_path, capsys, 0.5 * (j + j.T), "boundary")
    _check_boundary_report(tmp_path / "boundary", rows, bound)
    rerun = tmp_path / "rerun"
    assert main(["analyze", "--input", str(tmp_path / "boundary" / "manifest.cfg"), "--out", str(rerun)]) == 0
    assert {p.name: p.read_bytes() for p in rerun.iterdir()} == {
        p.name: p.read_bytes() for p in (tmp_path / "boundary").iterdir()
    }


def test_analyze_agrees_with_the_library_on_sixty_j_at_the_rank_boundary(tmp_path, capsys):
    # n = 16, sigma_15 = 1.01 n eps sigma_1: on the default kernel some of these read constraint_exists false;
    # on any kernel every run exits 0 and reads what constrained_crb reports
    rng = np.random.default_rng(0)
    for index in range(60):
        q = np.linalg.qr(rng.standard_normal((16, 16)))[0]
        d = np.zeros(16)
        d[:15] = rng.uniform(0.5, 2.0, 15)
        d[14] = 1.01 * 16 * EPS * d[:15].max()
        j = (q * d) @ q.T
        rows, bound = _analyze_at_eps(tmp_path, capsys, 0.5 * (j + j.T), f"j{index}")
        _check_boundary_report(tmp_path / f"j{index}", rows, bound)


def test_a_run_config_is_checked_when_made_and_frozen_after():
    config = RunConfig(command="analyze", matrix=np.eye(2))
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.seed = 1
    with pytest.raises(InvalidInput, match=r"^seed must be nonnegative, got -1$"):
        RunConfig(command="analyze", matrix=np.eye(2), seed=-1)


def _subparsers() -> argparse._SubParsersAction:
    (sub,) = [action for action in build_parser()._actions if isinstance(action, argparse._SubParsersAction)]
    return sub


def test_the_parser_offers_the_command_table_in_order():
    sub = _subparsers()
    assert list(sub.choices) == list(COMMANDS)
    assert [choice.help for choice in sub._choices_actions] == [help_text for _, help_text, _ in COMMANDS.values()]


def test_each_command_offers_the_flags_of_the_settings_it_reads():
    expected = {
        "analyze": ["--seed", "--samples", "--rank-tol"],
        "certify": ["--seed", "--count", "--samples", "--rank-tol", "--margin-tol"],
        "experiment": ["--seed", "--count", "--samples", "--rank-tol", "--margin-tol"],
    }
    for name, parser in _subparsers().choices.items():
        flags = [flag for action in parser._actions for flag in action.option_strings]
        assert flags == ["-h", "--help", "--input", "--model", "--out"] + expected[name]
        assert [flag[2:].replace("-", "_") for flag in expected[name]] == list(COMMANDS[name][2])
    assert set(COMMANDS["certify"][2]) == set(SETTINGS)


@pytest.mark.parametrize("flag, value", [("--count", "5"), ("--margin-tol", "1e-3")])
def test_analyze_refuses_the_flags_of_settings_it_does_not_read(tmp_path, capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--model", "blind_channel", flag, value, "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("key", ["count", "margin_tol"])
def test_an_analyze_config_naming_a_setting_analyze_does_not_read_exits_2(tmp_path, capsys, key):
    (tmp_path / "run.cfg").write_text(f"model = blind_channel\n{key} = 1e-3\n")
    assert main(["analyze", "--input", str(tmp_path / "run.cfg"), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err == f"error: resolving configuration: config key {key!r} does not apply to analyze\n"
    assert not (tmp_path / "o" / "manifest.cfg").exists()


def _files(out):
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


def test_an_analyze_manifest_of_the_old_form_exits_2_and_reruns_without_count_and_margin_tol(tmp_path, capsys):
    # analyze once wrote every setting, count and margin_tol among them, though it reads neither
    (tmp_path / "j.matx").write_text("3 3\n2 0.5 0\n0.5 1 0\n0 0 0\n")
    assert main(["analyze", "--input", str(tmp_path / "j.matx"), "--out", str(tmp_path / "a")]) == 0
    lines = (tmp_path / "a" / "manifest.cfg").read_text(encoding="ascii").splitlines(keepends=True)
    old = lines[:4] + ["count = 100\n"] + lines[4:6] + ["margin_tol = 1.0000000000000001e-09\n"] + lines[6:]
    (tmp_path / "a" / "old.cfg").write_text("".join(old))
    capsys.readouterr()
    assert main(["analyze", "--input", str(tmp_path / "a" / "old.cfg"), "--out", str(tmp_path / "b")]) == 2
    assert capsys.readouterr().err == "error: resolving configuration: config key 'count' does not apply to analyze\n"
    assert not (tmp_path / "b" / "manifest.cfg").exists()
    kept = [line for line in old if not line.startswith(("count =", "margin_tol ="))]
    (tmp_path / "a" / "old.cfg").write_text("".join(kept))
    assert main(["analyze", "--input", str(tmp_path / "a" / "old.cfg"), "--out", str(tmp_path / "c")]) == 0
    assert _files(tmp_path / "c") == {name: data for name, data in _files(tmp_path / "a").items() if name != "old.cfg"}


def test_information_matrix_returns_theta_and_the_manifest_writes_it(tmp_path):
    # theta comes back with the basis, never written into the frozen config: None for a matrix input
    config = RunConfig(command="analyze", model_kind="gaussian_location", model_params={"dim": 3, "noise_var": 1.0})
    basis, estimate, theta = information_matrix(config)
    assert theta.shape == (3,) and config.theta is None and estimate.method == "analytic"
    config = RunConfig(command="analyze", matrix=np.eye(2), output_dir=tmp_path)
    assert information_matrix(config)[1:] == (None, None)
    assert all(p.default is inspect.Parameter.empty for p in inspect.signature(write_manifest).parameters.values())


@pytest.mark.parametrize(
    "text, message",
    [
        # a line with = outside a comment makes a config, so a matx header above it is a malformed config line
        ("3 3\nseed = 1\n", "config line 1 is not 'key = value': '3 3'"),
        # an = inside a comment does not: the file is read as a matrix
        ("# seed = 3\n", "matx: header must be 'n m', got '# seed = 3'"),
    ],
)
def test_a_file_with_an_equals_sign_outside_a_comment_is_a_config(tmp_path, capsys, text, message):
    (tmp_path / "in.txt").write_text(text, encoding="ascii")
    assert main(["analyze", "--input", str(tmp_path / "in.txt"), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"error: resolving configuration: {message}\n"
