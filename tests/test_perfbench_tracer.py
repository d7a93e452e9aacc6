"""The benchmark's span tracer (perfbench/tracer.py) keeps working on crbkit.

The tracer wraps crbkit functions by module and name, raises on a missing
name, and reads some of their arguments by position, so renaming a traced
function or reordering its arguments breaks the benchmark.
"""

import inspect
import sys
import time
from pathlib import Path

import numpy as np

import crbkit.cli
from crbkit import fim_monte_carlo, pinv_via_basis, ranked_svd, sample_minimum_constraints
from util import load_tool

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_name_resolves():
    tracer = load_tool(TRACER_PATH)
    for name, (module, attr) in tracer.FUNCTIONS.items():
        assert callable(getattr(sys.modules[module], attr, None)), name
    for name, (module, cls, attr) in tracer.METHODS.items():
        assert callable(vars(getattr(sys.modules[module], cls)).get(attr)), name


def test_noted_arguments_keep_their_places():
    def params(fn):
        return list(inspect.signature(fn).parameters)

    assert params(ranked_svd)[0] == "m"
    assert params(pinv_via_basis)[0] == "m"
    assert params(sample_minimum_constraints)[:2] == ["j", "count"]
    assert params(fim_monte_carlo)[2] == "n_samples"


def stage_factorizations(monkeypatch):
    """The J of each call of cli.ranked_svds, the suite's stage factorization, as bytes, in call order."""
    calls, real = [], crbkit.cli.ranked_svds

    def recorded(js, *args):
        calls.append([np.asarray(j).tobytes() for j in js])
        return real(js, *args)

    monkeypatch.setattr(crbkit.cli, "ranked_svds", recorded)
    return calls


def test_traced_runs_factor_each_matrix_once(tmp_path, monkeypatch):
    path = tmp_path / "j.matx"
    path.write_text("3 3\n2 0 0\n0 1 0\n0 0 0\n")
    original = crbkit.cli.ranked_svd
    stages = stage_factorizations(monkeypatch)
    tracer = load_tool(TRACER_PATH).Tracer()
    tracer.install()
    try:
        assert tracer.binding_problems() == []
        traces = []
        for argv in (
            ["experiment", "--input", str(path), "--count", "70"],
            ["analyze", "--input", str(path)],
            ["certify", "--count", "3", "--seed", "5"],
        ):
            tracer.start_job()
            start = time.perf_counter()
            # through the module, so the call opens the traced cli.main span
            assert crbkit.cli.main(argv + ["--out", str(tmp_path / argv[0])]) == 0
            traces.append(tracer.finish_job(time.perf_counter() - start, 10.0))
    finally:
        tracer.uninstall()
    assert crbkit.cli.ranked_svd is original
    experiment, analyze, certify = traces
    assert experiment.problems == [] and analyze.problems == [] and certify.problems == []
    assert experiment.calls["matlin.ranked_svd"] == 1
    # one eigh gives J's rank, PSD check and J+, and each constraint is drawn in J's chart with its
    # trace in closed form, with no LAPACK call (3 qr, 3 eigvalsh and 0 solve when each chunk was
    # factored to read its traces from the spectrum of U'JU, and 3 solve when each chunk's
    # Gaussian draws were carried to J's chart)
    assert experiment.calls["linalg.eigh"] == 1
    assert experiment.calls["linalg.svd"] == 0
    assert experiment.calls["linalg.inv"] == 0
    assert experiment.calls["linalg.solve"] == 0
    assert experiment.calls["linalg.qr"] == 0
    assert experiment.calls["linalg.eigvalsh"] == 0
    # J's one eigh; the svd, eigvalsh and inv belong to the optimal constraint's bound
    assert analyze.calls["matlin.ranked_svd"] == 1
    assert analyze.calls["linalg.eigh"] == 1
    assert analyze.calls["linalg.svd"] == analyze.calls["linalg.eigvalsh"] == analyze.calls["linalg.inv"] == 1
    # the three suite matrices enter the stage factorization once each, which takes one eigh per size,
    # 2 here; ranked_svd factors the fixed counterexample alone (4 ranked_svd calls and 4 eigh when each
    # suite J took its own)
    assert len(stages) == 1 and len(stages[0]) == len(set(stages[0])) == 3
    assert certify.calls["matlin.ranked_svd"] == certify.distinct["matlin.ranked_svd"] == 1
    assert certify.calls["linalg.eigh"] == 2 + 1
    # the suite's theorems are checked by stage, not through the public verifiers, so only the counterexample
    # calls one (3 + 1 eigen-dominance checks when each suite matrix took its own)
    assert certify.calls["verify.verify_eigen_dominance"] == 1
    # the sampled stack holds its chart draws' F and goes straight to the trace and dominance
    # certificates, which read the spectra of U'JU and J and orthonormalize no draw while every
    # case passes; min_rank takes its trials' rows and null bases from their complete Q and one
    # eigvalsh for all trials; the one svd per J is the equivalence check's; and J's eigh gives
    # J+ and the Poincare spectrum. The suite's matrices have 2 sizes, and each size takes 2 qr:
    # one for the Haar frames of its J, one for the zero-padded blocks of their Poincare frames,
    # equivalence mixes and min_rank trials (12 qr when each J took 4: one each for J itself, the
    # Poincare frame, the mixes and min_rank; 15 when each sampler chunk took one more for its
    # orthonormal rows); 3 svd and 4 inv (12 svd and 12 qr with an svd per row count of the
    # min_rank trials; 16, 23 and 8 svd, eigvalsh and inv with an svd, an eigvalsh and an inv of
    # U_r'JU_r per J; 19, 34 and 15 forming each sampled bound; 168 eigvalsh and 71 inv checking
    # one frame at a time). The stage's equivalence check takes one svd per shape (m, n) of its mixes,
    # and the 3 J have 3 shapes, of 2 sizes and 2 ranks; one inv per rank and one for the
    # counterexample (3 svd and 4 inv when each J took its own)
    assert certify.calls["linalg.svd"] == 3
    assert certify.calls["linalg.qr"] == 4
    assert certify.calls["linalg.inv"] == 2 + 1
    # eigvalsh: one per rank for the sampler's X, one per rank for the Poincare frames and one per rank
    # for the equivalence mixes; one per size for the min_rank trials; and three for the counterexample,
    # its dominance check's, its bound's V'J_rV and the spectrum of the bound's difference from J+
    # (12 when each J's sampler took its own; 14 when each J took one for each check and the
    # counterexample formed V'JV itself; 21 when min_rank took one per distinct row count, and 20 when
    # each trial drew its row count and then its rows); the sampler draws in J's chart and
    # makes no solve (one per J when it carried Gaussian draws there)
    assert certify.calls["linalg.eigvalsh"] == 2 + 2 + 2 + 2 + 3
    assert certify.calls["linalg.solve"] == 0


def test_a_monte_carlo_j_is_factored_once(tmp_path, monkeypatch):
    # the estimate is not clipped, so its own eigh and reconstruction are gone (2 eigh when they
    # were there); the svd, eigvalsh and inv belong to the optimal constraint's bound. A suite's
    # count is unchanged by it; its 20 matrices have 5 sizes, and each size takes 2 qr (224 LAPACK
    # calls with 80 qr when each J took 4). Each theorem is checked once per stage, with one stacked
    # call per operand shape: the 20 J have 5 ranks and 12 shapes (m, n), so 5 eigvalsh each for the
    # Poincare frames, the equivalence mixes and the min_rank trials, 12 svd and 5 + 1 inv, besides
    # the sampler's 20 eigvalsh and the counterexample's 3 (154 calls, with 82 eigvalsh, 20 svd and
    # 21 inv, when each J was checked alone and the counterexample formed its own V'JV). The stage's J are
    # factored by one eigh per size, and its sampler's X take one eigvalsh per shape (count, r, r), here per
    # rank (87 calls, with 21 eigh and 38 eigvalsh, when each J took its own of both)
    stages = stage_factorizations(monkeypatch)
    config = tmp_path / "mc.cfg"
    config.write_text("model = blind_channel\nfim_method = monte_carlo\n")
    module = load_tool(TRACER_PATH)
    tracer = module.Tracer()
    tracer.install()
    try:
        traces = []
        for argv in (["analyze", "--input", str(config)], ["certify", "--count", "20", "--seed", "6"]):
            tracer.start_job()
            start = time.perf_counter()
            assert crbkit.cli.main(argv + ["--out", str(tmp_path / argv[0])]) == 0
            traces.append(tracer.finish_job(time.perf_counter() - start, 10.0))
    finally:
        tracer.uninstall()
    analyze, certify = traces
    lapack = {name: analyze.calls[f"linalg.{name}"] for name in module.LINALG}
    assert lapack == {"svd": 1, "eigvalsh": 1, "eigh": 1, "inv": 1, "qr": 0, "solve": 0, "cholesky": 0}
    assert sum(certify.calls[f"linalg.{name}"] for name in module.LINALG) == 57
    assert certify.calls["linalg.qr"] == 10 and certify.calls["linalg.eigh"] == 5 + 1
    assert (certify.calls["linalg.eigvalsh"], certify.calls["linalg.svd"], certify.calls["linalg.inv"]) == (23, 12, 6)
    # each of the 20 suite J enters the stage factorization once; ranked_svd factors the counterexample alone
    assert len(stages) == 1 and len(stages[0]) == len(set(stages[0])) == 20
    assert certify.calls["matlin.ranked_svd"] == certify.distinct["matlin.ranked_svd"] == 1
