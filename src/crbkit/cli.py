"""Command-line front end.

Three commands, each taking the run settings it reads:

  analyze     rank / pseudoinverse / optimal-constraint report for one
              information matrix, from a matx file or a model config
  certify     run every inequality certificate and write one CSV row per
              theorem; nonzero exit when a certificate fails
  experiment  sample random minimum constraints for a singular matrix
              and record the trace of each constrained bound

Input is either a matx matrix file or a flat key = value model config;
command-line flags override file values. Every run, a certify suite
included, writes a manifest that can be fed back through --input to
reproduce the run bit for bit.
All randomness fans out from one seed through labeled streams; one per
certify matrix draws its J, Poincare frame, equivalence mixes, min_rank
trials and sampled constraints in turn. Exit codes: 0 success, 2 invalid
input, 3 numerical failure, 4 certificate failure.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import os
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__
from .constraint import (
    optimal_affine_constraint,
    sample_constraint_traces,
    save_constraint_spec,
)
from .crb import constrained_crb, unconstrained_crb
from .errors import CrbKitError, InvalidInput, InvalidMatrix, NumericalFailure
from .fim import fim_gaussian_mean, fim_monte_carlo
from .matlin import DEFAULT_RANK_TOL_REL, _allocated, as_sym_matrix, ranked_svd, ranked_svds, seed_sequence
from .matx import FLOAT_FMT, format_float, format_row, load_matrix, parse_matrix, read_ascii, save_matrix
from .statmodel import BlindChannelModel, gaussian_location
from .verify import (
    CSV_VERSION_LINE,
    DEFAULT_MARGIN_TOL,
    _certify_stage,
    _csv_text,
    _random_psds,
    counterexample_check,
    certificates_to_csv,
    merge_certificates,
    passes,
    write_certificate_witnesses,
)

EXIT_OK = 0
EXIT_INVALID_INPUT = 2
EXIT_NUMERICAL = 3
EXIT_CERTIFICATE = 4

DEFAULT_SAMPLES = 10000
DEFAULT_OUT = "crbkit_run"

# Constraints sampled per suite matrix; an input J's count is the run's.
CERTIFY_CONSTRAINTS_PER_MATRIX = 20
# Suite matrices drawn and framed together: their frames of one n share a qr. Only one stage's J, frames and
# samples are held at a time; the certificates keep every case's margin, so they grow with --count.
CERTIFY_STAGE = 20

# Built-in models: factory and default parameters, in manifest order.
MODELS = {
    "blind_channel": (BlindChannelModel, {"s_len": 3, "h_len": 3, "noise_var": 1.0}),
    "gaussian_location": (gaussian_location, {"dim": 4, "noise_var": 1.0}),
}


class CliError(Exception):
    """Error with an exit code; the message names the failing stage."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


@functools.cache
def _label_key(label: str) -> int:
    return int.from_bytes(hashlib.sha256(label.encode("ascii")).digest()[:4], "big")


def derived_rng(seed: int, label: str, index: int = 0) -> np.random.Generator:
    """Random stream derived from (seed, component label, index)."""
    return np.random.default_rng(seed_sequence(seed, _label_key(label), index))


def derived_seed(seed: int, label: str, index: int = 0) -> int:
    """Integer sub-seed derived from (seed, component label, index)."""
    return int(seed_sequence(seed, _label_key(label), index).generate_state(1, np.uint64)[0])


def _setting(key: str, default, help_text: str, limit: str):
    """A run setting's RunConfig field: config key, flag help, limit "positive" or "nonnegative".

    A setting must also be finite.
    """
    return field(default=default, metadata={"key": key, "help": help_text, "limit": limit})


@dataclass(frozen=True, eq=False)
class RunConfig:
    """Resolved run parameters, checked as made; the _setting fields are the run settings, in manifest order."""

    command: str
    matrix: np.ndarray | None = None  # the input is matrix or model_kind; certify with neither runs its suite
    model_kind: str | None = None
    model_params: dict = field(default_factory=dict)
    theta: np.ndarray | None = None
    fim_method: str = "analytic"
    output_dir: Path = Path(DEFAULT_OUT)
    seed: int = _setting("seed", 0, "top-level random seed", "nonnegative")
    count: int = _setting("count", 100, "matrices (certify suite) or constraints to sample", "positive")
    n_samples: int = _setting("samples", DEFAULT_SAMPLES, "Monte-Carlo sample count", "positive")
    rank_tol_rel: float = _setting("rank_tol", DEFAULT_RANK_TOL_REL, "relative rank cutoff", "positive")
    margin_tol: float = _setting("margin_tol", DEFAULT_MARGIN_TOL, "certificate margin tolerance", "positive")

    def __post_init__(self) -> None:
        if self.matrix is None and self.model_kind is None and self.command != "certify":
            raise InvalidInput(f"{self.command} requires --input or --model naming a matrix or a model")
        for key, setting in SETTINGS.items():
            value, limit = getattr(self, setting.name), setting.metadata["limit"]
            if not (value > 0 if limit == "positive" else value >= 0):
                raise InvalidInput(f"{key} must be {limit}, got {value}")
            if value == np.inf:
                raise InvalidInput(f"{key} must be finite, got {value}")
        if self.fim_method not in ("analytic", "monte_carlo"):
            raise InvalidInput(f"fim_method must be analytic or monte_carlo, got {self.fim_method!r}")


# Run settings by config key, in manifest order.
SETTINGS = {f.metadata["key"]: f for f in fields(RunConfig) if f.metadata}

# Keys a config file may set: the run's own keys, its settings and every built-in model's parameters.
CONFIG_KEYS = {"command", "version", "input", "model", "theta", "fim_method", *SETTINGS} | {
    key for _, params in MODELS.values() for key in params
}


def parse_config_text(text: str) -> dict[str, str]:
    """Parse flat key = value lines; a line starting with # is a comment. A key may appear once."""
    values: dict[str, str] = {}
    line_of: dict[str, int] = {}
    for number, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InvalidInput(f"config line {number} is not 'key = value': {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in CONFIG_KEYS:
            raise InvalidInput(f"unknown config key {key!r} on line {number}")
        if key in line_of:
            raise InvalidInput(f"config key {key!r} is given twice, on lines {line_of[key]} and {number}")
        line_of[key] = number
        values[key] = value.strip()
    return values


def _parse(values: dict[str, str], key: str, default):
    """The config-file value of key as the type of default; default when the key is absent."""
    if key not in values:
        return default
    kind = type(default)
    try:
        return kind(values[key])
    except ValueError as exc:
        what = "an integer" if kind is int else "a number"
        raise InvalidInput(f"config key {key} is not {what}: {values[key]!r}") from exc


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Merge CLI flags over config-file values into a RunConfig."""
    file_values: dict[str, str] = {}
    matrix: np.ndarray | None = None
    model_kind: str | None = None

    if args.input is not None and args.model is not None:
        raise InvalidInput("pass exactly one of --input and --model")

    if args.input is not None:
        path = Path(args.input)
        text = read_ascii(path, f"no such input file: {path}")
        if any("=" in line for line in text.splitlines() if not line.strip().startswith("#")):  # matx holds numbers
            file_values = parse_config_text(text)
            if "model" in file_values and "input" in file_values:
                raise InvalidInput("config names both a model and an input matrix")
            if "model" in file_values:
                model_kind = file_values["model"]
            elif "input" in file_values:  # naming neither makes a certify suite config
                ref = (path.parent / file_values["input"]).resolve()
                matrix = load_matrix(ref)
        else:
            matrix = parse_matrix(text)
    elif args.model is not None:
        model_kind = args.model

    model_params: dict = {}
    reads = COMMANDS[args.command][2]
    allowed = {"command", "version", "input", "model", *reads}  # the file keys that apply to every input
    if model_kind is not None:
        if model_kind not in MODELS:
            raise InvalidInput(f"unknown model {model_kind!r}; choose from {tuple(MODELS)}")
        for key, default in MODELS[model_kind][1].items():
            model_params[key] = _parse(file_values, key, default)
        allowed |= {"theta", "fim_method", *model_params}
    if stray := sorted(file_values.keys() - allowed):
        where = f"to model {model_kind}" if model_kind is not None else "without a model"
        where = f"to {args.command}" if stray[0] in SETTINGS else where  # a setting that the command does not read
        raise InvalidInput(f"config key {stray[0]!r} does not apply {where}")

    theta = None
    if "theta" in file_values:
        try:
            theta = np.array([float(v) for v in file_values["theta"].split()])
        except ValueError as exc:
            raise InvalidInput(f"config key theta is not a vector: {file_values['theta']!r}") from exc
        if not np.all(np.isfinite(theta)):
            raise InvalidInput(f"config key theta has non-finite entries: {file_values['theta']!r}")

    settings = {}  # a file value is parsed even where a flag overrides it, so a malformed file is refused
    for key in reads:
        value = _parse(file_values, key, SETTINGS[key].default)
        settings[SETTINGS[key].name] = value if getattr(args, key) is None else getattr(args, key)

    return RunConfig(
        command=args.command,
        matrix=matrix,
        model_kind=model_kind,
        model_params=model_params,
        theta=theta,
        fim_method=file_values.get("fim_method", "analytic"),
        output_dir=Path(args.out),
        **settings,
    )


def _factor_j(factor, j, rank_tol_rel: float):
    """factor(j, rank_tol_rel), of ranked_svd or ranked_svds, its refusal of rank_tol or of J a CliError with exit 2."""
    try:
        return factor(j, rank_tol_rel)
    except InvalidInput as exc:  # a rule that calls every eigenvalue zero cannot judge definiteness
        raise CliError(EXIT_INVALID_INPUT, f"checking rank_tol: {exc}") from None
    except InvalidMatrix as exc:
        raise CliError(EXIT_INVALID_INPUT, f"reading input: {exc}") from exc


def information_matrix(config: RunConfig):
    """(basis, estimate, theta): the run's J as _factor_j factors it, and a model's FimEstimate and theta, the config's
    or else generic values from the seed, both None for a matrix input; CliError exit 2, or 3 if estimating fails."""
    try:
        if config.matrix is not None:
            sym, estimate, theta = as_sym_matrix(config.matrix), None, None
        else:
            model = MODELS[config.model_kind][0](**config.model_params)
            theta, dim = config.theta, model.param_dim
            if theta is None:
                rng = derived_rng(config.seed, "theta")
                theta = _allocated(lambda shape: rng.uniform(0.5, 1.5, shape), (dim,), "theta")
            elif theta.size != dim:
                raise InvalidInput(f"theta has length {theta.size}, model needs {dim}")
            if config.fim_method == "monte_carlo":
                seed = derived_seed(config.seed, "fim-mc")
                estimate = fim_monte_carlo(model, theta, config.n_samples, seed)
            else:
                estimate = fim_gaussian_mean(model, theta)
            sym = estimate.matrix
    except (InvalidInput, InvalidMatrix) as exc:
        raise CliError(EXIT_INVALID_INPUT, f"reading input: {exc}") from exc
    except NumericalFailure as exc:
        raise CliError(EXIT_NUMERICAL, f"estimating information matrix: {exc}") from exc
    return _factor_j(ranked_svd, sym, config.rank_tol_rel), estimate, theta  # a model's J: PSD up to zeroed roundoff


def _config_value(value) -> str:
    return format_float(value) if isinstance(value, float) else str(value)


def write_manifest(config: RunConfig, basis, theta) -> None:
    """Write the run in config form (17-digit floats) as manifest.cfg, with theta and basis as information_matrix gave
    them (None, None for a suite): a matrix input's J, symmetrized, goes next to it as the j.matx its input names."""
    out = config.output_dir
    lines = [f"{CSV_VERSION_LINE} manifest", f"command = {config.command}", f"version = {__version__}"]
    lines += [f"{key} = {_config_value(getattr(config, SETTINGS[key].name))}" for key in COMMANDS[config.command][2]]
    if config.matrix is not None:
        save_matrix(out / "j.matx", basis.matrix.entries)
        lines.append("input = j.matx")
    elif config.model_kind is not None:
        lines.append(f"model = {config.model_kind}")
        lines += [f"{key} = {_config_value(value)}" for key, value in config.model_params.items()]
        lines.append(f"fim_method = {config.fim_method}")
        lines.append("theta = " + format_row(theta.tolist()))
    (out / "manifest.cfg").write_text("\n".join(lines) + "\n", encoding="ascii")


def cmd_analyze(config: RunConfig) -> int:
    """Rank, pseudoinverse, and optimal-constraint report for one matrix."""
    out = config.output_dir

    basis, estimate, theta = information_matrix(config)
    report = unconstrained_crb(basis)
    n, rank = basis.dim, basis.rank
    if config.matrix is None:  # a matrix input is written with the manifest
        save_matrix(out / "j.matx", basis.matrix.entries)
    save_matrix(out / "j_pinv.matx", report.bound.entries)

    rows: list[tuple[str, str]] = [
        ("command", "analyze"),
        ("n", str(n)),
        ("rank", str(rank)),
        ("nullity", str(n - rank)),
        ("singular_fim_warning", "true" if report.singular_fim_warning else "false"),
        ("trace_pinv", format_float(report.trace)),
    ]
    if estimate is not None:
        rows.append(("fim_method", estimate.method))
        if estimate.method == "monte_carlo":
            rows.append(("fim_samples", str(estimate.n_samples)))
            rows.append(("fim_std_err_bound", format_float(estimate.std_err_bound)))
            rows.append(("fim_clip_magnitude", format_float(max(0.0, -float(basis.eigenvalues.min())))))
    for i, value in enumerate(basis.sigma, 1):
        rows.append((f"sigma_{i}", format_float(value)))
    for i, value in enumerate(report.eigenvalues, 1):
        rows.append((f"eig_pinv_{i}", format_float(value)))

    if rank == n:
        rows.append(("constraint", "none"))
        rows.append(("note", "no constraint needed"))
        print(f"information matrix is nonsingular (rank {rank}); no constraint needed")
        print(f"inverse written to {out / 'j_pinv.matx'}")
    else:
        spec = optimal_affine_constraint(basis, np.zeros(n) if theta is None else theta)
        bound = constrained_crb(basis, spec)
        save_constraint_spec(out / "constraint.matx", spec)
        if bound.exists:  # U'JU can be singular within roundoff of the rank cutoff: no bound, trace inf
            save_matrix(out / "crb_constrained.matx", bound.bound.entries)
        rows.append(("constraint", spec.label))
        rows.append(("constraint_rows", str(spec.n_constraints)))
        rows.append(("constraint_exists", "true" if bound.exists else "false"))
        rows.append(("trace_constrained", format_float(bound.trace)))
        for i, value in enumerate(bound.eigenvalues if bound.exists else (), 1):
            rows.append((f"eig_crb_{i}", format_float(value)))
        print(
            f"information matrix is singular (rank {rank} of {n}); "
            f"optimal affine constraint has {spec.n_constraints} row(s)"
        )

    (out / "analysis.csv").write_text(_csv_text(["key,value"], [f"{k},{v}" for k, v in rows]), encoding="ascii")
    write_manifest(config, basis, theta)
    print(f"report written to {out / 'analysis.csv'}")
    return EXIT_OK


def _suite_stage(config: RunConfig, shape_rng: np.random.Generator, start: int) -> list[tuple]:
    """(basis, rng) of suite matrices start, start + 1, ..., at most CERTIFY_STAGE: each (n, rank) drawn from shape_rng
    as the stage starts, J from its certify-matrix stream; one qr and eigh per n (_random_psds, ranked_svds)."""
    draws = []
    for index in range(start, min(start + CERTIFY_STAGE, config.count)):
        n = int(shape_rng.integers(2, 9))
        draws.append((n, int(shape_rng.integers(1, n)), derived_rng(config.seed, "certify-matrix", index)))
    return list(zip(_factor_j(ranked_svds, _random_psds(draws), config.rank_tol_rel), [rng for *_, rng in draws]))


def cmd_certify(config: RunConfig) -> int:
    """Run the full certificate suite; exit 4 when any inequality fails.

    verify._certify_stage checks the suite in stages of CERTIFY_STAGE matrices, each matrix's frames and sampled
    constraints drawn from the stream that drew its J. cli keeps the streams
    (_suite_stage's shapes and each matrix's certify-matrix stream, index 0 for --input), the merge and every output.
    """
    out = config.output_dir

    if config.matrix is None and config.model_kind is None:
        basis = theta = None
        shape_rng = derived_rng(config.seed, "certify-shapes")
        stages = (_suite_stage(config, shape_rng, start) for start in range(0, config.count, CERTIFY_STAGE))
        constraints_count = CERTIFY_CONSTRAINTS_PER_MATRIX
    else:
        basis, _, theta = information_matrix(config)
        if basis.rank in (0, basis.dim):
            raise CliError(
                EXIT_INVALID_INPUT,
                f"certify: input information matrix is {'nonsingular' if basis.rank else 'zero'}; "
                "the bound inequalities are only at stake for singular nonzero input",
            )
        stages = [[(basis, derived_rng(config.seed, "certify-matrix", 0))]]
        constraints_count = config.count

    parts = [_certify_stage(matrices, constraints_count, config.margin_tol, CERTIFY_STAGE * i)
             for i, matrices in enumerate(stages)]
    certificates = [merge_certificates(list(theorem)) for theorem in zip(*parts)]
    certificates.append(counterexample_check())

    (out / "certificates.csv").write_text(certificates_to_csv(certificates), encoding="ascii")
    write_manifest(config, basis, theta)

    failed = [cert for cert in certificates if not cert.passed]
    for cert in certificates:
        status = "passed" if cert.passed else "FAILED"
        print(
            f"{cert.theorem_id}: {status} over {cert.n_cases} cases, "
            f"worst margin {format_float(cert.worst_margin)}"
            + (f" ({cert.detail})" if cert.detail else "")
        )
    if failed:
        witness_dir = out / "witnesses"
        for cert in failed:
            paths = write_certificate_witnesses(cert, witness_dir)
            print(f"{cert.theorem_id}: wrote {len(paths)} witness files to {witness_dir}", file=sys.stderr)
        return EXIT_CERTIFICATE
    return EXIT_OK


def cmd_experiment(config: RunConfig) -> int:
    """Trace survey over sampled minimum constraints for a singular matrix."""
    out = config.output_dir

    basis, _, theta = information_matrix(config)
    baseline = basis.pinv.trace
    seed = derived_seed(config.seed, "experiment-constraints")
    try:
        traces = sample_constraint_traces(basis, config.count, seed)
    except InvalidInput as exc:  # J nonsingular, or a count numpy cannot allocate
        raise CliError(EXIT_INVALID_INPUT, f"sampling constraints: {exc}") from exc
    margins = traces - baseline
    worst, sampled = margins.min(), len(traces)
    row = f"%d,{FLOAT_FMT},{FLOAT_FMT}"
    rows = [row % values for values in zip(range(sampled), traces.tolist(), margins.tolist())]
    head = [f"# baseline_trace = {format_float(baseline)}", "sample_index,trace,margin"]
    (out / "traces.csv").write_text(_csv_text(head, rows), encoding="ascii")
    write_manifest(config, basis, theta)

    print(
        f"{sampled} constraints sampled; baseline trace {format_float(baseline)}; "
        f"worst margin {format_float(worst)}"
    )
    if not passes(margins, config.margin_tol).all():
        raise CliError(
            EXIT_NUMERICAL,
            f"experiment: observed trace margin {format_float(worst)} below -margin_tol",
        )
    print(f"traces written to {out / 'traces.csv'}")
    return EXIT_OK


# Each command's function, help line and the settings it reads, which are its flags, config keys and manifest lines,
# in parser order.
COMMANDS = {
    "analyze": (cmd_analyze, "rank / pseudoinverse / optimal constraint report", ("seed", "samples", "rank_tol")),
    "certify": (cmd_certify, "run all inequality certificates", tuple(SETTINGS)),
    "experiment": (cmd_experiment, "trace survey over sampled minimum constraints", tuple(SETTINGS)),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The crbkit argument parser, built on first use and shared by every main call in the process."""
    parser = argparse.ArgumentParser(
        prog="crbkit",
        description="Cramer-Rao bounds under singular Fisher information",
    )
    parser.add_argument("--version", action="version", version=f"crbkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, reads) in COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--input", help="matx matrix file or key = value config file")
        cmd.add_argument("--model", choices=tuple(MODELS), help="built-in model with default sizes")
        cmd.add_argument("--out", default=DEFAULT_OUT, help="output directory")
        for key in reads:
            flag, setting = "--" + key.replace("_", "-"), SETTINGS[key]
            cmd.add_argument(flag, dest=key, type=type(setting.default), help=setting.metadata["help"])
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        try:
            config = resolve_config(args)
            os.makedirs(config.output_dir, exist_ok=True)
        except (InvalidInput, InvalidMatrix, OSError) as exc:
            raise CliError(EXIT_INVALID_INPUT, f"resolving configuration: {exc}") from exc
        # finite input too large for double precision would otherwise turn to inf part way
        with np.errstate(over="raise"):
            return COMMANDS[config.command][0](config)
    except FloatingPointError as exc:
        print(f"error: input values too large for double precision: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except OSError as exc:  # input is read while resolving, so a command's OSError is a failed write
        print(f"error: writing outputs: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except np.linalg.LinAlgError as exc:
        print(f"error: linear algebra failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except CrbKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
