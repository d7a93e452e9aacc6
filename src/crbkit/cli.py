"""Command-line front end.

Three commands over a shared flag set:

  analyze     rank / pseudoinverse / optimal-constraint report for one
              information matrix, from a matx file or a model config
  certify     run every inequality certificate and write one CSV row per
              theorem; nonzero exit when a certificate fails
  experiment  sample random minimum constraints for a singular matrix
              and record the trace of each constrained bound

Input is either a matx matrix file or a flat key = value model config;
command-line flags override file values. Every run writes a manifest
that can be fed back through --input to reproduce the run bit for bit.
All randomness fans out from one seed through labeled streams. Exit
codes: 0 success, 2 invalid input, 3 numerical failure, 4 certificate
failure.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import os
import sys
from dataclasses import dataclass, field, fields
from itertools import compress
from pathlib import Path

import numpy as np

from . import __version__
from .constraint import (
    optimal_affine_constraint,
    sample_constraint_stacks,
    sample_minimum_stack,
    save_constraint_spec,
)
from .crb import bound_traces, constrained_crb, unconstrained_crb
from .errors import (
    CrbKitError,
    DegenerateParameter,
    FullRankFim,
    InvalidInput,
    InvalidMatrix,
    InvalidModel,
    NumericalFailure,
    SamplingExhausted,
)
from .fim import fim_gaussian_mean, fim_monte_carlo
from .matlin import (
    DEFAULT_PSD_TOL_REL,
    DEFAULT_RANK_TOL_REL,
    as_sym_matrix,
    is_psd,
    orthonormal_columns,
    ranked_svd,
    seed_sequence,
)
from .matx import format_float, load_matrix, parse_matrix, save_matrix
from .statmodel import BlindChannelModel, gaussian_location
from .verify import (
    DEFAULT_MARGIN_TOL,
    THEOREM_IDS,
    counterexample_check,
    certificates_to_csv,
    merge_certificates,
    random_rank_deficient_psd,
    verify_constraint_equivalence,
    verify_eigen_dominance,
    verify_min_rank,
    verify_poincare,
    verify_trace_bound,
    write_certificate_witnesses,
)

EXIT_OK = 0
EXIT_INVALID_INPUT = 2
EXIT_NUMERICAL = 3
EXIT_CERTIFICATE = 4

CSV_VERSION_LINE = "# crb-kit v1"

DEFAULT_SAMPLES = 10000
DEFAULT_OUT = "crbkit_run"

# Fixed per-matrix case counts for certify.
CERTIFY_CONSTRAINTS_PER_MATRIX = 20
CERTIFY_EQUIVALENCE_ALTS = 3
CERTIFY_MIN_RANK_TRIALS = 5

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


def _derived_sequence(seed: int, label: str, index: int) -> np.random.SeedSequence:
    return seed_sequence(seed, _label_key(label), index)


def derived_rng(seed: int, label: str, index: int = 0) -> np.random.Generator:
    """Random stream derived from (seed, component label, index)."""
    return np.random.default_rng(_derived_sequence(seed, label, index))


def derived_seed(seed: int, label: str, index: int = 0) -> int:
    """Integer sub-seed derived from (seed, component label, index)."""
    return int(_derived_sequence(seed, label, index).generate_state(1, np.uint64)[0])


def _setting(key: str, default, help_text: str, limit: str | None = None):
    """A run setting's RunConfig field: config key, flag help, limit "positive" or "nonnegative".

    A setting with a limit must also be finite.
    """
    return field(default=default, metadata={"key": key, "help": help_text, "limit": limit})


@dataclass
class RunConfig:
    """Fully resolved run parameters; the _setting fields are the run settings, in manifest order."""

    command: str
    input_kind: str  # "matrix" | "model" | "suite"
    matrix: np.ndarray | None = None
    model_kind: str | None = None
    model_params: dict = field(default_factory=dict)
    theta: np.ndarray | None = None
    fim_method: str = "analytic"
    output_dir: Path = Path(DEFAULT_OUT)
    seed: int = _setting("seed", 0, "top-level random seed", "nonnegative")
    count: int = _setting("count", 100, "matrices (certify suite) or constraints to sample", "positive")
    n_samples: int = _setting("samples", DEFAULT_SAMPLES, "Monte-Carlo sample count")
    rank_tol_rel: float = _setting("rank_tol", DEFAULT_RANK_TOL_REL, "relative rank cutoff", "positive")
    psd_tol_rel: float = _setting("psd_tol", DEFAULT_PSD_TOL_REL, "relative PSD slack", "positive")
    margin_tol: float = _setting("margin_tol", DEFAULT_MARGIN_TOL, "certificate margin tolerance", "positive")

    def validate(self) -> None:
        if self.input_kind == "suite" and self.command != "certify":
            raise InvalidInput(f"{self.command} requires --input or --model")
        for key, setting in SETTINGS.items():
            value, limit = getattr(self, setting.name), setting.metadata["limit"]
            if limit and not (value > 0 if limit == "positive" else value >= 0):
                raise InvalidInput(f"{key} must be {limit}, got {value}")
            if limit and value == np.inf:
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
    """Parse flat key = value lines; # starts a comment."""
    values: dict[str, str] = {}
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
        values[key] = value.strip()
    return values


def _sniff_is_config(text: str) -> bool:
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        return "=" in line
    return False


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
    input_kind = "suite"
    model_kind: str | None = None

    if args.input is not None and args.model is not None:
        raise InvalidInput("pass exactly one of --input and --model")

    if args.input is not None:
        path = Path(args.input)
        if not path.is_file():
            raise InvalidInput(f"no such input file: {path}")
        text = path.read_text(encoding="ascii")
        if _sniff_is_config(text):
            file_values = parse_config_text(text)
            if "model" in file_values and "input" in file_values:
                raise InvalidInput("config names both a model and an input matrix")
            if "model" in file_values:
                model_kind = file_values["model"]
                input_kind = "model"
            elif "input" in file_values:
                ref = (path.parent / file_values["input"]).resolve()
                matrix = load_matrix(ref)
                input_kind = "matrix"
            else:
                raise InvalidInput("config names neither a model nor an input matrix")
        else:
            matrix = parse_matrix(text)
            input_kind = "matrix"
    elif args.model is not None:
        model_kind = args.model
        input_kind = "model"

    model_params: dict = {}
    if model_kind is not None:
        if model_kind not in MODELS:
            raise InvalidInput(f"unknown model {model_kind!r}; choose from {tuple(MODELS)}")
        for key, default in MODELS[model_kind][1].items():
            model_params[key] = _parse(file_values, key, default)

    theta = None
    if "theta" in file_values:
        try:
            theta = np.array([float(v) for v in file_values["theta"].split()])
        except ValueError as exc:
            raise InvalidInput(f"config key theta is not a vector: {file_values['theta']!r}") from exc
        if not np.all(np.isfinite(theta)):
            raise InvalidInput(f"config key theta has non-finite entries: {file_values['theta']!r}")

    settings = {}  # a file value is parsed even where a flag overrides it, so a malformed file is refused
    for key, setting in SETTINGS.items():
        value = _parse(file_values, key, setting.default)
        settings[setting.name] = value if getattr(args, key) is None else getattr(args, key)

    config = RunConfig(
        command=args.command,
        input_kind=input_kind,
        matrix=matrix,
        model_kind=model_kind,
        model_params=model_params,
        theta=theta,
        fim_method=file_values.get("fim_method", "analytic"),
        output_dir=Path(args.out),
        **settings,
    )
    config.validate()
    return config


def build_model(config: RunConfig):
    return MODELS[config.model_kind][0](**config.model_params)


def resolve_theta(config: RunConfig, param_dim: int) -> np.ndarray:
    """Explicit theta from the config, else generic values from the seed."""
    if config.theta is not None:
        if config.theta.size != param_dim:
            raise InvalidInput(
                f"theta has length {config.theta.size}, model needs {param_dim}"
            )
        return config.theta
    return derived_rng(config.seed, "theta").uniform(0.5, 1.5, param_dim)


def information_matrix(config: RunConfig):
    """Resolve the run's information matrix; returns (SymMatrix, FimEstimate | None).

    Invalid input raises CliError with exit 2, a failed estimate exit 3.
    """
    try:
        if config.input_kind == "matrix":
            sym = as_sym_matrix(config.matrix)
            if not is_psd(sym, config.psd_tol_rel):
                raise InvalidInput(
                    "information matrix is not positive semidefinite: its smallest eigenvalue "
                    f"is below -{config.psd_tol_rel:g} times its largest absolute eigenvalue"
                )
            config.matrix = sym.entries  # the symmetrized matrix, which the manifest writes as j.matx
            return sym, None
        model = build_model(config)
        theta = resolve_theta(config, model.param_dim)
        config.theta = theta  # record the resolved point for the manifest
        if config.fim_method == "monte_carlo":
            seed = derived_seed(config.seed, "fim-mc")
            estimate = fim_monte_carlo(model, theta, config.n_samples, seed)
        else:
            estimate = fim_gaussian_mean(model, theta)
        return estimate.matrix, estimate
    except (InvalidInput, InvalidMatrix, InvalidModel) as exc:
        raise CliError(EXIT_INVALID_INPUT, f"reading input: {exc}") from exc
    except (NumericalFailure, np.linalg.LinAlgError) as exc:
        raise CliError(EXIT_NUMERICAL, f"estimating information matrix: {exc}") from exc


def _config_value(value) -> str:
    return format_float(value) if isinstance(value, float) else str(value)


def write_manifest(config: RunConfig) -> None:
    """Write the resolved run config in config-file form (17-digit floats) as manifest.cfg.

    A matrix input is written next to it as the j.matx its input line names.
    """
    out = config.output_dir
    lines = [f"{CSV_VERSION_LINE} manifest", f"command = {config.command}", f"version = {__version__}"]
    lines += [f"{key} = {_config_value(getattr(config, s.name))}" for key, s in SETTINGS.items()]
    if config.input_kind == "matrix":
        save_matrix(out / "j.matx", config.matrix)
        lines.append("input = j.matx")
    elif config.input_kind == "model":
        lines.append(f"model = {config.model_kind}")
        lines += [f"{key} = {_config_value(value)}" for key, value in config.model_params.items()]
        lines.append(f"fim_method = {config.fim_method}")
        if config.theta is not None:
            lines.append("theta = " + " ".join(format_float(v) for v in config.theta))
    (out / "manifest.cfg").write_text("\n".join(lines) + "\n", encoding="ascii")


def _kv_csv(rows: list[tuple[str, str]]) -> str:
    lines = [CSV_VERSION_LINE, "key,value"]
    lines += [f"{k},{v}" for k, v in rows]
    return "\n".join(lines) + "\n"


def cmd_analyze(config: RunConfig) -> int:
    """Rank, pseudoinverse, and optimal-constraint report for one matrix."""
    out = config.output_dir

    sym, estimate = information_matrix(config)

    try:
        basis = ranked_svd(sym, config.rank_tol_rel)
        report = unconstrained_crb(basis)
    except np.linalg.LinAlgError as exc:
        raise CliError(EXIT_NUMERICAL, f"decomposing information matrix: {exc}") from exc

    n, rank = sym.dim, basis.rank
    if config.input_kind != "matrix":  # a matrix input is written with the manifest
        save_matrix(out / "j.matx", sym.entries)
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
            rows.append(("fim_clip_magnitude", format_float(estimate.clip_magnitude)))
    for i, value in enumerate(basis.sigma, 1):
        rows.append((f"sigma_{i}", format_float(value)))
    for i, value in enumerate(report.eigenvalues.values, 1):
        rows.append((f"eig_pinv_{i}", format_float(value)))

    if rank == n:
        rows.append(("constraint", "none"))
        rows.append(("note", "no constraint needed"))
        print(f"information matrix is nonsingular (rank {rank}); no constraint needed")
        print(f"inverse written to {out / 'j_pinv.matx'}")
    else:
        try:
            spec = optimal_affine_constraint(basis, np.zeros(n))
            bound = constrained_crb(basis, spec)
        except np.linalg.LinAlgError as exc:
            raise CliError(EXIT_NUMERICAL, f"synthesizing optimal constraint: {exc}") from exc
        save_constraint_spec(out / "constraint.matx", spec)
        save_matrix(out / "crb_constrained.matx", bound.bound.entries)
        rows.append(("constraint", spec.label))
        rows.append(("constraint_rows", str(spec.n_constraints)))
        rows.append(("constraint_exists", "true" if bound.exists else "false"))
        rows.append(("trace_constrained", format_float(bound.trace)))
        for i, value in enumerate(bound.eigenvalues.values, 1):
            rows.append((f"eig_crb_{i}", format_float(value)))
        print(
            f"information matrix is singular (rank {rank} of {n}); "
            f"optimal affine constraint has {spec.n_constraints} row(s)"
        )

    (out / "analysis.csv").write_text(_kv_csv(rows), encoding="ascii")
    write_manifest(config)
    print(f"report written to {out / 'analysis.csv'}")
    return EXIT_OK


def _certify_one_matrix(basis, config: RunConfig, index: int, constraints_count: int):
    """Yield the certificates of one singular J, factored once as basis, in THEOREM_IDS order."""
    seed = config.seed
    tol = config.margin_tol
    n, rank = basis.dim, basis.rank

    stack, _ = sample_minimum_stack(basis, constraints_count, derived_seed(seed, "certify-constraints", index))
    yield verify_trace_bound(basis, stack, tol)
    yield verify_eigen_dominance(basis, stack, tol)

    v = orthonormal_columns(
        derived_rng(seed, "certify-poincare", index).standard_normal((n, rank))
    )
    yield verify_poincare(basis, v, tol)

    equiv_rng = derived_rng(seed, "certify-equivalence", index)
    alts = [
        equiv_rng.standard_normal((n - rank, n - rank)) @ basis.u_bar.T
        for _ in range(CERTIFY_EQUIVALENCE_ALTS)
    ]
    yield verify_constraint_equivalence(basis, np.zeros(n), alts, tol)

    yield verify_min_rank(basis, CERTIFY_MIN_RANK_TRIALS, derived_seed(seed, "certify-minrank", index), tol)


def cmd_certify(config: RunConfig) -> int:
    """Run the full certificate suite; exit 4 when any inequality fails."""
    out = config.output_dir

    matrices = []
    if config.input_kind == "suite":
        shape_rng = derived_rng(config.seed, "certify-shapes")
        for i in range(config.count):
            n = int(shape_rng.integers(2, 9))
            rank = int(shape_rng.integers(1, n))
            sym = random_rank_deficient_psd(n, rank, derived_rng(config.seed, "certify-matrix", i))
            matrices.append(ranked_svd(sym, config.rank_tol_rel))
        constraints_count = CERTIFY_CONSTRAINTS_PER_MATRIX
    else:
        sym, _ = information_matrix(config)
        basis = ranked_svd(sym, config.rank_tol_rel)
        if basis.rank in (0, sym.dim):
            raise CliError(
                EXIT_INVALID_INPUT,
                f"certify: input information matrix is {'nonsingular' if basis.rank else 'zero'}; "
                "the bound inequalities are only at stake for singular nonzero input",
            )
        matrices.append(basis)
        constraints_count = config.count

    per_theorem: dict[str, list] = {tid: [] for tid in THEOREM_IDS if tid != "counterexample"}
    for index, basis in enumerate(matrices):
        certs = _certify_one_matrix(basis, config, index, constraints_count)
        for theorem_id, parts in per_theorem.items():
            try:
                parts.append(next(certs))
            except (CrbKitError, np.linalg.LinAlgError) as exc:
                raise CliError(EXIT_NUMERICAL, f"certify matrix {index}, {theorem_id}: {exc}") from exc

    certificates = [
        merge_certificates(parts, config.margin_tol) for parts in per_theorem.values()
    ]
    certificates.append(counterexample_check(config.margin_tol))

    (out / "certificates.csv").write_text(certificates_to_csv(certificates), encoding="ascii")
    write_manifest(config)

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

    sym, _ = information_matrix(config)
    basis = ranked_svd(sym, config.rank_tol_rel)
    baseline = basis.pinv.trace
    lines = [CSV_VERSION_LINE, f"# baseline_trace = {format_float(baseline)}", "sample_index,trace,margin"]
    worst = np.inf
    sampled = 0
    seed = derived_seed(config.seed, "experiment-constraints")
    try:
        for stack, _ in sample_constraint_stacks(basis, config.count, seed):
            for trace in compress(bound_traces(stack), stack.is_minimum):
                margin = trace - baseline
                worst = min(worst, margin)
                lines.append(f"{sampled},{format_float(trace)},{format_float(margin)}")
                sampled += 1
    except FullRankFim as exc:
        raise CliError(EXIT_INVALID_INPUT, f"sampling constraints: {exc}") from exc
    except SamplingExhausted as exc:
        raise CliError(EXIT_NUMERICAL, f"sampling constraints: {exc}") from exc
    (out / "traces.csv").write_text("\n".join(lines) + "\n", encoding="ascii")
    write_manifest(config)

    print(
        f"{sampled} constraints sampled; baseline trace {format_float(baseline)}; "
        f"worst margin {format_float(worst)}"
    )
    if worst < -config.margin_tol:
        raise CliError(
            EXIT_NUMERICAL,
            f"experiment: observed trace margin {format_float(worst)} below -margin_tol",
        )
    print(f"traces written to {out / 'traces.csv'}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The crbkit argument parser, built on first use and shared by every main call in the process."""
    parser = argparse.ArgumentParser(
        prog="crbkit",
        description="Cramer-Rao bounds under singular Fisher information",
    )
    parser.add_argument("--version", action="version", version=f"crbkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("analyze", "rank / pseudoinverse / optimal constraint report"),
        ("certify", "run all inequality certificates"),
        ("experiment", "trace survey over sampled minimum constraints"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--input", help="matx matrix file or key = value config file")
        cmd.add_argument("--model", choices=tuple(MODELS), help="built-in model with default sizes")
        cmd.add_argument("--out", default=DEFAULT_OUT, help="output directory")
        for key, setting in SETTINGS.items():
            flag = "--" + key.replace("_", "-")
            cmd.add_argument(flag, dest=key, type=type(setting.default), help=setting.metadata["help"])
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        try:
            config = resolve_config(args)
            os.makedirs(config.output_dir, exist_ok=True)
        except (InvalidInput, InvalidMatrix, InvalidModel, DegenerateParameter, OSError,
                UnicodeDecodeError) as exc:
            raise CliError(EXIT_INVALID_INPUT, f"resolving configuration: {exc}") from exc
        # finite input too large for double precision would otherwise turn to inf part way
        with np.errstate(over="raise"):
            if config.command == "analyze":
                return cmd_analyze(config)
            if config.command == "certify":
                return cmd_certify(config)
            return cmd_experiment(config)
    except FloatingPointError as exc:
        print(f"error: input values too large for double precision: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except CrbKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
