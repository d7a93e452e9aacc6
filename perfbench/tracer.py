"""Span tracer that wraps crbkit's layers from outside the package.

`Tracer.install` replaces every traced function by a wrapper that records
a span (name, start, end, parent). `from .matlin import ranked_svd` and
the like copy a function into other modules, so the wrapper goes into
every crbkit module that holds the original, and numpy.linalg functions
are wrapped on the `numpy.linalg` module that crbkit calls through.
Nothing under src/ is edited.

Spans are kept in memory for one job at a time and folded into per-job
counts and self times, where self time is a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field

import numpy as np

# span name -> (module that defines it, attribute)
FUNCTIONS = {"cli.main": ("crbkit.cli", "main")}
for _module, _names in (
    ("matx", ("dump_matrix", "format_float", "parse_matrix")),
    ("matlin", ("ranked_svd", "pinv_via_basis", "null_complement", "is_nonsingular",
                "eigvals_desc", "orthonormal_columns")),
    ("fim", ("fim_monte_carlo", "fim_gaussian_mean")),
    ("constraint", ("check_minimum_constraint", "sample_minimum_constraints",
                    "optimal_affine_constraint")),
    ("crb", ("constrained_crb", "unconstrained_crb")),
    ("verify", ("verify_trace_bound", "verify_eigen_dominance", "verify_poincare",
                "verify_constraint_equivalence", "verify_min_rank", "counterexample_check",
                "random_rank_deficient_psd")),
):
    FUNCTIONS.update({f"{_module}.{n}": (f"crbkit.{_module}", n) for n in _names})
LINALG = ("svd", "eigvalsh", "eigh", "inv", "qr", "solve", "cholesky")
FUNCTIONS.update({f"linalg.{n}": ("numpy.linalg", n) for n in LINALG})

# span name -> (module, class, method)
METHODS = {
    "statmodel.sample": ("crbkit.statmodel", "GaussianMeanModel", "sample"),
    "statmodel.score": ("crbkit.statmodel", "GaussianMeanModel", "score"),
}


def _matrix_key(args, kwargs):
    """Identity of the J argument, to count distinct inputs."""
    m = args[0] if args else kwargs["m"]
    arr = np.asarray(getattr(m, "entries", m))
    return arr.shape, hash(arr.tobytes())


# span name -> function of the call's arguments, stored with the span
NOTES = {
    "matlin.ranked_svd": _matrix_key,
    "matlin.pinv_via_basis": _matrix_key,
    "constraint.sample_minimum_constraints": lambda a, k: a[1] if len(a) > 1 else k["count"],
    "fim.fim_monte_carlo": lambda a, k: a[2] if len(a) > 2 else k["n_samples"],
}


@dataclass
class JobTrace:
    """Spans of one job folded into counts and self times."""

    calls: Counter = field(default_factory=Counter)
    self_s: defaultdict = field(default_factory=lambda: defaultdict(float))
    distinct: dict = field(default_factory=dict)  # span name -> distinct J count
    accepted: int = 0  # constraints returned by sample_minimum_constraints
    checked: int = 0  # check_minimum_constraint calls made while sampling
    samples: int = 0  # Monte-Carlo samples requested
    mc_s: float = 0.0  # inclusive time in fim_monte_carlo
    self_total: float = 0.0
    problems: list = field(default_factory=list)


class Tracer:
    def __init__(self):
        self.recording = False
        self.spans: list[list] = []  # [name, start, end, parent index, note]
        self._stack: list[int] = []
        self._wrappers: dict[str, object] = {}
        self._patched: list[tuple[object, str, object, str]] = []  # holder, attr, original, name

    def _wrap(self, name, fn):
        spans, stack, clock, note = self.spans, self._stack, time.perf_counter, NOTES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, note(args, kwargs) if note else None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        self._wrappers[name] = wrapper
        return wrapper

    @staticmethod
    def _holders(module_name: str) -> list:
        mods = [m for k, m in list(sys.modules.items()) if k == "crbkit" or k.startswith("crbkit.")]
        return mods + ([sys.modules["numpy.linalg"]] if module_name == "numpy.linalg" else [])

    def install(self) -> None:
        for name, (module_name, attr) in FUNCTIONS.items():
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(name, original)
            for holder in self._holders(module_name):
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)
                        self._patched.append((holder, key, original, name))
        for name, (module_name, cls_name, attr) in METHODS.items():
            cls = getattr(sys.modules[module_name], cls_name)
            original = vars(cls)[attr]
            setattr(cls, attr, self._wrap(name, original))
            self._patched.append((cls, attr, original, name))

    def uninstall(self) -> None:
        for holder, key, original, _ in reversed(self._patched):
            setattr(holder, key, original)
        self._patched.clear()

    def binding_problems(self) -> list[str]:
        """Every patched binding holds its wrapper; no crbkit module still holds an original."""
        problems = [
            f"{getattr(h, '__name__', h)}.{k} is not the {name} wrapper"
            for h, k, _, name in self._patched
            if vars(h)[k] is not self._wrappers[name]
        ]
        originals = {id(orig): (orig, name) for _, _, orig, name in self._patched}
        for holder in self._holders("numpy.linalg"):
            for key, value in vars(holder).items():
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    problems.append(f"{holder.__name__}.{key} still holds the unwrapped {hit[1]}")
        patched_names = {name for *_, name in self._patched}
        problems += [f"{n} was never patched" for n in {**FUNCTIONS, **METHODS} if n not in patched_names]
        return problems

    def start_job(self) -> None:
        self.spans.clear()
        self._stack.clear()
        self.recording = True

    def finish_job(self, wall_s: float, overhead_tol_s: float) -> JobTrace:
        """Stop recording and fold the job's spans; nesting and self-time sums are checked."""
        self.recording = False
        spans, out = self.spans, JobTrace()
        child = [0.0] * len(spans)
        for i, (name, start, end, parent, note) in enumerate(spans):
            if parent < 0:
                if name != "cli.main" or i != 0:
                    out.problems.append(f"span {name} #{i} has no parent")
                continue
            p = spans[parent]
            if not (p[1] <= start <= end <= p[2]):
                out.problems.append(f"span {name} #{i} not inside its parent {p[0]} #{parent}")
            child[parent] += end - start
        keys = defaultdict(set)
        for i, (name, start, end, parent, note) in enumerate(spans):
            self_s = end - start - child[i]
            out.calls[name] += 1
            out.self_s[name] += self_s
            out.self_total += self_s
            if name in ("matlin.ranked_svd", "matlin.pinv_via_basis"):
                keys[name].add(note)
            elif name == "constraint.sample_minimum_constraints":
                out.accepted += note
            elif name == "fim.fim_monte_carlo":
                out.samples += note
                out.mc_s += end - start
            elif name == "constraint.check_minimum_constraint" and parent >= 0 \
                    and spans[parent][0] == "constraint.sample_minimum_constraints":
                out.checked += 1
        out.distinct = {name: len(k) for name, k in keys.items()}
        gap = wall_s - out.self_total
        if not 0.0 <= gap <= overhead_tol_s:
            out.problems.append(f"self times sum to {out.self_total:.6f} s, job wall {wall_s:.6f} s")
        self.spans.clear()
        return out


def per_layer_metrics(block: list[tuple[JobTrace, dict]], traced: list[tuple[JobTrace, dict]],
                      overhead_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, per job.

    Counts and count ratios come from `block`, a fixed set of traced jobs, so
    they repeat exactly for a given seed; times come from all `traced` jobs.
    Each element pairs a JobTrace with its job record (wall_s, cpu_s, items,
    bytes).
    """
    nb, nt = len(block), len(traced)

    def calls(name):
        return sum(t.calls[name] for t, _ in block) / nb

    def self_s(name):
        return sum(t.self_s[name] for t, _ in traced) / nt

    def ratio(num, den):
        return num / den if den else 0.0

    m: dict[str, tuple[float, str]] = {}
    m["cli.main.calls"] = (calls("cli.main"), "calls/job")
    m["cli.main.self_s"] = (self_s("cli.main"), "s/job")
    m["cli.main.cpu_s"] = (sum(r["cpu_s"] for _, r in traced) / nt, "s/job")
    m["matx.dump_matrix.calls"] = (calls("matx.dump_matrix"), "calls/job")
    m["matx.dump_matrix.self_s"] = (self_s("matx.dump_matrix"), "s/job")
    m["matx.format_float.calls"] = (calls("matx.format_float"), "calls/job")
    m["matx.parse_matrix.self_s"] = (self_s("matx.parse_matrix"), "s/job")
    m["matx.bytes_written"] = (sum(r["bytes"] for _, r in block) / nb, "bytes/job")
    for n in ("ranked_svd", "pinv_via_basis", "null_complement", "is_nonsingular",
              "eigvals_desc", "orthonormal_columns"):
        m[f"matlin.{n}.calls"] = (calls(f"matlin.{n}"), "calls/job")
        m[f"matlin.{n}.self_s"] = (self_s(f"matlin.{n}"), "s/job")
    for n in ("ranked_svd", "pinv_via_basis"):
        total = sum(t.calls[f"matlin.{n}"] for t, _ in block)
        distinct = sum(t.distinct.get(f"matlin.{n}", 0) for t, _ in block)
        m[f"matlin.{n}.repeat_ratio"] = (ratio(total, distinct), "calls/input")
    for n in LINALG:
        m[f"linalg.{n}.calls"] = (calls(f"linalg.{n}"), "calls/job")
    linalg_self = sum(t.self_s[f"linalg.{n}"] for t, _ in traced for n in LINALG)
    m["linalg.self_s"] = (linalg_self / nt, "s/job")
    linalg_calls = sum(t.calls[f"linalg.{n}"] for t, _ in block for n in LINALG)
    m["linalg.calls_per_item"] = (ratio(linalg_calls, sum(r["items"] for _, r in block)), "calls/item")
    m["linalg.share"] = (ratio(linalg_self, sum(r["wall_s"] for _, r in traced)), "ratio")
    for n in ("sample", "score"):
        m[f"statmodel.{n}.calls"] = (calls(f"statmodel.{n}"), "calls/job")
        m[f"statmodel.{n}.self_s"] = (self_s(f"statmodel.{n}"), "s/job")
    m["fim.fim_monte_carlo.self_s"] = (self_s("fim.fim_monte_carlo"), "s/job")
    m["fim.s_per_sample"] = (ratio(sum(t.mc_s for t, _ in traced), sum(t.samples for t, _ in traced)), "s/sample")
    m["fim.fim_gaussian_mean.calls"] = (calls("fim.fim_gaussian_mean"), "calls/job")
    for n in ("check_minimum_constraint", "sample_minimum_constraints"):
        m[f"constraint.{n}.calls"] = (calls(f"constraint.{n}"), "calls/job")
        m[f"constraint.{n}.self_s"] = (self_s(f"constraint.{n}"), "s/job")
    m["constraint.sample_accept_ratio"] = (
        ratio(sum(t.accepted for t, _ in block), sum(t.checked for t, _ in block)), "ratio")
    m["constraint.optimal_affine_constraint.calls"] = (calls("constraint.optimal_affine_constraint"), "calls/job")
    for n in ("constrained_crb", "unconstrained_crb"):
        m[f"crb.{n}.calls"] = (calls(f"crb.{n}"), "calls/job")
        m[f"crb.{n}.self_s"] = (self_s(f"crb.{n}"), "s/job")
    for n in ("verify_trace_bound", "verify_eigen_dominance", "verify_poincare",
              "verify_constraint_equivalence", "verify_min_rank", "counterexample_check",
              "random_rank_deficient_psd"):
        m[f"verify.{n}.calls"] = (calls(f"verify.{n}"), "calls/job")
        m[f"verify.{n}.self_s"] = (self_s(f"verify.{n}"), "s/job")
    m["trace.overhead_s"] = (overhead_s, "s")
    return m
