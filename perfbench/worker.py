"""One workload run in a fresh process; started by run.py, not by hand.

Sets up (imports crbkit from the checkout's src/, writes the generated
inputs), prints READY, then drives `crbkit.cli.main(argv)` in-process as
a closed loop: one job at a time, each on its own inputs, each output
checked before the next job starts. Prints one JSON line for run.py.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

import crbkit  # noqa: E402  (run.py puts the checkout's src/ on PYTHONPATH)
import crbkit.cli  # noqa: E402

if not Path(crbkit.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"crbkit imported from {crbkit.__file__}, not from {ROOT / 'src'}")

import numpy as np  # noqa: E402

from tracer import Tracer, per_layer_metrics  # noqa: E402
from workloads import WORKLOADS, job_count  # noqa: E402

# Fixed block of traced jobs whose counts are reported; they repeat exactly.
TRACE_COUNT_JOBS = 4
# Allowed gap between a traced job's wall time and the sum of its self times.
TRACE_GAP_TOL_S = 0.005

# Host speed on a shared machine drifts by up to 2x over tens of seconds,
# and CPU time drifts with wall time. So every timing is also measured
# against a fixed probe (32x32 and 6x6 LAPACK calls, small numpy ops and
# plain Python, a mix like the jobs' and independent of crbkit) run next
# to it, and scaled by PROBE_REF_S / probe time. A job uses the mean of
# the probes just before and just after it.
PROBE_REF_S = 0.017  # median probe time, 2-vCPU Intel Xeon, OpenBLAS 0.3.31, numpy 2.4
_PROBE_RNG = np.random.default_rng(0)
_PROBE_BIG = _PROBE_RNG.standard_normal((32, 32))
_PROBE_SMALL = _PROBE_RNG.standard_normal((6, 6)) + np.eye(6)
_PROBE_VEC = _PROBE_RNG.standard_normal(6)


def host_probe_s() -> float:
    t0 = time.perf_counter()
    for _ in range(8):
        np.linalg.svd(_PROBE_BIG)
    for _ in range(120):
        np.linalg.svd(_PROBE_SMALL)
        np.linalg.eigvalsh(_PROBE_SMALL)
    for _ in range(600):
        _PROBE_SMALL @ _PROBE_SMALL
        np.outer(_PROBE_VEC, _PROBE_VEC)
        np.asarray(_PROBE_VEC, dtype=float).ravel()
    table = {}
    for i in range(40_000):
        table[i & 63] = (i, i * 0.5)
    return time.perf_counter() - t0


def run_job(job, out: Path, check) -> dict:
    """Run one CLI job, check and digest its outputs, then delete them."""
    argv = job.argv + ["--out", str(out)]
    if job.write_input:
        job.write_input()
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            rc = crbkit.cli.main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            rc = exc.code
        except Exception:  # noqa: BLE001 - a crash is a failed job, not a failed run
            rc = None
            traceback.print_exc()
        t1, c1 = time.perf_counter(), time.process_time()
    try:
        problems, known = check(job, out, rc)
    except (OSError, KeyError, ValueError, IndexError) as exc:
        problems, known = [f"exit code {rc}", f"outputs unreadable: {exc!r}"], False
    files = sorted(p for p in out.rglob("*") if p.is_file()) if out.is_dir() else []
    record = {
        "index": job.index,
        "argv": job.argv,
        "rc": rc,
        "wall_s": t1 - t0,
        "cpu_s": c1 - c0,
        "items": job.items,
        "bytes": sum(p.stat().st_size for p in files),
        "problems": problems,
        # The inputs are valid by construction, so any failure other than
        # the known false FAIL means the program is wrong.
        "silent": bool(problems) and not known,
        "sha256": {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest() for p in files},
    }
    if problems:
        record["stderr_tail"] = err.getvalue()[-2000:]
    shutil.rmtree(out, ignore_errors=True)
    return record


def run_plain(jobs, check, outputs: Path) -> dict:
    records = []
    probe_before = host_probe_s()
    for job in jobs:
        record = run_job(job, outputs / f"job_{job.index}", check)
        probe_after = host_probe_s()
        record["probe_s"] = 0.5 * (probe_before + probe_after)
        records.append(record)
        probe_before = probe_after
    # Only jobs that did all their work count; a silent failure makes the
    # run incorrect anyway.
    done = [r for r in records if not r["silent"]] or records
    items = sum(r["items"] for r in done)
    walls = [r["wall_s"] for r in done]
    scaled = [r["wall_s"] * PROBE_REF_S / r["probe_s"] for r in done]
    metrics = {
        "items_per_s": (items / sum(scaled), "items/s"),
        "job_p50_s": (statistics.median(scaled), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    raw = {"items_per_s": items / sum(walls), "job_p50_s": statistics.median(walls)}
    return {"records": records, "metrics": metrics, "raw": raw, "problems": []}


def run_traced(jobs, check, outputs: Path) -> dict:
    """Alternate untraced and traced jobs; per-layer metrics from the traced ones."""
    tracer = Tracer()
    tracer.install()
    problems = tracer.binding_problems()
    records, plain, traced = [], [], []
    for job in jobs:
        is_traced = job.index % 2 == 1
        if is_traced:
            tracer.start_job()
        record = run_job(job, outputs / f"job_{job.index}", check)
        records.append(record)
        if is_traced:
            trace = tracer.finish_job(record["wall_s"], TRACE_GAP_TOL_S)
            problems += [f"job {job.index}: {p}" for p in trace.problems]
            traced.append((trace, record))
        else:
            plain.append(record)
    tracer.uninstall()
    if len(traced) < TRACE_COUNT_JOBS:
        problems.append(f"only {len(traced)} traced jobs, need {TRACE_COUNT_JOBS}")
        return {"records": records, "metrics": {}, "raw": {}, "problems": problems}
    overhead = statistics.median(r["wall_s"] for _, r in traced) - statistics.median(
        r["wall_s"] for r in plain
    )
    metrics = per_layer_metrics(traced[:TRACE_COUNT_JOBS], traced, overhead)
    return {"records": records, "metrics": metrics, "raw": {}, "problems": problems}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    make_jobs, check = WORKLOADS[args.workload]
    inputs = args.work_dir / "inputs"
    inputs.mkdir(parents=True)
    jobs = make_jobs(args.seed, inputs, job_count(args.workload, args.seconds))
    print("READY", flush=True)
    if args.setup_only:
        # the host's speed right after set-up; the median of three steadies it
        print(f"PROBE {statistics.median(host_probe_s() for _ in range(3))!r}", flush=True)
        return 0

    run = run_traced if args.trace else run_plain
    result = run(jobs, check, args.work_dir / "outputs")
    status = Path("/proc/self/status").read_text().split("\n")
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    result["env"] = {
        "numpy": np.__version__,
        "blas": blas.get("openblas configuration", f"{blas.get('name')} {blas.get('version')}"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "threads": int(next(line.split()[1] for line in status if line.startswith("Threads:"))),
        "probe_ref_s": PROBE_REF_S,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
