"""crb-kit benchmark: run one workload and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload certify_suite --seed 1 --seconds 30 --trace 0

Workloads: certify_suite, experiment_wide, mc_blind_channel (see
perfbench/README.md). The workload runs in a fresh Python process that
imports crbkit from src/. With --trace 0 the last line of stdout is a
JSON object with the end-to-end metrics; with --trace 1 it holds the
per-layer metrics of a traced run. A full record (environment, every
job's exit code, timings, check results and output digests) is written
to .perfbench_results/. Exits nonzero without a result when the run
cannot be set up or completed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("certify_suite", "experiment_wide", "mc_blind_channel")
# Set-up-only processes whose set-up time is measured, before and again
# after the jobs, so the median samples the host over the whole run.
SETUP_REPEATS = 5


def loadavg() -> str:
    return Path("/proc/loadavg").read_text().strip()


def host_record() -> dict:
    cpuinfo = Path("/proc/cpuinfo").read_text().splitlines()
    sources = sorted((ROOT / "src" / "crbkit").glob("*.py"))
    digest = hashlib.sha256()
    for path in sources:
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():  # a benchmark checkout need not be a git repository
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": next((line.split(":", 1)[1].strip() for line in cpuinfo if line.startswith("model name")), None),
        "python": platform.python_version(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in sources),
    }


def start_worker(args, work_dir: Path, setup_only: bool):
    """Start a worker and wait for READY; returns (process, set-up seconds)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["OPENBLAS_NUM_THREADS"] = "1"
    cmd = [
        sys.executable, str(ROOT / "perfbench" / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--work-dir", str(work_dir),
    ] + (["--setup-only"] if setup_only else [])
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup_s = time.perf_counter() - t0
    if line.strip() != "READY":
        stop(proc)
        raise RuntimeError(f"worker set-up failed (exit code {proc.returncode})")
    return proc, setup_s


def measure_setups(args, work_dir: Path) -> list:
    """(set-up seconds, host probe seconds) of SETUP_REPEATS set-up-only processes."""
    setups = []
    for i in range(SETUP_REPEATS):
        # a fresh directory each, so no set-up pays to delete the last one's inputs
        proc, setup_s = start_worker(args, work_dir / str(i), setup_only=True)
        probe = stop(proc, timeout=30).split()
        if proc.returncode != 0 or probe[:1] != ["PROBE"]:
            raise RuntimeError(f"set-up-only worker exited with code {proc.returncode}")
        setups.append((setup_s, float(probe[1])))
    return setups


def stop(proc, timeout: float = 0.0) -> str:
    """Read the rest of a worker's stdout and wait for it; kill it after timeout."""
    try:
        out, _ = proc.communicate(timeout=timeout or None)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir = Path(".perfbench_work") / tag
    load_before = loadavg()
    shutil.rmtree(ROOT / work_dir, ignore_errors=True)
    try:
        setups = [] if args.trace else measure_setups(args, work_dir / "before")
        proc, _ = start_worker(args, work_dir / "run", setup_only=False)
        out = stop(proc, timeout=args.seconds + 90)
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited with code {proc.returncode}")
        result = json.loads(out.strip().splitlines()[-1])
        setups += [] if args.trace else measure_setups(args, work_dir / "after")
    except (RuntimeError, ValueError, IndexError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(ROOT / work_dir, ignore_errors=True)
    load_after = loadavg()

    records = result.pop("records")
    problems = result["problems"]
    attempted = len(records)
    failed = sum(1 for r in records if r["problems"])
    problems += [f"job {r['index']}: {'; '.join(r['problems'])}" for r in records if r["silent"]]
    metrics = {name: {"value": v, "unit": u} for name, (v, u) in result["metrics"].items()}
    if not args.trace:
        ref = result["env"]["probe_ref_s"]
        setup_s = statistics.median(s * ref / p for s, p in setups)
        metrics = {"setup_s": {"value": setup_s, "unit": "s"}, **metrics}
        result["raw"]["setup_s"] = statistics.median(s for s, _ in setups)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "env": {**host_record(), **result["env"], "loadavg_before": load_before, "loadavg_after": load_after},
        "setups_s_and_probe_s": setups, "attempted": attempted, "failed": failed,
        "problems": problems, "metrics": metrics, "raw": result["raw"], "jobs": records,
    }
    results_dir = ROOT / ".perfbench_results"
    results_dir.mkdir(exist_ok=True)
    (results_dir / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    summary = f"{args.workload}: {attempted} jobs, load {load_before} -> {load_after}"
    probes = [p for _, p in setups] + [r["probe_s"] for r in records if "probe_s" in r]
    if probes:
        summary += (f", host probe min/median/max {min(probes):.4f}/{statistics.median(probes):.4f}/"
                    f"{max(probes):.4f} s (reference {result['env']['probe_ref_s']} s)")
    print(summary)
    for name, value in result["raw"].items():
        print(f"  unscaled {name} = {value:.6g}")
    print(f"  ops_failed = {failed}/{attempted} = {failed / attempted:.4f}")
    for r in records:
        if r["problems"]:
            print(f"  failed job {r['index']} ({' '.join(r['argv'])}): {'; '.join(r['problems'])}")
    for p in problems:
        print(f"  INCORRECT: {p}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
