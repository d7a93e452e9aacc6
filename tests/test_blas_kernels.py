"""Verdicts agree across OpenBLAS kernels: ten commands of tools/cli_digest.py's sweep, the four that exit 4 among
them, run in one subprocess per kernel give the same exit codes and the same passed column in each certificates.csv.
Their bytes may differ by roundoff, as the sweep's totals under each kernel do.

Run as a script, this file prints the running core and those verdicts for the kernel it was started under, as JSON.
"""

import ctypes
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy  # noqa: F401  (numpy loads its OpenBLAS on import, where _openblas finds it)
import pytest

from util import load_tool

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "cli_digest.py"

COMMANDS = [
    ["certify", "--count", "20", "--seed", "5000"],
    ["certify", "--count", "5", "--seed", "3", "--margin-tol", "1e-320"],
    ["certify", "--count", "20", "--seed", "11", "--rank-tol", "0.05"],
    ["certify", "--count", "45", "--seed", "6"],
    ["certify", "--count", "30", "--input", "{tmp}/rank3_scale1.matx"],
    ["certify", "--count", "30", "--input", "{tmp}/rank3_scale1e-8.matx"],
    ["certify", "--rank-tol", "1e-3", "--input", "{tmp}/rank3_scale1e-8.matx"],
    ["certify", "--count", "30", "--rank-tol", "0.1", "--input", "{tmp}/rank3_scale1e-8.matx"],
    ["certify", "--input", "{tmp}/blind_mc.cfg", "--count", "20"],
    ["analyze", "--input", "{tmp}/indefinite_1e-6.matx"],
]


def _openblas():
    """The OpenBLAS that numpy loaded on import, found in this process's memory map, or None."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    paths = sorted({line.split()[-1] for line in maps.splitlines() if "openblas" in line.rsplit("/", 1)[-1].lower()})
    return ctypes.CDLL(paths[0]) if paths else None


def _read(lib, symbol: str) -> str:
    function = getattr(lib, symbol)
    function.restype = ctypes.c_char_p
    return function().decode()


def _verdicts() -> dict:
    """The running core, and each command's exit code and certificates.csv passed column (None where it wrote none)."""
    from crbkit.cli import main

    tool = load_tool(TOOL)
    results = []
    with tempfile.TemporaryDirectory() as name:
        directory = Path(name)
        tool.write_inputs(directory, tool.INPUTS)
        for index, argv in enumerate(COMMANDS):
            out = directory / f"out-{index}"
            code, _, _ = tool.sweep_run(main, argv, directory, out)
            csv = out / "certificates.csv"
            passed = [row.split(",")[1] for row in csv.read_text().splitlines()[2:]] if csv.exists() else None
            results.append([code, passed])
    return {"core": _read(_openblas(), "scipy_openblas_get_corename64_"), "results": results}


def _under(coretype: str | None) -> dict:
    """_verdicts in a new process, under OPENBLAS_CORETYPE=coretype, or with the variable unset for None."""
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    if coretype is not None:
        env["OPENBLAS_CORETYPE"] = coretype
    result = subprocess.run([sys.executable, __file__], capture_output=True, text=True, env=env, timeout=60)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def _skip_reason() -> str | None:
    lib = _openblas()
    if lib is None:
        return "numpy's BLAS is not an OpenBLAS found in this process's memory map"
    if not all(hasattr(lib, symbol) for symbol in ("scipy_openblas_get_corename64_", "scipy_openblas_get_config64_")):
        return "the loaded OpenBLAS exports no scipy_openblas_get_corename64_ or scipy_openblas_get_config64_"
    if "DYNAMIC_ARCH" not in _read(lib, "scipy_openblas_get_config64_").split():
        return "numpy's OpenBLAS is not built with DYNAMIC_ARCH, so it runs one kernel only"
    try:
        cpuinfo = Path("/proc/cpuinfo").read_text()
    except OSError:
        return "no /proc/cpuinfo to tell whether the CPU has AVX2"
    if not any(line.startswith("flags") and "avx2" in line.split() for line in cpuinfo.splitlines()):
        return "the CPU lacks AVX2, which the Haswell kernel needs"
    return None


def test_the_default_and_haswell_kernels_give_the_same_exit_codes_and_verdicts():
    if reason := _skip_reason():
        pytest.skip(reason)
    default, haswell = _under(None), _under("Haswell")
    assert haswell["core"] == "Haswell"
    if "OPENBLAS_CORETYPE" not in os.environ:
        assert default["core"] == _read(_openblas(), "scipy_openblas_get_corename64_")
    assert [code for code, _ in default["results"]].count("4") == 4
    assert sum(passed is not None for _, passed in default["results"]) == 9
    assert default["results"] == haswell["results"]


if __name__ == "__main__":
    print(json.dumps(_verdicts()))
