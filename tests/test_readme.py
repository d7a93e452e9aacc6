"""README.md: its python examples run as written, and it names what the command line defines."""

import argparse
import os
import re
import subprocess
import sys
from pathlib import Path

import crbkit
from crbkit import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_readme_python_block_runs_in_a_fresh_process(tmp_path):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks, "README.md has no python example"
    package_root = str(Path(crbkit.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    for index, code in enumerate(blocks):
        result = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-c", code],
            capture_output=True,
            text=True,
            cwd=tmp_path,
            env=env,
        )
        assert result.returncode == 0, f"README python block {index}:\n{result.stderr}"


def _family(key: str) -> str:
    """An indexed key such as sigma_3 as the name of its family, sigma_<i>."""
    return re.sub(r"_\d+$", "_<i>", key)


def test_readme_names_every_file_key_column_flag_setting_model_and_exit_code_of_the_cli(tmp_path):
    (tmp_path / "mc.cfg").write_text("model = blind_channel\nfim_method = monte_carlo\n", encoding="ascii")
    (tmp_path / "singular.matx").write_text("3 3\n2 0 0\n0 1 0\n0 0 0\n", encoding="ascii")
    runs = {
        "analytic": ["analyze", "--model", "blind_channel"],
        "monte_carlo": ["analyze", "--input", str(tmp_path / "mc.cfg")],
        "full_rank": ["analyze", "--model", "gaussian_location"],
        "certify": ["certify", "--count", "2"],
        "experiment": ["experiment", "--input", str(tmp_path / "singular.matx"), "--count", "5"],
    }
    files, keys, columns = {"witnesses/"}, set(), set()  # keys: those of analysis.csv
    for name, argv in runs.items():
        out = tmp_path / name
        assert cli.main([*argv, "--out", str(out)]) == cli.EXIT_OK, name
        files |= {path.name for path in out.rglob("*") if path.is_file()}
        for path in out.glob("*.csv"):
            lines = path.read_text(encoding="ascii").splitlines()[1:]  # past the version line
            columns |= {line[2:].partition(" = ")[0] for line in lines if line.startswith("# ")}  # baseline_trace
            rows = [line for line in lines if not line.startswith("#")]
            if rows[0] == "key,value":
                keys |= {_family(row.partition(",")[0]) for row in rows[1:]}
            else:
                columns |= set(rows[0].split(","))
    assert {"j_pinv.matx", "crb_constrained.matx", "certificates.csv", "traces.csv"} <= files
    assert {"fim_std_err_bound", "note", "constraint_exists", "sigma_<i>"} <= keys
    parser = cli.build_parser()
    (commands,) = [action.choices for action in parser._actions if isinstance(action, argparse._SubParsersAction)]
    flags = {flag for p in [parser, *commands.values()] for action in p._actions for flag in action.option_strings}
    names = files | keys | columns | set(commands) | set(cli.CONFIG_KEYS) | set(cli.MODELS)
    names |= {flag for flag in flags if flag.startswith("--")}
    readme = README.read_text(encoding="utf-8")
    assert not sorted(name for name in names if f"`{name}`" not in readme)
    assert not sorted(key for key in keys if not re.search(rf"^\| `{re.escape(key)}` \|", readme, re.M))
    codes = [getattr(cli, name) for name in dir(cli) if name.startswith("EXIT_")]
    assert not [code for code in codes if not re.search(rf"^\| `{code}` \|", readme, re.M)]
