"""The python examples in README.md run as written."""

import os
import re
import subprocess
import sys
from pathlib import Path

import crbkit

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
