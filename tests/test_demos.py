"""Every demo script and the README's library quickstart run to completion."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


def test_all_demos_found():
    assert len(DEMOS) == 7


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "MPLBACKEND": "Agg"}
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_readme_library_quickstart_runs(capsys):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Quickstart (library)", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    baseline, solved, kkt = capsys.readouterr().out.splitlines()
    assert float(baseline) == pytest.approx(24.0)
    energy, converged, cycles = solved.split()
    assert 7.0 < float(energy) < 8.0 and converged == "True" and int(cycles) > 0
    assert float(kkt) <= 1e-3
