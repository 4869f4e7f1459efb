"""The demo scripts and README's example run to completion; README names every demo."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = (ROOT / "README.md").read_text()


def test_demos_are_found():
    assert DEMOS, f"no demo scripts under {ROOT / 'demos'}"


@pytest.mark.parametrize("script", DEMOS, ids=[path.stem for path in DEMOS])
def test_demo_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    result = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()


def test_readme_example_runs_as_written():
    block = README.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["trajectory"].velocities.ndim == 3


def test_readme_names_every_demo():
    section = README[README.index("The demos in `demos/`"):]
    block = section.split("```")[1]
    named = re.findall(r"demos/(\w+\.py)", block)
    assert sorted(named) == [path.name for path in DEMOS]
