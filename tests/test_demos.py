"""The four demos and the README's library quickstart run to completion
as scripts. Demo 01 exits nonzero if W^L v is not exactly zero or the
settled mean is not bitwise the forward stack; demos 02 and 04 exit
nonzero if TwoL is not bitwise equal to classical backprop (its
gradients, and its trained parameters), and demo 02 also if the
unit-step Dyadic relaxation's gradients are not."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run_python(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )


@pytest.mark.parametrize("script", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_exits_zero(script):
    done = _run_python([str(ROOT / "demos" / script)])
    assert done.returncode == 0, done.stderr


def test_readme_library_quickstart_prints_its_comment():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Quickstart: library", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    done = _run_python(["-c", code])
    assert done.returncode == 0, done.stderr
    assert done.stdout == "19 True\n"
