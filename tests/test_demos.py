"""Every demo script runs cleanly against the package in src/."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout.strip()


def _readme_cli_examples() -> str:
    """The sh block of README's "Command line" section."""
    section = (ROOT / "README.md").read_text().split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    return section.split("```sh\n", 1)[1].split("```", 1)[0]


def test_readme_cli_examples_run():
    # a flag the README documents but the parser no longer takes fails here
    script = 'snaketsys() { "$PYTHON" -m snaketsys.cli "$@"; }\n' + _readme_cli_examples()
    env = dict(os.environ, PYTHON=sys.executable)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        ["bash", "-e", "-o", "pipefail", "-c", script], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert "qr-dual-equivariance: ok" in proc.stdout
