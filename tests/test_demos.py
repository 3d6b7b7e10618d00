"""Smoke test: every narrative demo runs to completion.

The demos are found by glob, so a new script is run without being listed.
Each runs in its own interpreter, exactly as a reader would start it, so an
API change that breaks a demo fails here instead of silently.
"""

import os
import subprocess
import sys
from pathlib import Path

import mirnet_forge
import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"


# toy_denoising trains for two steps in a workspace it creates under TMPDIR
ARGS = {"toy_denoising": ["2"]}


@pytest.mark.parametrize("name", sorted(p.stem for p in DEMOS.glob("*.py")))
def test_demo_runs(name, tmp_path):
    env = dict(os.environ, TMPDIR=str(tmp_path),
               PYTHONPATH=str(Path(mirnet_forge.__file__).parents[1]))
    proc = subprocess.run([sys.executable, str(DEMOS / f"{name}.py"),
                           *ARGS.get(name, [])],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
