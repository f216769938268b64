"""Every demo script runs to completion against the library in src/."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("*.py"))
# a demo branch that only runs under a flag, as (script, argument)
FLAGGED = [("pipeline_walkthrough.py", "--dim2")]


@pytest.mark.parametrize(
    "demo, args",
    [(d, ()) for d in DEMOS] + [(d, (a,)) for d, a in FLAGGED],
    ids=DEMOS + [f"{d}{a}" for d, a in FLAGGED],
)
def test_demo_runs(demo, args, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo), *args],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
