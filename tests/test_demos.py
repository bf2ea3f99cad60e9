"""Run the example scripts in demos/ and check that each exits cleanly.

This guards the public calls the demos make (``domination_residual``,
``run_all_suites``, ``certify_lower_bound``, ``search_lower_bound`` and
others).  Each demo takes about a second.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ("01_densities.py", "02_catalog.py", "03_constructions.py", "04_verify.py", "05_search.py")


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
