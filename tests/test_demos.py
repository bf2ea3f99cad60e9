"""Run the example scripts in demos/ and check that each exits cleanly.

This guards the public calls the demos make (``domination_residual``,
``run_all_suites``, ``certify_lower_bound`` and others).  ``05_search.py``
takes several seconds of gradient search, so it is left out of this
quick suite; run it by hand with ``PYTHONPATH=src python demos/05_search.py``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ("01_densities.py", "02_catalog.py", "03_constructions.py", "04_verify.py")


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
