"""The package root and the exact-side modules load without numpy.

Each check runs in a fresh interpreter, because the test process itself has
numpy loaded.  The flow check runs README's "flow in five lines" snippet as
README prints it, so the snippet is also checked against drift.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

EXACT_MODULES = ["graphs", "partitions", "ring", "replica_rg", "semicircle"]

EXACT_ENTRY_POINTS = """
import contextlib, io, json, sys
from fractions import Fraction

import rmtlab

snippet = sys.stdin.read()
scope = {}
printed = io.StringIO()
with contextlib.redirect_stdout(printed):
    exec(snippet, scope)
spec = rmtlab.CumulantSpec.gaussian_spec(Fraction(1))
rmtlab.check_bounds_flow(scope["state"], spec)
rmtlab.wick_oracle(spec, 2)
moment = rmtlab.trace_moment_expectation(3, 4, rmtlab.gaussian_cumulant_function(1))
print(json.dumps({"printed": printed.getvalue(), "moment": str(moment),
                  "numpy": "numpy" in sys.modules}))
"""


def run_fresh(code: str, stdin: str = "") -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, "-c", code], input=stdin, env=env,
                          capture_output=True, text=True, timeout=120)


def readme_flow_snippet() -> str:
    text = (ROOT / "README.md").read_text()
    section = text[text.index("The flow in five lines:"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_exact_entry_points_run_without_numpy():
    result = run_fresh(EXACT_ENTRY_POINTS, readme_flow_snippet())
    assert result.returncode == 0, result.stderr
    doc = json.loads(result.stdout)
    assert doc["printed"] == "1, 0, 1, 0, 2, 0, 5\n"
    assert doc["moment"] == "19/9"  # the GUE's 2 + 1/N^2 at N = 3
    assert doc["numpy"] is False


@pytest.mark.parametrize("module", EXACT_MODULES)
def test_exact_module_imports_without_numpy(module):
    result = run_fresh(f"import sys, rmtlab.{module}; print('numpy' in sys.modules)")
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"
