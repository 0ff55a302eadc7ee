"""The acceptance-criteria summary (tests/conftest.py) gives a verdict only
for the criteria that ran: a deselected criterion prints no PASS line."""

import os
import subprocess
import sys
from pathlib import Path

import radgas

TESTS = Path(__file__).resolve().parent


def pytest_run(*args):
    """The exit code and CRITERION lines of a pytest run in a new process."""
    path = [str(Path(radgas.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", *args],
        cwd=TESTS.parent, env=env, capture_output=True, text=True, timeout=300,
    )
    lines = out.stdout.splitlines()
    return out.returncode, [line for line in lines if line.startswith("CRITERION")]


def test_deselected_criteria_print_no_verdict():
    selection = ("tests/test_grid.py", "tests/test_acceptance.py", "-k", "not criterion")
    assert pytest_run(*selection) == (0, [])


def test_criteria_that_ran_print_their_verdicts():
    selection = ("tests/test_acceptance.py", "-k", "criterion_1 or criterion_5")
    assert pytest_run(*selection) == (0, ["CRITERION 1: PASS", "CRITERION 5: PASS"])
