"""Smoke tests: every example script runs to completion.

Examples are part of the public surface; each one contains its own
assertions, so a zero exit code means the demonstrated flow verified.
"""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"
EXAMPLES = sorted(p.name for p in EXAMPLES_DIR.glob("*.py"))


def test_example_inventory():
    """The README promises at least these runnable walkthroughs."""
    assert {
        "quickstart.py",
        "commitment_demo.py",
        "module_pipelines.py",
        "batch_throughput.py",
        "verifiable_ml.py",
        "train_and_prove.py",
    } <= set(EXAMPLES)


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_runs(name):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / name)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, (
        f"{name} failed:\n{result.stdout[-2000:]}\n{result.stderr[-2000:]}"
    )
    assert result.stdout.strip(), f"{name} produced no output"
