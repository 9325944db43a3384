"""Shared pytest wiring: print one verdict line per acceptance criterion,
and run the command line in a child process with a time budget."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

_config = None


@pytest.fixture
def run_cli():
    """run(*args, timeout=10.0) runs `python -m oncocontrol *args` in a
    child process with PYTHONPATH=src, every warning an error, and returns
    the CompletedProcess; a run past timeout seconds is killed and raises
    subprocess.TimeoutExpired, so a hang fails the test instead of the
    suite."""

    def run(*args, timeout: float = 10.0) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-W", "error", "-m", "oncocontrol", *map(str, args)],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True,
            text=True,
            timeout=timeout,
        )

    return run


def pytest_configure(config):
    global _config
    _config = config


def pytest_runtest_logreport(report):
    # acceptance tests are named test_criterion_NN_label; echo an
    # uncaptured PASS/FAIL line for each so the verdicts survive -q runs
    if _config is None:
        return
    reporter = _config.pluginmanager.get_plugin("terminalreporter")
    if reporter is None:
        return
    name = report.nodeid.rsplit("::", 1)[-1].split("[")[0]
    if not name.startswith("test_criterion_"):
        return
    failed_setup = report.when == "setup" and not report.passed
    if report.when != "call" and not failed_setup:
        return
    tag = name[len("test_criterion_"):]
    num, _, label = tag.partition("_")
    verdict = "PASS" if report.passed else "FAIL"
    reporter.write_line(
        f"criterion {num} ({label.replace('_', ' ')}): {verdict}"
    )
