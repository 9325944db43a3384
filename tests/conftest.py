"""Shared pytest wiring: print one verdict line per acceptance criterion,
and run the command line in a child process with a time budget, with or
without some modules importable."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

_config = None


def _child(args, timeout: float) -> subprocess.CompletedProcess:
    # a run past timeout seconds is killed and raises
    # subprocess.TimeoutExpired, so a hang fails the test, not the suite
    return subprocess.run(
        [sys.executable, "-W", "error", *map(str, args)],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=timeout,
    )


@pytest.fixture
def run_cli():
    """run(*args, timeout=10.0) runs `python -m oncocontrol *args` in a
    child process with PYTHONPATH=src and every warning an error, and
    returns the CompletedProcess."""

    def run(*args, timeout: float = 10.0) -> subprocess.CompletedProcess:
        return _child(["-m", "oncocontrol", *args], timeout)

    return run


_WITHOUT = """
import json, sys

class Unimportable:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] in blocked:
            raise ModuleNotFoundError(f"No module named {name!r}")

blocked = set(json.loads(sys.argv[1]))
sys.meta_path.insert(0, Unimportable())
from oncocontrol.cli import main

for argv in json.loads(sys.argv[2]):
    if code := main(argv):
        sys.exit(code)
"""


@pytest.fixture
def run_without():
    """run(modules, *commands, timeout=60.0) runs each command, an argv
    list for oncocontrol.cli.main, in turn in one child process in which
    the named modules and their submodules cannot be imported; the child
    exits with the first nonzero code, else 0.  Returns the
    CompletedProcess, as run_cli does."""

    def run(modules, *commands, timeout: float = 60.0) -> subprocess.CompletedProcess:
        commands = [[str(a) for a in argv] for argv in commands]
        return _child(["-c", _WITHOUT, json.dumps(modules), json.dumps(commands)], timeout)

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
