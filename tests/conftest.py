import functools
import os
import sys
import tempfile
from pathlib import Path

import pytest

sys.path.insert(0, os.path.dirname(__file__))

_criterion_lines = []


def report_dir(config):
    """Where the suite writes its reports: under the pytest cache, which git
    ignores, so a test run leaves the working tree as it found it. Without
    the cache plugin (-p no:cacheprovider), a fresh temporary directory."""
    if hasattr(config, "cache"):
        return config.cache.mkdir("splitrep")
    return _temporary_report_dir()


@functools.cache
def _temporary_report_dir():
    return Path(tempfile.mkdtemp(prefix="splitrep-reports-"))


@pytest.fixture(scope="session")
def reports(pytestconfig):
    return report_dir(pytestconfig)


@pytest.fixture(scope="session")
def record():
    """Collects one pass/fail line per acceptance criterion."""

    def _record(line):
        _criterion_lines.append(line)

    return _record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _criterion_lines:
        return
    terminalreporter.section("acceptance criteria")
    for line in _criterion_lines:
        terminalreporter.write_line(line)
    artifact = report_dir(config) / "acceptance_report.txt"
    artifact.write_text("\n".join(_criterion_lines) + "\n")
    terminalreporter.write_line(f"(written to {artifact})")
