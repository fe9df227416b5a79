"""Shared test plumbing: cold caches and the acceptance-criteria summary.

Every test starts with `fock`'s rung cache empty, so a test that counts
pointer builds, displacement series or the rungs' Gram forms does not
depend on what ran before it.

The acceptance module appends one line per criterion to the session log;
the terminal-summary hook prints them as a block after the test run so the
pass/fail state of every criterion is readable at a glance.
"""

import pytest

from spacmeter import fock

_ACCEPTANCE_LINES: list[str] = []


@pytest.fixture(autouse=True)
def cold_caches():
    fock._RUNGS.clear()


@pytest.fixture(scope="session")
def acceptance_log():
    return _ACCEPTANCE_LINES


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in _ACCEPTANCE_LINES:
        terminalreporter.write_line(line)
