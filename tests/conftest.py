"""Suite-wide checks and fixtures."""

import os

import pytest

from lorid.diffusion import Schedule


@pytest.fixture
def schedule_builds(monkeypatch):
    """The ``beta`` of every :class:`Schedule` built in this process during the test."""
    builds = []
    init = Schedule.__init__

    def counted(self, beta):
        builds.append(beta)
        init(self, beta)

    monkeypatch.setattr(Schedule, "__init__", counted)
    return builds


def pytest_sessionfinish(session, exitstatus):
    """Fail the run when a child process of the test process is still running
    or has exited without being reaped: some code under test left it behind."""
    reaped = []
    running = False
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            break
        if pid == 0:
            running = True
            break
        reaped.append(pid)
    if not running and not reaped:
        return
    found = []
    if running:
        found.append("a child process still running")
    if reaped:
        found.append(f"{len(reaped)} child process(es) never reaped (pids {reaped})")
    reporter = session.config.pluginmanager.get_plugin("terminalreporter")
    if reporter is not None:
        reporter.write("\n")
        reporter.write_sep("=", f"the tests left {' and '.join(found)}", red=True)
    session.exitstatus = pytest.ExitCode.TESTS_FAILED
