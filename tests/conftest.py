"""Suite-wide checks and fixtures."""

import os
import threading

import pytest

from lorid import _nn
from lorid.diffusion import GaussianSource, Schedule


def _builds(monkeypatch, cls) -> list:
    """The constructor arguments of every ``cls`` built in this process during the test."""
    builds = []
    init = cls.__init__

    def counted(self, *args):
        builds.append(args)
        init(self, *args)

    monkeypatch.setattr(cls, "__init__", counted)
    return builds


@pytest.fixture
def schedule_builds(monkeypatch):
    """The ``(beta,)`` of every :class:`Schedule` built in this process during the test."""
    return _builds(monkeypatch, Schedule)


@pytest.fixture
def source_builds(monkeypatch):
    """The ``(mean, cov)`` of every :class:`GaussianSource` built in this process
    during the test."""
    return _builds(monkeypatch, GaussianSource)


def pytest_sessionfinish(session, exitstatus):
    """Fail the run when a thread other than the main one is still running, or
    a child process of the test process is still running or has exited without
    being reaped: some code under test left it behind.  Fail it too when
    numpy's BLAS no longer runs on the one thread ``import lorid`` set: a test
    changed the count and did not put it back, so the tests after it ran
    under another setting."""
    found = []
    blas = _nn._openblas_threads()
    if blas is not None and blas[0]() != 1:
        found.append(f"numpy's BLAS on {blas[0]()} threads, not 1")
    threads = [t.name for t in threading.enumerate() if t is not threading.main_thread()]
    if threads:
        found.append(f"{len(threads)} thread(s) running ({', '.join(threads)})")
    reaped = []
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            break
        if pid == 0:
            found.append("a child process still running")
            break
        reaped.append(pid)
    if reaped:
        found.append(f"{len(reaped)} child process(es) never reaped (pids {reaped})")
    if not found:
        return
    reporter = session.config.pluginmanager.get_plugin("terminalreporter")
    if reporter is not None:
        reporter.write("\n")
        reporter.write_sep("=", f"the tests left {' and '.join(found)}", red=True)
    session.exitstatus = pytest.ExitCode.TESTS_FAILED
