"""A time limit for every test, with the standard library only.

A test that runs longer than TEST_TIME_LIMIT seconds (set-up, body and
tear-down together) fails with a timeout instead of stalling the suite.  The
limit is a SIGALRM timer of the test process, so it is skipped where the
platform has no SIGALRM.  The slowest test takes a few seconds.
"""

import signal

import pytest

TEST_TIME_LIMIT = 120


def _time_out(signum, frame):
    pytest.fail("test ran longer than %d s" % TEST_TIME_LIMIT, pytrace=False)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    if not hasattr(signal, "SIGALRM"):
        yield
        return
    previous = signal.signal(signal.SIGALRM, _time_out)
    signal.alarm(TEST_TIME_LIMIT)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
