"""A time limit for every test, with the standard library only.

A test that runs longer than TEST_TIME_LIMIT seconds (set-up, body and
tear-down together) fails with a timeout instead of stalling the suite.  The
limit is a SIGALRM timer of the test process, so it is skipped where the
platform has no SIGALRM.  The slowest test takes a few seconds.

The alarm raises a private BaseException subclass rather than calling
``pytest.fail``: hypothesis takes pytest's ``Failed`` for one more failing
example and goes on shrinking, so a failing property would run on past the
limit, while an exception outside ``Exception`` ends the property at once.
"""

import signal

import pytest

TEST_TIME_LIMIT = 120


class _TimeLimitExceeded(BaseException):
    """Raised by the alarm; pytest reports it as the test's failure."""


def _time_out(signum, frame):
    raise _TimeLimitExceeded("test ran longer than %d s" % TEST_TIME_LIMIT)


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
