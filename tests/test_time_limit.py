"""The per-test time limit of ``tests/conftest.py`` stops a failing
hypothesis property within the limit.

A property that fails slowly on every example keeps hypothesis shrinking
past the limit.  The test runs one in a child pytest under this directory's
conftest with a 2 s limit, and checks that the timeout is the reported
failure and that the run ends soon after the limit.
"""

import time
from pathlib import Path

import pytest

pytest_plugins = ["pytester"]

CONFTEST = Path(__file__).resolve().parent / "conftest.py"
LIMIT = 2

SLOW_FAILING_PROPERTY = """
import time

from hypothesis import given, settings, strategies as st


@settings(max_examples=1000, deadline=None, database=None)
@given(st.lists(st.integers(), min_size=20, max_size=40))
def test_fails_slowly(xs):
    time.sleep(0.2)
    assert False
"""


def test_a_failing_property_stops_within_the_limit(pytester):
    pytest.importorskip("hypothesis")
    source = CONFTEST.read_text()
    assert "TEST_TIME_LIMIT = 120\n" in source
    pytester.makeconftest(source.replace("TEST_TIME_LIMIT = 120\n",
                                         "TEST_TIME_LIMIT = %d\n" % LIMIT))
    pytester.makepyfile(SLOW_FAILING_PROPERTY)
    start = time.monotonic()
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    elapsed = time.monotonic() - start
    result.assert_outcomes(failed=1)
    # the timeout itself is the reported failure; with pytest.fail in the
    # alarm, hypothesis reported a FlakyFailure after shrinking on
    result.stdout.fnmatch_lines(
        ["E * conftest._TimeLimitExceeded: test ran longer than %d s" % LIMIT])
    result.stdout.no_fnmatch_line("*Flaky*")
    # the child's start-up and collection take a few seconds on a slow host
    assert elapsed < LIMIT + 10
