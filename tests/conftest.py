"""Suite-wide fixtures.

Every test runs under a 60 s alarm where the platform has SIGALRM, so
a solver change that loops forever fails that one test instead of
hanging the whole run.  The slowest test takes a few seconds.
"""

import signal

import pytest

TEST_TIMEOUT_S = 60


class HangTimeout(BaseException):
    """Not an Exception, so hypothesis reports it at once instead of
    shrinking on further examples that would run with no alarm."""


def _timed_out(signum, frame):
    raise HangTimeout("test exceeded %d s" % TEST_TIMEOUT_S)


@pytest.fixture(autouse=True)
def hang_guard():
    if not hasattr(signal, "SIGALRM"):
        yield
        return
    previous = signal.signal(signal.SIGALRM, _timed_out)
    signal.alarm(TEST_TIMEOUT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
