"""Suite-wide time limit: a test whose setup, call or teardown runs longer
than PHASE_LIMIT_S fails instead of hanging the run (POSIX SIGALRM)."""

import signal

import pytest

# Well above the slowest phase, the ~1 min setup of the criterion-7 fixture.
PHASE_LIMIT_S = 600


class PhaseTimeout(BaseException):
    """Not an Exception, so neither the code under test nor hypothesis
    (which would rerun a hanging example to shrink it) catches it."""


def _over_limit(signum, frame):
    raise PhaseTimeout(f"test phase ran longer than {PHASE_LIMIT_S} s")


def _limit_phase(item):
    previous = signal.signal(signal.SIGALRM, _over_limit)
    signal.alarm(PHASE_LIMIT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


if hasattr(signal, "SIGALRM"):
    pytest_runtest_setup = pytest_runtest_call = pytest_runtest_teardown = (
        pytest.hookimpl(hookwrapper=True)(_limit_phase))
