import contextlib
import math
import signal

import pytest

from cvbell import TripartitePhotonNumbers, su21_fock, twb_fock


@pytest.fixture(scope="session")
def photons_03():
    return TripartitePhotonNumbers(0.3, 0.3)


@pytest.fixture(scope="session")
def su21_fock_03(photons_03):
    return su21_fock(photons_03, 30)


@pytest.fixture(scope="session")
def twb_fock_n1():
    # mean total photon number 1: X = tanh(arcsinh(sqrt(1/2)))
    x = math.tanh(math.asinh(math.sqrt(0.5)))
    return twb_fock(x, 30)


@pytest.fixture
def deadline():
    """``with deadline(seconds):`` fails the block with ``TimeoutError``
    instead of letting it hang (POSIX interval timer)."""
    @contextlib.contextmanager
    def limit(seconds: float):
        def expire(signum, frame):
            raise TimeoutError(f"still running after {seconds} s")
        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
    return limit
