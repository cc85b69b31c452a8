"""Fixtures shared by every test module."""

import os
import sys

import pytest


@pytest.fixture(autouse=True)
def no_flowsra_environment(monkeypatch):
    """Each test starts without the ``FLOWSRA_*`` variables of the shell
    that runs it (a cache directory, an endpoint, a config file), which
    ``flowsra.cli`` would otherwise read."""
    for name in list(os.environ):
        if name.startswith("FLOWSRA_"):
            monkeypatch.delenv(name)


@pytest.fixture
def fast_thread_switches():
    """Let the interpreter switch threads after 1 us instead of 5 ms, so that
    races in handing work between threads show up in the tests that use it."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(interval)
