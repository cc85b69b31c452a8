"""Fixtures shared by every test module."""

import os

import pytest


@pytest.fixture(autouse=True)
def no_flowsra_environment(monkeypatch):
    """Each test starts without the ``FLOWSRA_*`` variables of the shell
    that runs it (a cache directory, an endpoint, a config file), which
    ``flowsra.cli`` would otherwise read."""
    for name in list(os.environ):
        if name.startswith("FLOWSRA_"):
            monkeypatch.delenv(name)
