"""Test-session set-up shared by every test module."""

import os
import threading

import pytest


@pytest.fixture(autouse=True)
def _fork_only_without_other_threads(monkeypatch):
    """Fail any test whose code forks while another Python thread is alive.

    A forked child copies every lock but only the forking thread, so a lock
    that another thread held stays held in the child forever.  Python 3.12+
    warns about such forks, but a warnings filter cannot make that warning
    fail a test (os.fork clears the error it raises), so it is checked here,
    on every Python version.
    """
    fork = os.fork

    def checked_fork():
        others = [t for t in threading.enumerate() if t is not threading.current_thread()]
        if others:
            raise AssertionError(f"fork() while other threads are alive: {others}")
        return fork()

    monkeypatch.setattr(os, "fork", checked_fork)
