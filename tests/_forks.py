"""Helpers for tests that split work over forked processes; the forks
fixture that counts the children is in conftest.py."""
import os

import pytest


def set_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
