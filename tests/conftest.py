import os

import pytest


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children os.fork starts in this process."""
    pids, real_fork = [], os.fork

    def spy():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", spy)
    return pids
