"""Fixtures that pick where `run_batch` formats each seed's event log and trust trace."""

import multiprocessing
import os
import sys

import pytest

from siotrust import cli

# The CPUs this process may use as the session starts. A batch that left its
# caller held on one CPU fails the next writer test, instead of making it skip.
CPUS = os.sched_getaffinity(0) if sys.platform == "linux" else set()


@pytest.fixture()
def in_process(monkeypatch):
    """One CPU this process may run on, as `run_batch` reads it: every seed formats in this process.

    The pool's size still follows `os.cpu_count`, as under `taskset -c 0`.
    """
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)


@pytest.fixture()
def writer_path(monkeypatch):
    """Two CPUs, as `run_batch` reads them: every seed of a batch formats in a writer process.

    Skips where this process may run on one CPU only. Checks afterwards
    that every seed run took that path, that no process outlived it, and
    that this process got its CPU affinity back.
    """
    if len(CPUS) < 2:
        pytest.skip("the writer process runs on Linux only, beside a second CPU this process may use")
    assert os.sched_getaffinity(0) == CPUS
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    forks = []
    run_one = cli._run_one

    def recording(config, out_dir, writers=None):
        forks.append(writers is not None)
        return run_one(config, out_dir, writers)

    monkeypatch.setattr(cli, "_run_one", recording)
    yield
    assert forks and all(forks), forks
    assert multiprocessing.active_children() == []
    assert os.sched_getaffinity(0) == CPUS
