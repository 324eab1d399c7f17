"""Fixtures that pick where a one-seed `run_batch` formats its event log and trust trace."""

import multiprocessing
import os
import sys

import pytest

from siotrust import cli


@pytest.fixture()
def in_process(monkeypatch):
    """One CPU, as `run_batch` reads it: every seed formats in this process."""
    monkeypatch.setattr(os, "cpu_count", lambda: 1)


@pytest.fixture()
def writer_path(monkeypatch):
    """Two CPUs, as `run_batch` reads them: a one-seed batch formats in a writer process.

    Checks afterwards that every seed run took that path, that no process
    outlived it, and that this process got its CPU affinity back.
    """
    if sys.platform != "linux":
        pytest.skip("the writer process runs on Linux only")
    cpus = os.sched_getaffinity(0)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    forks = []
    run_one = cli._run_one

    def recording(config, out_dir, fork=False):
        forks.append(fork)
        return run_one(config, out_dir, fork)

    monkeypatch.setattr(cli, "_run_one", recording)
    yield
    assert forks and all(forks), forks
    assert multiprocessing.active_children() == []
    assert os.sched_getaffinity(0) == cpus
