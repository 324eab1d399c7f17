"""Fixtures that pick where `run_batch` runs each seed and formats its event log and trust trace."""

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
    """One CPU in this process's mask, where `run_batch` counts CPUs: every seed formats in this process.

    Several seeds run on a one-thread pool, as under `taskset -c 0`, and all run before an error propagates.
    """
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)


@pytest.fixture()
def writer_path(monkeypatch):
    """Two real CPUs of this process's mask: every seed of a batch formats in a writer process.

    Skips where this process may run on one CPU only. Checks afterwards
    that every seed run took that path, that no process outlived it, and
    that the batch gave back the two-CPU mask; then restores the session's.
    """
    if len(CPUS) < 2:
        pytest.skip("the writer process runs on Linux only, beside a second CPU this process may use")
    assert os.sched_getaffinity(0) == CPUS
    forks = []
    run_one = cli._run_one

    def recording(config, out_dir, writers=None, friends=None):
        forks.append(writers is not None)
        return run_one(config, out_dir, writers, friends)

    monkeypatch.setattr(cli, "_run_one", recording)
    two = set(sorted(CPUS)[:2])
    os.sched_setaffinity(0, two)
    yield
    held = os.sched_getaffinity(0)
    os.sched_setaffinity(0, CPUS)
    assert forks and all(forks), forks
    assert multiprocessing.active_children() == []
    assert held == two


@pytest.fixture(params=["in_process", "writer_path", "pooled"], ids=["in-process", "writer", "pooled"])
def path(request):
    """The seeds to batch with a seed: alone in process or in a writer, or `pooled` with the next two on two writers."""
    request.getfixturevalue("writer_path" if request.param == "pooled" else request.param)
    return lambda seed: list(range(seed, seed + (3 if request.param == "pooled" else 1)))
