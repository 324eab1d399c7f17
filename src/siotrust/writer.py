"""Writer processes: each seed's event log and trust trace formatted beside its run.

Formatting those two files is about half of a seed, and it holds the
interpreter lock, so a thread cannot overlap it with the run. A batch that
may fork starts one `Writer` per pool slot (`Writers`) before the pool's
first thread starts, and each seed borrows a free one for its run. A
`Writer` is the sink of both of the seed's spools (see `record.Spool`).
Each flush ships the spool's pending column buffers, with the id-table
names added since the last shipment, down a pipe to a forked child. The
two spools share one id table, so they share the one pipe.

The child serves its slot's seeds in turn, reading its pipe in one loop
on one thread. For each seed it reads the two `.partial` paths, the
shipments, and an end marker. It loads each shipment, as it reads it,
into a mirror `EventLog` or `AssessmentTable` on the file and calls the
same `flush`, so it writes the bytes the in-process path writes. It holds
at most the shipment it is formatting and keeps no row once written; the
pipe (`PIPE_BYTES`) is its only buffer. At the end marker it closes both
files, reports, and waits for the next seed, for which it builds a fresh
mirror and id table. It stops at the end of its pipe, so it cannot outlive
the process that started it.
"""

from __future__ import annotations

import multiprocessing
import os
import queue
import signal
from array import array
from contextlib import contextmanager
from multiprocessing.connection import Connection
from pathlib import Path
from typing import Iterator, Sequence, TextIO

from .record import Channel, EventLog, Spool, open_output
from .trust import AssessmentTable

PIPE_BYTES = 1 << 20  # the data pipe's buffer: a sender waits on the default 64 KiB far longer


class Writer(Channel):
    """A forked child, run on `cpus`, that writes the event log and trust trace of one seed after another.

    A writer that raised, or that its owner closed, is retired: it serves
    no more seeds.
    """

    def __init__(self, cpus: set[int], inherited: Sequence[Connection]) -> None:
        """Fork the child; it closes `inherited`, the other writers' ends of their pipes in this process."""
        context = multiprocessing.get_context("fork")  # flushes stdout and stderr before it forks
        incoming, self._data = context.Pipe(duplex=False)
        self._status, report = context.Pipe(duplex=False)
        self.ends = (self._data, self._status)
        _widen(self._data)
        self._process = context.Process(
            target=_serve, args=(incoming, report, (*inherited, *self.ends)), name="siotrust-writer"
        )
        try:
            self._process.start()
        except BaseException:
            for end in self.ends:
                end.close()
            raise
        finally:
            incoming.close()
            report.close()
        try:
            os.sched_setaffinity(self._process.pid, cpus)
        except ProcessLookupError:  # the child is gone already; its report says why
            pass
        self._named = 0  # id-table names of the current seed shipped so far

    @property
    def retired(self) -> bool:
        return self._data.closed

    @contextmanager
    def seed(self, events: Path, trust: Path) -> Iterator[Writer]:
        """Ship one seed's rows to the child, which writes them to `events` and `trust`.

        Leaving the `with` block waits for the child to write and close both
        files, and raises the error it reports, or `ChildProcessError` if it
        died without one. Leaving on an error ends the pipe instead, so the
        child stops after the shipments already in the pipe. Either way a
        writer that raised is closed before the block is left.
        """
        try:
            self._send((events, trust))
            self._named = 0
            yield self
            self._send(None)  # the run is over
            reported = self._report()
            if reported is not None:
                raise reported
        except BaseException:
            self.close()
            raise

    def ship(self, spool: Spool) -> None:
        names = spool.symbols.names
        buffers = spool._buffers()
        self._send((type(spool).__name__, names[self._named :], len(buffers)), buffers)
        self._named = len(names)

    def _send(self, message: object, buffers: Sequence[array] = ()) -> None:
        try:
            self._data.send(message)
            for buffer in buffers:
                self._data.send_bytes(buffer)
        except BrokenPipeError:  # the child stopped; its report says why
            raise self._report() from None

    def _report(self) -> BaseException | None:
        """Wait for the child's report: None once it has written and closed both files, else what stopped it."""
        try:
            return self._status.recv()
        except EOFError:
            self._process.join()
            return ChildProcessError(f"the writer process died with exit code {self._process.exitcode}")

    def close(self) -> None:
        """End the pipe and join the child, which stops after the shipments already in it."""
        if self.retired:
            return
        self._data.close()
        self._process.join()
        self._process.close()
        self._status.close()


class Writers:
    """A batch's writers, one per pool slot, all forked at once; use it as a context manager.

    Fork them before any other thread starts: a fork beside another thread
    may copy a lock that thread holds. Leaving the `with` block closes every
    writer, so no child outlives the batch.
    """

    def __init__(self, count: int, cpus: set[int]) -> None:
        self._writers: list[Writer] = []
        try:
            for _ in range(count):
                inherited = [end for writer in self._writers for end in writer.ends]
                self._writers.append(Writer(cpus, inherited))
        except BaseException:
            self.close()
            raise
        self._free: queue.SimpleQueue[Writer] = queue.SimpleQueue()
        for writer in self._writers:
            self._free.put(writer)

    @contextmanager
    def borrow(self) -> Iterator[Writer | None]:
        """A free writer for one seed, or None where this slot's writer is retired: that seed formats in process.

        There are as many writers as seeds run at once, so one is always free.
        """
        writer = self._free.get()
        try:
            yield None if writer.retired else writer
        finally:
            self._free.put(writer)

    def close(self) -> None:
        for writer in self._writers:
            writer.close()

    def __enter__(self) -> Writers:
        return self

    def __exit__(self, kind, error, trace) -> None:
        self.close()


class Mirror:
    """The child's twins of the engine's two spools, on the two files; they share one id table, as the engine's do."""

    def __init__(self, events: TextIO, trust: TextIO) -> None:
        log = EventLog(events)
        self._symbols = log.symbols
        self._spools = {"EventLog": log, "AssessmentTable": AssessmentTable(log.symbols, trust)}

    def take(self, part: str, names: list[str], buffers: list[bytes]) -> None:
        """Write one shipment: `part`'s pending columns, after the id-table `names` added since the last one.

        Empties `buffers` once the columns hold their copy, so that a large
        shipment is not held twice while it is formatted.
        """
        for name in names:
            self._symbols.code(name)
        spool = self._spools[part]
        spool._load(buffers)
        buffers.clear()
        spool.flush()


def _widen(pipe: Connection) -> None:
    """Ask for a `PIPE_BYTES` pipe buffer; where that is refused, keep the default."""
    import fcntl  # not on Windows, where no writer runs

    try:
        fcntl.fcntl(pipe.fileno(), fcntl.F_SETPIPE_SZ, PIPE_BYTES)
    except OSError:  # over the system's limit
        pass


def _serve(incoming: Connection, report: Connection, parents: tuple[Connection, ...]) -> None:
    """The child: write each seed's files from its shipments and report, until the pipe ends or a seed fails.

    Each seed comes as its two paths, its shipments (a header, then that
    many column buffers) and None. The child formats each shipment as it
    reads it, so the pipe is its only buffer.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # an interrupted parent ends the pipe, which stops this process
    for end in parents:
        end.close()  # else the parent's closing a pipe would not end it here
    while True:
        try:
            paths = incoming.recv()
        except EOFError:  # the parent closed the pipe
            return
        try:
            with open_output(paths[0]) as events, open_output(paths[1]) as trust:
                mirror = Mirror(events, trust)
                while (header := incoming.recv()) is not None:
                    part, names, count = header
                    mirror.take(part, names, [incoming.recv_bytes() for _ in range(count)])
            outcome = None
        except Exception as exc:
            outcome = exc
        try:
            report.send(outcome)
        except BrokenPipeError:  # the parent is gone
            return
        except Exception:  # an error that does not pickle
            report.send(RuntimeError(f"the writer process failed: {outcome!r}"))
        if outcome is not None:
            return  # the parent retires this writer
