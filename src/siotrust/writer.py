"""The writer process: one seed's event log and trust trace formatted beside its run.

Formatting those two files is about half of a seed, and it holds the
interpreter lock, so a thread cannot overlap it with the run. A `Writer` is
the sink of both of the engine's spools (see `record.Spool`). Each flush
ships the spool's pending column buffers, with the id-table names added
since the last shipment, down a pipe to a forked child. The child loads each
shipment into a mirror `EventLog` or `AssessmentTable` on the `.partial`
file and calls the same `flush`, so it writes the bytes the in-process path
writes, and it keeps no row once written. The two spools share one id
table, so they share the one pipe.

The child stops at the end of its pipe, so it cannot outlive the process
that started it.

While the child runs, this process is held on the CPU it was on and the
child on the others. Otherwise the waits for the child (a full pipe, its
report) let the scheduler move this process onto the child's CPU, so that
a seed's run, and whatever the caller does after it, changed CPU at every
seed; on a machine whose CPUs differ in speed, that moves the caller's
timings between them.
"""

from __future__ import annotations

import multiprocessing
import os
import queue
import signal
import threading
from multiprocessing.connection import Connection
from pathlib import Path
from typing import TextIO

from .record import Channel, EventLog, Spool, open_output
from .trust import AssessmentTable

PIPE_BYTES = 1 << 20  # the data pipe's buffer: a sender waits on the default 64 KiB far longer
QUEUED = 4  # shipments the child holds unformatted; a 1000-node monitoring epoch ships about 9 MB at once


class Writer(Channel):
    """A forked child that writes a seed's event log and trust trace; use it as a context manager.

    Leaving the `with` block waits for the child to write and close both
    files, and raises the error it reports, or `ChildProcessError` if it
    died without one. Leaving on an error ends the pipe instead, so the child
    stops after the shipments it already holds. Either way the child is
    joined before the block is left.
    """

    def __init__(self, events: Path, trust: Path) -> None:
        context = multiprocessing.get_context("fork")  # flushes stdout and stderr before it forks
        incoming, self._data = context.Pipe(duplex=False)
        self._status, report = context.Pipe(duplex=False)
        _widen(self._data)
        self._cpus = os.sched_getaffinity(0)
        here = _current_cpu()
        others = self._cpus - {here}
        self._process = context.Process(
            target=_serve, args=(events, trust, incoming, report, (self._data, self._status)), name="siotrust-writer"
        )
        try:
            if others:
                os.sched_setaffinity(0, {here})
            self._process.start()
        except BaseException:
            os.sched_setaffinity(0, self._cpus)
            for end in (incoming, report, self._data, self._status):
                end.close()
            raise
        incoming.close()
        report.close()
        if others:
            try:
                os.sched_setaffinity(self._process.pid, others)
            except ProcessLookupError:  # the child is gone already; its report says why
                pass
        self._named = 0  # id-table names shipped so far

    def ship(self, spool: Spool) -> None:
        names = spool.symbols.names
        buffers = spool._buffers()
        try:
            self._data.send((type(spool).__name__, names[self._named :], len(buffers)))
            for buffer in buffers:
                self._data.send_bytes(buffer)
        except BrokenPipeError:  # the child stopped; its report says why
            raise self._report() from None
        self._named = len(names)

    def _report(self) -> BaseException | None:
        """Wait for the child's report: None once it has written and closed both files, else what stopped it."""
        try:
            return self._status.recv()
        except EOFError:
            self._process.join()
            return ChildProcessError(f"the writer process died with exit code {self._process.exitcode}")

    def __enter__(self) -> Writer:
        return self

    def __exit__(self, kind, error, trace) -> None:
        try:
            if kind is None:
                try:
                    self._data.send(None)  # the run is over
                except BrokenPipeError:
                    pass
                reported = self._report()
                if reported is not None:
                    raise reported
        finally:
            self._data.close()
            self._process.join()
            self._process.close()
            self._status.close()
            os.sched_setaffinity(0, self._cpus)


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


def _current_cpu() -> int:
    """The CPU this process last ran on: `processor`, field 39 of its stat line; field 3 follows the parenthesised name."""
    with open("/proc/self/stat") as stat:
        return int(stat.read().rsplit(")", 1)[1].split()[36])


def _serve(events: Path, trust: Path, incoming: Connection, report: Connection, parents: tuple[Connection, ...]) -> None:
    """The child: format each shipment into its mirror until the run is over, then report."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # an interrupted parent ends the pipe, which stops this process
    for end in parents:
        end.close()  # else the parent's exit would not end the pipe here
    try:
        shipments: queue.Queue = queue.Queue(QUEUED)
        threading.Thread(target=_receive, args=(incoming, shipments), daemon=True).start()
        with open_output(events) as events_file, open_output(trust) as trust_file:
            mirror = Mirror(events_file, trust_file)
            while (shipment := shipments.get()) is not None:
                if isinstance(shipment, Exception):
                    raise shipment
                mirror.take(*shipment)
        outcome = None
    except Exception as exc:
        outcome = exc
    try:
        report.send(outcome)
    except BrokenPipeError:  # the parent is gone
        pass
    except Exception:  # an error that does not pickle
        report.send(RuntimeError(f"the writer process failed: {outcome!r}"))


def _receive(incoming: Connection, shipments: queue.Queue) -> None:
    """Move shipments from the pipe to the queue as they come, so that a send rarely waits on a format.

    Puts None after the last one, or the error that ended the pipe: an
    `EOFError` if the parent closed it early.
    """
    try:
        while (header := incoming.recv()) is not None:
            part, names, count = header
            shipments.put((part, names, [incoming.recv_bytes() for _ in range(count)]))
        shipments.put(None)
    except Exception as exc:
        shipments.put(exc)
