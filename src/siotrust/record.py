"""The columnar run record: per-run id and time tables, and the event log.

A run keeps its record as columns of small integers and floats, and formats
text only when a file is written. Events and trust assessments (see
`trust.AssessmentTable`) name ids through one id table and times through
one time table, so neither holds a Python object per row.
"""

from __future__ import annotations

import math
from array import array
from pathlib import Path
from string import Formatter
from typing import Iterator

import numpy as np

from .metrics import CHUNK_LINES, join_columns


class Symbols:
    """The id table and the time table of one run.

    `names` holds each id once, in first-use order, and so do labels such
    as an outcome or a split; rows store the index `code` returns. It is
    the run's only id-to-integer map: the engine codes its devices first,
    so a device's index is its code, and the opinion store and the
    recommendation exchange index their arrays by code. `times`
    holds the run's time objects in order. A time gets a new entry whenever
    another object arrives, even an equal one: 0.0 and -0.0, or 30 and
    30.0, are equal times with different text. The engine passes one time
    object for everything that happens in a tick, so a tick costs one entry.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._codes: dict[str, int] = {}
        self.times: list[float] = []

    def code(self, name: str) -> int:
        found = self._codes.get(name)
        if found is None:
            found = self._codes[name] = len(self.names)
            self.names.append(name)
        return found

    def find(self, name: str) -> int:
        """The name's code, or -1 if the table does not hold it; never adds an entry."""
        return self._codes.get(name, -1)

    def time(self, time: float) -> int:
        if not self.times or time is not self.times[-1]:
            self.times.append(time)
        return len(self.times) - 1


# One template per event kind, named by its first word. A bare {} is an id
# or a label from the id table, {:d} an integer, {!r} and {:.6f} floats.
_TEMPLATES = (
    "bootstrap manager={}",
    "duplicate identity={} presenter={} manager={} penalty={:d}",
    "decision manager={} identity={} presenter={} kind={} verdict={} trust={!r} split={}",
    "admit identity={} manager={} presenter={} conflicts={}",
    "theft attacker={} identity={} victim={}",
    "fabricate attacker={} identity={}",
    "exp evaluator={} subject={} outcome={}",
    "community id={:d} size={:d}",
    "duplicate-scan identity={} presenters={} penalty={:d}",
    "pos device={} x={:.6f} y={:.6f}",
)

# The largest integer an event field holds: fields are C ints (array "i").
INT_FIELD_MAX = 2**31 - 1
_KIND_CODES = {template.split(" ", 1)[0]: code for code, template in enumerate(_TEMPLATES)}


def _parse(template: str) -> tuple[list[str], list[str]]:
    """(literals, field formats): one literal before each field, one after the last.

    A field format is "s" for an id, "d" for an integer, "r" or a format
    spec such as ".6f" for a float.
    """
    literals, formats = [], []
    for literal, name, spec, conversion in Formatter().parse(template):
        literals.append(literal)
        if name is not None:
            formats.append("r" if conversion == "r" else spec or "s")
    if len(literals) == len(formats):
        literals.append("")
    literals[-1] += "\n"
    return literals, formats


_LAYOUTS = [_parse(template) for template in _TEMPLATES]
_ARITY = np.array([len(formats) for _, formats in _LAYOUTS], dtype=np.intp)


class EventLog:
    """Append-only run log with nondecreasing timestamps, kept as columns.

    An event is a kind code, a time-table index, and its fields in its
    template's order: ids and labels as id-table codes, integers as
    themselves, floats as indices into a float column. So an `exp` event,
    95 % of a run's events, is three small integers beside its kind and
    time. Nothing is formatted until `text()` or `write()`. They format
    each run of same-kind events as columns: the `t=<repr> ` prefix once
    per time, each float once, ids and constant text by reference. Two runs
    agree iff their texts agree byte for byte, which is exactly what the
    determinism tests compare.
    """

    def __init__(self) -> None:
        self.symbols = Symbols()
        self._kinds = array("B")
        self._times = array("i")
        self._fields = array("i")
        self._values = array("d")
        self._last_time = -math.inf

    def _stamp(self, time: float) -> int:
        if time is not self._last_time:
            if time < self._last_time:
                raise ValueError(f"event log time went backwards: {time} after {self._last_time}")
            self._last_time = time
        return self.symbols.time(time)

    def append(self, time: float, kind: str, *fields) -> None:
        """One event; ids and labels as strings, integers and floats as numbers."""
        code = _KIND_CODES[kind]
        formats = _LAYOUTS[code][1]
        if len(fields) != len(formats):
            raise TypeError(f"a {kind} event has {len(formats)} fields, got {len(fields)}")
        self._times.append(self._stamp(time))
        self._kinds.append(code)
        for form, value in zip(formats, fields):
            if form == "s":
                self._fields.append(self.symbols.code(value))
            elif form == "d":
                self._fields.append(value)
            else:
                self._fields.append(len(self._values))
                self._values.append(value)

    def extend(self, time: float, kind: str, *columns: np.ndarray) -> None:
        """Many events of one kind at one time, one array per field.

        Ids and labels come as id-table codes (`symbols.code`), integers
        and floats as values.
        """
        code = _KIND_CODES[kind]
        formats = _LAYOUTS[code][1]
        if len(columns) != len(formats):
            raise TypeError(f"a {kind} event has {len(formats)} fields, got {len(columns)}")
        count = len(columns[0])
        if count == 0:
            return
        stamp = self._stamp(time)
        encoded = []
        for form, column in zip(formats, columns):
            if form in ("s", "d"):
                encoded.append(column)
            else:
                encoded.append(np.arange(len(self._values), len(self._values) + count))
                self._values.frombytes(np.asarray(column, dtype=np.float64).tobytes())
        self._kinds.frombytes(bytes([code]) * count)
        self._times.frombytes(np.full(count, stamp, dtype=np.intc).tobytes())
        self._fields.frombytes(np.column_stack(encoded).astype(np.intc).tobytes())

    def _chunks(self) -> Iterator[str]:
        """The log's text, `CHUNK_LINES` lines at a time."""
        count = len(self._kinds)
        if count == 0:
            return
        kinds = np.frombuffer(self._kinds, dtype=np.uint8)
        times = np.frombuffer(self._times, dtype=np.intc)
        fields = np.frombuffer(self._fields, dtype=np.intc)
        values = np.frombuffer(self._values, dtype=np.float64)
        names = np.array(self.symbols.names, dtype=object)
        prefixes = np.array([f"t={time!r} " for time in self.symbols.times], dtype=object)
        arity = _ARITY[kinds]
        offsets = np.cumsum(arity) - arity  # where each event's fields start
        for start in range(0, count, CHUNK_LINES):
            stop = min(start + CHUNK_LINES, count)
            edges = [start, *(np.flatnonzero(np.diff(kinds[start:stop])) + start + 1).tolist(), stop]
            text = []
            for lo, hi in zip(edges, edges[1:]):
                literals, formats = _LAYOUTS[kinds[lo]]
                first = offsets[lo]
                block = fields[first : first + len(formats) * (hi - lo)].reshape(hi - lo, len(formats))
                columns = [prefixes[times[lo:hi]]]
                for literal, form, column in zip(literals, formats, block.T):
                    columns += [literal, _field_text(form, column, names, values)]
                columns.append(literals[-1])
                text.append(join_columns(columns, hi - lo))
            yield "".join(text)

    def text(self) -> str:
        return "".join(self._chunks())

    def write(self, path: str | Path) -> None:
        """The log as `text()` gives it, written `CHUNK_LINES` lines at a time."""
        with open(path, "w", encoding="utf-8", newline="") as handle:
            for chunk in self._chunks():
                handle.write(chunk)

    def __len__(self) -> int:
        return len(self._kinds)


def _field_text(form: str, column: np.ndarray, names: np.ndarray, values: np.ndarray) -> np.ndarray:
    """One field of a run of events as text, an object array."""
    if form == "s":
        return names[column]
    if form == "d":
        texts = map(str, column.tolist())
    elif form == "r":
        texts = map(repr, values[column].tolist())
    else:
        texts = (format(value, form) for value in values[column].tolist())
    return np.array(list(texts), dtype=object)
