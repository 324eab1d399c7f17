"""The columnar run record, and how every run file's bytes are written.

A run keeps its record as columns of small integers and floats, and formats
text only when a file is written. Events and trust assessments (see
`trust.AssessmentTable`) name ids through one id table and keep each row's
time as a float64, so neither holds a Python object per row. Given an open
file, a record part streams instead: it writes its rows a chunk at a time
as the run makes them and drops them (see `Spool`).

It is also the one home of the output bytes: `open_output` opens every run
file, one kernel (`float_texts`) formats every float, and every CSV file is
in one dialect, comma-joined fields that `check_unquoted` keeps unquoted.
No field can need quoting: ids, labels and float reprs never do, and a
config refuses a context kind that would.
"""

from __future__ import annotations

import math
from array import array
from pathlib import Path
from string import Formatter
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np

# Lines per write in the chunked writers: bounded memory, few write calls.
CHUNK_LINES = 4096


def chunk_bounds(count: int) -> Iterator[tuple[int, int]]:
    """(start, stop) of each run of at most `CHUNK_LINES` of `count` rows, the size read as iteration starts."""
    size = CHUNK_LINES
    for start in range(0, count, size):
        yield start, min(start + size, count)


def open_output(path: str | Path) -> TextIO:
    """A run file opened for writing: UTF-8, with a bare line feed ending each line on every platform."""
    return open(path, "w", encoding="utf-8", newline="")


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """A header and rows in the run files' CSV dialect, each field's `str`; checked before the file is opened."""
    lines = [",".join(map(str, row)) + "\n" for row in (header, *rows)]
    text = check_unquoted("".join(lines), len(lines), len(header))
    with open_output(path) as handle:
        handle.write(text)


def check_unquoted(text: str, rows: int, columns: int) -> str:
    """`text` as is, if its `rows` lines of `columns` comma-joined fields hold no field that needs quoting.

    No field may hold a comma, a quote or a line break, which ids, relation
    values, split names, context kinds and float reprs never do; anything
    else raises instead of writing a broken row.
    """
    if (
        text.count(",") != rows * (columns - 1)
        or text.count("\n") != rows
        or '"' in text
        or "\r" in text
    ):
        raise ValueError("a CSV field holds a comma, quote or line break")
    return text


def float_texts(values: np.ndarray, template: str) -> np.ndarray:
    """`template.format(value)` for every float64, as an object array; `template` holds one field, `{!r}`.

    Each distinct bit pattern is formatted once and shared by every row that
    holds it. Keying on bits, not on value, keeps 0.0 and -0.0 apart: equal
    values with different text. The text around the field is joined to each
    `repr` rather than by `str.format`, which parses the template per value.
    """
    head, tail = template.split("{!r}")
    bits, inverse = np.unique(np.asarray(values, dtype=np.float64).view(np.uint64), return_inverse=True)
    texts = np.array([head + text + tail for text in map(repr, bits.view(np.float64).tolist())], dtype=object)
    return texts[inverse]


def join_columns(columns: Sequence[np.ndarray | str], rows: int) -> str:
    """Row-major concatenation of text columns, `rows` long each.

    A column is an object array of strings or one string shared by every
    row. The text is assembled from references to those strings in one
    `str.join`, with no intermediate object per row.
    """
    grid = np.empty((rows, len(columns)), dtype=object)
    for k, column in enumerate(columns):
        grid[:, k] = column
    return "".join(grid.ravel().tolist())


class Symbols:
    """The id table of one run.

    `names` holds each id once, in first-use order, and so do labels such
    as an outcome or a split; rows store the index `code` returns. It is
    the run's only id-to-integer map: the engine codes its devices first,
    so a device's index is its code, and the opinion store and the
    recommendation exchange index their arrays by code.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._codes: dict[str, int] = {}

    def code(self, name: str) -> int:
        found = self._codes.get(name)
        if found is None:
            found = self._codes[name] = len(self.names)
            self.names.append(name)
        return found

    def find(self, name: str) -> int:
        """The name's code, or -1 if the table does not hold it; never adds an entry."""
        return self._codes.get(name, -1)


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


class NameTexts:
    """`name + suffix` for each entry of the id table, formatted once as the table grows."""

    def __init__(self, names: list[str], suffix: str = "") -> None:
        self._names = names
        self._suffix = suffix
        self._texts = np.empty(0, dtype=object)
        self._count = 0  # entries formatted so far

    def of(self, codes: np.ndarray) -> np.ndarray:
        """The text of each code, an object array."""
        count = len(self._names)
        if count > self._count:
            if count > len(self._texts):
                grown = np.empty(2 * count, dtype=object)
                grown[: self._count] = self._texts[: self._count]
                self._texts = grown
            self._texts[self._count : count] = [name + self._suffix for name in self._names[self._count : count]]
            self._count = count
        return self._texts[codes]


class Channel:
    """A sink whose rows another process formats: `Spool.flush` hands it the spool (see `writer.Writer`)."""

    def ship(self, spool: Spool) -> None:
        raise NotImplementedError


class Spool:
    """Rows pending as columns, kept whole or streamed to an open file.

    Without a sink, every row stays for the readers of the whole record,
    and `_write` writes them as one file. With one (an open text file, which
    the caller closes), the sink gets the `header` at once; `flush` formats
    the pending rows a chunk at a time (`_chunks`), writes them and drops
    them, and `spill` flushes once `CHUNK_LINES` rows are pending; a reader
    of the whole record then raises instead of returning part of the run.
    With a `Channel` as the sink, `flush` ships the pending column buffers
    (`_buffers`) instead, and a writer process loads them into a mirror
    spool on the file (`_load`) whose own `flush` formats them: the same
    code, so the same bytes. A subclass keeps its pending columns in the
    attributes `_drop` resets.
    """

    header = ""  # the file's text before its first row

    def __init__(self, sink: TextIO | Channel | None) -> None:
        self._sink = sink
        self._written = 0  # rows written to the sink and dropped
        self._drop()
        if sink is not None and not isinstance(sink, Channel):
            sink.write(self.header)

    def _drop(self) -> None:
        raise NotImplementedError

    def _pending(self) -> int:
        raise NotImplementedError

    def _buffers(self) -> tuple[array, ...]:
        """The pending rows' columns, in the order `_load` takes them."""
        raise NotImplementedError

    def _load(self, buffers: Sequence[bytes]) -> None:
        """Append a twin's shipped `_buffers()` to the pending rows; the twin's id table must match this one's."""
        for column, data in zip(self._buffers(), buffers, strict=True):
            column.frombytes(data)

    def _chunks(self) -> Iterator[str]:
        """The pending rows' text, a chunk (`chunk_bounds`) at a time."""
        raise NotImplementedError

    def flush(self) -> None:
        """Write the pending rows to the sink, or ship them through a `Channel`, and drop them; without a sink, keep them."""
        if self._sink is None or not self._pending():
            return
        if isinstance(self._sink, Channel):
            self._sink.ship(self)
        else:
            self._sink.writelines(self._chunks())
        self._written += self._pending()
        self._drop()

    def spill(self) -> None:
        """`flush` once `CHUNK_LINES` rows are pending."""
        if self._pending() >= CHUNK_LINES:
            self.flush()

    def _require_whole(self) -> None:
        if self._sink is not None:
            raise ValueError(f"this {type(self).__name__} streams to a file and holds only unwritten rows")

    def _write(self, path: str | Path) -> None:
        """The whole record as the file a sink would have received; a record that streams raises."""
        self._require_whole()
        with open_output(path) as handle:
            handle.write(self.header)
            handle.writelines(self._chunks())


class EventLog(Spool):
    """Append-only run log with nondecreasing timestamps, kept as columns.

    An event is a kind code, a float64 time, and its fields in its
    template's order: ids and labels as id-table codes, integers as
    themselves, floats as indices into a float column. So an `exp` event,
    95 % of a run's events, is three small integers beside its kind and
    time. Nothing is formatted until `text()`, `write()` or, for a log
    given a `sink`, `flush()`. They format each run of same-kind events as
    columns: the `t=<repr> ` prefix once per distinct time in a chunk,
    each float once, ids and constant text by reference. Two runs agree iff
    their texts agree byte for byte, which is exactly what the determinism
    tests compare.
    """

    def __init__(self, sink: TextIO | None = None) -> None:
        self.symbols = Symbols()
        self._last_time = -math.inf
        self._names = NameTexts(self.symbols.names)
        super().__init__(sink)

    def _drop(self) -> None:
        self._kinds = array("B")
        self._times = array("d")
        self._fields = array("i")
        self._values = array("d")  # float fields; a pending event's field holds its index here

    def _pending(self) -> int:
        return len(self._kinds)

    def _buffers(self) -> tuple[array, ...]:
        return self._kinds, self._times, self._fields, self._values

    def _stamp(self, time: float) -> None:
        if time < self._last_time:
            raise ValueError(f"event log time went backwards: {time} after {self._last_time}")
        self._last_time = time

    def append(self, time: float, kind: str, *fields) -> None:
        """One event; ids and labels as strings, integers and floats as numbers."""
        code = _KIND_CODES[kind]
        formats = _LAYOUTS[code][1]
        if len(fields) != len(formats):
            raise TypeError(f"a {kind} event has {len(formats)} fields, got {len(fields)}")
        self._stamp(time)
        self._times.append(time)
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
        self._stamp(time)
        encoded = []
        for form, column in zip(formats, columns):
            if form in ("s", "d"):
                encoded.append(column)
            else:
                encoded.append(np.arange(len(self._values), len(self._values) + count))
                self._values.frombytes(np.asarray(column, dtype=np.float64).tobytes())
        self._kinds.frombytes(bytes([code]) * count)
        self._times.frombytes(np.full(count, time, dtype=np.float64).tobytes())
        self._fields.frombytes(np.column_stack(encoded).astype(np.intc).tobytes())

    def _chunks(self) -> Iterator[str]:
        count = len(self._kinds)
        if count == 0:
            return
        kinds = np.frombuffer(self._kinds, dtype=np.uint8)
        times = np.frombuffer(self._times, dtype=np.float64)
        fields = np.frombuffer(self._fields, dtype=np.intc)
        values = np.frombuffer(self._values, dtype=np.float64)
        arity = _ARITY[kinds]
        offsets = np.cumsum(arity) - arity  # where each event's fields start
        for start, stop in chunk_bounds(count):
            prefixes = float_texts(times[start:stop], "t={!r} ")
            edges = [start, *(np.flatnonzero(np.diff(kinds[start:stop])) + start + 1).tolist(), stop]
            text = []
            for lo, hi in zip(edges, edges[1:]):
                literals, formats = _LAYOUTS[kinds[lo]]
                first = offsets[lo]
                block = fields[first : first + len(formats) * (hi - lo)].reshape(hi - lo, len(formats))
                columns = [prefixes[lo - start : hi - start]]
                for literal, form, column in zip(literals, formats, block.T):
                    columns += [literal, _field_text(form, column, self._names, values)]
                columns.append(literals[-1])
                text.append(join_columns(columns, hi - lo))
            yield "".join(text)

    def text(self) -> str:
        """The whole log; a log that streams to a file raises."""
        self._require_whole()
        return "".join(self._chunks())

    def write(self, path: str | Path) -> None:
        """The log as `text()` gives it, written a chunk at a time; a log that streams raises."""
        self._write(path)

    def __len__(self) -> int:
        """Every event appended, written to the sink or not."""
        return self._written + len(self._kinds)


def _field_text(form: str, column: np.ndarray, names: NameTexts, values: np.ndarray) -> np.ndarray:
    """One field of a run of events as text, an object array."""
    if form == "s":
        return names.of(column)
    if form == "d":
        texts = map(str, column.tolist())
    elif form == "r":
        texts = map(repr, values[column].tolist())
    else:
        texts = (format(value, form) for value in values[column].tolist())
    return np.array(list(texts), dtype=object)
