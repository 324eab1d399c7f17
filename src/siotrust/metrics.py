"""Detection metrics over adjudicated access decisions, and the ESR curve.

The positive class is the attack: a denied attacker request is a true
positive (an attack correctly detected), a granted one a false negative.
Granted legitimate requests are true negatives (legitimate correctly
identified), denied ones false positives. Undefined rates (an empty
denominator) surface as None, never as zero.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Protocol, Sequence, TextIO

import numpy as np


class AdjudicatedRequest(Protocol):
    attacker: bool
    granted: bool


class TrustColumns(Protocol):
    """What the ESR writer reads of a `trust.AssessmentTable`."""

    splits: Sequence[str]

    def split_trust(self, split: str) -> np.ndarray: ...


@dataclass
class ConfusionCounters:
    """Incremental confusion counts over adjudicated requests.

    acd:       attacker requests denied (attacks correctly detected)
    false_neg: attacker requests granted (attacks that slipped through)
    lci:       legitimate requests granted (legitimate correctly identified)
    false_pos: legitimate requests denied
    """

    acd: int = 0
    false_neg: int = 0
    lci: int = 0
    false_pos: int = 0

    def record(self, attacker: bool, granted: bool) -> None:
        if attacker:
            if granted:
                self.false_neg += 1
            else:
                self.acd += 1
        else:
            if granted:
                self.lci += 1
            else:
                self.false_pos += 1

    @classmethod
    def from_requests(cls, requests: Iterable[AdjudicatedRequest]) -> "ConfusionCounters":
        counters = cls()
        for request in requests:
            counters.record(request.attacker, request.granted)
        return counters

    @property
    def aot(self) -> int:
        """Attacks over time: every adjudicated attacker request."""
        return self.acd + self.false_neg

    @property
    def ar(self) -> int:
        """All adjudicated requests."""
        return self.acd + self.false_neg + self.lci + self.false_pos


def detection_rate(c: ConfusionCounters) -> float | None:
    """Percent of attacker requests denied; None when no attacks happened."""
    if c.aot == 0:
        return None
    return 100.0 * c.acd / c.aot


def accuracy(c: ConfusionCounters) -> float | None:
    """Fraction of all requests adjudicated correctly."""
    if c.ar == 0:
        return None
    return (c.acd + c.lci) / c.ar


def false_negative_rate(c: ConfusionCounters) -> float | None:
    """Percent of attacks granted, out of all adjudicated attacks."""
    denominator = c.false_neg + c.acd
    if denominator == 0:
        return None
    return 100.0 * c.false_neg / denominator


def false_positive_rate(c: ConfusionCounters) -> float | None:
    """Percent of legitimate requests denied, out of all legitimate requests."""
    denominator = c.false_pos + c.lci
    if denominator == 0:
        return None
    return 100.0 * c.false_pos / denominator


@dataclass(frozen=True)
class MetricsReport:
    scenario: str
    context: str
    relation: str
    seed: int
    counters: ConfusionCounters

    @property
    def dr(self) -> float | None:
        return detection_rate(self.counters)

    @property
    def acc(self) -> float | None:
        return accuracy(self.counters)

    @property
    def fn(self) -> float | None:
        return false_negative_rate(self.counters)

    @property
    def fp(self) -> float | None:
        return false_positive_rate(self.counters)


NA = "NA"


def _cell(value: float | None) -> str:
    return NA if value is None else repr(value)


def write_metrics_csv(reports: Iterable[MetricsReport], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["scenario", "context", "relation", "seed", "DR", "ACC", "FN", "FP"])
        for report in reports:
            writer.writerow(
                [
                    report.scenario,
                    report.context,
                    report.relation,
                    report.seed,
                    _cell(report.dr),
                    _cell(report.acc),
                    _cell(report.fn),
                    _cell(report.fp),
                ]
            )


def esr_cdf(values: Sequence[float]) -> list[tuple[float, float]] | None:
    """Empirical CDF of trust values as (value, cumulative fraction) points.

    Tied values all carry the fraction of samples at or below them, so the
    curve is nondecreasing and ends at exactly 1.0. An empty sample set has
    no CDF and yields None rather than a degenerate curve.

    One pass over the sorted values, from the top: a value that differs
    from the one above it ends a run of ties, and the whole run carries
    `(index of its last element + 1) / n`, which is what `bisect_right`
    over the sorted values gives each of them. Ties are found with `!=`,
    so 0.0 and -0.0 tie, as they do under `bisect_right`.
    """
    if not values:
        return None
    ordered = sorted(values)
    n = len(ordered)
    curve = []
    above = None
    end = n
    for value in reversed(ordered):
        if value != above:
            above, fraction = value, end / n
        curve.append((value, fraction))
        end -= 1
    curve.reverse()
    return curve


# Lines per write in the chunked writers: bounded memory, few write calls.
CHUNK_LINES = 4096


def check_unquoted(text: str, rows: int, columns: int) -> str:
    """`text` as is, if its `rows` lines hold no field csv.writer would quote.

    The chunked writers format rows as plain comma-joined lines. That is
    byte-equal to `csv.writer` only while no field holds a comma, a quote or
    a line break, which engine ids, relation values, split names and float
    reprs never do; anything else raises instead of writing a broken row.
    """
    if (
        text.count(",") != rows * (columns - 1)
        or text.count("\n") != rows
        or '"' in text
        or "\r" in text
    ):
        raise ValueError("a CSV field holds a comma, quote or line break")
    return text


def float_texts(values: np.ndarray, suffix: str = "") -> np.ndarray:
    """`repr(value) + suffix` for every float64, as an object array.

    Each distinct bit pattern is formatted once and shared by every row that
    holds it. Keying on bits, not on value, keeps 0.0 and -0.0 apart: equal
    values with different text.
    """
    bits, inverse = np.unique(np.asarray(values, dtype=np.float64).view(np.uint64), return_inverse=True)
    texts = np.array([repr(v) + suffix for v in bits.view(np.float64).tolist()], dtype=object)
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


def write_esr_csv(assessments: TrustColumns, path: str | Path) -> None:
    """ESR curves per split (internal/external); empty splits emit no rows.

    `assessments` is a run's `trust.AssessmentTable`, which keeps its T and
    split columns also when it streamed the trust trace. Splits are written
    one at a time, so only one split's T is held. A split's points are its
    values stably sorted in place, which is the order `sorted` gives, 0.0
    and -0.0 tied in row order. Each point carries `esr_cdf`'s fraction,
    the count of values at or below it over n: T is never NaN, so
    `searchsorted(side="right")` finds the end of its run of ties as `!=`
    does. Rows are written `CHUNK_LINES` at a time, each T and each
    fraction formatted once per chunk, the same bytes `csv.writer` would
    write.
    """
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("split,trust,cum_fraction\n")
        for split in sorted(assessments.splits):
            _write_curve(handle, split, assessments.split_trust(split))


def _write_curve(handle: TextIO, split: str, ordered: np.ndarray) -> None:
    """One split's ESR rows; sorts `ordered` in place, and it is freed on return."""
    ordered.sort(kind="stable")
    n = len(ordered)
    for start in range(0, n, CHUNK_LINES):
        chunk = ordered[start:start + CHUNK_LINES]
        fractions = np.searchsorted(ordered, chunk, side="right") / n
        columns = [f"{split},", float_texts(chunk, ","), float_texts(fractions, "\n")]
        handle.write(check_unquoted(join_columns(columns, len(chunk)), len(chunk), 3))
