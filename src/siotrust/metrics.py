"""Detection metrics over adjudicated access decisions, and the ESR curve.

The positive class is the attack: a denied attacker request is a true
positive (an attack correctly detected), a granted one a false negative.
Granted legitimate requests are true negatives (legitimate correctly
identified), denied ones false positives. Undefined rates (an empty
denominator) surface as None, never as zero.

The writers of the metrics table and the ESR file take every output rule from `record`.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Protocol, Sequence, TextIO

import numpy as np

from .record import check_unquoted, chunk_bounds, float_texts, join_columns, open_output, write_csv

if TYPE_CHECKING:
    from .trust import AssessmentTable


class AdjudicatedRequest(Protocol):
    attacker: bool
    granted: bool


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
    header = ["scenario", "context", "relation", "seed", "DR", "ACC", "FN", "FP"]
    rows = ([r.scenario, r.context, r.relation, r.seed, *map(_cell, (r.dr, r.acc, r.fn, r.fp))] for r in reports)
    write_csv(path, header, rows)


def esr_cdf(values: Sequence[float]) -> list[tuple[float, float]] | None:
    """Empirical CDF of trust values as (value, cumulative fraction) points.

    Tied values all carry the fraction of samples at or below them, so the
    curve is nondecreasing and ends at exactly 1.0. An empty sample set has
    no CDF and yields None rather than a degenerate curve. The points are
    the ESR file's: a float64 copy of `values`, stably sorted, each with
    `_fractions` over it.
    """
    if not values:
        return None
    ordered = np.array(values, dtype=np.float64)
    ordered.sort(kind="stable")
    return list(zip(ordered.tolist(), _fractions(ordered, ordered).tolist()))


def write_esr_csv(assessments: AssessmentTable, path: str | Path) -> None:
    """ESR curves per split (internal/external); empty splits emit no rows.

    `assessments` is a run's `trust.AssessmentTable`, which keeps its T and
    split columns also when it streamed the trust trace. Splits are written
    one at a time, so only one split's T is held. A split's points are its
    values stably sorted in place, which is the order `sorted` gives, 0.0
    and -0.0 tied in row order. Each point carries `esr_cdf`'s fraction
    (`_fractions`), the count of values at or below it over n. Rows are
    written a chunk (`record.chunk_bounds`) at a time in the run files' one
    CSV dialect, each T and each fraction formatted once per chunk.
    """
    with open_output(path) as handle:
        handle.write("split,trust,cum_fraction\n")
        for split in sorted(assessments.splits):
            _write_curve(handle, split, assessments.split_trust(split))


def _write_curve(handle: TextIO, split: str, ordered: np.ndarray) -> None:
    """One split's ESR rows; sorts `ordered` in place, and it is freed on return."""
    ordered.sort(kind="stable")
    for start, stop in chunk_bounds(len(ordered)):
        chunk = ordered[start:stop]
        columns = [f"{split},", float_texts(chunk, "{!r},"), float_texts(_fractions(ordered, chunk), "{!r}\n")]
        handle.write(check_unquoted(join_columns(columns, len(chunk)), len(chunk), 3))


def _fractions(ordered: np.ndarray, points: np.ndarray) -> np.ndarray:
    """The share of the sorted `ordered` at or below each of `points`: where its run of ties ends, over n.

    T is never NaN, so `searchsorted(side="right")` finds the end of a run
    of ties as `!=` does, 0.0 and -0.0 tied.
    """
    return np.searchsorted(ordered, points, side="right") / len(ordered)
