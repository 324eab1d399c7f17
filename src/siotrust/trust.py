"""Subjective-logic opinions and the composite trust evaluation.

An opinion about an identity is the evidence pair (positive, negative)
mapped to belief, disbelief and uncertainty:

    b = r / (r + s + 2),  d = s / (r + s + 2),  u = 2 / (r + s + 2)

with b + d + u = 1 by construction. A context base rate a in [0, 1] fills
the uncertain mass, so the expected value of an opinion is E = b + a * u.
Both direct trust and each received recommendation are expected values; a
fresh (vacuous) opinion therefore evaluates to the base rate itself.

Overall trust blends direct trust D, community similarity S and the
aggregated recommendation R as

    T = alpha * D + beta * S + gamma * R

where gamma comes from the social relation of the evaluation and
alpha = beta = (1 - gamma) / 2, so the three weights sum to one.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import partial
from itertools import islice, repeat
from pathlib import Path
from typing import Iterable, Literal, NamedTuple, Sequence

import numpy as np

from .metrics import CHUNK_LINES, check_unquoted
from .social import RelationType

Outcome = Literal["positive", "negative"]


@dataclass
class Opinion:
    """Evidence counters for one evaluator's view of one identity."""

    positive: int = 0
    negative: int = 0
    base_rate: float = 0.5

    def __post_init__(self) -> None:
        if self.positive < 0 or self.negative < 0:
            raise ValueError("evidence counts must be non-negative")
        if not 0.0 <= self.base_rate <= 1.0:
            raise ValueError(f"base rate out of range: {self.base_rate}")

    def components(self) -> tuple[float, float, float]:
        """(belief, disbelief, uncertainty)."""
        mass = self.positive + self.negative + 2
        return self.positive / mass, self.negative / mass, 2 / mass

    def expected_value(self) -> float:
        belief, _, uncertainty = self.components()
        return belief + self.base_rate * uncertainty

    def record(self, outcome: Outcome) -> None:
        if outcome == "positive":
            self.positive += 1
        elif outcome == "negative":
            self.negative += 1
        else:
            raise ValueError(f"unknown outcome: {outcome!r}")

    @property
    def total(self) -> int:
        return self.positive + self.negative


class OpinionStore:
    """Evidence counts keyed by (evaluator device id, subject identity id).

    Dense layout: every evaluator owns one row and every subject one column,
    both assigned on first sight (fabricated identities keep arriving during
    a run, so neither axis is fixed). A row is a pair of `array("q")`
    buffers, positive and negative counts, so a write is one Python integer
    update and a read copies the whole store into two int64 matrices in one
    `np.frombuffer` call. An entry is held, i.e. an opinion exists, once it
    has any evidence; every write adds some, so held is `positive + negative
    > 0` and a zero entry reads exactly like an absent one. Vectorised
    expected values use `Opinion`'s own formula, `pos/mass + a*(2/mass)`,
    so they are bit-equal to the scalar API. The recommendation exchange
    keeps its sums bit-equal with two more rules, fixed sender order and no
    matrix product (see `exchange_recommendations`).

    The store carries the run's context base rate, which fills the uncertain
    mass of every expected value it computes.
    """

    def __init__(self, base_rate: float) -> None:
        if not 0.0 <= base_rate <= 1.0:
            raise ValueError(f"base rate out of range: {base_rate}")
        self.base_rate = base_rate
        self.evaluators: dict[str, int] = {}  # id -> row
        self.subjects: dict[str, int] = {}  # id -> column, in column order
        self._positive: list[array] = []
        self._negative: list[array] = []

    def get(self, evaluator: str, subject: str) -> Opinion | None:
        """A copy of the held opinion, or None when there is no evidence."""
        row = self.evaluators.get(evaluator)
        column = self.subjects.get(subject)
        if row is None or column is None:
            return None
        positive = self._positive[row][column]
        negative = self._negative[row][column]
        if positive == 0 and negative == 0:
            return None
        return Opinion(positive, negative, self.base_rate)

    def record_experience(self, evaluator: str, subject: str, outcome: Outcome) -> None:
        if outcome == "positive":
            counts = self._positive
        elif outcome == "negative":
            counts = self._negative
        else:
            raise ValueError(f"unknown outcome: {outcome!r}")
        row = self.evaluators.get(evaluator)
        if row is None:
            row = self.evaluators[evaluator] = len(self.evaluators)
            zeros = array("q", bytes(8 * len(self.subjects)))
            self._positive.append(zeros)
            self._negative.append(array("q", zeros))
        column = self.subjects.get(subject)
        if column is None:
            column = self.subjects[subject] = len(self.subjects)
            for rows in (self._positive, self._negative):
                for counts_row in rows:
                    counts_row.append(0)
        counts[row][column] += 1

    def direct_trust(self, evaluator: str, subject: str) -> float:
        """Expected value of the evaluator's own opinion; vacuous -> base rate."""
        opinion = self.get(evaluator, subject)
        if opinion is None:
            return self.base_rate
        return opinion.expected_value()

    def _evidence(self) -> tuple[np.ndarray, np.ndarray]:
        """(positive, negative) counts as int64 matrices, evaluator rows x subject columns."""
        shape = (len(self.evaluators), len(self.subjects))
        return tuple(
            np.frombuffer(b"".join(rows), dtype=np.int64).reshape(shape)
            for rows in (self._positive, self._negative)
        )

    def expected_values(self) -> tuple[np.ndarray, np.ndarray]:
        """(E, held) over the whole store, E bit-equal to Opinion.expected_value.

        E is computed as `positive/mass + a*(2/mass)`, the same operations in
        the same order as `Opinion.components` and `expected_value`; entries
        that are not held carry the vacuous value and must be masked.
        """
        positive, negative = self._evidence()
        mass = positive + negative + 2
        return positive / mass + self.base_rate * (2 / mass), mass > 2

    def direct_trust_matrix(self, evaluators: Sequence[str], subjects: Sequence[str]) -> np.ndarray:
        """direct_trust for every (evaluator, subject) pair, as one float matrix."""
        expected, held = self.expected_values()
        # one extra vacuous row and column, which unknown ids index as -1
        trust = np.pad(np.where(held, expected, self.base_rate), (0, 1), constant_values=self.base_rate)
        rows = [self.evaluators.get(e, -1) for e in evaluators]
        columns = [self.subjects.get(s, -1) for s in subjects]
        return trust[np.ix_(rows, columns)]

    def by_evaluator(self) -> dict[str, dict[str, Opinion]]:
        """Every held opinion as a copy, grouped by evaluator, both levels sorted."""
        subjects = sorted(self.subjects.items())
        grouped: dict[str, dict[str, Opinion]] = {}
        for evaluator, row in sorted(self.evaluators.items()):
            positive, negative = self._positive[row], self._negative[row]
            grouped[evaluator] = {
                subject: Opinion(positive[column], negative[column], self.base_rate)
                for subject, column in subjects
                if positive[column] or negative[column]
            }
        return grouped

    def __len__(self) -> int:
        positive, negative = self._evidence()
        return int(np.count_nonzero(positive + negative))


def exchange_recommendations(
    store: OpinionStore, routes: Sequence[tuple[str, Sequence[str]]]
) -> dict[tuple[str, str], float]:
    """(receiver, subject) -> mean expected value the receiver was sent.

    `routes` lists (sender, distinct receivers) in sender order. Each sender
    forwards every opinion it holds to each of its receivers; a receiver's
    value for a subject is the plain mean over the senders that hold one.
    Only pairs that received something appear in the result.

    Vectorised over subjects, and bit-equal to summing per key in sender
    order, by three rules:
      - E comes from `OpinionStore.expected_values`, the same formula as
        `Opinion.expected_value`;
      - each sender's row is added into its receivers' rows one sender at a
        time, in route order, so every key sees the same sequence of
        additions (a sender that holds nothing for a subject adds 0.0,
        which leaves the sum unchanged);
      - no matrix product or reduction: their summation order differs and
        moves some means by one ulp.
    """
    expected, held = store.expected_values()
    sent = np.where(held, expected, 0.0)
    receivers = sorted({r for _, targets in routes for r in targets})
    slot = {receiver: k for k, receiver in enumerate(receivers)}
    sums = np.zeros((len(receivers), len(store.subjects)))
    counts = np.zeros(sums.shape, dtype=np.int64)
    for sender, targets in routes:
        row = store.evaluators.get(sender)
        if row is None:
            continue
        into = [slot[r] for r in targets]
        sums[into] += sent[row]
        counts[into] += held[row]
    rows, cols = np.nonzero(counts)
    means = (sums[rows, cols] / counts[rows, cols]).tolist()
    subjects = list(store.subjects)
    return {
        (receivers[r], subjects[c]): mean
        for r, c, mean in zip(rows.tolist(), cols.tolist(), means)
    }


def weights_from_relation(relation: RelationType) -> tuple[float, float, float]:
    """(alpha, beta, gamma) for a relation; the sum is exactly 1.0."""
    gamma = relation.gamma
    alpha = (1.0 - gamma) / 2.0
    return alpha, alpha, gamma


def overall_trust(direct: float, similarity: float, recommended: float, relation: RelationType) -> float:
    """Weighted blend of the three trust components."""
    for name, value in (("direct", direct), ("similarity", similarity), ("recommended", recommended)):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} trust component out of range: {value}")
    return _blend(direct, similarity, recommended, relation)


def overall_trust_array(
    direct: np.ndarray, similarity: np.ndarray, recommended: np.ndarray, relation: RelationType
) -> np.ndarray:
    """overall_trust elementwise: the same operations per element.

    The first element with an out-of-range component raises overall_trust's
    own error, as a loop of scalar calls would.
    """
    inside = np.logical_and.reduce([(0.0 <= v) & (v <= 1.0) for v in (direct, similarity, recommended)])
    outside = np.flatnonzero(~inside)
    if outside.size:
        k = outside[0]
        overall_trust(direct[k].item(), similarity[k].item(), recommended[k].item(), relation)
    return _blend(direct, similarity, recommended, relation)


def _blend(direct, similarity, recommended, relation: RelationType):
    """alpha*D + beta*S + gamma*R, left to right, on floats or float arrays alike."""
    alpha, beta, gamma = weights_from_relation(relation)
    return alpha * direct + beta * similarity + gamma * recommended


class TrustAssessment(NamedTuple):
    """One evaluation of a subject identity, with its component breakdown.

    A named tuple rather than a dataclass: monitoring builds one row per
    member per manager per epoch (137 k at 200 nodes), and a tuple is both
    cheaper to build and smaller to retain. Rows are read by attribute or
    unpacked in field order; nothing mutates them.
    """

    time: float
    evaluator: str
    subject: str
    relation: RelationType
    direct: float
    similarity: float
    recommended: float
    trust: float
    split: str = "external"  # internal | external, for the ESR series


def assess(
    time: float,
    evaluator: str,
    subject: str,
    relation: RelationType,
    direct: float,
    similarity: float,
    recommended: float,
    split: str = "external",
) -> TrustAssessment:
    trust = overall_trust(direct, similarity, recommended, relation)
    return TrustAssessment(
        time=time,
        evaluator=evaluator,
        subject=subject,
        relation=relation,
        direct=direct,
        similarity=similarity,
        recommended=recommended,
        trust=trust,
        split=split,
    )


def assess_array(
    time: float,
    evaluator: str,
    subjects: Sequence[str],
    relation: RelationType,
    direct: Sequence[float],
    similarity: Sequence[float],
    recommended: Sequence[float],
    split: str = "external",
) -> list[TrustAssessment]:
    """assess for one evaluator and many subjects, one row per subject.

    The components are sequences of Python floats and the rows keep those
    very objects; the blend is computed as an array and returned through
    `.tolist()`, so every float in a row is a Python float and the CSV
    writers print the same bytes as for scalar assessments. Rows are built
    straight from the zipped columns, as `TrustAssessment._make` builds
    them, without a Python call per row.
    """
    trust = overall_trust_array(
        np.array(direct, dtype=np.float64),
        np.array(similarity, dtype=np.float64),
        np.array(recommended, dtype=np.float64),
        relation,
    )
    columns = zip(
        repeat(time), repeat(evaluator), subjects, repeat(relation),
        direct, similarity, recommended, trust.tolist(), repeat(split),
    )
    return list(map(partial(tuple.__new__, TrustAssessment), columns))


class _Reprs(dict):
    """repr memo for one low-cardinality numeric column: `memo[value]`.

    Zero is never stored: 0.0 and -0.0 are equal keys with different text.
    Keys that compare equal across types (1 and 1.0) would collide the same
    way, so one memo serves one column, whose values share a type: the
    engine's times are all `step * tick`, D and S are all floats.
    """

    def __missing__(self, value) -> str:
        text = repr(value)
        if value:
            self[value] = text
        return text


def write_trust_trace_csv(assessments: Iterable[TrustAssessment], path: str | Path) -> None:
    """One CSV row per assessment: time, ids, relation, then D, S, R, T by repr.

    Rows are formatted as f-string lines and written `CHUNK_LINES` at a
    time, the same bytes `csv.writer` writes: no field needs quoting
    (`check_unquoted` raises if one would). Time, D and S repeat a few
    hundred distinct values over 10^5 rows, so their reprs are memoised; R
    and T are mostly distinct and formatted directly.
    """
    times, directs, similarities = _Reprs(), _Reprs(), _Reprs()
    relation_of: RelationType | None = None
    relation_text = ""
    rows = iter(assessments)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("time,evaluator,subject,relation,D,S,R,T\n")
        while chunk := list(islice(rows, CHUNK_LINES)):
            lines = []
            for time, evaluator, subject, relation, d, s, r, t, _ in chunk:
                if relation is not relation_of:
                    relation_of, relation_text = relation, relation.value
                lines.append(
                    f"{times[time]},{evaluator},{subject},{relation_text},"
                    f"{directs[d]},{similarities[s]},{r!r},{t!r}\n"
                )
            handle.write(check_unquoted("".join(lines), len(lines), 8))
