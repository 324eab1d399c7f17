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
from pathlib import Path
from typing import Iterator, Literal, NamedTuple, Sequence, TextIO

import numpy as np

from .record import NameTexts, Spool, Symbols, check_unquoted, chunk_bounds, float_texts, join_columns, time_texts
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


class OpinionStore:
    """Evidence counts keyed by (evaluator device id, subject identity id).

    Dense layout, addressed by the codes of the store's id table
    (`record.Symbols`; the engine passes the run's own): the counts are one
    int64 array indexed `[negative/positive, evaluator code, subject code]`.
    Its used extent grows to cover the highest code written on each axis,
    and an axis's capacity at least doubles when that extent reaches it; so a
    batch of experiences is one `np.add.at`, and a read of the whole store
    is a view. Each axis keeps a spare row or column past its extent, never
    written, so a read of -1 (an id the table does not hold) or of a code
    at or beyond the extent finds zero counts: an id with no evidence.
    An entry is held, i.e. an opinion exists, once it has any evidence;
    every write adds some, so held is `positive + negative > 0` and a zero
    entry reads exactly like an absent one. Vectorised expected values use
    `Opinion`'s own formula, `pos/mass + a*(2/mass)`, so they are bit-equal
    to the scalar API. The recommendation exchange keeps its sums bit-equal
    with two more rules, fixed sender order and no matrix product (see
    `exchange_recommendations`). Counts leave the store as Python ints, so
    every float computed from them is a Python float. A read by name never
    adds an id to the table.

    The store carries the run's context base rate, which fills the uncertain
    mass of every expected value it computes.
    """

    def __init__(self, base_rate: float, symbols: Symbols | None = None) -> None:
        if not 0.0 <= base_rate <= 1.0:
            raise ValueError(f"base rate out of range: {base_rate}")
        self.base_rate = base_rate
        self.symbols = Symbols() if symbols is None else symbols
        self._extent = (0, 0)  # evaluator and subject codes below these have been written
        self._counts = np.zeros((2, 16, 16), dtype=np.int64)  # [negative, positive][evaluator, subject]

    def get(self, evaluator: str, subject: str) -> Opinion | None:
        """A copy of the held opinion, or None when there is no evidence."""
        rows, columns = self._extent
        row, column = min(self.symbols.find(evaluator), rows), min(self.symbols.find(subject), columns)
        negative, positive = self._counts[:, row, column].tolist()
        if positive == 0 and negative == 0:
            return None
        return Opinion(positive, negative, self.base_rate)

    def record_experience(self, evaluator: str, subject: str, outcome: Outcome, units: int = 1) -> None:
        """Book `units` experiences of one outcome; zero units write nothing."""
        if outcome not in ("positive", "negative"):
            raise ValueError(f"unknown outcome: {outcome!r}")
        if units < 0:
            raise ValueError(f"experience units must be non-negative: {units}")
        if units:
            code = self.symbols.code
            self.record_coded([code(evaluator)], [code(subject)], [outcome == "positive"], units)

    def record_coded(
        self, evaluators: Sequence[int] | np.ndarray, subjects: Sequence[int] | np.ndarray, positive: np.ndarray,
        units: int = 1,
    ) -> None:
        """`units` experiences per (evaluator code, subject code, positive?) triple, as one write."""
        if units < 1:
            raise ValueError(f"batched experience units must be positive: {units}")
        codes = [np.asarray(axis, dtype=np.intp) for axis in (evaluators, subjects)]
        self._extent = tuple(max(used, int(axis.max(initial=-1)) + 1) for used, axis in zip(self._extent, codes))
        capacity = self._counts.shape[1:]
        if any(used >= have for used, have in zip(self._extent, capacity)):
            grown = np.zeros((2, *(have if used < have else max(used + 1, 2 * have)
                                   for used, have in zip(self._extent, capacity))), dtype=np.int64)
            grown[:, : capacity[0], : capacity[1]] = self._counts
            self._counts = grown
        np.add.at(self._counts, (np.asarray(positive, dtype=np.intp), *codes), units)

    def direct_trust(self, evaluator: str, subject: str) -> float:
        """Expected value of the evaluator's own opinion; vacuous -> base rate."""
        opinion = self.get(evaluator, subject)
        if opinion is None:
            return self.base_rate
        return opinion.expected_value()

    def _evidence(self) -> tuple[np.ndarray, np.ndarray]:
        """(positive, negative) counts as int64 views, evaluator codes x subject codes."""
        rows, columns = self._extent
        negative, positive = self._counts[:, :rows, :columns]
        return positive, negative

    def _expected(self, positive: np.ndarray, mass: np.ndarray) -> np.ndarray:
        """E elementwise from counts and mass = positive + negative + 2, bit-equal to Opinion.expected_value.

        E is computed as `positive/mass + a*(2/mass)`, the same operations in
        the same order as `Opinion.components` and `expected_value`; an
        entry with no evidence reads 0/2 + a*(2/2), the base rate itself.
        """
        return positive / mass + self.base_rate * (2 / mass)

    def expected_values(self) -> tuple[np.ndarray, np.ndarray]:
        """(E, held) over the whole store; entries that are not held carry the vacuous value and must be masked."""
        positive, negative = self._evidence()
        mass = positive + negative + 2
        return self._expected(positive, mass), mass > 2

    def direct_trust_matrix(self, evaluators: np.ndarray, subjects: np.ndarray) -> np.ndarray:
        """direct_trust for every (evaluator code, subject code) pair, gathering only those cells."""
        rows, columns = self._extent  # -1 and codes at or past the extent read a spare, zero row or column
        cells = np.ix_(np.minimum(evaluators, rows), np.minimum(subjects, columns))
        negative, positive = self._counts[:, cells[0], cells[1]]
        return self._expected(positive, positive + negative + 2)

    def by_evaluator(self) -> dict[str, dict[str, Opinion]]:
        """Every held opinion as a copy, grouped by evaluator, both levels sorted."""
        names = self.symbols.names
        positive, negative = self._evidence()
        cells = zip(*(codes.tolist() for codes in np.nonzero(positive + negative)))
        grouped: dict[str, dict[str, Opinion]] = {}
        for evaluator, subject, row, column in sorted((names[r], names[c], r, c) for r, c in cells):
            grouped.setdefault(evaluator, {})[subject] = Opinion(
                positive[row, column].item(), negative[row, column].item(), self.base_rate
            )
        return grouped

    def __len__(self) -> int:
        positive, negative = self._evidence()
        return int(np.count_nonzero(positive + negative))


def exchange_recommendations(store: OpinionStore, routes: Sequence[tuple[int, Sequence[int]]]) -> Recommendations:
    """The mean expected value each receiver was sent about each subject.

    `routes` lists (sender, distinct receivers) as id-table codes, in sender
    order. Each sender forwards every opinion it holds to each of its
    receivers; a receiver's value for a subject is the plain mean over the
    senders that hold one. The result is indexed by receiver code x subject
    code and holds only the pairs that received something.

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
    sent, held = store.expected_values()
    sent[~held] = 0.0  # E is a fresh array: what a sender does not hold adds nothing
    receivers = 1 + max((r for _, targets in routes for r in targets), default=-1)
    columns = held.shape[1]
    # one more row and column than delivered, never held: `Recommendations` reads through them
    sums = np.zeros((receivers + 1, columns + 1))
    counts = np.zeros(sums.shape, dtype=np.int64)
    for sender, targets in routes:
        if sender >= len(sent):  # a sender beyond the store's rows holds nothing
            continue
        if len(targets) == 1:  # a subordinate's route: one row, basic indexing adds in place
            (target,) = targets
            sums[target, :columns] += sent[sender]
            counts[target, :columns] += held[sender]
        else:
            sums[targets, :columns] += sent[sender]
            counts[targets, :columns] += held[sender]
    return Recommendations(sums / np.maximum(counts, 1), counts > 0)


class Recommendations:
    """What an exchange delivered, read-only: receiver code x subject code -> mean.

    A mean is held when the receiver was sent at least one opinion about
    the subject. The arrays' last row and column are never held: -1 and
    codes beyond the arrays, such as a subject first coded after the
    exchange, read them, and hold none, as they held none in the exchange.
    """

    def __init__(self, means: np.ndarray, held: np.ndarray) -> None:
        self._means = means
        self._held = held

    def __len__(self) -> int:
        return int(np.count_nonzero(self._held))

    def received(self, receiver: int, subjects: Sequence[int] | np.ndarray, default: float) -> np.ndarray:
        """The receiver's mean about each subject code, `default` where it received none."""
        rows, columns = self._held.shape
        row, subjects = min(receiver, rows - 1), np.minimum(subjects, columns - 1)
        return np.where(self._held[row, subjects], self._means[row, subjects], default)


# what every receiver holds before the first exchange; read-only, so one serves every run
NO_RECOMMENDATIONS = Recommendations(np.zeros((1, 1)), np.zeros((1, 1), dtype=bool))


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

    A run keeps its assessments as columns (`AssessmentTable`) and builds
    these rows only when they are read. Rows are read by attribute or
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


_SPLITS = ("internal", "external")
_RELATIONS = tuple(RelationType)


class AssessmentTable(Spool):
    """Every trust assessment of a run, as columns.

    A row is a float64 time, the evaluator and subject as id-table codes
    (see `record.Symbols`), the relation and the split as one-byte codes,
    and D, S, R and T as float64: 50 bytes, and no Python object.
    Iterating the table builds `TrustAssessment` rows on demand, each float
    read back as the same Python float it was stored from, so the rows
    equal the ones the assessments were made as. Building them costs about
    0.6 µs and 220 bytes a row while held; the writers and
    `RunResult.esr_splits` read the columns instead.

    Given a `sink`, the table writes the trust trace to it as the run goes
    (see `record.Spool`): the header at once, then each flushed row, and
    keeps of a written row only T and the split, 9 bytes, which the ESR
    needs. A writer process's mirror of the table keeps neither.
    """

    header = "time,evaluator,subject,relation,D,S,R,T\n"

    def __init__(self, symbols: Symbols | None = None, sink: TextIO | None = None) -> None:
        self.symbols = Symbols() if symbols is None else symbols
        self._trust = array("d")  # every row's T and split, written or not
        self._split = array("B")
        self._names = NameTexts(self.symbols.names, ",")
        super().__init__(sink)

    def _drop(self) -> None:
        self._time = array("d")
        self._evaluator = array("i")
        self._subject = array("i")
        self._relation = array("B")
        self._components = tuple(array("d") for _ in range(3))  # D, S, R

    def _pending(self) -> int:
        return len(self._time)

    def _buffers(self) -> tuple[array, ...]:
        """The pending columns, then the pending rows' T: a copy, since every row's T stays for the ESR."""
        return (self._time, self._evaluator, self._subject, self._relation, *self._components, self._trust[self._written :])

    def _load(self, buffers: Sequence[bytes]) -> None:
        """A mirror's load: the shipment's T replaces the mirror's, so it keeps no T it has written."""
        *columns, trust = buffers
        for column, data in zip(self._buffers()[:-1], columns, strict=True):
            column.frombytes(data)
        self._trust = array("d", trust)

    def append(
        self,
        time: float,
        evaluator: str,
        subject: str,
        relation: RelationType,
        direct: float,
        similarity: float,
        recommended: float,
        trust: float,
        split: str = "external",
    ) -> None:
        """One row, its fields in `TrustAssessment` order."""
        self._time.append(time)
        self._evaluator.append(self.symbols.code(evaluator))
        self._subject.append(self.symbols.code(subject))
        self._relation.append(_RELATIONS.index(relation))
        self._split.append(_SPLITS.index(split))
        for column, value in zip(self._components, (direct, similarity, recommended)):
            column.append(value)
        self._trust.append(trust)

    def extend(
        self,
        time: float,
        evaluator: str,
        subjects: np.ndarray,
        relation: RelationType,
        direct: np.ndarray,
        similarity: np.ndarray,
        recommended: np.ndarray,
        trust: np.ndarray,
        split: str,
    ) -> None:
        """One evaluator's rows at one time; subjects as id-table codes, the rest as arrays."""
        count = len(subjects)
        self._time.frombytes(np.full(count, time, dtype=np.float64).tobytes())
        self._evaluator.frombytes(np.full(count, self.symbols.code(evaluator), dtype=np.intc).tobytes())
        self._subject.frombytes(np.asarray(subjects, dtype=np.intc).tobytes())
        self._relation.frombytes(bytes([_RELATIONS.index(relation)]) * count)
        self._split.frombytes(bytes([_SPLITS.index(split)]) * count)
        for column, values in zip((*self._components, self._trust), (direct, similarity, recommended, trust)):
            column.frombytes(np.asarray(values, dtype=np.float64).tobytes())

    def __len__(self) -> int:
        """Every row appended, written to the sink or not."""
        return len(self._trust)

    def __iter__(self) -> Iterator[TrustAssessment]:
        """The rows as `TrustAssessment`s; a table that streams to a file raises."""
        self._require_whole()
        names = self.symbols.names
        columns = zip(
            self._time,
            map(names.__getitem__, self._evaluator),
            map(names.__getitem__, self._subject),
            map(_RELATIONS.__getitem__, self._relation),
            *self._components,
            self._trust,
            map(_SPLITS.__getitem__, self._split),
        )
        return map(partial(tuple.__new__, TrustAssessment), columns)

    splits = _SPLITS

    def split_trust(self, split: str) -> np.ndarray:
        """One split's T in row order, a fresh float64 array picked by one mask over the split codes."""
        mask = np.frombuffer(self._split, dtype=np.uint8) == _SPLITS.index(split)
        return np.frombuffer(self._trust, dtype=np.float64)[mask]

    def _chunks(self) -> Iterator[str]:
        """The pending rows as trust-trace lines: time, ids, relation, then D, S, R, T by repr.

        Rows are assembled from text columns, the same bytes `csv.writer`
        writes: no field needs quoting (`check_unquoted` raises if one
        would). Ids are formatted once per table entry, times once per run
        of equal times in a chunk, and D, S, R and T once per distinct value
        in a chunk, which for D and S is a few hundred values over 10^5 rows.
        """
        count = len(self._time)
        if count == 0:
            return
        relations = np.array([relation.value + "," for relation in _RELATIONS], dtype=object)
        time = np.frombuffer(self._time, dtype=np.float64)
        evaluator = np.frombuffer(self._evaluator, dtype=np.intc)
        subject = np.frombuffer(self._subject, dtype=np.intc)
        relation = np.frombuffer(self._relation, dtype=np.uint8)
        direct, similarity, recommended = (np.frombuffer(c, dtype=np.float64) for c in self._components)
        trust = np.frombuffer(self._trust, dtype=np.float64)[len(self._trust) - count :]  # the pending rows' T
        for start, stop in chunk_bounds(count):
            rows = slice(start, stop)
            columns = [
                time_texts(time[rows], "{!r},"),
                self._names.of(evaluator[rows]),
                self._names.of(subject[rows]),
                relations[relation[rows]],
                float_texts(direct[rows], ","),
                float_texts(similarity[rows], ","),
                float_texts(recommended[rows], ","),
                float_texts(trust[rows], "\n"),
            ]
            yield check_unquoted(join_columns(columns, stop - start), stop - start, 8)


def write_trust_trace_csv(assessments: AssessmentTable, path: str | Path) -> None:
    """One CSV row per assessment, a chunk at a time (see `AssessmentTable._chunks`).

    A table that streamed its trace to a file raises.
    """
    assessments._write(path)
