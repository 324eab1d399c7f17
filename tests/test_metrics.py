import csv
import random
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, strategies as st

from siotrust.metrics import (
    CHUNK_LINES,
    ConfusionCounters,
    MetricsReport,
    accuracy,
    detection_rate,
    esr_cdf,
    false_negative_rate,
    false_positive_rate,
    float_texts,
    write_esr_csv,
    write_metrics_csv,
)


@dataclass(frozen=True)
class Decision:
    attacker: bool
    granted: bool


class TestCounters:
    def test_cell_assignment(self):
        c = ConfusionCounters()
        c.record(attacker=True, granted=False)   # detected attack
        c.record(attacker=True, granted=True)    # missed attack
        c.record(attacker=False, granted=True)   # correct grant
        c.record(attacker=False, granted=False)  # wrongly denied
        assert (c.acd, c.false_neg, c.lci, c.false_pos) == (1, 1, 1, 1)
        assert c.aot == 2
        assert c.ar == 4
        assert (c.true_pos, c.true_neg) == (1, 1)

    def test_from_requests_equals_incremental(self):
        rng = random.Random(77)
        for _ in range(100):
            log = [
                Decision(rng.random() < 0.3, rng.random() < 0.5)
                for _ in range(rng.randint(0, 10_000))
            ]
            incremental = ConfusionCounters()
            for decision in log:
                incremental.record(decision.attacker, decision.granted)
            recount = ConfusionCounters(
                acd=sum(1 for d in log if d.attacker and not d.granted),
                false_neg=sum(1 for d in log if d.attacker and d.granted),
                lci=sum(1 for d in log if not d.attacker and d.granted),
                false_pos=sum(1 for d in log if not d.attacker and not d.granted),
            )
            assert incremental == recount
            assert incremental == ConfusionCounters.from_requests(log)


class TestRates:
    def test_detection_rate(self):
        c = ConfusionCounters(acd=3, false_neg=1)
        assert detection_rate(c) == pytest.approx(75.0)

    def test_accuracy_counts_all_requests(self):
        c = ConfusionCounters(acd=3, false_neg=1, lci=5, false_pos=1)
        assert accuracy(c) == pytest.approx(8 / 10)

    def test_rate_sum_identity(self):
        # when every attack is adjudicated, DR and FN split 100 between them
        rng = random.Random(9)
        for _ in range(200):
            c = ConfusionCounters(acd=rng.randint(0, 50), false_neg=rng.randint(0, 50))
            if c.aot == 0:
                continue
            assert abs(detection_rate(c) + false_negative_rate(c) - 100.0) < 1e-9

    def test_empty_denominators_are_none_not_zero(self):
        empty = ConfusionCounters()
        assert detection_rate(empty) is None
        assert accuracy(empty) is None
        assert false_negative_rate(empty) is None
        assert false_positive_rate(empty) is None

    def test_false_positive_rate(self):
        c = ConfusionCounters(lci=9, false_pos=1)
        assert false_positive_rate(c) == pytest.approx(10.0)
        assert false_positive_rate(ConfusionCounters(lci=9)) == 0.0


class TestMetricsCsv:
    def test_rows_and_na_cells(self, tmp_path):
        reports = [
            MetricsReport("churn-stolen", "residence", "clor", 1, ConfusionCounters(3, 1, 5, 1)),
            MetricsReport("multi-fabricated", "park", "sor", 2, ConfusionCounters()),
        ]
        path = tmp_path / "metrics.csv"
        write_metrics_csv(reports, path)
        rows = list(csv.reader(path.read_text().splitlines()))
        assert rows[0] == ["scenario", "context", "relation", "seed", "DR", "ACC", "FN", "FP"]
        assert rows[1][:4] == ["churn-stolen", "residence", "clor", "1"]
        assert float(rows[1][4]) == pytest.approx(75.0)
        assert rows[2][4:] == ["NA", "NA", "NA", "NA"]


class TestEsrCdf:
    def test_worked_example_with_ties(self):
        curve = esr_cdf([0.4, 0.2, 0.8, 0.4])
        assert curve == [(0.2, 0.25), (0.4, 0.75), (0.4, 0.75), (0.8, 1.0)]

    def test_empty_has_no_curve(self):
        assert esr_cdf([]) is None

    def test_single_sample(self):
        assert esr_cdf([0.6]) == [(0.6, 1.0)]

    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=200))
    def test_curve_shape(self, values):
        curve = esr_cdf(values)
        fractions = [f for _, f in curve]
        points = [v for v, _ in curve]
        assert points == sorted(points)
        assert fractions == sorted(fractions)
        assert 0.0 < fractions[0] <= 1.0
        assert fractions[-1] == 1.0

    def test_csv_skips_empty_split(self, tmp_path):
        path = tmp_path / "esr.csv"
        write_splits({"internal": [], "external": [0.5, 0.25]}, path)
        rows = list(csv.reader(path.read_text().splitlines()))
        assert rows == [
            ["split", "trust", "cum_fraction"],
            ["external", "0.25", "0.5"],
            ["external", "0.5", "1.0"],
        ]


def write_splits(split_values, path):
    """write_esr_csv over one T column holding every split's values, splits interleaved."""
    labelled = [(split, value) for split, values in split_values.items() for value in values]
    random.Random(len(labelled)).shuffle(labelled)  # rows of a split need not be adjacent
    # ...but within a split they keep their given order, which ties depend on
    order = {split: iter(values) for split, values in split_values.items()}
    labelled = [(split, next(order[split])) for split, _ in labelled]
    table = Column(
        np.array([value for _, value in labelled], dtype=np.float64),
        {split: np.array([k for k, (s, _) in enumerate(labelled) if s == split], dtype=np.intp)
         for split in split_values},
    )
    write_esr_csv(table, path)


@dataclass(frozen=True)
class Column:
    """What write_esr_csv reads of an AssessmentTable, with any split names."""

    trust: np.ndarray
    rows: dict

    def split_rows(self):
        return self.rows


def reference_cdf(values):
    """The per-sample bisect formula the one-pass curve replaced."""
    if not values:
        return None
    ordered = sorted(values)
    return [(v, bisect_right(ordered, v) / len(ordered)) for v in ordered]


def reference_esr_csv(split_values, path):
    """The row-by-row writer the chunked one replaced: csv.writer over reprs."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["split", "trust", "cum_fraction"])
        for split in sorted(split_values):
            curve = reference_cdf(split_values[split])
            if curve is None:
                continue
            for value, fraction in curve:
                writer.writerow([split, repr(value), repr(fraction)])


# equal values with different text, the extremes, and repeats (trust is never NaN)
awkward = st.sampled_from([0.0, -0.0, 1e-05, 5e-324, 1.0, 0.5]) | st.floats(0.0, 1.0)


def same_points(got, want):
    """Equal curves, down to the sign of every zero."""
    assert got == want
    assert [repr(p) for p in got] == [repr(p) for p in want]


class TestEsrAgainstTheReference:
    @given(st.lists(awkward, max_size=300))
    def test_curve_equals_the_bisect_formula(self, values):
        got = esr_cdf(values)
        want = reference_cdf(values)
        if want is None:
            assert got is None
        else:
            same_points(got, want)

    def test_ties_of_zero_and_negative_zero(self):
        values = [0.5, -0.0, 0.0, 1e-05, -0.0, 0.5]
        same_points(esr_cdf(values), reference_cdf(values))
        assert [f for _, f in esr_cdf(values)] == [0.5, 0.5, 0.5, 2 / 3, 1.0, 1.0]

    @given(internal=st.lists(awkward, max_size=60), external=st.lists(awkward, max_size=60))
    def test_csv_bytes_equal_the_csv_writer(self, internal, external, tmp_path_factory):
        out = tmp_path_factory.mktemp("esr")
        splits = {"internal": internal, "external": external}
        write_splits(splits, out / "got.csv")
        reference_esr_csv(splits, out / "want.csv")
        assert (out / "got.csv").read_bytes() == (out / "want.csv").read_bytes()

    def test_chunk_boundaries(self, tmp_path):
        rng = random.Random(5)
        values = [rng.choice([0.0, -0.0, 0.75, rng.random()]) for _ in range(2 * CHUNK_LINES + 3)]
        splits = {"internal": values, "external": values[:CHUNK_LINES]}
        write_splits(splits, tmp_path / "got.csv")
        reference_esr_csv(splits, tmp_path / "want.csv")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_a_split_name_that_needs_quoting_raises(self, tmp_path):
        with pytest.raises(ValueError, match="comma, quote or line break"):
            write_splits({"in,ternal": [0.5]}, tmp_path / "esr.csv")


def esr_cdf_csv(split_values, path):
    """The writer the argsort one replaced: esr_cdf's (value, fraction) points, each by repr."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("split,trust,cum_fraction\n")
        for split in sorted(split_values):
            curve = esr_cdf(split_values[split])
            if curve is not None:
                handle.write("".join(f"{split},{value!r},{fraction!r}\n" for value, fraction in curve))


class TestEsrAgainstTheCdfWriter:
    @given(internal=st.lists(awkward, max_size=80), external=st.lists(awkward, max_size=80))
    def test_bytes_equal_esr_cdf_and_repr(self, internal, external, tmp_path_factory):
        out = tmp_path_factory.mktemp("esr")
        splits = {"internal": internal, "external": external}
        write_splits(splits, out / "got.csv")
        esr_cdf_csv(splits, out / "want.csv")
        assert (out / "got.csv").read_bytes() == (out / "want.csv").read_bytes()

    def test_zero_ties_keep_row_order_across_chunks(self, tmp_path):
        # 0.0 and -0.0 tie; a stable argsort keeps their row order, as sorted does
        values = [-0.0, 0.0, 0.5, 0.0, -0.0, 1e-05, 0.5] * (CHUNK_LINES // 3)
        write_splits({"external": values}, tmp_path / "got.csv")
        esr_cdf_csv({"external": values}, tmp_path / "want.csv")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
        head = (tmp_path / "got.csv").read_text().splitlines()[1:5]
        assert [line.split(",")[1] for line in head] == ["-0.0", "0.0", "0.0", "-0.0"]


class TestFloatTexts:
    @given(st.lists(awkward | st.floats(allow_nan=False), max_size=50), st.sampled_from(["", ","]))
    def test_each_value_prints_its_repr(self, values, suffix):
        got = float_texts(np.array(values, dtype=np.float64), suffix)
        assert got.tolist() == [repr(v) + suffix for v in values]
