import csv
import random
import tracemalloc
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, strategies as st

from siotrust.metrics import (
    ConfusionCounters,
    MetricsReport,
    accuracy,
    detection_rate,
    esr_cdf,
    false_negative_rate,
    false_positive_rate,
    write_esr_csv,
    write_metrics_csv,
)
from siotrust.record import CHUNK_LINES, float_texts, write_csv
from siotrust.social import RelationType
from siotrust.trust import AssessmentTable


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
        assert (false_negative_rate(c), false_positive_rate(c)) == (50.0, 50.0)  # read off acd and lci

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


# fields written unquoted: text with no comma, quote or line break, and numbers
plain = st.text(st.characters(blacklist_characters=',"\r\n')) | st.integers() | st.floats(allow_nan=False)


class TestWriteCsv:
    @given(rows=st.lists(st.tuples(plain, plain, plain), max_size=20))
    def test_bytes_equal_the_csv_writer(self, rows, tmp_path_factory):
        out = tmp_path_factory.mktemp("csv")
        write_csv(out / "got.csv", ["a", "b", "c"], iter(rows))
        with open(out / "want.csv", "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(["a", "b", "c"])
            writer.writerows(rows)
        assert (out / "got.csv").read_bytes() == (out / "want.csv").read_bytes()

    @pytest.mark.parametrize("bad", ["a,b", 'say "hi"', "two\nlines", "cr\r"])
    def test_a_field_that_needs_quoting_writes_no_file(self, bad, tmp_path):
        with pytest.raises(ValueError, match="comma, quote or line break"):
            write_csv(tmp_path / "bad.csv", ["a", "b"], [["ok", "ok"], ["ok", bad]])
        assert not (tmp_path / "bad.csv").exists()


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
    """write_esr_csv over splits given as lists, each split's T in the given row order."""
    write_esr_csv(Column({split: np.array(values, dtype=np.float64) for split, values in split_values.items()}), path)


@dataclass(frozen=True)
class Column:
    """What write_esr_csv reads of an AssessmentTable, with any split names."""

    values: dict

    @property
    def splits(self):
        return tuple(self.values)

    def split_trust(self, split):
        return self.values[split].copy()  # fresh, as the table's is: the writer sorts it in place


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


class TestEsrAgainstTheCdfWriter:
    def test_zero_ties_keep_row_order_across_chunks(self, tmp_path):
        # 0.0 and -0.0 tie; a stable sort keeps their row order, as sorted does
        values = [-0.0, 0.0, 0.5, 0.0, -0.0, 1e-05, 0.5] * (CHUNK_LINES // 3)
        write_splits({"external": values}, tmp_path / "got.csv")
        reference_esr_csv({"external": values}, tmp_path / "want.csv")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
        head = (tmp_path / "got.csv").read_text().splitlines()[1:5]
        assert [line.split(",")[1] for line in head] == ["-0.0", "0.0", "0.0", "-0.0"]

    @given(rows=st.lists(st.tuples(awkward, st.sampled_from(AssessmentTable.splits)), max_size=120))
    def test_an_interleaved_table_equals_its_splits(self, rows, tmp_path_factory):
        out = tmp_path_factory.mktemp("esr")
        write_esr_csv(interleaved_table(rows), out / "got.csv")
        reference_esr_csv(split_lists(rows), out / "want.csv")
        assert (out / "got.csv").read_bytes() == (out / "want.csv").read_bytes()

    def test_an_interleaved_table_keeps_zero_ties_across_chunks(self, tmp_path):
        rng = random.Random(11)
        rows = [(rng.choice([0.0, -0.0, 0.0, -0.0, 0.5, rng.random()]), rng.choice(AssessmentTable.splits))
                for _ in range(4 * CHUNK_LINES + 7)]
        write_esr_csv(interleaved_table(rows), tmp_path / "got.csv")
        reference_esr_csv(split_lists(rows), tmp_path / "want.csv")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
        lines = (tmp_path / "got.csv").read_text().splitlines()[1:]
        for split in AssessmentTable.splits:  # each split's first chunk edge falls inside its run of zeros
            edge = [line.split(",")[1] for line in lines if line.startswith(split + ",")][CHUNK_LINES - 1:CHUNK_LINES + 1]
            assert set(edge) <= {"0.0", "-0.0"}, edge


def interleaved_table(rows):
    """An AssessmentTable of (T, split) rows in the given order, the splits mixed in one column."""
    table = AssessmentTable()
    for k, (trust, split) in enumerate(rows):
        table.append(float(k), "d0", f"d{k % 7 + 1}", RelationType.SOR, trust, trust, trust, trust, split)
    return table


def split_lists(rows):
    """Each split's T values in row order."""
    return {split: [trust for trust, s in rows if s == split] for split in AssessmentTable.splits}


class TestEsrWriterMemory:
    def test_holds_one_split_of_t_and_chunks_not_copies_of_the_column(self, tmp_path):
        rng = np.random.default_rng(3)
        table = AssessmentTable()
        for k in range(200):
            count = 1000
            trust = np.where(rng.random(count) < 0.5, rng.choice([0.0, -0.0, 0.25, 1.0], count), rng.random(count))
            table.extend(float(k), "d0", np.arange(count), RelationType.SOR, trust, trust, trust, trust,
                         "internal" if k % 2 else "external")
        rows = len(table)
        write_esr_csv(table, tmp_path / "warm.csv")  # first-use caches outside the measurement
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            write_esr_csv(table, tmp_path / "esr.csv")
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert (tmp_path / "esr.csv").read_bytes() == (tmp_path / "warm.csv").read_bytes()
        # one split's T (8 bytes a row), its mask and chunk-sized arrays; the
        # writer this replaced held five to six arrays as long as the column
        assert peak < 2 * 8 * rows, peak / rows


class TestFloatTexts:
    @given(st.lists(awkward | st.floats(allow_nan=False), max_size=50), st.sampled_from(["{!r}", "{!r},", "t={!r} "]))
    def test_each_value_prints_its_repr(self, values, template):
        got = float_texts(np.array(values, dtype=np.float64), template)
        assert got.tolist() == [template.format(v) for v in values]
