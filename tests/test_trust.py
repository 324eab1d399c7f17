import csv
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from siotrust.sim import ScenarioConfig, SimulationEngine, run_scenario
from siotrust.social import RelationType
from siotrust.record import CHUNK_LINES, Symbols
from siotrust.trust import (
    AssessmentTable,
    Opinion,
    OpinionStore,
    TrustAssessment,
    assess,
    exchange_recommendations,
    overall_trust,
    overall_trust_array,
    weights_from_relation,
    write_trust_trace_csv,
)

counts = st.integers(min_value=0, max_value=10**6)


class TestOpinion:
    def test_two_one_components(self):
        b, d, u = Opinion(2, 1).components()
        assert abs(b - 0.4) < 1e-12
        assert abs(d - 0.2) < 1e-12
        assert abs(u - 0.4) < 1e-12

    def test_three_five_components(self):
        b, d, u = Opinion(3, 5).components()
        assert abs(b - 0.3) < 1e-12
        assert abs(d - 0.5) < 1e-12
        assert abs(u - 0.2) < 1e-12

    def test_expected_value_two_one(self):
        assert abs(Opinion(2, 1, base_rate=0.5).expected_value() - 0.6) < 1e-12

    def test_vacuous_expected_value_is_the_base_rate(self):
        assert Opinion(base_rate=0.3).expected_value() == pytest.approx(0.3)

    def test_heavy_negative_evidence(self):
        # 58 negatives under full prior trust leave only the uncertainty mass
        assert Opinion(0, 58, base_rate=1.0).expected_value() == pytest.approx(1 / 30)

    @given(counts, counts)
    def test_components_sum_to_one(self, pos, neg):
        b, d, u = Opinion(pos, neg).components()
        assert abs(b + d + u - 1.0) < 1e-9
        for part in (b, d, u):
            assert 0.0 <= part <= 1.0

    @given(counts, counts, st.floats(min_value=0.0, max_value=1.0))
    def test_expected_value_in_range(self, pos, neg, a):
        assert 0.0 <= Opinion(pos, neg, base_rate=a).expected_value() <= 1.0

    def test_negative_evidence_rejected(self):
        with pytest.raises(ValueError):
            Opinion(-1, 0)


class TestOpinionStore:
    def test_vacuous_direct_trust_does_not_create_state(self):
        store = OpinionStore(base_rate=0.7)
        assert store.direct_trust("e", "s") == 0.7
        assert len(store) == 0 and store.symbols.names == []

    def test_record_then_read(self):
        store = OpinionStore(base_rate=0.5)
        store.record_experience("e", "s", "positive")
        store.record_experience("e", "s", "positive")
        assert store.direct_trust("e", "s") == pytest.approx(2 / 4 + 0.5 * 2 / 4)
        assert len(store) == 1

    def test_opinions_keyed_per_pair(self):
        store = OpinionStore(base_rate=0.5)
        store.record_experience("e1", "s", "negative")
        assert store.get("e2", "s") is None
        assert store.direct_trust("e2", "s") == 0.5

    def test_opinions_of_sorted(self):
        store = OpinionStore(base_rate=0.5)
        store.record_experience("e", "z", "positive")
        store.record_experience("e", "a", "positive")
        store.record_experience("other", "m", "positive")
        assert list(store.by_evaluator()["e"]) == ["a", "z"]

    def test_by_evaluator_matches_per_evaluator_view(self):
        store = OpinionStore(base_rate=0.5)
        for evaluator, subject in [("e1", "a"), ("e1", "b"), ("e2", "a")]:
            store.record_experience(evaluator, subject, "positive")
        grouped = store.by_evaluator()
        assert {(e, s) for e in grouped for s in grouped[e]} == {("e1", "a"), ("e1", "b"), ("e2", "a")}
        for evaluator, opinions in grouped.items():
            for subject, opinion in opinions.items():
                assert opinion == store.get(evaluator, subject)

    def test_base_rate_validated(self):
        with pytest.raises(ValueError):
            OpinionStore(base_rate=-0.2)


class TestWeights:
    @pytest.mark.parametrize(
        "relation,expected",
        [
            (RelationType.CLOR, (0.35, 0.35, 0.3)),
            (RelationType.CWOR, (0.4, 0.4, 0.2)),
            (RelationType.OOR, (0.4, 0.4, 0.2)),
            (RelationType.SOR, (0.45, 0.45, 0.1)),
            (RelationType.POR, (0.45, 0.45, 0.1)),
        ],
    )
    def test_weight_table(self, relation, expected):
        assert weights_from_relation(relation) == expected

    @pytest.mark.parametrize("relation", list(RelationType))
    def test_weights_sum_exactly_to_one(self, relation):
        alpha, beta, gamma = weights_from_relation(relation)
        assert alpha + beta + gamma == 1.0


class TestOverallTrust:
    def test_clor_blend(self):
        value = overall_trust(0.4, 0.6, 0.8, RelationType.CLOR)
        assert abs(value - 0.59) < 1e-12

    def test_sor_blend_leans_on_direct_and_similarity(self):
        value = overall_trust(0.4, 0.6, 0.8, RelationType.SOR)
        assert abs(value - (0.45 * 0.4 + 0.45 * 0.6 + 0.1 * 0.8)) < 1e-12

    @pytest.mark.parametrize("relation", list(RelationType))
    @given(t=st.floats(min_value=0.0, max_value=1.0))
    def test_identity_when_components_agree(self, relation, t):
        assert abs(overall_trust(t, t, t, relation) - t) < 1e-12

    @pytest.mark.parametrize("bad", [-0.1, 1.0001, math.nan])
    def test_components_range_checked(self, bad):
        with pytest.raises(ValueError):
            overall_trust(bad, 0.5, 0.5, RelationType.CLOR)
        with pytest.raises(ValueError):
            overall_trust(0.5, bad, 0.5, RelationType.CLOR)
        with pytest.raises(ValueError):
            overall_trust(0.5, 0.5, bad, RelationType.CLOR)


def coded(symbols, routes):
    """Routes given by id, as the id-table codes the exchange takes."""
    return [(symbols.code(sender), [symbols.code(r) for r in receivers]) for sender, receivers in routes]


def as_dict(recommendations, symbols):
    """(receiver, subject) -> mean by id, read through `received`: the dict the exchange once returned."""
    everyone = np.arange(len(symbols.names))
    out = {}
    for receiver, name in enumerate(symbols.names):
        row = recommendations.received(receiver, everyone, -1.0).tolist()
        out.update({(name, symbols.names[s]): mean for s, mean in enumerate(row) if mean >= 0.0})
    return out


def small_engine(**overrides):
    """A 30-node world before its first epoch: every legitimate pair is CLOR."""
    return SimulationEngine(ScenarioConfig(node_count=30, duration=60.0, seed=5, **overrides))


class TestRecommendation:
    def test_mean_over_matching_relations_only(self):
        engine = small_engine()
        base = engine.store.base_rate
        # d002 leaves the shared home, so it no longer relates to the other
        # managers by co-location and its opinions must not reach them
        engine.devices[engine.ids.index("d002")].home = None
        engine.store.record_experience("d001", "x", "positive")
        engine.store.record_experience("d002", "x", "negative")
        engine.store.record_experience("adv00", "x", "negative")  # attackers never send
        engine._rebuild_recommendations(engine._squared_distances())
        received = as_dict(engine.rec_cache, engine.log.symbols)
        assert received[("d000", "x")] == Opinion(1, 0, base).expected_value()
        assert ("d001", "x") not in received
        assert ("d002", "x") not in received

    def test_holders_without_opinions_do_not_dilute(self):
        store = OpinionStore(base_rate=0.5)
        store.record_experience("r1", "other", "positive")  # r1 holds nothing about s
        store.record_experience("r2", "s", "positive")
        received = exchange_recommendations(store, coded(store.symbols, [("r1", ["m"]), ("r2", ["m"])]))
        assert as_dict(received, store.symbols)[("m", "s")] == Opinion(1, 0, 0.5).expected_value()

    def test_no_recommenders_falls_back_to_base_rate(self):
        # under the por filter no legitimate pair qualifies as a sender
        engine = small_engine(relation=RelationType.POR, context_kind="park")
        engine.store.record_experience("d001", "d010", "positive")
        engine._rebuild_recommendations(engine._squared_distances())
        assert len(engine.rec_cache) == 0
        engine._adjudicate(0.0, "d010", "d010", "d000")
        assert list(engine.assessments)[-1].recommended == 0.2

    def test_aggregate_expected_fallback(self):
        store = OpinionStore(base_rate=0.4)
        store.record_experience("r1", "s", "positive")
        store.record_experience("r2", "s", "negative")
        received = exchange_recommendations(store, coded(store.symbols, [("r1", ["m"]), ("r2", ["m"])]))
        expected = (Opinion(1, 0, 0.4).expected_value() + Opinion(0, 1, 0.4).expected_value()) / 2
        assert as_dict(received, store.symbols) == {("m", "s"): expected}
        # a receiver nobody sent to has no entry; the gate reads that as the base rate
        assert len(exchange_recommendations(store, coded(store.symbols, [("r1", [])]))) == 0


class TestAssess:
    def test_trace_row_round_trip(self, tmp_path):
        item = assess(
            time=30.0,
            evaluator="m0",
            subject="d5",
            relation=RelationType.CLOR,
            direct=0.4,
            similarity=0.6,
            recommended=0.8,
            split="internal",
        )
        assert abs(item.trust - 0.59) < 1e-12
        path = tmp_path / "trace.csv"
        write_table(table_of([item]), path)
        header, row = list(csv.reader(path.read_text().splitlines()))
        assert header == ["time", "evaluator", "subject", "relation", "D", "S", "R", "T"]
        assert row[:4] == ["30.0", "m0", "d5", "clor"]
        assert [float(cell) for cell in row[4:]] == [0.4, 0.6, 0.8, item.trust]


def table_of(items):
    table = AssessmentTable()
    for item in items:
        table.append(*item)
    return table


def write_table(table, path):
    write_trust_trace_csv(table, path)


def reference_trust_csv(assessments, path):
    """The row-by-row writer the chunked one replaced: csv.writer over reprs."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["time", "evaluator", "subject", "relation", "D", "S", "R", "T"])
        for item in assessments:
            writer.writerow(
                [
                    repr(item.time),
                    item.evaluator,
                    item.subject,
                    item.relation.value,
                    repr(item.direct),
                    repr(item.similarity),
                    repr(item.recommended),
                    repr(item.trust),
                ]
            )


# equal values with different text, the extremes, and repeats
awkward = st.sampled_from([0.0, -0.0, 1e-05, 5e-324, 1.0, 0.5, 0.1 + 0.2]) | st.floats(0.0, 1.0)
rows = st.builds(
    TrustAssessment,
    time=awkward | st.sampled_from([30.0, 60.0]),
    evaluator=st.sampled_from(["d000", "d001", "m0"]),
    subject=st.sampled_from(["d005", "adv00", "fab-adv01-3"]),
    relation=st.sampled_from(list(RelationType)),
    direct=awkward,
    similarity=awkward,
    recommended=awkward,
    trust=awkward,
    split=st.sampled_from(["internal", "external"]),
)


class TestTrustTraceCsv:
    @given(items=st.lists(rows, max_size=40))
    def test_bytes_equal_the_csv_writer(self, items, tmp_path_factory):
        out = tmp_path_factory.mktemp("trace")
        table = table_of(items)
        assert list(table) == items
        write_table(table, out / "got.csv")
        reference_trust_csv(items, out / "want.csv")
        assert (out / "got.csv").read_bytes() == (out / "want.csv").read_bytes()

    def test_zero_and_negative_zero_keep_their_text(self, tmp_path):
        items = [
            TrustAssessment(t, "m", "s", RelationType.SOR, d, d, d, d)
            for t, d in ((0.0, 0.0), (-0.0, -0.0), (0.0, 0.0), (-0.0, 5e-324))
        ]
        write_table(table_of(items), tmp_path / "trace.csv")
        lines = (tmp_path / "trace.csv").read_text().splitlines()[1:]
        assert lines == [
            "0.0,m,s,sor,0.0,0.0,0.0,0.0",
            "-0.0,m,s,sor,-0.0,-0.0,-0.0,-0.0",
            "0.0,m,s,sor,0.0,0.0,0.0,0.0",
            "-0.0,m,s,sor,5e-324,5e-324,5e-324,5e-324",
        ]

    def test_chunk_boundaries_and_a_generator_input(self, tmp_path):
        rng = random.Random(3)
        relations = list(RelationType)
        items = [
            TrustAssessment(
                float(k // 500), f"d{k % 7:03d}", f"d{k % 11:03d}", relations[k % 5],
                rng.choice([0.0, -0.0, 0.25, rng.random()]), rng.random(), rng.random(), rng.random(),
            )
            for k in range(2 * CHUNK_LINES + 1)
        ]
        write_table(table_of(item for item in items), tmp_path / "got.csv")
        reference_trust_csv(items, tmp_path / "want.csv")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    @pytest.mark.parametrize("bad_id", ["a,b", 'say "hi"', "two\nlines", "cr\r"])
    def test_a_field_that_needs_quoting_raises(self, bad_id, tmp_path):
        item = TrustAssessment(1.0, bad_id, "s", RelationType.SOR, 0.5, 0.5, 0.5, 0.5)
        with pytest.raises(ValueError, match="comma, quote or line break"):
            write_table(table_of([item]), tmp_path / "trace.csv")


class _Reprs(dict):
    """repr memo of the chunked writer the columnar one replaced; zero is never stored."""

    def __missing__(self, value):
        text = repr(value)
        if value:
            self[value] = text
        return text


def previous_trust_csv(assessments, path):
    """The chunked row writer the columnar one replaced, T formatted on its own."""
    times, directs, similarities = _Reprs(), _Reprs(), _Reprs()
    rows = iter(assessments)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("time,evaluator,subject,relation,D,S,R,T\n")
        while chunk := list(itertools.islice(rows, CHUNK_LINES)):
            handle.write("".join(
                f"{times[time]},{evaluator},{subject},{relation.value},"
                f"{directs[d]},{similarities[s]},{r!r},{t!r}\n"
                for time, evaluator, subject, relation, d, s, r, t, _ in chunk
            ))


class TestSharedTrustText:
    @pytest.mark.parametrize(
        "overrides", [{"node_count": 40}, {"node_count": 30, "tick": 1, "duration": 120, "identity_source": "fabricated"}]
    )
    def test_a_run_writes_what_the_previous_writer_wrote(self, overrides, tmp_path):
        result = run_scenario(ScenarioConfig.from_mapping(overrides))
        write_trust_trace_csv(result.assessments, tmp_path / "got.csv")
        previous_trust_csv(result.assessments, tmp_path / "want.csv")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    @given(items=st.lists(rows, max_size=40))
    def test_any_rows_write_what_the_previous_writer_wrote(self, items, tmp_path_factory):
        out = tmp_path_factory.mktemp("shared")
        write_table(table_of(items), out / "got.csv")
        previous_trust_csv(items, out / "want.csv")
        assert (out / "got.csv").read_bytes() == (out / "want.csv").read_bytes()


# -- dense store and the vectorised epoch reads ------------------------------

IDS = [f"v{i}" for i in range(12)]
MANY_IDS = [f"w{i}" for i in range(40)]  # more than the store's first 16 rows and columns
many_ids = st.sampled_from(MANY_IDS)
RECEIVERS = IDS[:4]
outcomes = st.sampled_from(["positive", "negative"])


def reference_exchange(opinions, routes):
    """Per-key sequential sums over dicts of Opinion objects, in sender order."""
    grouped = {}
    for (holder, subject), op in sorted(opinions.items()):
        grouped.setdefault(holder, {})[subject] = op
    sums, counts = {}, {}
    for sender, receivers in routes:
        for receiver in receivers:
            for subject, op in grouped.get(sender, {}).items():
                key = (receiver, subject)
                sums[key] = sums.get(key, 0.0) + op.expected_value()
                counts[key] = counts.get(key, 0) + 1
    return {key: sums[key] / counts[key] for key in sums}


@st.composite
def epochs(draw):
    """Write batches over a growing id pool, each followed by an exchange.

    Later batches reach ids no earlier batch could, so rows and columns
    first seen after an earlier epoch are exercised.
    """
    out = []
    for k in range(draw(st.integers(1, 4))):
        pool = st.sampled_from(IDS[: 3 * k + 3])
        writes = draw(st.lists(st.tuples(pool, pool, outcomes, st.integers(1, 40)), max_size=20))
        receivers = st.one_of(
            st.sampled_from(RECEIVERS).map(lambda r: [r]),  # a subordinate's route to its manager
            st.lists(st.sampled_from(RECEIVERS), unique=True),  # a manager's broadcast, maybe to none
        )
        routes = draw(st.lists(st.tuples(st.sampled_from(IDS), receivers), max_size=12))
        out.append((writes, routes))
    return out


class TestDenseStore:
    @given(base_rate=st.floats(0.0, 1.0), plan=epochs())
    @example(  # one-receiver and many-receiver senders interleaved, sharing receivers
        base_rate=0.3,
        plan=[
            (
                [("v0", "v5", "positive", 7), ("v1", "v5", "negative", 3), ("v2", "v5", "positive", 11),
                 ("v4", "v6", "negative", 5), ("v0", "v6", "positive", 2), ("v2", "v7", "negative", 9)],
                [("v0", ["v1", "v2", "v3"]), ("v4", ["v1"]), ("v1", ["v0", "v2"]), ("v2", ["v1"]),
                 ("v5", ["v3"]), ("v4", ["v3", "v1"])],
            ),
            ([("v8", "v5", "positive", 4)], [("v8", ["v2"]), ("v2", ["v0", "v1", "v3"]), ("v0", ["v2"])]),
        ],
    )
    def test_exchange_is_bit_equal_to_the_sequential_sum(self, base_rate, plan):
        store = OpinionStore(base_rate)
        opinions = {}
        for writes, routes in plan:
            for evaluator, subject, outcome, times in writes:
                op = opinions.setdefault((evaluator, subject), Opinion(base_rate=base_rate))
                for _ in range(times):
                    store.record_experience(evaluator, subject, outcome)
                setattr(op, outcome, getattr(op, outcome) + times)  # an outcome names its counter
            got = as_dict(exchange_recommendations(store, coded(store.symbols, routes)), store.symbols)
            expected = reference_exchange(opinions, routes)
            assert got.keys() == expected.keys()
            for key, value in got.items():
                assert type(value) is float
                assert value == expected[key]

    @given(base_rate=st.floats(0.0, 1.0), plan=epochs())
    def test_reads_match_the_scalar_api(self, base_rate, plan):
        store = OpinionStore(base_rate)
        opinions = {}
        for writes, _ in plan:
            for evaluator, subject, outcome, times in writes:
                op = opinions.setdefault((evaluator, subject), Opinion(base_rate=base_rate))
                for _ in range(times):
                    store.record_experience(evaluator, subject, outcome)
                setattr(op, outcome, getattr(op, outcome) + times)  # an outcome names its counter
        assert len(store) == len(opinions)
        assert store.by_evaluator() == {
            e: {s: opinions[e, s] for s in sorted(IDS) if (e, s) in opinions}
            for e in sorted({e for e, _ in opinions})
        }
        codes = [store.symbols.find(i) for i in IDS]  # -1 for an id never written
        matrix = store.direct_trust_matrix(codes, codes)
        for i, evaluator in enumerate(IDS):
            for j, subject in enumerate(IDS):
                op = opinions.get((evaluator, subject))
                assert store.get(evaluator, subject) == op
                expected = base_rate if op is None else op.expected_value()
                assert matrix[i, j] == store.direct_trust(evaluator, subject) == expected

    @given(base_rate=st.floats(0.0, 1.0), plan=epochs())
    def test_k_units_equal_k_single_writes(self, base_rate, plan):
        batched, single = OpinionStore(base_rate), OpinionStore(base_rate)
        for writes, _ in plan:
            for evaluator, subject, outcome, times in writes:
                batched.record_experience(evaluator, subject, outcome, times)
                for _ in range(times):
                    single.record_experience(evaluator, subject, outcome)
        # the same writes in the same order code the same ids
        assert batched.symbols.names == single.symbols.names
        assert len(batched) == len(single)
        for got, want in zip(batched.expected_values(), single.expected_values()):
            assert got.tolist() == want.tolist()
        for evaluator in IDS:
            for subject in IDS:
                assert batched.get(evaluator, subject) == single.get(evaluator, subject)

    @given(
        base_rate=st.floats(0.0, 1.0),
        batches=st.lists(
            st.tuples(st.lists(st.tuples(many_ids, many_ids, st.booleans()), max_size=60), st.integers(1, 12)),
            max_size=5,
        ),
    )
    def test_a_batched_write_equals_sequential_writes(self, base_rate, batches):
        # one id table for both stores, as the engine shares the run's
        symbols = Symbols()
        batched, single = OpinionStore(base_rate, symbols), OpinionStore(base_rate, symbols)
        # the sparse store the dense one replaced: one Opinion per pair
        opinions = {}
        for batch, units in batches:
            evaluators, subjects, positive = ([item[k] for item in batch] for k in range(3))
            codes = ([symbols.code(i) for i in ids] for ids in (evaluators, subjects))
            batched.record_coded(*codes, np.array(positive, dtype=bool), units)
            for evaluator, subject, good in batch:
                outcome = "positive" if good else "negative"
                single.record_experience(evaluator, subject, outcome, units)
                opinion = opinions.setdefault((evaluator, subject), Opinion(base_rate=base_rate))
                setattr(opinion, outcome, getattr(opinion, outcome) + units)  # an outcome names its counter
            # both stores index by code, so their arrays agree cell for cell
            for got, want in zip(batched.expected_values(), single.expected_values()):
                assert got.tolist() == want.tolist()
        assert len(batched) == len(single)
        for evaluator in MANY_IDS:
            for subject in MANY_IDS:
                got = batched.get(evaluator, subject)
                assert got == single.get(evaluator, subject) == opinions.get((evaluator, subject))
                if got is not None:
                    assert type(got.positive) is int and type(got.negative) is int
                    assert repr(batched.direct_trust(evaluator, subject)) == repr(got.expected_value())

    @pytest.mark.parametrize("axis", [0, 1])
    @given(
        batches=st.lists(
            st.tuples(st.lists(st.tuples(st.integers(0, 199), st.integers(0, 7), st.booleans()), max_size=40),
                      st.integers(1, 5)),
            max_size=6,
        ),
    )
    def test_growth_on_one_axis_reads_as_a_store_that_never_grows(self, axis, batches):
        # axis 0 takes evaluator codes up to 199 and subject codes below 8, axis 1 the reverse
        symbols = Symbols()
        for k in range(300):  # ids past every capacity reached here, never written
            symbols.code(f"v{k}")
        grown, roomy = OpinionStore(0.4, symbols), OpinionStore(0.4, symbols)
        roomy._counts = np.zeros((2, 256, 256), dtype=np.int64)  # room for every code written here
        for batch, units in batches:
            if not batch:
                continue
            wide, narrow, positive = (np.array([item[k] for item in batch]) for k in range(3))
            codes = (wide, narrow) if axis == 0 else (narrow, wide)
            for store in (grown, roomy):
                store.record_coded(*codes, positive, units)
            capacity = grown._counts.shape[1:]
            assert capacity[1 - axis] == 16  # the narrow axis never outgrew its first capacity
            assert capacity[axis] >= grown._extent[axis]
            for got, want in zip(grown.expected_values(), roomy.expected_values()):
                assert got.tolist() == want.tolist()
        assert len(grown) == len(roomy)
        everything = np.arange(-1, 210)  # -1 and codes beyond the extent read as no evidence
        assert grown.direct_trust_matrix(everything, everything).tolist() == (
            roomy.direct_trust_matrix(everything, everything).tolist()
        )
        names = [f"v{k}" for k in range(0, 200, 7)]
        for evaluator, subject in itertools.product(names, names):
            assert grown.get(evaluator, subject) == roomy.get(evaluator, subject)
        # the gather reads what the scalar API reads, from -1 to past the capacity, around every edge
        for store in (grown, roomy):
            edges = (*store._extent, *store._counts.shape[1:])
            codes = sorted({-1, *range(10), *range(0, 300, 13), *(k + d for k in edges for d in (-1, 0, 1))})
            ids = [symbols.names[c] if 0 <= c < len(symbols.names) else "absent" for c in codes]
            matrix = store.direct_trust_matrix(np.array(codes), np.array(codes))
            assert list(map(repr, matrix.ravel().tolist())) == [
                repr(store.direct_trust(evaluator, subject)) for evaluator in ids for subject in ids
            ]

    def test_a_batch_of_no_units_is_refused(self):
        store = OpinionStore(base_rate=0.5)
        with pytest.raises(ValueError, match="positive"):
            store.record_coded([0], [1], np.array([False]), 0)
        assert store.expected_values()[1].shape == (0, 0) and len(store) == 0

    def test_zero_units_write_nothing(self):
        store = OpinionStore(base_rate=0.5)
        store.record_experience("e", "s", "positive")
        store.record_experience("new", "s", "negative", 0)
        store.record_experience("e", "fresh", "negative", 0)
        # no id coded, and the store's extent still ends at the one written pair
        assert store.symbols.names == ["e", "s"] and store.expected_values()[1].shape == (1, 2)
        assert store.get("e", "s") == Opinion(1, 0, 0.5) and len(store) == 1
        with pytest.raises(ValueError, match="non-negative"):
            store.record_experience("e", "s", "negative", -1)
        assert store.get("e", "s") == Opinion(1, 0, 0.5)

    def test_unknown_outcome_leaves_no_entry(self):
        store = OpinionStore(base_rate=0.5)
        with pytest.raises(ValueError, match="unknown outcome"):
            store.record_experience("e", "s", "meh")
        assert len(store) == 0 and store.get("e", "s") is None

    def test_empty_exchange(self):
        assert len(exchange_recommendations(OpinionStore(0.5), [(0, [1])])) == 0

    @given(base_rate=st.floats(0.0, 1.0), plan=epochs(), late=st.sampled_from(IDS))
    def test_recommendations_read_as_the_dict_they_replaced(self, base_rate, plan, late):
        store = OpinionStore(base_rate)
        find = store.symbols.find
        for writes, routes in plan:
            for evaluator, subject, outcome, times in writes:
                store.record_experience(evaluator, subject, outcome, times)
            got = exchange_recommendations(store, coded(store.symbols, routes))
            # the dict the exchange returned before: one entry per received key
            opinions = {(e, s): op for e, held in store.by_evaluator().items() for s, op in held.items()}
            reference = reference_exchange(opinions, routes)
            assert len(got) == len(reference)
            # two subjects the id table first codes after the exchange, and one it never does
            lates = [f"late-{late}", f"later-{late}"]
            store.record_experience("late-evaluator", lates[0], "positive")
            store.record_experience("late-evaluator", lates[1], "negative")
            subjects = IDS + lates + ["never"]
            codes = [find(s) for s in subjects]
            for receiver in RECEIVERS + ["nobody"]:
                row = got.received(find(receiver), codes, base_rate).tolist()
                assert row == [reference.get((receiver, s), base_rate) for s in subjects]
                assert all(type(value) is float for value in row)
                missed = got.received(find(receiver), codes, -1.0).tolist()
                assert missed == [reference.get((receiver, s), -1.0) for s in subjects]

    @given(
        base_rate=st.floats(0.0, 1.0),
        batches=st.lists(
            st.tuples(st.lists(st.tuples(many_ids, many_ids, st.booleans()), max_size=30), st.booleans()),
            max_size=6,
        ),
        known=st.permutations(MANY_IDS),
    )
    def test_coded_writes_equal_string_writes(self, base_rate, batches, known):
        # the id table already holds ids in an order of its own, so codes and
        # store positions differ; some batches go by string through the same table
        symbols = Symbols()
        for name in known[:20]:
            symbols.code(name)
        coded, named = OpinionStore(base_rate, symbols), OpinionStore(base_rate)
        for batch, by_code in batches:
            if by_code:
                evaluators, subjects, positive = ([item[k] for item in batch] for k in range(3))
                codes = [np.array([symbols.code(i) for i in ids], dtype=np.intp) for ids in (evaluators, subjects)]
                coded.record_coded(*codes, np.array(positive, dtype=bool))
            for evaluator, subject, good in batch:
                outcome = "positive" if good else "negative"
                if not by_code:
                    coded.record_experience(evaluator, subject, outcome)
                named.record_experience(evaluator, subject, outcome)
            # the two tables code the ids differently: compare by id
            assert coded.by_evaluator() == named.by_evaluator()
        for evaluator in MANY_IDS:
            for subject in MANY_IDS:
                assert coded.get(evaluator, subject) == named.get(evaluator, subject)

    @given(base_rate=st.floats(0.0, 1.0), plan=epochs())
    def test_reads_by_code_equal_reads_by_name(self, base_rate, plan):
        store = OpinionStore(base_rate)
        for writes, _ in plan:
            for evaluator, subject, outcome, times in writes:
                store.record_experience(evaluator, subject, outcome, times)
        names = list(store.symbols.names)
        expected, held = store.expected_values()
        ids = IDS + ["never"]
        codes = [store.symbols.find(i) for i in ids]
        matrix = store.direct_trust_matrix(codes, codes)
        for i, evaluator in enumerate(ids):
            for j, subject in enumerate(ids):
                op = store.get(evaluator, subject)
                assert repr(matrix[i, j].item()) == repr(store.direct_trust(evaluator, subject))
                if op is not None:
                    assert held[codes[i], codes[j]] and expected[codes[i], codes[j]] == op.expected_value()
        assert int(held.sum()) == len(store)
        # reads by name add nothing to the id table
        store.by_evaluator()
        assert store.symbols.names == names


components = st.floats(-0.25, 1.25) | st.just(math.nan)


class TestAssessArray:
    """Monitoring's path: blend arrays with overall_trust_array, append them as columns."""

    @pytest.mark.parametrize("relation", list(RelationType))
    @given(rows=st.lists(st.tuples(components, components, components), max_size=8))
    def test_matches_scalar_assess_and_its_error(self, relation, rows):
        direct, similarity, recommended = (np.array([row[i] for row in rows], dtype=np.float64) for i in range(3))
        subjects = [f"s{k}" for k in range(len(rows))]
        try:
            expected = [assess(9.0, "m", s, relation, d, si, r, "internal") for s, (d, si, r) in zip(subjects, rows)]
        except ValueError as exc:
            with pytest.raises(ValueError) as caught:
                overall_trust_array(direct, similarity, recommended, relation)
            assert str(caught.value) == str(exc)
            return
        trust = overall_trust_array(direct, similarity, recommended, relation)
        table = AssessmentTable()
        codes = np.array([table.symbols.code(s) for s in subjects], dtype=np.intc)
        table.extend(9.0, "m", codes, relation, direct, similarity, recommended, trust, "internal")
        got = list(table)
        assert got == expected
        assert [repr(item) for item in got] == [repr(item) for item in expected]
        for item in got:
            assert all(type(v) is float for v in (item.direct, item.similarity, item.recommended, item.trust))
