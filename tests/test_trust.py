import csv
import math
import random

import pytest
from hypothesis import given, strategies as st

from siotrust.authn import AccessRequest
from siotrust.sim import ScenarioConfig, SimulationEngine
from siotrust.social import RelationType
from siotrust.metrics import CHUNK_LINES
from siotrust.trust import (
    Opinion,
    OpinionStore,
    TrustAssessment,
    assess,
    assess_array,
    exchange_recommendations,
    overall_trust,
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

    def test_record(self):
        op = Opinion()
        op.record("positive")
        op.record("negative")
        op.record("negative")
        assert (op.positive, op.negative, op.total) == (1, 2, 3)

    def test_record_rejects_junk(self):
        with pytest.raises(ValueError):
            Opinion().record("meh")


class TestOpinionStore:
    def test_vacuous_direct_trust_does_not_create_state(self):
        store = OpinionStore(base_rate=0.7)
        assert store.direct_trust("e", "s") == 0.7
        assert len(store) == 0

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


def small_engine(**overrides):
    """A 30-node world before its first epoch: every legitimate pair is CLOR."""
    return SimulationEngine(ScenarioConfig(node_count=30, duration=60.0, seed=5, **overrides))


class TestRecommendation:
    def test_mean_over_matching_relations_only(self):
        engine = small_engine()
        base = engine.store.base_rate
        # d002 leaves the shared home, so it no longer relates to the other
        # managers by co-location and its opinions must not reach them
        engine.registry.device("d002").home = None
        engine.store.record_experience("d001", "x", "positive")
        engine.store.record_experience("d002", "x", "negative")
        engine.store.record_experience("adv00", "x", "negative")  # attackers never send
        engine._rebuild_recommendations(engine._squared_distances())
        assert engine.rec_cache[("d000", "x")] == Opinion(1, 0, base).expected_value()
        assert ("d001", "x") not in engine.rec_cache
        assert ("d002", "x") not in engine.rec_cache

    def test_holders_without_opinions_do_not_dilute(self):
        store = OpinionStore(base_rate=0.5)
        store.record_experience("r1", "other", "positive")  # r1 holds nothing about s
        store.record_experience("r2", "s", "positive")
        received = exchange_recommendations(store, [("r1", ["m"]), ("r2", ["m"])])
        assert received[("m", "s")] == Opinion(1, 0, 0.5).expected_value()

    def test_no_recommenders_falls_back_to_base_rate(self):
        # under the por filter no legitimate pair qualifies as a sender
        engine = small_engine(relation=RelationType.POR, context_kind="park")
        engine.store.record_experience("d001", "d010", "positive")
        engine._rebuild_recommendations(engine._squared_distances())
        assert engine.rec_cache == {}
        subject = engine.registry.device("d010")
        request = AccessRequest(0.0, "d010", "d010", frozenset(subject.friends), frozenset(subject.interests), "d000")
        assert engine._adjudicate(request).assessment.recommended == 0.2

    def test_aggregate_expected_fallback(self):
        store = OpinionStore(base_rate=0.4)
        store.record_experience("r1", "s", "positive")
        store.record_experience("r2", "s", "negative")
        received = exchange_recommendations(store, [("r1", ["m"]), ("r2", ["m"])])
        expected = (Opinion(1, 0, 0.4).expected_value() + Opinion(0, 1, 0.4).expected_value()) / 2
        assert received == {("m", "s"): expected}
        # a receiver nobody sent to has no entry; the gate reads that as the base rate
        assert exchange_recommendations(store, [("r1", [])]) == {}


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
        write_trust_trace_csv([item], path)
        header, row = list(csv.reader(path.read_text().splitlines()))
        assert header == ["time", "evaluator", "subject", "relation", "D", "S", "R", "T"]
        assert row[:4] == ["30.0", "m0", "d5", "clor"]
        assert [float(cell) for cell in row[4:]] == [0.4, 0.6, 0.8, item.trust]


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
        write_trust_trace_csv(items, out / "got.csv")
        reference_trust_csv(items, out / "want.csv")
        assert (out / "got.csv").read_bytes() == (out / "want.csv").read_bytes()

    def test_zero_and_negative_zero_keep_their_text(self, tmp_path):
        items = [
            TrustAssessment(t, "m", "s", RelationType.SOR, d, d, d, d)
            for t, d in ((0.0, 0.0), (-0.0, -0.0), (0.0, 0.0), (-0.0, 5e-324))
        ]
        write_trust_trace_csv(items, tmp_path / "trace.csv")
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
        write_trust_trace_csv((item for item in items), tmp_path / "got.csv")
        reference_trust_csv(items, tmp_path / "want.csv")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    @pytest.mark.parametrize("bad_id", ["a,b", 'say "hi"', "two\nlines", "cr\r"])
    def test_a_field_that_needs_quoting_raises(self, bad_id, tmp_path):
        item = TrustAssessment(1.0, bad_id, "s", RelationType.SOR, 0.5, 0.5, 0.5, 0.5)
        with pytest.raises(ValueError, match="comma, quote or line break"):
            write_trust_trace_csv([item], tmp_path / "trace.csv")


# -- dense store and the vectorised epoch reads ------------------------------

IDS = [f"v{i}" for i in range(12)]
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
        routes = draw(
            st.lists(
                st.tuples(st.sampled_from(IDS), st.lists(st.sampled_from(RECEIVERS), unique=True)),
                max_size=12,
            )
        )
        out.append((writes, routes))
    return out


class TestDenseStore:
    @given(base_rate=st.floats(0.0, 1.0), plan=epochs())
    def test_exchange_is_bit_equal_to_the_sequential_sum(self, base_rate, plan):
        store = OpinionStore(base_rate)
        opinions = {}
        for writes, routes in plan:
            for evaluator, subject, outcome, times in writes:
                op = opinions.setdefault((evaluator, subject), Opinion(base_rate=base_rate))
                for _ in range(times):
                    store.record_experience(evaluator, subject, outcome)
                    op.record(outcome)
            got = exchange_recommendations(store, routes)
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
                    op.record(outcome)
        assert len(store) == len(opinions)
        assert store.by_evaluator() == {
            e: {s: opinions[e, s] for s in sorted(IDS) if (e, s) in opinions}
            for e in sorted({e for e, _ in opinions})
        }
        matrix = store.direct_trust_matrix(IDS, IDS)
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
        assert (batched.evaluators, batched.subjects) == (single.evaluators, single.subjects)
        assert len(batched) == len(single)
        for got, want in zip(batched.expected_values(), single.expected_values()):
            assert got.tolist() == want.tolist()
        for evaluator in IDS:
            for subject in IDS:
                assert batched.get(evaluator, subject) == single.get(evaluator, subject)

    def test_zero_units_write_nothing(self):
        store = OpinionStore(base_rate=0.5)
        store.record_experience("e", "s", "positive")
        store.record_experience("new", "s", "negative", 0)
        store.record_experience("e", "fresh", "negative", 0)
        assert store.evaluators == {"e": 0} and store.subjects == {"s": 0}
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
        assert exchange_recommendations(OpinionStore(0.5), [("a", ["b"])]) == {}


components = st.floats(-0.25, 1.25) | st.just(math.nan)


class TestAssessArray:
    @pytest.mark.parametrize("relation", list(RelationType))
    @given(rows=st.lists(st.tuples(components, components, components), max_size=8))
    def test_matches_scalar_assess_and_its_error(self, relation, rows):
        direct, similarity, recommended = ([row[i] for row in rows] for i in range(3))
        subjects = [f"s{k}" for k in range(len(rows))]
        try:
            expected = [assess(9.0, "m", s, relation, d, si, r, "internal") for s, (d, si, r) in zip(subjects, rows)]
        except ValueError as exc:
            with pytest.raises(ValueError) as caught:
                assess_array(9.0, "m", subjects, relation, direct, similarity, recommended, "internal")
            assert str(caught.value) == str(exc)
            return
        got = assess_array(9.0, "m", subjects, relation, direct, similarity, recommended, "internal")
        assert got == expected
        for item in got:
            assert all(type(v) is float for v in (item.direct, item.similarity, item.recommended, item.trust))
