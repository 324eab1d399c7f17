import csv
import random

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from siotrust.community import (
    Community,
    SimilarityColumns,
    SimilarityWeights,
    community_similarity,
    form_communities,
    jaccard,
    pairwise_similarity,
    write_communities_csv,
)
from siotrust.social import ConfigError, Device, DeviceClass, context_for

RESIDENCE = context_for("residence")

tokens = st.sets(st.sampled_from("abcdefgh"), max_size=6)


def make(device_id, friends=(), interests=()):
    return Device(
        id=device_id,
        device_class=DeviceClass.SUBORDINATE,
        friends=set(friends),
        interests=set(interests),
    )


class TestJaccard:
    def test_worked_example(self):
        assert jaccard({"a", "b"}, {"b", "c"}) == pytest.approx(1 / 3)

    def test_both_empty_is_zero(self):
        assert jaccard(set(), set()) == 0.0

    def test_one_empty_is_zero(self):
        assert jaccard({"a"}, set()) == 0.0

    @given(tokens, tokens)
    def test_symmetric_and_bounded(self, a, b):
        assert jaccard(a, b) == jaccard(b, a)
        assert 0.0 <= jaccard(a, b) <= 1.0

    @given(tokens)
    def test_identical_nonempty_sets_score_one(self, a):
        if a:
            assert jaccard(a, a) == 1.0


class TestWeights:
    def test_default_is_even(self):
        w = SimilarityWeights()
        assert (w.friend_weight, w.interest_weight) == (0.5, 0.5)

    def test_must_sum_to_one(self):
        with pytest.raises(ConfigError):
            SimilarityWeights(0.5, 0.6)

    def test_range_checked(self):
        with pytest.raises(ConfigError):
            SimilarityWeights(-0.1, 1.1)

    def test_skew_is_allowed(self):
        w = SimilarityWeights(0.8, 0.2)
        i = make("i", friends={"x"}, interests={"p"})
        j = make("j", friends={"x"}, interests={"q"})
        assert pairwise_similarity(i, j, w) == pytest.approx(0.8)


@given(tokens, tokens, tokens, tokens)
def test_pairwise_similarity_symmetric(fa, ia, fb, ib):
    a = make("a", friends=fa, interests=ia)
    b = make("b", friends=fb, interests=ib)
    assert pairwise_similarity(a, b) == pairwise_similarity(b, a)
    assert 0.0 <= pairwise_similarity(a, b) <= 1.0


# elements x, y and z are held by row profiles only, never by a column
row_tokens = st.sets(st.sampled_from("abcdefghxyz"), max_size=6)
some_weights = st.sampled_from([SimilarityWeights(), SimilarityWeights(0.9, 0.1), SimilarityWeights(0.3, 0.7),
                                SimilarityWeights(1.0, 0.0)])


def bits(rows):
    return [[value.hex() for value in row] for row in rows]


class TestSimilarityMatrix:
    @given(
        rows=st.lists(st.tuples(row_tokens, row_tokens), max_size=6),
        columns=st.lists(st.tuples(tokens, tokens), max_size=6),
        weights=some_weights,
    )
    @example(  # empty, equal and disjoint sets, and elements only a row holds
        rows=[(set(), set()), ({"a", "b"}, {"c"}), ({"x"}, {"y", "a"}), ({"z"}, set())],
        columns=[(set(), set()), ({"a", "b"}, {"c"}), ({"g"}, {"h"})],
        weights=SimilarityWeights(0.9, 0.1),
    )
    def test_equals_pairwise_similarity_bit_for_bit(self, rows, columns, weights):
        row_profiles = [make(f"r{k}", *sets) for k, sets in enumerate(rows)]
        column_profiles = [make(f"c{k}", *sets) for k, sets in enumerate(columns)]
        got = SimilarityColumns(column_profiles, weights).rows(row_profiles)
        assert got.shape == (len(rows), len(columns)) and got.dtype == np.float64
        want = [[pairwise_similarity(r, c, weights) for c in column_profiles] for r in row_profiles]
        assert bits(got.tolist()) == bits(want)


def brute_force_partition(devices, threshold):
    """Transitive closure of the strict-threshold relation, as id sets."""
    ids = [d.id for d in devices]
    parent = {i: i for i in ids}

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for a in devices:
        for b in devices:
            if a.id < b.id and pairwise_similarity(a, b) > threshold:
                parent[find(a.id)] = find(b.id)
    groups = {}
    for i in ids:
        groups.setdefault(find(i), set()).add(i)
    return {frozenset(g) for g in groups.values()}


class TestFormCommunities:
    def test_matches_brute_force_oracle(self):
        rng = random.Random(404)
        alphabet = list("abcdefgh")
        for _ in range(200):
            n = rng.randint(1, 8)
            devices = [
                make(
                    f"d{k}",
                    friends=rng.sample(alphabet, rng.randint(0, 4)),
                    interests=rng.sample(alphabet, rng.randint(0, 4)),
                )
                for k in range(n)
            ]
            threshold = rng.choice([0.3, 0.5, 0.7])
            got = form_communities(devices, RESIDENCE, threshold=threshold)
            assert {frozenset(c.members) for c in got} == brute_force_partition(devices, threshold)

    def test_threshold_is_strict(self):
        # similarity exactly 0.5 (friends identical, interests disjoint)
        a = make("a", friends={"x"}, interests={"p"})
        b = make("b", friends={"x"}, interests={"q"})
        assert pairwise_similarity(a, b) == 0.5
        communities = form_communities([a, b], RESIDENCE, threshold=0.5)
        assert len(communities) == 2

    def test_isolated_devices_become_singletons(self):
        communities = form_communities([make("a"), make("b")], RESIDENCE)
        assert [c.members for c in communities] == [("a",), ("b",)]

    def test_numbering_follows_smallest_member(self):
        a = make("a", friends={"x"}, interests={"p"})
        b = make("b", friends={"x"}, interests={"p"})
        c = make("c")
        communities = form_communities([c, b, a], RESIDENCE)
        assert communities[0].members == ("a", "b")
        assert communities[1].members == ("c",)
        assert [c.id for c in communities] == [0, 1]

    def test_context_kind_recorded(self):
        (only,) = form_communities([make("a")], context_for("gym"))
        assert only.context_kind == "gym"
        assert only.members == ("a",)


class TestCommunitySimilarity:
    def setup_method(self):
        self.members = {
            "a": make("a", friends={"f1", "f2"}, interests={"p"}),
            "b": make("b", friends={"f1", "f2"}, interests={"p"}),
            "c": make("c", friends={"f1"}, interests={"p"}),
        }
        self.community = Community(0, ("a", "b", "c"), "residence")

    def test_member_excludes_itself(self):
        value = community_similarity(self.members["a"], self.community, self.members)
        expected = (
            pairwise_similarity(self.members["a"], self.members["b"])
            + pairwise_similarity(self.members["a"], self.members["c"])
        ) / 2
        assert value == pytest.approx(expected)

    def test_outsider_compared_to_all(self):
        outsider = make("z", friends={"f1"}, interests={"p"})
        value = community_similarity(outsider, self.community, self.members)
        expected = sum(
            pairwise_similarity(outsider, m) for m in self.members.values()
        ) / 3
        assert value == pytest.approx(expected)

    def test_alone_scores_zero(self):
        lonely = Community(0, ("a",), "residence")
        assert community_similarity(self.members["a"], lonely, self.members) == 0.0

    def test_empty_community_is_an_error(self):
        with pytest.raises(ValueError):
            community_similarity(self.members["a"], Community(0, (), "residence"), {})


def test_communities_csv(tmp_path):
    path = tmp_path / "communities.csv"
    write_communities_csv([Community(0, ("a", "b"), "park")], path)
    rows = list(csv.reader(path.read_text().splitlines()))
    assert rows == [
        ["community_id", "device_id", "context_kind"],
        ["0", "a", "park"],
        ["0", "b", "park"],
    ]
