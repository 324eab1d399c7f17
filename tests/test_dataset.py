import os
import random
from pathlib import Path

import pytest

from siotrust.dataset import (
    load_friendship_edges,
    sample_subgraph,
    synthetic_small_world,
)

BRIGHTKITE = Path(os.environ.get("SIOTRUST_BRIGHTKITE", "data/brightkite_edges.txt"))


def write_edges(tmp_path, text):
    path = tmp_path / "edges.txt"
    path.write_text(text)
    return path


class TestLoadEdges:
    def test_reversed_duplicates_collapse(self, tmp_path):
        graph = load_friendship_edges(write_edges(tmp_path, "1 2\n2 1\n1 2\n"))
        assert graph.node_count == 2
        assert graph.adjacency == {"1": {"2"}, "2": {"1"}}

    def test_self_loops_dropped_with_count(self, tmp_path):
        graph = load_friendship_edges(write_edges(tmp_path, "3 3\n1 2\n"))
        assert graph.dropped_self_loops == 1
        assert graph.adjacency == {"1": {"2"}, "2": {"1"}}
        assert "3" not in graph.neighbors("1")

    def test_comments_and_blanks_ignored(self, tmp_path):
        graph = load_friendship_edges(write_edges(tmp_path, "# header\n\n1 2\n"))
        assert graph.adjacency == {"1": {"2"}, "2": {"1"}}

    def test_empty_file_is_a_valid_empty_graph(self, tmp_path):
        graph = load_friendship_edges(write_edges(tmp_path, ""))
        assert graph.node_count == 0
        assert graph.adjacency == {}

    def test_malformed_line_reported_with_number(self, tmp_path):
        with pytest.raises(ValueError, match="line 2"):
            load_friendship_edges(write_edges(tmp_path, "1 2\n1 2 3\n"))

    def test_shuffled_file_yields_identical_graph(self, tmp_path):
        rng = random.Random(5)
        edges = [(str(a), str(b)) for a in range(20) for b in range(a + 1, 20) if rng.random() < 0.2]
        lines = [f"{a} {b}" for a, b in edges]
        first = load_friendship_edges(write_edges(tmp_path, "\n".join(lines) + "\n"))
        rng.shuffle(lines)
        flipped = [line if rng.random() < 0.5 else " ".join(reversed(line.split())) for line in lines]
        second = load_friendship_edges(write_edges(tmp_path, "\n".join(flipped) + "\n"))
        assert first.adjacency == second.adjacency

    def test_idempotent(self, tmp_path):
        path = write_edges(tmp_path, "1 2\n2 3\n")
        assert load_friendship_edges(path).adjacency == load_friendship_edges(path).adjacency


class TestSampleSubgraph:
    def setup_method(self):
        self.graph = synthetic_small_world(40, seed=3)

    def test_full_size_sample_is_identity(self):
        sampled = sample_subgraph(self.graph, 40, seed=1)
        assert sampled.adjacency == self.graph.adjacency

    def test_single_node_sample(self):
        sampled = sample_subgraph(self.graph, 1, seed=1)
        assert sampled.node_count == 1
        assert not any(sampled.adjacency.values())

    def test_same_seed_same_subgraph(self):
        a = sample_subgraph(self.graph, 15, seed=9)
        b = sample_subgraph(self.graph, 15, seed=9)
        assert a.adjacency == b.adjacency

    def test_different_seeds_usually_differ(self):
        a = sample_subgraph(self.graph, 15, seed=1)
        b = sample_subgraph(self.graph, 15, seed=2)
        assert a.adjacency != b.adjacency

    def test_induced_edges_only(self):
        sampled = sample_subgraph(self.graph, 15, seed=4)
        for node, neighbors in sampled.adjacency.items():
            for other in neighbors:
                assert other in sampled.adjacency
                assert other in self.graph.neighbors(node)

    @pytest.mark.parametrize("bad", [0, -1, 41])
    def test_size_out_of_range(self, bad):
        with pytest.raises(ValueError):
            sample_subgraph(self.graph, bad, seed=1)


class TestSyntheticSmallWorld:
    def test_size_and_determinism(self):
        a = synthetic_small_world(30, seed=11)
        b = synthetic_small_world(30, seed=11)
        assert a.node_count == 30
        assert a.adjacency == b.adjacency
        assert any(a.adjacency.values())

    def test_no_self_loops(self):
        graph = synthetic_small_world(25, seed=2)
        for node, neighbors in graph.adjacency.items():
            assert node not in neighbors


@pytest.mark.skipif(not BRIGHTKITE.exists(), reason="published friendship file not present")
def test_published_friendship_corpus_counts():
    graph = load_friendship_edges(BRIGHTKITE)
    assert graph.node_count == 58_228
    assert sum(len(n) for n in graph.adjacency.values()) // 2 == 214_078
