import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import siotrust
from siotrust.dataset import (
    load_friendship_edges,
    sample_subgraph,
    synthetic_small_world,
)

try:
    import networkx
except ImportError:  # the reference is optional; the fingerprint pins hold without it
    networkx = None

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

    @pytest.mark.parametrize(
        "size, seed, digest",
        [
            (40, 3, "e4820f55ea9444c409eb4e9bb0d9d182f1f3e7fb981e3e8976cc3e160847fed4"),
            (180, 123, "fbdb192697da7bd3d338f1e783220fdbe59c0020914495f86fc620f307a05090"),
            # every node is tied to the 6 others: each rewiring draw ends in the degree break
            (7, 1, "adae19a128c680707d9715a0cfdf754ece4b8605bb191a4314db70aaed968083"),
        ],
    )
    def test_fingerprint_pins(self, size, seed, digest):
        assert fingerprint(synthetic_small_world(size, seed, degree=6).adjacency) == digest

    def test_size_one_is_refused(self):
        with pytest.raises(ValueError):
            synthetic_small_world(1, seed=0)

    @pytest.mark.skipif(
        networkx is None or networkx.__version__ != "3.6.1",
        reason="the draw-for-draw reference is networkx 3.6.1",
    )
    @pytest.mark.parametrize("degree", [2, 3, 4, 6, 7])
    def test_equals_networkx_watts_strogatz(self, degree):
        for size in [*range(2, 61), 180]:
            for rewire in (0.0, 0.1, 0.5, 1.0):
                for seed in range(5):
                    got = synthetic_small_world(size, seed, degree, rewire).adjacency
                    assert got == networkx_world(size, seed, degree, rewire), (size, seed, rewire)

    def test_the_cli_does_not_import_networkx(self):
        code = "import sys, siotrust.cli; sys.exit('networkx' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": str(Path(siotrust.__file__).parents[1])}
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def fingerprint(adjacency):
    """SHA-256 of the sorted edge list, one `a b` line per edge with a < b."""
    edges = sorted((a, b) for a, neighbors in adjacency.items() for b in neighbors if a < b)
    return hashlib.sha256("".join(f"{a} {b}\n" for a, b in edges).encode()).hexdigest()


def networkx_world(size, seed, degree, rewire):
    """The world as networkx builds it: its generator, relabelled `n0`..`n{size-1}`."""
    k = min(degree, max(2, size - 1))
    k = max(k - k % 2, 2)
    generated = networkx.watts_strogatz_graph(size, k, rewire, seed=seed)
    width = len(str(size - 1))
    adjacency = {f"n{i:0{width}d}": set() for i in generated.nodes}
    for a, b in generated.edges:
        adjacency[f"n{a:0{width}d}"].add(f"n{b:0{width}d}")
        adjacency[f"n{b:0{width}d}"].add(f"n{a:0{width}d}")
    return adjacency


@pytest.mark.skipif(not BRIGHTKITE.exists(), reason="published friendship file not present")
def test_published_friendship_corpus_counts():
    graph = load_friendship_edges(BRIGHTKITE)
    assert graph.node_count == 58_228
    assert sum(len(n) for n in graph.adjacency.values()) // 2 == 214_078
