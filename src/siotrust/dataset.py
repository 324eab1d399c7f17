"""Friendship graph ingestion and sampling.

Reads whitespace-separated edge lists (the format used by public social
network snapshots), samples connected subgraphs of a requested size, and
falls back to a seeded small-world generator when no file is given.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class FriendshipGraph:
    """Undirected friendship graph as adjacency sets over string node ids."""

    adjacency: dict[str, set[str]] = field(default_factory=dict)
    dropped_self_loops: int = 0

    @property
    def node_count(self) -> int:
        return len(self.adjacency)

    def nodes(self) -> list[str]:
        return sorted(self.adjacency)

    def neighbors(self, node: str) -> set[str]:
        return self.adjacency[node]


def load_friendship_edges(path: str | Path) -> FriendshipGraph:
    """Parse an edge list file into a FriendshipGraph.

    Two whitespace-separated node tokens per line; `#` starts a comment.
    Reversed duplicates collapse into one undirected edge. Self-loops are
    dropped and counted in `dropped_self_loops`. The result is
    order-insensitive: shuffling the file yields the same graph.
    """
    graph = FriendshipGraph()
    text = Path(path).read_text(encoding="utf-8")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 2:
            raise ValueError(f"edge line {lineno}: expected 2 fields, got {len(fields)}")
        a, b = fields
        if a == b:
            graph.dropped_self_loops += 1
            continue
        graph.adjacency.setdefault(a, set()).add(b)
        graph.adjacency.setdefault(b, set()).add(a)
    return graph


def sample_subgraph(graph: FriendshipGraph, size: int, seed: int) -> FriendshipGraph:
    """Induced subgraph over `size` nodes picked by seeded breadth-first search.

    Expansion starts at a random node and follows sorted neighbor order; if a
    component is exhausted early, search restarts at a new random unvisited
    node, so the requested size is always reached when the graph is big
    enough.
    """
    if size <= 0:
        raise ValueError(f"sample size must be positive: {size}")
    if size > graph.node_count:
        raise ValueError(f"sample size {size} exceeds graph size {graph.node_count}")
    rng = random.Random(seed)
    universe = graph.nodes()
    visited: set[str] = set()
    picked: list[str] = []
    queue: list[str] = []
    while len(picked) < size:
        if not queue:
            remaining = [n for n in universe if n not in visited]
            start = rng.choice(remaining)
            visited.add(start)
            queue.append(start)
            picked.append(start)
            if len(picked) == size:
                break
            continue
        current = queue.pop(0)
        for neighbor in sorted(graph.neighbors(current)):
            if neighbor in visited:
                continue
            visited.add(neighbor)
            queue.append(neighbor)
            picked.append(neighbor)
            if len(picked) == size:
                break
        if len(picked) == size:
            break
    keep = set(picked)
    induced = FriendshipGraph()
    for node in sorted(keep):
        induced.adjacency[node] = {n for n in graph.adjacency[node] if n in keep}
    return induced


def synthetic_small_world(size: int, seed: int, degree: int = 6, rewire: float = 0.1) -> FriendshipGraph:
    """Seeded Watts-Strogatz small world, the fallback when no edge file is given.

    Nodes are `n0`..`n{size-1}`, zero-padded to one width. Each joins its
    `k` nearest ring neighbours, `k` being `degree` capped at `size - 1` and
    made even, at least 2. Then every ring edge (u, u+j), j in the outer loop
    and u in the inner one, is rewired with probability `rewire` to (u, w)
    for a uniform w that is neither u nor a neighbour of u; a node already
    tied to all others keeps its edge. The draws on `random.Random(seed)`,
    and so the graph, are those of networkx 3.6.1's
    `watts_strogatz_graph(size, k, rewire, seed=seed)`.
    """
    if size <= 0:
        raise ValueError(f"graph size must be positive: {size}")
    k = min(degree, max(2, size - 1))
    k = max(k - k % 2, 2)
    if k > size:
        raise ValueError(f"graph size {size} is below the ring degree {k}")
    width = len(str(size - 1))
    nodes = [f"n{i:0{width}d}" for i in range(size)]
    if k == size:  # the complete graph: nothing to rewire, nothing drawn
        return FriendshipGraph({node: set(nodes) - {node} for node in nodes})
    graph = FriendshipGraph({node: set() for node in nodes})
    adjacency = graph.adjacency
    # the ring edges (u, u+j), j outer and u inner: the order the rewiring draws in
    ring = [(u, v) for j in range(1, k // 2 + 1) for u, v in zip(nodes, nodes[j:] + nodes[:j])]
    for u, v in ring:
        adjacency[u].add(v)
        adjacency[v].add(u)
    rng = random.Random(seed)
    for u, v in ring:
        if rng.random() < rewire:
            neighbours = adjacency[u]
            w = rng.choice(nodes)
            while w == u or w in neighbours:
                w = rng.choice(nodes)
                if len(neighbours) >= size - 1:
                    break  # u is tied to every other node: keep (u, v)
            else:
                neighbours.remove(v)
                adjacency[v].remove(u)
                neighbours.add(w)
                adjacency[w].add(u)
    return graph
