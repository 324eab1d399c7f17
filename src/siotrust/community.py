"""Similarity measures and community formation.

Similarity between two profiles is a weighted blend of the Jaccard overlap
of their friend lists and of their interest tags. Communities are the
connected components of the graph whose edges join pairs whose similarity
strictly exceeds the threshold.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from pathlib import Path
from typing import Collection, Iterable, Mapping, Protocol, Sequence

import numpy as np

from .record import write_csv
from .social import ConfigError, Context, Device


class SocialProfile(Protocol):
    """Anything with an id and presented friend/interest sets."""

    id: str
    friends: set[str]
    interests: set[str]


def sum_in_order(values: Iterable[float]) -> float:
    """Left to right from 0, as `sum` adds floats up to Python 3.11; from 3.12 `sum` compensates."""
    return functools.reduce(operator.add, values, 0)


def jaccard(a: set[str] | frozenset[str], b: set[str] | frozenset[str]) -> float:
    """|a & b| / |a | b|, defined as 0.0 when both sets are empty."""
    if not a and not b:
        return 0.0
    return len(a & b) / len(a | b)


@dataclass(frozen=True)
class SimilarityWeights:
    """Convex weights for the friend and interest components."""

    friend_weight: float = 0.5
    interest_weight: float = 0.5

    def __post_init__(self) -> None:
        for w in (self.friend_weight, self.interest_weight):
            if not 0.0 <= w <= 1.0:
                raise ConfigError(f"similarity weight out of range: {w}")
        if abs(self.friend_weight + self.interest_weight - 1.0) > 1e-9:
            raise ConfigError("similarity weights must sum to 1")


DEFAULT_WEIGHTS = SimilarityWeights()


def pairwise_similarity(
    i: SocialProfile, j: SocialProfile, weights: SimilarityWeights = DEFAULT_WEIGHTS
) -> float:
    return weights.friend_weight * jaccard(i.friends, j.friends) + (
        weights.interest_weight * jaccard(i.interests, j.interests)
    )


class SimilarityColumns:
    """`pairwise_similarity` of row profiles against column profiles indexed once, bit for bit.

    |A&B| counts one per shared element, exactly (no float matrix product);
    |A|B| is |A| + |B| - |A&B|. The division and `fw*F + iw*I` are the same.
    """

    def __init__(self, columns: Sequence[SocialProfile], weights: SimilarityWeights = DEFAULT_WEIGHTS) -> None:
        self.weights = weights
        self._index = [(_holders(sets), [len(s) for s in sets])
                       for sets in ([c.friends for c in columns], [c.interests for c in columns])]

    def rows(self, rows: Sequence[SocialProfile]) -> np.ndarray:
        friends, interests = (_jaccard_matrix(sets, *index) for sets, index in
                              zip(([r.friends for r in rows], [r.interests for r in rows]), self._index))
        return self.weights.friend_weight * friends + self.weights.interest_weight * interests


def _jaccard_matrix(rows: Sequence[Collection[str]], in_columns: dict[str, list[int]], sizes: list[int]) -> np.ndarray:
    shared = np.zeros((len(rows), len(sizes)), dtype=np.int64)
    for element, in_rows in _holders(rows).items():
        if element in in_columns:  # an element no column holds is shared with none
            shared[np.ix_(in_rows, in_columns[element])] += 1
    union = np.array([len(s) for s in rows], dtype=np.int64)[:, None] + sizes - shared
    return np.divide(shared, union, out=np.zeros(shared.shape), where=union > 0)


def _holders(sets: Sequence[Collection[str]]) -> dict[str, list[int]]:
    """Element -> the indices of the sets that hold it."""
    found: dict[str, list[int]] = {}
    for index, held in enumerate(sets):
        for element in held:
            found.setdefault(element, []).append(index)
    return found


@dataclass(frozen=True)
class Community:
    id: int
    members: tuple[str, ...]  # sorted device ids
    context_kind: str


def form_communities(
    devices: Sequence[Device],
    context: Context,
    weights: SimilarityWeights = DEFAULT_WEIGHTS,
    threshold: float = 0.5,
) -> list[Community]:
    """Partition devices into communities.

    Every device lands in exactly one community (isolated devices become
    singletons). Output order is deterministic: members sorted, communities
    numbered by their smallest member id.
    """
    ordered = sorted({d.id: d for d in devices}.values(), key=lambda d: d.id)
    matrix = SimilarityColumns(ordered, weights).rows(ordered)
    return partition_by_similarity([d.id for d in ordered], matrix, context, threshold)


def partition_by_similarity(ids: Sequence[str], matrix: np.ndarray, context: Context,
                            threshold: float) -> list[Community]:
    """Connected components of the strict-threshold similarity graph.

    `ids` are sorted and `matrix[a, b]` is the similarity of `ids[a]` and
    `ids[b]`. Shared by form_communities and the simulation engine, which
    builds its matrix once per run. Union-find over indices into the ids
    joins the pairs of the upper triangle above the threshold, row-major.
    """
    parent = list(range(len(ids)))

    def root(k: int) -> int:
        while parent[k] != k:
            parent[k] = parent[parent[k]]
            k = parent[k]
        return k

    for a, b in zip(*(axis.tolist() for axis in np.nonzero(np.triu(matrix > threshold, 1)))):
        parent[root(b)] = root(a)
    # visiting ids in sorted order opens each component at its smallest
    # member and fills it in sorted order, which is the numbering we want
    components: dict[int, list[str]] = {}
    for k, device_id in enumerate(ids):
        components.setdefault(root(k), []).append(device_id)
    return [
        Community(
            id=index,
            members=tuple(members),
            context_kind=context.kind,
        )
        for index, members in enumerate(components.values())
    ]


def community_similarity(
    subject: SocialProfile,
    community: Community,
    roster: Mapping[str, Device],
    weights: SimilarityWeights = DEFAULT_WEIGHTS,
) -> float:
    """Mean pairwise similarity between a subject and the other members.

    The subject may be a Device or a presented Identity; it is excluded from
    the comparison when it is itself a member. A subject alone in the
    community scores 0.0. An empty community is a caller bug.
    """
    if not community.members:
        raise ValueError(f"community {community.id} has no members")
    others = [m for m in community.members if m != subject.id]
    if not others:
        return 0.0
    total = sum_in_order(pairwise_similarity(subject, roster[m], weights) for m in others)
    return total / len(others)


def write_communities_csv(communities: Iterable[Community], path: str | Path) -> None:
    """Dump community membership, one row per device."""
    write_csv(
        path,
        ["community_id", "device_id", "context_kind"],
        ([c.id, member, c.context_kind] for c in communities for member in c.members),
    )
