"""Similarity measures and community formation.

Similarity between two profiles is a weighted blend of the Jaccard overlap
of their friend lists and of their interest tags. Communities are the
connected components of the graph whose edges join pairs whose similarity
strictly exceeds the threshold.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Mapping, Protocol, Sequence

from .social import ConfigError, Context, Device


class SocialProfile(Protocol):
    """Anything with an id and presented friend/interest sets."""

    id: str
    friends: set[str]
    interests: set[str]


def jaccard(a: set[str] | frozenset[str], b: set[str] | frozenset[str]) -> float:
    """|a & b| / |a | b|, defined as 0.0 when both sets are empty."""
    if not a and not b:
        return 0.0
    return len(a & b) / len(a | b)


def friendship_similarity(i: SocialProfile, j: SocialProfile) -> float:
    return jaccard(i.friends, j.friends)


def interest_similarity(i: SocialProfile, j: SocialProfile) -> float:
    return jaccard(i.interests, j.interests)


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
    return weights.friend_weight * friendship_similarity(i, j) + (
        weights.interest_weight * interest_similarity(i, j)
    )


@dataclass(frozen=True)
class Community:
    id: int
    members: tuple[str, ...]  # sorted device ids
    context_kind: str
    similarity_threshold: float

    def __contains__(self, device_id: str) -> bool:
        return device_id in self.members


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
    by_id = {d.id: d for d in devices}

    def similarity_of(pair: tuple[str, str]) -> float:
        return pairwise_similarity(by_id[pair[0]], by_id[pair[1]], weights)

    return partition_by_similarity(list(by_id), similarity_of, context, threshold)


def partition_by_similarity(
    ids: Sequence[str],
    similarity_of: Callable[[tuple[str, str]], float],
    context: Context,
    threshold: float,
) -> list[Community]:
    """Connected components of the strict-threshold similarity graph.

    `similarity_of((i, j))` is called once per id pair, with i < j. Shared
    by form_communities and the simulation engine, which caches the static
    pairwise similarities once per run. Components are found by union-find
    over indices into the sorted ids.
    """
    ordered = sorted(ids)
    parent = list(range(len(ordered)))

    def root(k: int) -> int:
        while parent[k] != k:
            parent[k] = parent[parent[k]]
            k = parent[k]
        return k

    for a in range(len(ordered)):
        for b in range(a + 1, len(ordered)):
            if similarity_of((ordered[a], ordered[b])) > threshold:
                parent[root(b)] = root(a)
    # visiting ids in sorted order opens each component at its smallest
    # member and fills it in sorted order, which is the numbering we want
    components: dict[int, list[str]] = {}
    for k, device_id in enumerate(ordered):
        components.setdefault(root(k), []).append(device_id)
    return [
        Community(
            id=index,
            members=tuple(members),
            context_kind=context.kind,
            similarity_threshold=threshold,
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
    total = sum(pairwise_similarity(subject, roster[m], weights) for m in others)
    return total / len(others)


def write_communities_csv(communities: Iterable[Community], path: str | Path) -> None:
    """Dump community membership, one row per device."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["community_id", "device_id", "context_kind"])
        for community in communities:
            for member in community.members:
                writer.writerow([community.id, member, community.context_kind])
