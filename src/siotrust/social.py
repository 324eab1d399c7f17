"""Device model, social relation types, and evaluation contexts.

Devices carry the static social profile (friend list, interest tags, owner,
manufacturer batch, home place, work group) that relation classification and
similarity work from. A legitimate device presents its own id and profile;
an attacker presents a stolen or fabricated `Identity` it acquired, and its
`AttackerEngine`'s pool is the one record of those identities. An identity
holds only what it presents: the run's `ScenarioConfig` names the one
`IdentitySource` every attacker of the run draws from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping


class ConfigError(ValueError):
    """Unknown context kind or otherwise malformed configuration."""


class DeviceClass(Enum):
    MANAGER = "manager"
    SUBORDINATE = "subordinate"


class IdentitySource(Enum):
    STOLEN = "stolen"
    FABRICATED = "fabricated"


class RelationType(Enum):
    """Social relation between two devices.

    OOR  ownership: same owner
    POR  parental: same manufacturer batch
    CLOR co-location: same home place
    CWOR co-work: same work group
    SOR  social: friendship edge, also the weak fallback
    """

    OOR = "oor"
    POR = "por"
    CLOR = "clor"
    CWOR = "cwor"
    SOR = "sor"

    @property
    def gamma(self) -> float:
        return RELATION_GAMMA[self]


# Recommendation weight per relation; the remaining mass is split evenly
# between direct trust and similarity.
RELATION_GAMMA: dict[RelationType, float] = {
    RelationType.CLOR: 0.3,
    RelationType.CWOR: 0.2,
    RelationType.OOR: 0.2,
    RelationType.SOR: 0.1,
    RelationType.POR: 0.1,
}

DEFAULT_BASE_RATES: dict[str, float] = {
    "residence": 1.0,
    "office": 0.7,
    "school": 0.5,
    "gym": 0.4,
    "park": 0.2,
}


@dataclass(frozen=True)
class Context:
    """An evaluation context (kind of social environment) with its base rate."""

    kind: str
    base_rate: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.base_rate <= 1.0:
            raise ConfigError(f"base rate out of range for context {self.kind!r}: {self.base_rate}")


def context_for(kind: str, base_rates: Mapping[str, float] | None = None) -> Context:
    """Resolve a context kind to a Context, honouring overrides.

    `base_rates` entries override or extend the default table, so custom
    kinds are allowed as long as they come with a rate. Unknown kinds fail.
    """
    if base_rates and kind in base_rates:
        return Context(kind, float(base_rates[kind]))
    if kind in DEFAULT_BASE_RATES:
        return Context(kind, DEFAULT_BASE_RATES[kind])
    raise ConfigError(f"unknown context kind: {kind!r}")


@dataclass
class Device:
    """A physical node and its true social profile."""

    id: str
    device_class: DeviceClass
    friends: set[str] = field(default_factory=set)
    interests: set[str] = field(default_factory=set)
    owner: str = ""
    batch: str = ""
    home: str | None = None
    work: str | None = None
    speed: float = 0.0

    def __post_init__(self) -> None:
        self.friends = set(self.friends)
        self.friends.discard(self.id)  # a device is never its own friend
        self.interests = set(self.interests)


@dataclass
class Identity:
    """An identity as presented on the network.

    `friends` and `interests` are the presented lists; for a stolen identity
    they are copies of the victim's, for a fabricated one they are forged.
    """

    id: str
    friends: set[str] = field(default_factory=set)
    interests: set[str] = field(default_factory=set)


def classify_relation(i: Device, j: Device) -> RelationType:
    """Classify a pair, precedence OOR > POR > CLOR > CWOR > SOR.

    SOR covers a friendship edge either way and, as the weak fallback, a
    pair with no shared attribute and no friendship at all.
    """
    if i.owner and i.owner == j.owner:
        return RelationType.OOR
    if i.batch and i.batch == j.batch:
        return RelationType.POR
    if i.home is not None and i.home == j.home:
        return RelationType.CLOR
    if i.work is not None and i.work == j.work:
        return RelationType.CWOR
    return RelationType.SOR

