"""Device model, social relation types, and evaluation contexts.

Devices carry the static social profile (friend list, interest tags, owner,
manufacturer batch, home place, work group) that relation classification and
similarity work from. Identities are what devices present on the network;
for legitimate devices the two coincide, attackers may present stolen or
fabricated identities instead.
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
    LEGITIMATE = "legitimate"
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

    @property
    def is_manager(self) -> bool:
        return self.device_class is DeviceClass.MANAGER


@dataclass
class Identity:
    """An identity as presented on the network.

    `friends` and `interests` are the presented lists; for a stolen identity
    they are copies of the victim's, for a fabricated one they are forged.
    """

    id: str
    friends: set[str] = field(default_factory=set)
    interests: set[str] = field(default_factory=set)
    source: IdentitySource = IdentitySource.LEGITIMATE


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


class DeviceRegistry:
    """Roster of devices plus every identity presentable on the network.

    Identity ids are unique at creation; the one sanctioned exception is a
    stolen identity, which duplicates its victim's id by design.

    The sorted manager tuple is built on first use and dropped whenever a
    device is added.
    """

    def __init__(self) -> None:
        self._devices: dict[str, Device] = {}
        self._identities: dict[str, list[Identity]] = {}
        self._managers: tuple[Device, ...] | None = None

    def register(self, device: Device) -> Identity:
        """Add a device and mint its own legitimate identity."""
        if device.id in self._devices:
            raise ValueError(f"duplicate device id: {device.id!r}")
        self._devices[device.id] = device
        self._managers = None
        identity = Identity(
            id=device.id,
            friends=set(device.friends),
            interests=set(device.interests),
            source=IdentitySource.LEGITIMATE,
        )
        self.add_identity(identity)
        return identity

    def register_bare(self, device: Device) -> None:
        """Add a device without minting an identity (attacker hardware)."""
        if device.id in self._devices:
            raise ValueError(f"duplicate device id: {device.id!r}")
        self._devices[device.id] = device
        self._managers = None

    def add_identity(self, identity: Identity) -> None:
        existing = self._identities.get(identity.id)
        if existing is not None and identity.source is not IdentitySource.STOLEN:
            raise ValueError(f"identity id already taken: {identity.id!r}")
        self._identities.setdefault(identity.id, []).append(identity)

    def device(self, device_id: str) -> Device:
        return self._devices[device_id]

    def __contains__(self, device_id: str) -> bool:
        return device_id in self._devices

    def devices(self) -> list[Device]:
        return [self._devices[k] for k in sorted(self._devices)]

    def managers(self) -> tuple[Device, ...]:
        if self._managers is None:
            self._managers = tuple(d for d in self.devices() if d.is_manager)
        return self._managers

    def has_identity(self, identity_id: str) -> bool:
        return identity_id in self._identities

    def presentations(self, identity_id: str) -> list[Identity]:
        """All presentations of an identity id (more than one only under theft)."""
        return list(self._identities.get(identity_id, []))
