"""Sybil attacker behaviors.

Two request schedules over two identity sources. A churn attacker holds
exactly one active identity and walks it across managers it has not tried
yet, swapping the identity out after a configurable run of denials or once
every manager has been attempted. A multi-identity attacker accumulates a
pool, keeps most of it idle, and round-robins the active slice at a slower
pace. Identities are either stolen (a full copy of a victim's presented
profile, victim within eavesdrop radius) or fabricated (fresh id, forged
attribute sets built from whatever the attacker has observed).

Attackers never emit recommendations; the simulation's exchange and
forwarding passes skip attacker devices entirely.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import Iterable, Sequence

from .social import ConfigError, Device, DeviceRegistry, Identity, IdentitySource


class AttackBehavior(Enum):
    CHURN = "churn"
    MULTI = "multi"


@dataclass(frozen=True)
class AttackerProfile:
    """Tunables for one attacker device."""

    behavior: AttackBehavior = AttackBehavior.CHURN
    identity_source: IdentitySource = IdentitySource.STOLEN
    pool_size: int = 8
    attempt_interval: float = 10.0
    deny_streak_limit: int = 3
    speed_factor: float = 0.5
    idle_fraction: float = 2 / 3
    forged_set_size: int = 0

    def __post_init__(self) -> None:
        if self.identity_source is IdentitySource.LEGITIMATE:
            raise ConfigError("attacker identities are stolen or fabricated")
        if self.pool_size < 1:
            raise ConfigError(f"pool size must be positive: {self.pool_size}")
        if self.attempt_interval <= 0:
            raise ConfigError(f"attempt interval must be positive: {self.attempt_interval}")
        if self.deny_streak_limit < 1:
            raise ConfigError(f"deny streak limit must be positive: {self.deny_streak_limit}")
        if not 0.0 <= self.idle_fraction < 1.0:
            raise ConfigError(f"idle fraction out of range: {self.idle_fraction}")
        if self.speed_factor <= 0:
            raise ConfigError(f"speed factor must be positive: {self.speed_factor}")
        if self.forged_set_size < 0:
            raise ConfigError(f"forged set size must be non-negative: {self.forged_set_size}")


@dataclass(frozen=True)
class AttackAttempt:
    """One emitted attacker request, as logged to the attack trace."""

    time: float
    attacker_device: str
    identity: str
    source: IdentitySource
    behavior: AttackBehavior
    target_manager: str


@dataclass(frozen=True)
class AcquisitionEvent:
    time: float
    kind: str  # theft | fabrication
    identity: str
    victim: str | None = None


class AttackerEngine:
    """Drives one attacker device according to its profile."""

    def __init__(
        self,
        device: Device,
        profile: AttackerProfile,
        registry: DeviceRegistry,
        rng: random.Random,
    ) -> None:
        self.device = device
        self.profile = profile
        self.registry = registry
        self.rng = rng
        self.pool: list[Identity] = []
        self.presented: Identity | None = None
        self.observed_devices: set[str] = set()
        self.observed_interests: set[str] = set()
        self.events: list[AcquisitionEvent] = []
        self._stolen: dict[str, Identity] = {}
        self._fab_counter = 0
        self._active_index = 0
        self._round_robin = 0
        self._deny_streak = 0
        self._attempted: set[str] = set()
        self._last_attempt = -math.inf

    # -- observation and identity acquisition --------------------------------

    def observe(self, devices_in_radius: Sequence[Device]) -> None:
        """Eavesdrop on nearby traffic to collect forgeable material."""
        for dev in devices_in_radius:
            self.observed_devices.add(dev.id)
            self.observed_interests.update(dev.interests)

    def steal_identity(self, victim: Device, now: float = 0.0) -> Identity:
        """Copy a victim's presented profile under the victim's identity id.

        The caller guarantees the victim is within eavesdrop radius at theft
        time. Stealing the same victim twice returns the one pool entry.
        """
        already = self._stolen.get(victim.id)
        if already is not None:
            return already
        identity = Identity(
            id=victim.id,
            friends=set(victim.friends),
            interests=set(victim.interests),
            source=IdentitySource.STOLEN,
        )
        self.registry.add_identity(identity)
        self._stolen[victim.id] = identity
        self.pool.append(identity)
        self.events.append(AcquisitionEvent(now, "theft", identity.id, victim.id))
        return identity

    def fabricate_identity(self, now: float = 0.0, size: int | None = None) -> Identity:
        """Mint a fresh identity with forged attribute sets.

        Forged friends and interests are random subsets of what the attacker
        has observed so far; the subset size is configurable and may be zero.
        """
        k = self.profile.forged_set_size if size is None else size
        while True:
            candidate = f"fab-{self.device.id}-{self._fab_counter}"
            self._fab_counter += 1
            if not self.registry.has_identity(candidate):
                break
        friends = self._forge(self.observed_devices, k)
        interests = self._forge(self.observed_interests, k)
        identity = Identity(
            id=candidate,
            friends=friends,
            interests=interests,
            source=IdentitySource.FABRICATED,
        )
        self.registry.add_identity(identity)
        self.pool.append(identity)
        self.events.append(AcquisitionEvent(now, "fabrication", identity.id))
        return identity

    def _forge(self, observed: set[str], k: int) -> set[str]:
        if k <= 0 or not observed:
            return set()
        ordered = sorted(observed)
        return set(self.rng.sample(ordered, min(k, len(ordered))))

    def _acquire(self, now: float, victims: Sequence[Device]) -> Identity | None:
        """Fresh identity from the configured source, if one is obtainable."""
        if self.profile.identity_source is IdentitySource.STOLEN:
            for victim in victims:
                if victim.id not in self._stolen:
                    return self.steal_identity(victim, now)
            return None
        return self.fabricate_identity(now)

    # -- request scheduling ---------------------------------------------------

    def attempt(
        self,
        now: float,
        managers_in_range: Sequence[Device],
        victims_in_range: Sequence[Device],
    ) -> tuple[Identity, Device] | None:
        """One scheduling step; returns the (identity, target) to request with.

        `managers_in_range` and `victims_in_range` come sorted by proximity.
        No managers in range, an empty pool with nothing to steal, or an
        attempt interval still running all yield None.
        """
        if self.profile.behavior is AttackBehavior.CHURN:
            return self._churn_attempt(now, managers_in_range, victims_in_range)
        return self._multi_attempt(now, managers_in_range, victims_in_range)

    def _churn_attempt(
        self, now: float, managers: Sequence[Device], victims: Sequence[Device]
    ) -> tuple[Identity, Device] | None:
        if not self.pool:
            fresh = self._acquire(now, victims)
            if fresh is None:
                return None
            self._active_index = len(self.pool) - 1
            self.presented = fresh
        active = self.pool[self._active_index]
        self.presented = active
        if now - self._last_attempt < self.profile.attempt_interval:
            return None
        if self._attempted >= self._manager_ids:
            active = self._rotate(now, victims)
            self.presented = active
        candidates = [m for m in managers if m.id not in self._attempted]
        if not candidates:
            return None
        target = candidates[0]
        self._attempted.add(target.id)
        self._last_attempt = now
        return active, target

    @cached_property
    def _manager_ids(self) -> frozenset[str]:
        """Every manager of the network, fixed once the scenario is built."""
        return frozenset(m.id for m in self.registry.managers())

    def _multi_attempt(
        self, now: float, managers: Sequence[Device], victims: Sequence[Device]
    ) -> tuple[Identity, Device] | None:
        if len(self.pool) < self.profile.pool_size:
            self._acquire(now, victims)  # grow the pool opportunistically
        if not self.pool:
            return None
        if now - self._last_attempt < self.profile.attempt_interval:
            return None
        if not managers:
            return None
        active_count = max(1, math.floor(len(self.pool) * (1.0 - self.profile.idle_fraction)))
        identity = self.pool[self._round_robin % active_count]
        self._round_robin += 1
        self.presented = identity
        self._last_attempt = now
        return identity, managers[0]

    def _rotate(self, now: float, victims: Sequence[Device]) -> Identity:
        """Swap the churn identity: prefer a fresh one, else cycle the pool."""
        fresh = self._acquire(now, victims)
        if fresh is not None:
            self._active_index = len(self.pool) - 1
        else:
            self._active_index = (self._active_index + 1) % len(self.pool)
        self._attempted.clear()
        self._deny_streak = 0
        return self.pool[self._active_index]

    def notify(self, granted: bool, now: float, victims: Sequence[Device] = ()) -> None:
        """Feed the verdict back; churn rotates after a deny streak."""
        if self.profile.behavior is not AttackBehavior.CHURN:
            return
        if granted:
            self._deny_streak = 0
            return
        self._deny_streak += 1
        if self._deny_streak >= self.profile.deny_streak_limit:
            self.presented = self._rotate(now, victims)


def write_attack_csv(attempts: Iterable[AttackAttempt], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(
            ["time", "attacker_device", "identity", "source", "behavior", "target_manager"]
        )
        for a in attempts:
            writer.writerow(
                [
                    repr(a.time),
                    a.attacker_device,
                    a.identity,
                    a.source.value,
                    a.behavior.value,
                    a.target_manager,
                ]
            )
