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
from pathlib import Path
from typing import Iterable, Sequence

from .authn import DecisionRecord
from .social import ConfigError, Device, Identity, IdentitySource


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


class AttackerEngine:
    """Drives one attacker device according to its profile."""

    def __init__(
        self,
        device: Device,
        profile: AttackerProfile,
        managers: frozenset[str],
        rng: random.Random,
    ) -> None:
        self.device = device
        self.profile = profile
        self.managers = managers  # every manager id of the network
        self.rng = rng
        self.pool: list[Identity] = []
        self.presented: Identity | None = None
        self.observed_devices: set[str] = set()
        self.observed_interests: set[str] = set()
        self._active_index = 0
        self._round_robin = 0
        self._deny_streak = 0
        self._attempted: set[str] = set()
        self._last_attempt = -math.inf

    # -- observation and identity acquisition --------------------------------

    def observe(self, devices_in_radius: Sequence[Device]) -> None:
        """Eavesdrop on nearby traffic to collect forgeable material.

        A device's interests are static, so a device already observed adds
        nothing new and is skipped.
        """
        for dev in devices_in_radius:
            if dev.id not in self.observed_devices:
                self.observed_devices.add(dev.id)
                self.observed_interests.update(dev.interests)

    def steal_identity(self, victim: Device) -> Identity:
        """Copy a victim's presented profile under the victim's identity id.

        The caller guarantees the victim is within eavesdrop radius at theft
        time, and that the victim was not stolen before.
        """
        identity = Identity(
            id=victim.id,
            friends=set(victim.friends),
            interests=set(victim.interests),
            source=IdentitySource.STOLEN,
        )
        self.pool.append(identity)
        return identity

    def fabricate_identity(self) -> Identity:
        """Mint a fresh identity with forged attribute sets.

        Forged friends and interests are random subsets of what the attacker
        has observed so far; the subset size is configurable and may be zero.
        The id `fab-<device id>-<pool size>` is unique: the pool only grows,
        device ids are unique, and the engine names every legitimate device
        `d…`.
        """
        k = self.profile.forged_set_size
        identity = Identity(
            id=f"fab-{self.device.id}-{len(self.pool)}",
            friends=self._forge(self.observed_devices, k),
            interests=self._forge(self.observed_interests, k),
            source=IdentitySource.FABRICATED,
        )
        self.pool.append(identity)
        return identity

    def _forge(self, observed: set[str], k: int) -> set[str]:
        if k <= 0 or not observed:
            return set()
        ordered = sorted(observed)
        return set(self.rng.sample(ordered, min(k, len(ordered))))

    def _acquire(self, victims: Sequence[Device]) -> Identity | None:
        """Fresh identity from the configured source, if one is obtainable."""
        if self.profile.identity_source is IdentitySource.STOLEN:
            stolen = {identity.id for identity in self.pool}  # a stolen identity's id is its victim's
            for victim in victims:
                if victim.id not in stolen:
                    return self.steal_identity(victim)
            return None
        return self.fabricate_identity()

    # -- request scheduling ---------------------------------------------------

    def attempt(self, now: float, in_range: Sequence[Device]) -> tuple[Identity, Device] | None:
        """One scheduling step; returns the (identity, target) to request with.

        `in_range` holds the devices in eavesdrop radius, nearest first. The
        attacker observes them, steals from them and targets their nearest
        manager (churn: the nearest not yet tried). No target, an empty pool
        with nothing to steal, or a running attempt interval yield None.
        """
        self.observe(in_range)
        if self.profile.behavior is AttackBehavior.CHURN:
            return self._churn_attempt(now, in_range)
        return self._multi_attempt(now, in_range)

    def _churn_attempt(self, now: float, in_range: Sequence[Device]) -> tuple[Identity, Device] | None:
        if not self.pool:
            if self._acquire(in_range) is None:
                return None
            self._active_index = len(self.pool) - 1
        active = self.pool[self._active_index]
        self.presented = active
        if now - self._last_attempt < self.profile.attempt_interval:
            return None
        if self._attempted >= self.managers:
            active = self._rotate(in_range)
            self.presented = active
        target = next((d for d in in_range if d.id in self.managers and d.id not in self._attempted), None)
        if target is None:
            return None
        self._attempted.add(target.id)
        self._last_attempt = now
        return active, target

    def _multi_attempt(self, now: float, in_range: Sequence[Device]) -> tuple[Identity, Device] | None:
        if len(self.pool) < self.profile.pool_size:
            self._acquire(in_range)  # grow the pool opportunistically
        if not self.pool:
            return None
        if now - self._last_attempt < self.profile.attempt_interval:
            return None
        target = next((d for d in in_range if d.id in self.managers), None)
        if target is None:
            return None
        active_count = max(1, math.floor(len(self.pool) * (1.0 - self.profile.idle_fraction)))
        identity = self.pool[self._round_robin % active_count]
        self._round_robin += 1
        self.presented = identity
        self._last_attempt = now
        return identity, target

    def _rotate(self, victims: Sequence[Device]) -> Identity:
        """Swap the churn identity: prefer a fresh one, else cycle the pool."""
        if self._acquire(victims) is not None:
            self._active_index = len(self.pool) - 1
        else:
            self._active_index = (self._active_index + 1) % len(self.pool)
        self._attempted.clear()
        self._deny_streak = 0
        return self.pool[self._active_index]

    def notify(self, granted: bool, victims: Sequence[Device] = ()) -> None:
        """Feed the verdict back; churn rotates after a deny streak."""
        if self.profile.behavior is not AttackBehavior.CHURN:
            return
        if granted:
            self._deny_streak = 0
            return
        self._deny_streak += 1
        if self._deny_streak >= self.profile.deny_streak_limit:
            self.presented = self._rotate(victims)


def write_attack_csv(decisions: Iterable[DecisionRecord], profile: AttackerProfile, path: str | Path) -> None:
    """The attack trace: one row per decision on an attacker device's request.

    Every attacker runs `profile`, so each row's source and schedule are its.
    """
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(
            ["time", "attacker_device", "identity", "source", "behavior", "target_manager"]
        )
        source, behavior = profile.identity_source.value, profile.behavior.value
        for d in decisions:
            if d.attacker:
                writer.writerow([repr(d.time), d.presenter, d.identity, source, behavior, d.manager])
