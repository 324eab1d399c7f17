"""Sybil attacker behaviors.

Two request schedules over two identity sources. A churn attacker holds
exactly one active identity and walks it across managers it has not tried
yet, swapping the identity out after a configurable run of denials or once
every manager has been attempted. A multi-identity attacker accumulates a
pool, keeps most of it idle, and round-robins the active slice at a slower
pace. Identities are either stolen (a full copy of a victim's presented
profile, victim within eavesdrop radius) or fabricated (fresh id, forged
attribute sets built from whatever the attacker has observed).

Every attacker of a run reads the run's `ScenarioConfig`, the one record
of the attack: `behavior` picks the schedule, `identity_source` the
source, and `pool_size`, `attempt_interval`, `deny_streak_limit`,
`idle_fraction` and `forged_set_size` tune them. An identity does not
carry its source; the config names it for every identity of the run.

Attackers never emit recommendations; the simulation's exchange and
forwarding passes skip attacker devices entirely.
"""

from __future__ import annotations

import math
import random
from enum import Enum
from itertools import compress
from pathlib import Path
from typing import TYPE_CHECKING, Collection, Iterable, Sequence

import numpy as np

from .authn import DecisionRecord
from .record import write_csv
from .social import Device, Identity, IdentitySource

if TYPE_CHECKING:
    from .sim import ScenarioConfig


class AttackBehavior(Enum):
    CHURN = "churn"
    MULTI = "multi"


class AttackerEngine:
    """Drives one attacker device as the run's config sets out.

    The simulation observes for it: `observed[k]` is set once
    `observable[k]` has been in radius, and the attacker forges from it.
    """

    def __init__(
        self,
        device: Device,
        config: ScenarioConfig,
        managers: frozenset[str],
        rng: random.Random,
        observable: Sequence[Device],
        observed: np.ndarray,
    ) -> None:
        self.device = device
        self.config = config
        self.managers = managers  # every manager id of the network
        self.rng = rng
        self.observable = observable
        self.observed = observed
        self.pool: list[Identity] = []
        self.presented: Identity | None = None
        self._active_index = 0
        self._round_robin = 0
        self._deny_streak = 0
        self._attempted: set[str] = set()
        self._last_attempt = -math.inf

    # -- identity acquisition ---------------------------------------------------

    def steal_identity(self, victim: Device) -> Identity:
        """Copy a victim's presented profile under the victim's identity id.

        The caller guarantees the victim is within eavesdrop radius at theft
        time, and that the victim was not stolen before.
        """
        identity = Identity(
            id=victim.id,
            friends=set(victim.friends),
            interests=set(victim.interests),
        )
        self.pool.append(identity)
        return identity

    def fabricate_identity(self) -> Identity:
        """Mint a fresh identity with forged attribute sets.

        Forged friends and interests are random subsets of the observed
        devices' ids and of the union of their interests; the subset size is
        configurable, and at zero nothing observed is read. The id
        `fab-<device id>-<pool size>` is unique: the pool only grows, device
        ids are unique, and the engine names every legitimate device `d…`.
        """
        k = self.config.forged_set_size
        seen = list(compress(self.observable, self.observed)) if k else []
        identity = Identity(
            id=f"fab-{self.device.id}-{len(self.pool)}",
            friends=self._forge([d.id for d in seen], k),
            interests=self._forge(set().union(*(d.interests for d in seen)), k),
        )
        self.pool.append(identity)
        return identity

    def _forge(self, observed: Collection[str], k: int) -> set[str]:
        if not observed:
            return set()
        ordered = sorted(observed)
        return set(self.rng.sample(ordered, min(k, len(ordered))))

    def _acquire(self, victims: Sequence[Device]) -> Identity | None:
        """Fresh identity from the configured source, if one is obtainable."""
        if self.config.identity_source is IdentitySource.STOLEN:
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
        attacker steals from them and targets their nearest manager (churn:
        the nearest not yet tried). No target, an empty pool with nothing to
        steal, or a running attempt interval yield None. It does not observe
        them: the simulation has marked them in its `observed` row before
        any attempt of the tick, and a fabrication forges from that row.
        """
        if self.config.behavior is AttackBehavior.CHURN:
            return self._churn_attempt(now, in_range)
        return self._multi_attempt(now, in_range)

    def _churn_attempt(self, now: float, in_range: Sequence[Device]) -> tuple[Identity, Device] | None:
        if not self.pool and self._acquire(in_range) is None:  # the index is 0 until the pool holds one
            return None
        active = self.pool[self._active_index]
        self.presented = active
        if now - self._last_attempt < self.config.attempt_interval:
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
        if len(self.pool) < self.config.pool_size:
            self._acquire(in_range)  # grow the pool opportunistically
        if not self.pool or now - self._last_attempt < self.config.attempt_interval:
            return None
        target = next((d for d in in_range if d.id in self.managers), None)
        if target is None:
            return None
        active_count = max(1, math.floor(len(self.pool) * (1.0 - self.config.idle_fraction)))
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
        if self.config.behavior is not AttackBehavior.CHURN:
            return
        self._deny_streak = 0 if granted else self._deny_streak + 1
        if self._deny_streak >= self.config.deny_streak_limit:
            self.presented = self._rotate(victims)


def write_attack_csv(decisions: Iterable[DecisionRecord], config: ScenarioConfig, path: str | Path) -> None:
    """The attack trace: one row per decision on an attacker device's request.

    Every attacker runs `config`, so each row's source and schedule are its.
    """
    source, behavior = config.identity_source.value, config.behavior.value
    write_csv(
        path,
        ["time", "attacker_device", "identity", "source", "behavior", "target_manager"],
        ([repr(d.time), d.presenter, d.identity, source, behavior, d.manager] for d in decisions if d.attacker),
    )
