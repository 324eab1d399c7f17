"""Threshold admission control run by manager nodes.

A request presents an identity to a manager; the manager blends its own
opinion (D), the presented profile's similarity to the manager's community
(S) and filtered recommendations (R) into overall trust, then grants
strictly above the trust threshold. The gate only decides: the caller
gathers D, S and R and hands them over as values. A grant must precede
admission; admitting the same identity through a second device is an
identity conflict, which is surfaced to the caller as an observation rather
than acted on directly (trust is the only verdict path).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable

from .community import community_similarity  # noqa: F401  the gate is handed S; perfbench times this name
from .social import DeviceClass, DeviceRegistry, RelationType
from .trust import TrustAssessment, assess


class RoutingError(Exception):
    """Request targeted a device that is not a manager."""


class AdmissionError(Exception):
    """Admission attempted without a prior grant."""


class Verdict(Enum):
    GRANT = "grant"
    DENY = "deny"


@dataclass(frozen=True)
class AccessRequest:
    """An identity asking a manager for network membership.

    `presenter` is the physical device behind the request. It is ground
    truth carried for logging and metrics only; the verdict never reads it.
    """

    time: float
    identity: str
    presenter: str
    friends: frozenset[str]
    interests: frozenset[str]
    target_manager: str

    @property
    def id(self) -> str:
        # lets a request act as a SocialProfile for similarity purposes
        return self.identity


@dataclass(frozen=True)
class AccessDecision:
    verdict: Verdict
    trust: float
    assessment: TrustAssessment


@dataclass(frozen=True)
class DecisionRecord:
    """One adjudication, as logged to the decision CSV."""

    time: float
    manager: str
    identity: str
    attacker: bool
    verdict: Verdict
    trust: float

    @property
    def granted(self) -> bool:
        return self.verdict is Verdict.GRANT

    @property
    def true_device_kind(self) -> str:
        return "attacker" if self.attacker else "legitimate"


@dataclass(frozen=True)
class Admission:
    """Result of admitting an identity; conflicts list prior presenters."""

    identity: str
    manager: str
    presenter: str
    time: float
    conflicting_presenters: tuple[str, ...] = ()

    @property
    def conflict(self) -> bool:
        return bool(self.conflicting_presenters)


class AccessGate:
    """Admission control over one scenario's manager set.

    The gate decides and keeps the books: it blends the D, S and R it is
    handed as values, applies the threshold, logs the decision, and owns
    the grant ledger and the member roster. It sources no evidence; the
    simulation engine gathers all three.
    """

    def __init__(
        self,
        registry: DeviceRegistry,
        relation_filter: RelationType,
        trust_threshold: float = 0.6,
        attacker_devices: frozenset[str] = frozenset(),
    ) -> None:
        if not 0.0 <= trust_threshold <= 1.0:
            raise ValueError(f"trust threshold out of range: {trust_threshold}")
        self.registry = registry
        self.relation_filter = relation_filter
        self.trust_threshold = trust_threshold
        self.attacker_devices = attacker_devices
        self._grants: set[tuple[str, str]] = set()
        # identity -> devices that hold membership under it
        self.members: dict[str, set[str]] = {}
        self.decisions: list[DecisionRecord] = []

    # -- membership queries -------------------------------------------------

    def is_member(self, identity: str) -> bool:
        return identity in self.members

    def member_presenters(self, identity: str) -> set[str]:
        return set(self.members.get(identity, ()))

    def bootstrap_member(self, identity: str, presenter: str) -> None:
        """Seed a member without a grant (manager mesh at scenario start)."""
        self.members.setdefault(identity, set()).add(presenter)

    # -- evaluation ---------------------------------------------------------

    def evaluate(
        self, request: AccessRequest, direct: float, similarity: float, recommended: float
    ) -> AccessDecision:
        """Adjudicate one request on the given D, S and R, and log the decision."""
        manager = self.registry.device(request.target_manager)
        if manager.device_class is not DeviceClass.MANAGER:
            raise RoutingError(f"target {manager.id!r} is not a manager")

        split = "internal" if self.is_member(request.identity) else "external"
        assessment = assess(
            request.time, manager.id, request.identity, self.relation_filter,
            direct, similarity, recommended, split,
        )
        if assessment.trust > self.trust_threshold:
            verdict = Verdict.GRANT
            self._grants.add((request.identity, manager.id))
        else:
            verdict = Verdict.DENY
        self.decisions.append(
            DecisionRecord(
                time=request.time,
                manager=manager.id,
                identity=request.identity,
                attacker=request.presenter in self.attacker_devices,
                verdict=verdict,
                trust=assessment.trust,
            )
        )
        return AccessDecision(verdict=verdict, trust=assessment.trust, assessment=assessment)

    # -- admission ----------------------------------------------------------

    def admit(self, identity: str, manager: str, presenter: str, time: float) -> Admission:
        """Turn a grant into membership.

        Admission without a logged grant for (identity, manager) is a
        contract violation. Admitting an identity already held by a
        different device reports the conflict for the caller to score.
        """
        if (identity, manager) not in self._grants:
            raise AdmissionError(f"no grant on record for {identity!r} at {manager!r}")
        holders = self.members.setdefault(identity, set())
        conflicts = tuple(sorted(h for h in holders if h != presenter))
        holders.add(presenter)
        return Admission(
            identity=identity,
            manager=manager,
            presenter=presenter,
            time=time,
            conflicting_presenters=conflicts,
        )


def write_decision_csv(records: Iterable[DecisionRecord], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["time", "manager", "identity", "true_device_kind", "verdict", "trust"])
        for record in records:
            writer.writerow(
                [
                    repr(record.time),
                    record.manager,
                    record.identity,
                    record.true_device_kind,
                    record.verdict.value,
                    repr(record.trust),
                ]
            )
