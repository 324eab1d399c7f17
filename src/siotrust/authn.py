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
from .social import RelationType
from .trust import TrustAssessment, assess


class RoutingError(Exception):
    """Request targeted an id that is not a manager's."""


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
    target_manager: str


@dataclass(frozen=True)
class AccessDecision:
    verdict: Verdict
    assessment: TrustAssessment


@dataclass(frozen=True)
class DecisionRecord:
    """One adjudication, as logged to the decision CSV; `presenter` is the requesting device."""

    time: float
    manager: str
    identity: str
    attacker: bool
    verdict: Verdict
    trust: float
    presenter: str = ""

    @property
    def granted(self) -> bool:
        return self.verdict is Verdict.GRANT

    @property
    def true_device_kind(self) -> str:
        return "attacker" if self.attacker else "legitimate"


class AccessGate:
    """Admission control over one scenario's manager set, given as device ids.

    The gate decides and keeps the books: it blends the D, S and R it is
    handed as values, applies the threshold, logs the decision, and owns
    the grant ledger and the member roster. It sources no evidence; the
    simulation engine gathers all three.
    """

    def __init__(
        self,
        managers: frozenset[str],
        relation_filter: RelationType,
        trust_threshold: float = 0.6,
        attacker_devices: frozenset[str] = frozenset(),
    ) -> None:
        if not 0.0 <= trust_threshold <= 1.0:
            raise ValueError(f"trust threshold out of range: {trust_threshold}")
        self.managers = managers
        self.relation_filter = relation_filter
        self.trust_threshold = trust_threshold
        self.attacker_devices = attacker_devices  # the engine's set; marks decisions, never reaches the verdict
        self._grants: set[tuple[str, str]] = set()
        # identity -> devices that hold membership under it
        self.members: dict[str, set[str]] = {}
        self.decisions: list[DecisionRecord] = []

    # -- membership queries -------------------------------------------------

    def is_member(self, identity: str) -> bool:
        return identity in self.members

    def bootstrap_member(self, identity: str, presenter: str) -> None:
        """Seed a member without a grant (manager mesh at scenario start)."""
        self.members.setdefault(identity, set()).add(presenter)

    # -- evaluation ---------------------------------------------------------

    def evaluate(
        self, request: AccessRequest, direct: float, similarity: float, recommended: float
    ) -> AccessDecision:
        """Adjudicate one request on the given D, S and R, and log the decision."""
        manager = request.target_manager
        if manager not in self.managers:
            raise RoutingError(f"target {manager!r} is not a manager")

        split = "internal" if self.is_member(request.identity) else "external"
        assessment = assess(
            request.time, manager, request.identity, self.relation_filter,
            direct, similarity, recommended, split,
        )
        if assessment.trust > self.trust_threshold:
            verdict = Verdict.GRANT
            self._grants.add((request.identity, manager))
        else:
            verdict = Verdict.DENY
        self.decisions.append(
            DecisionRecord(
                time=request.time,
                manager=manager,
                identity=request.identity,
                attacker=request.presenter in self.attacker_devices,
                verdict=verdict,
                trust=assessment.trust,
                presenter=request.presenter,
            )
        )
        return AccessDecision(verdict=verdict, assessment=assessment)

    # -- admission ----------------------------------------------------------

    def admit(self, identity: str, manager: str, presenter: str) -> tuple[str, ...]:
        """Turn a grant into membership; return the identity's earlier presenters, sorted.

        Admission without a logged grant for (identity, manager) is a
        contract violation. A non-empty result is an identity conflict:
        the identity is already held by a different device, and the
        caller scores it.
        """
        if (identity, manager) not in self._grants:
            raise AdmissionError(f"no grant on record for {identity!r} at {manager!r}")
        holders = self.members.setdefault(identity, set())
        conflicts = tuple(sorted(h for h in holders if h != presenter))
        holders.add(presenter)
        return conflicts


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
