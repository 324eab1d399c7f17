"""Threshold admission control run by manager nodes.

A request presents an identity to a manager. The caller assesses it,
blending the manager's own opinion (D), the presented profile's similarity
to the manager's community (S) and filtered recommendations (R) into
overall trust T, and hands T to the gate. The gate only decides: it grants
strictly above the trust threshold and keeps the books, the grant ledger,
the member roster and the decision log. A grant must precede admission;
admitting the same identity through a second device is an identity
conflict, which is surfaced to the caller as an observation rather than
acted on directly (trust is the only verdict path).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable

from .community import community_similarity  # noqa: F401  the gate is handed T; perfbench times this name
from .trust import assess  # noqa: F401  the engine assesses; perfbench counts calls here


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

    The gate decides and keeps the books: it applies the threshold to the
    T it is handed, logs the decision, and owns the grant ledger and the
    member roster. It sources no evidence; the simulation engine gathers
    D, S and R and makes the assessment.
    """

    def __init__(
        self,
        managers: frozenset[str],
        trust_threshold: float = 0.6,
        attacker_devices: frozenset[str] = frozenset(),
    ) -> None:
        if not 0.0 <= trust_threshold <= 1.0:
            raise ValueError(f"trust threshold out of range: {trust_threshold}")
        self.managers = managers
        self.trust_threshold = trust_threshold
        self.attacker_devices = attacker_devices  # the engine's set; marks decisions, never reaches the verdict
        self._grants: set[tuple[str, str]] = set()
        # identity -> devices that hold membership under it
        self.members: dict[str, set[str]] = {}
        self.decisions: list[DecisionRecord] = []

    def bootstrap_member(self, identity: str, presenter: str) -> None:
        """Seed a member without a grant (manager mesh at scenario start)."""
        self.members.setdefault(identity, set()).add(presenter)

    def evaluate(self, request: AccessRequest, trust: float) -> DecisionRecord:
        """Grant strictly above the threshold; book the grant and the decision, and return the decision."""
        manager = request.target_manager
        if manager not in self.managers:
            raise RoutingError(f"target {manager!r} is not a manager")
        verdict = Verdict.GRANT if trust > self.trust_threshold else Verdict.DENY
        if verdict is Verdict.GRANT:
            self._grants.add((request.identity, manager))
        record = DecisionRecord(
            time=request.time,
            manager=manager,
            identity=request.identity,
            attacker=request.presenter in self.attacker_devices,
            verdict=verdict,
            trust=trust,
            presenter=request.presenter,
        )
        self.decisions.append(record)
        return record

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
