"""Threshold admission control run by manager nodes.

A request presents an identity to a manager. The caller assesses it,
blending the manager's own opinion (D), the presented profile's similarity
to the manager's community (S) and filtered recommendations (R) into
overall trust T, and hands T to the gate. The gate only decides: it grants
strictly above the trust threshold, and a grant admits the presenting
device under the identity. It keeps the member roster and the decision
log. Holding the same identity through a second device is an identity
conflict, which the caller reads off the roster as an observation rather
than acting on it directly (trust is the only verdict path).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable

from .community import community_similarity  # noqa: F401  the gate is handed T; perfbench times this name
from .record import write_csv
from .trust import assess  # noqa: F401  the engine assesses; perfbench counts calls here


class RoutingError(Exception):
    """Request targeted an id that is not a manager's."""


class Verdict(Enum):
    GRANT = "grant"
    DENY = "deny"


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
    T it is handed, logs the decision, and keeps the member roster, whose
    first members are the managers under their own ids. It sources no
    evidence; the simulation engine gathers D, S and R and makes the
    assessment.
    """

    def __init__(self, managers: frozenset[str], trust_threshold: float, attacker_devices: frozenset[str]) -> None:
        if not 0.0 <= trust_threshold <= 1.0:
            raise ValueError(f"trust threshold out of range: {trust_threshold}")
        self.managers = managers
        self.trust_threshold = trust_threshold
        self.attacker_devices = attacker_devices  # the engine's set; marks decisions, never reaches the verdict
        # identity -> devices that hold membership under it
        self.members: dict[str, set[str]] = {m: {m} for m in sorted(managers)}
        self.decisions: list[DecisionRecord] = []

    def evaluate(self, time: float, identity: str, presenter: str, manager: str, trust: float) -> DecisionRecord:
        """Grant strictly above the threshold, admitting `presenter` under `identity`; log and return the decision.

        `presenter` is the physical device behind the request: ground truth
        for the roster, the log and the metrics, never read by the verdict.
        """
        if manager not in self.managers:
            raise RoutingError(f"target {manager!r} is not a manager")
        verdict = Verdict.GRANT if trust > self.trust_threshold else Verdict.DENY
        if verdict is Verdict.GRANT:
            self.members.setdefault(identity, set()).add(presenter)
        record = DecisionRecord(
            time=time,
            manager=manager,
            identity=identity,
            attacker=presenter in self.attacker_devices,
            verdict=verdict,
            trust=trust,
            presenter=presenter,
        )
        self.decisions.append(record)
        return record


def write_decision_csv(records: Iterable[DecisionRecord], path: str | Path) -> None:
    write_csv(
        path,
        ["time", "manager", "identity", "true_device_kind", "verdict", "trust"],
        (
            [repr(r.time), r.manager, r.identity, r.true_device_kind, r.verdict.value, repr(r.trust)]
            for r in records
        ),
    )
