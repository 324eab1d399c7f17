"""Deterministic scenario engine.

One run simulates a fixed-size world on a square field: legitimate devices
carrying social profiles drawn from a friendship graph, a manager subset
adjudicating access requests, and attacker devices working through stolen
or fabricated identities. Radio is abstracted to proximity: devices within
the interaction radius exchange service experiences, everything else is
routed without loss.

Time advances in fixed ticks. Each tick runs the same pipeline:

  1. epoch tasks when a boundary is crossed (community formation, the
     duplicate-identity scan, the recommendation exchange, monitoring
     assessments of current members, position snapshots)
  2. access requests from legitimate candidates, then from attackers
  3. service interactions between members in radius
  4. random-waypoint movement

Managers join their own network at t=0 without adjudication; admitted
identities stay members. Epoch monitoring produces trust assessments, not
verdicts, so a granted device is never retroactively expelled and the
false-positive story of a run depends only on request adjudication.

Determinism contract: a config and a seed fix every byte of the event log.
All randomness flows from two seeded generators (a numpy PCG64 stream for
geometry and experience outcomes, a python Random for attacker forging),
iteration is always over sorted ids or fixed index arrays, and times are
computed as step * tick rather than accumulated.
"""

from __future__ import annotations

import math
import random
import weakref
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from .adversary import (
    AcquisitionEvent,
    AttackAttempt,
    AttackBehavior,
    AttackerEngine,
    AttackerProfile,
)
from .authn import AccessGate, AccessRequest, DecisionRecord, Verdict
from .community import (
    Community,
    SimilarityWeights,
    SocialProfile,
    pairwise_similarity,
    partition_by_similarity,
)
from .dataset import FriendshipGraph, load_friendship_edges, sample_subgraph, synthetic_small_world
from .metrics import CHUNK_LINES, ConfusionCounters, MetricsReport
from .social import (
    ConfigError,
    Context,
    Device,
    DeviceClass,
    DeviceRegistry,
    IdentitySource,
    RelationType,
    classify_relation,
    context_for,
)
from .trust import (
    OpinionStore,
    TrustAssessment,
    assess,  # noqa: F401  the engine assesses in arrays; perfbench counts scalar calls here
    assess_array,
    exchange_recommendations,
)

SHARED_HOME = "home-0"


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete description of one run; seed included.

    Defaults reproduce the reference scenario: 100 nodes on a 100 m square,
    a tenth of them attackers running churn over stolen identities in the
    residence context, 600 simulated seconds.
    """

    node_count: int = 100
    attacker_fraction: float = 0.10
    manager_fraction: float = 0.20
    area_width: float = 100.0
    area_height: float = 100.0
    speed: float = 2.0
    duration: float = 600.0
    tick: float = 1.0
    seed: int = 1
    context_kind: str = "residence"
    base_rate: float | None = None
    relation: RelationType = RelationType.CLOR
    similarity_threshold: float = 0.5
    friend_weight: float = 0.5
    interest_weight: float = 0.5
    trust_threshold: float = 0.6
    interaction_radius: float = 15.0
    interaction_period: float = 10.0
    p_positive_legit: float = 0.95
    p_negative_attacker: float = 0.8
    epoch_interval: float = 30.0
    behavior: AttackBehavior = AttackBehavior.CHURN
    identity_source: IdentitySource = IdentitySource.STOLEN
    pool_size: int = 8
    attempt_interval: float = 10.0
    deny_streak_limit: int = 3
    attacker_speed_factor: float = 0.5
    idle_fraction: float = 2 / 3
    forged_set_size: int = 0
    request_retry_interval: float = 20.0
    duplicate_request_penalty: int = 12
    duplicate_epoch_penalty: int = 4
    shared_interest_count: int = 5
    friends_path: str | None = None

    def __post_init__(self) -> None:
        if self.node_count < 2:
            raise ConfigError(f"need at least 2 nodes: {self.node_count}")
        if not 0.0 <= self.attacker_fraction < 1.0:
            raise ConfigError(f"attacker fraction out of range: {self.attacker_fraction}")
        if not 0.0 < self.manager_fraction <= 1.0:
            raise ConfigError(f"manager fraction out of range: {self.manager_fraction}")
        if self.legit_count < 2:
            raise ConfigError("attacker fraction leaves fewer than 2 legitimate devices")
        if self.manager_count >= self.legit_count:
            raise ConfigError(
                "manager fraction leaves no legitimate subordinates "
                f"({self.manager_count} managers, {self.legit_count} legitimate devices)"
            )
        for name in ("area_width", "area_height", "speed", "duration", "tick",
                     "interaction_radius", "interaction_period", "epoch_interval",
                     "request_retry_interval"):
            value = getattr(self, name)
            if value <= 0:
                raise ConfigError(f"{name} must be positive: {value}")
        for name in ("p_positive_legit", "p_negative_attacker", "similarity_threshold",
                     "trust_threshold"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} out of range: {value}")
        if self.duplicate_request_penalty < 0 or self.duplicate_epoch_penalty < 0:
            raise ConfigError("duplicate penalties must be non-negative")
        if self.shared_interest_count < 1:
            raise ConfigError(f"shared interest count must be positive: {self.shared_interest_count}")
        self.context()  # unknown kind or bad override fails here
        self.weights()
        self.attacker_profile()

    # -- derived sizes ------------------------------------------------------

    @property
    def attacker_count(self) -> int:
        return int(round(self.node_count * self.attacker_fraction))

    @property
    def legit_count(self) -> int:
        return self.node_count - self.attacker_count

    @property
    def manager_count(self) -> int:
        return max(1, int(round(self.node_count * self.manager_fraction)))

    @property
    def scenario_label(self) -> str:
        return f"{self.behavior.value}-{self.identity_source.value}"

    def context(self) -> Context:
        overrides = None if self.base_rate is None else {self.context_kind: self.base_rate}
        return context_for(self.context_kind, overrides)

    def weights(self) -> SimilarityWeights:
        return SimilarityWeights(self.friend_weight, self.interest_weight)

    def attacker_profile(self) -> AttackerProfile:
        return AttackerProfile(
            behavior=self.behavior,
            identity_source=self.identity_source,
            pool_size=self.pool_size,
            attempt_interval=self.attempt_interval,
            deny_streak_limit=self.deny_streak_limit,
            speed_factor=self.attacker_speed_factor,
            idle_fraction=self.idle_fraction,
            forged_set_size=self.forged_set_size,
        )

    # -- manifest round-trip --------------------------------------------------

    def to_mapping(self) -> dict[str, Any]:
        """Plain key-value form; enum fields become their string values."""
        out: dict[str, Any] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = value.value if hasattr(value, "value") else value
        return out

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, Any]) -> "ScenarioConfig":
        known = {f.name: f for f in fields(cls)}
        kwargs: dict[str, Any] = {}
        for name, raw in mapping.items():
            if name not in known:
                raise ConfigError(f"unknown scenario parameter: {name!r}")
            kwargs[name] = raw
        try:
            if "relation" in kwargs and not isinstance(kwargs["relation"], RelationType):
                kwargs["relation"] = RelationType(str(kwargs["relation"]))
            if "behavior" in kwargs and not isinstance(kwargs["behavior"], AttackBehavior):
                kwargs["behavior"] = AttackBehavior(str(kwargs["behavior"]))
            if "identity_source" in kwargs and not isinstance(kwargs["identity_source"], IdentitySource):
                kwargs["identity_source"] = IdentitySource(str(kwargs["identity_source"]))
            return cls(**kwargs)
        except (TypeError, ValueError) as exc:
            if isinstance(exc, ConfigError):
                raise
            raise ConfigError(str(exc)) from exc

    def with_seed(self, seed: int) -> "ScenarioConfig":
        return replace(self, seed=seed)


class EventLog:
    """Append-only run log with nondecreasing timestamps.

    Every line is fully formatted at append time; two runs agree iff their
    logs agree byte for byte, which is exactly what the determinism tests
    compare.

    The engine passes one time object for every event of a tick, so the
    `t=<repr> ` prefix is formatted once per new time object and reused
    while the same object comes back. Reuse keys on identity, not
    equality: 0.0 and -0.0, or 30 and 30.0, are equal times with
    different text.
    """

    def __init__(self) -> None:
        self.lines: list[str] = []
        self._last_time = -math.inf
        self._prefix = ""

    def append(self, time: float, text: str) -> None:
        if time is not self._last_time:
            if time < self._last_time:
                raise ValueError(f"event log time went backwards: {time} after {self._last_time}")
            self._last_time = time
            self._prefix = f"t={time!r} "
        self.lines.append(self._prefix + text)

    def text(self) -> str:
        return "".join(line + "\n" for line in self.lines)

    def write(self, path: str | Path) -> None:
        """The log as `text()` gives it, written `CHUNK_LINES` lines at a time."""
        with open(path, "w", encoding="utf-8", newline="") as handle:
            for start in range(0, len(self.lines), CHUNK_LINES):
                handle.write("\n".join(self.lines[start : start + CHUNK_LINES]) + "\n")

    def __len__(self) -> int:
        return len(self.lines)


class _StaticSimilarity:
    """Caches over presented profiles, keyed by identity id.

    An id always presents the same sets: legitimate profiles are fixed at
    build time, a stolen identity copies its victim's sets verbatim, and
    fabricated ids are unique with sets frozen when forged. With
    `pairwise_similarity` exactly symmetric, pairwise similarities and
    per-community means are safe to memoize for the whole run, and equal
    `community_similarity` bit for bit.
    """

    def __init__(self, weights: SimilarityWeights) -> None:
        self.weights = weights
        self._pairs: dict[tuple[str, str], float] = {}
        self._means: dict[tuple[str, int], float] = {}

    def pair(self, a: SocialProfile, b: SocialProfile) -> float:
        key = (a.id, b.id) if a.id <= b.id else (b.id, a.id)
        found = self._pairs.get(key)
        if found is None:
            found = pairwise_similarity(a, b, self.weights)
            self._pairs[key] = found
        return found

    def community_mean(
        self, subject: SocialProfile, community: Community, registry: DeviceRegistry
    ) -> float:
        """Same convention as community_similarity: self excluded, alone is 0."""
        key = (subject.id, community.id)
        found = self._means.get(key)
        if found is not None:
            return found
        others = [m for m in community.members if m != subject.id]
        if not others:
            value = 0.0
        else:
            total = sum(self.pair(subject, registry.device(m)) for m in others)
            value = total / len(others)
        self._means[key] = value
        return value


@dataclass
class RunResult:
    """Everything one run produced, in generation order."""

    config: ScenarioConfig
    log: EventLog
    decisions: list[DecisionRecord]
    assessments: list[TrustAssessment]
    communities: list[Community]
    attempts: list[AttackAttempt]
    counters: ConfusionCounters

    def esr_splits(self) -> dict[str, list[float]]:
        """Trust samples for the empirical success-rate CDFs, by split."""
        splits: dict[str, list[float]] = {"internal": [], "external": []}
        for a in self.assessments:
            splits.setdefault(a.split, []).append(a.trust)
        return splits

    def metrics_report(self) -> MetricsReport:
        return MetricsReport(
            scenario=self.config.scenario_label,
            context=self.config.context_kind,
            relation=self.config.relation.value,
            seed=self.config.seed,
            counters=self.counters,
        )


class SimulationEngine:
    """Builds a world from a config and runs it to completion."""

    def __init__(self, config: ScenarioConfig) -> None:
        self.cfg = config
        self.context = config.context()
        self.rng = np.random.Generator(np.random.PCG64(config.seed))
        self.pyrng = random.Random(config.seed)
        self.log = EventLog()
        self.registry = DeviceRegistry()
        self.store = OpinionStore(self.context.base_rate)
        self.similarity = _StaticSimilarity(config.weights())
        self.communities: list[Community] = []
        self._community_of: dict[str, Community] = {}
        self.rec_cache: dict[tuple[str, str], float] = {}
        self.assessments: list[TrustAssessment] = []
        self.attempts: list[AttackAttempt] = []

        self._build_world()

        # The gate reaches back through a weak proxy: a strong reference would
        # make engine and gate a cycle, and every finished run (its log, rows
        # and store) would then stay in memory until a full garbage collection,
        # whose cost would fall on whatever runs next.
        engine = weakref.proxy(self)
        self.gate = AccessGate(
            registry=self.registry,
            store=self.store,
            relation_filter=config.relation,
            similarity=lambda request, manager_id: engine._request_similarity(request, manager_id),
            recommender=lambda manager_id, subject: engine.rec_cache.get((manager_id, subject)),
            trust_threshold=config.trust_threshold,
            attacker_devices=frozenset(self.attacker_ids),
        )
        self._relations: dict[tuple[str, str], RelationType] = {}
        self._next_epoch = config.epoch_interval
        self._last_request: dict[str, float] = {}

    # -- world construction ---------------------------------------------------

    def _build_world(self) -> None:
        cfg = self.cfg
        graph = self._friendship_graph(cfg.legit_count)
        ranked = sorted(graph.nodes())
        width = max(3, len(str(cfg.legit_count - 1)))
        name_of = {node: f"d{i:0{width}d}" for i, node in enumerate(ranked)}

        interests = {f"int-{k}" for k in range(cfg.shared_interest_count)}
        legit_ids = sorted(name_of.values())
        manager_ids = set(legit_ids[: cfg.manager_count])
        for node in ranked:
            device_id = name_of[node]
            friends = {name_of[n] for n in graph.neighbors(node)}
            self.registry.register(
                Device(
                    id=device_id,
                    device_class=(
                        DeviceClass.MANAGER
                        if device_id in manager_ids
                        else DeviceClass.SUBORDINATE
                    ),
                    friends=friends,
                    interests=set(interests),
                    owner=f"own-{device_id}",
                    batch=f"bat-{device_id}",
                    home=SHARED_HOME,
                    speed=cfg.speed,
                )
            )

        awidth = max(2, len(str(max(cfg.attacker_count - 1, 0))))
        self.attacker_ids = [f"adv{i:0{awidth}d}" for i in range(cfg.attacker_count)]
        for attacker_id in self.attacker_ids:
            self.registry.register_bare(
                Device(
                    id=attacker_id,
                    device_class=DeviceClass.SUBORDINATE,
                    owner=f"own-{attacker_id}",
                    batch=f"bat-{attacker_id}",
                    speed=cfg.speed * cfg.attacker_speed_factor,
                )
            )

        profile = cfg.attacker_profile()
        self.engines = {
            attacker_id: AttackerEngine(
                self.registry.device(attacker_id), profile, self.registry, self.pyrng
            )
            for attacker_id in self.attacker_ids
        }

        self.ids: list[str] = sorted(legit_ids + self.attacker_ids)
        self.index = {device_id: i for i, device_id in enumerate(self.ids)}
        n = len(self.ids)
        attacker_set = set(self.attacker_ids)
        self.attacker_mask = np.array([i in attacker_set for i in self.ids])
        self.legit_mask = ~self.attacker_mask
        self.manager_mask = np.array([i in manager_ids for i in self.ids])
        self.manager_indices = np.nonzero(self.manager_mask)[0]
        self.legit_ids = legit_ids
        self._legit_id_set = set(legit_ids)

        lows = np.zeros(2)
        highs = np.array([cfg.area_width, cfg.area_height])
        self.positions = self.rng.uniform(lows, highs, size=(n, 2))
        self.targets = self.rng.uniform(lows, highs, size=(n, 2))
        self.devices = [self.registry.device(i) for i in self.ids]  # by index
        self.speeds = np.array([d.speed for d in self.devices])
        self._area_low = lows
        self._area_high = highs
        self.last_interaction = np.full((n, n), -math.inf)

    def _friendship_graph(self, size: int) -> FriendshipGraph:
        if self.cfg.friends_path is not None:
            try:
                full = load_friendship_edges(self.cfg.friends_path)
            except ValueError as exc:  # a malformed line, or bytes that are not UTF-8
                raise ConfigError(f"friendship file {self.cfg.friends_path!r}: {exc}") from exc
            if full.node_count < size:
                raise ConfigError(
                    f"friendship file has {full.node_count} nodes, scenario needs {size}"
                )
            return sample_subgraph(full, size, self.cfg.seed)
        return synthetic_small_world(size, self.cfg.seed)

    # -- static lookups ---------------------------------------------------------

    def _relation(self, a: str, b: str) -> RelationType:
        key = (a, b) if a <= b else (b, a)
        found = self._relations.get(key)
        if found is None:
            found = classify_relation(self.registry.device(key[0]), self.registry.device(key[1]))
            self._relations[key] = found
        return found

    def _request_similarity(self, request: AccessRequest, manager_id: str) -> float:
        """The gate's S: the presented profile against the manager's community.

        Before the first epoch a manager has no community yet; similarity
        evidence is then vacuous and falls back to the base rate, the same
        convention vacuous D and R follow. The request itself is the
        profile, under the presented identity id that the cache keys on.
        """
        community = self._community_of.get(manager_id)
        if community is None:
            return self.store.base_rate
        return self.similarity.community_mean(request, community, self.registry)

    def _profile_of(self, identity_id: str) -> SocialProfile:
        if identity_id in self._legit_id_set:
            return self.registry.device(identity_id)
        return self.registry.presentations(identity_id)[0]

    # -- run loop -----------------------------------------------------------------

    def run(self) -> RunResult:
        cfg = self.cfg
        for manager in self.registry.managers():
            self.gate.bootstrap_member(manager.id, manager.id)
            self.log.append(0.0, f"bootstrap manager={manager.id}")

        steps = int(round(cfg.duration / cfg.tick))
        for step in range(steps):
            now = step * cfg.tick
            # epoch tasks never move a device, so one matrix serves the tick
            sq_dist = self._squared_distances()
            if now + 1e-9 >= self._next_epoch:
                self._epoch(now, sq_dist)
                self._next_epoch += cfg.epoch_interval
            self._legit_requests(now, sq_dist)
            self._attacker_requests(now, sq_dist)
            self._interactions(now, sq_dist)
            self._move()

        counters = ConfusionCounters.from_requests(self.gate.decisions)
        return RunResult(
            config=cfg,
            log=self.log,
            decisions=self.gate.decisions,
            assessments=self.assessments,
            communities=self.communities,
            attempts=self.attempts,
            counters=counters,
        )

    def _squared_distances(self) -> np.ndarray:
        x = self.positions[:, 0]
        y = self.positions[:, 1]
        dx = x[:, None] - x[None, :]
        dy = y[:, None] - y[None, :]
        return dx * dx + dy * dy

    # -- request phases -------------------------------------------------------

    def _nearest_manager(self, device_index: int, sq_dist: np.ndarray) -> Device:
        row = sq_dist[device_index, self.manager_indices]
        own = self.manager_indices[int(np.argmin(row))]
        return self.registry.device(self.ids[own])

    def _in_range(self, device_index: int, sq_dist: np.ndarray) -> list[Device]:
        """Legitimate devices within interaction radius, nearest first.

        Ties in distance go by id. `self.ids` is sorted, so index order is id
        order, and a stable sort of the ascending hits by distance gives
        exactly the `(distance, id)` order.
        """
        row = sq_dist[device_index]
        radius_sq = self.cfg.interaction_radius**2
        hits = np.nonzero(self.legit_mask & (row <= radius_sq))[0]
        hits = hits[hits != device_index]
        ordered = hits[row[hits].argsort(kind="stable")]
        return [self.devices[i] for i in ordered.tolist()]

    def _legit_requests(self, now: float, sq_dist: np.ndarray) -> None:
        cfg = self.cfg
        for device_id in self.legit_ids:
            device = self.registry.device(device_id)
            if device.is_manager or self.gate.is_member(device_id):
                continue
            last = self._last_request.get(device_id, -math.inf)
            if now - last < cfg.request_retry_interval:
                continue
            manager = self._nearest_manager(self.index[device_id], sq_dist)
            request = AccessRequest(
                time=now,
                identity=device_id,
                presenter=device_id,
                friends=frozenset(device.friends),
                interests=frozenset(device.interests),
                target_manager=manager.id,
            )
            self._adjudicate(request, presenter_device=device)
            self._last_request[device_id] = now

    def _attacker_requests(self, now: float, sq_dist: np.ndarray) -> None:
        cfg = self.cfg
        for attacker_id in self.attacker_ids:
            engine = self.engines[attacker_id]
            device_index = self.index[attacker_id]
            victims = self._in_range(device_index, sq_dist)
            managers = [d for d in victims if d.is_manager]  # managers are legitimate
            engine.observe(victims)
            picked = engine.attempt(now, managers, victims)
            self._drain_acquisitions(engine, now)
            if picked is None:
                continue
            identity, target = picked
            if self.gate.is_member(identity.id) and attacker_id not in self.gate.member_presenters(
                identity.id
            ):
                # Presented identity is already on the roster under another
                # device; the manager books hard negative evidence before
                # adjudicating.
                for _ in range(cfg.duplicate_request_penalty):
                    self.store.record_experience(target.id, identity.id, "negative")
                self.log.append(
                    now,
                    f"duplicate identity={identity.id} presenter={attacker_id} "
                    f"manager={target.id} penalty={cfg.duplicate_request_penalty}",
                )
            request = AccessRequest(
                time=now,
                identity=identity.id,
                presenter=attacker_id,
                friends=frozenset(identity.friends),
                interests=frozenset(identity.interests),
                target_manager=target.id,
            )
            decision = self._adjudicate(request, presenter_device=engine.device)
            self.attempts.append(
                AttackAttempt(
                    time=now,
                    attacker_device=attacker_id,
                    identity=identity.id,
                    source=identity.source,
                    behavior=cfg.behavior,
                    target_manager=target.id,
                )
            )
            engine.notify(decision.verdict is Verdict.GRANT, now, victims)
            self._drain_acquisitions(engine, now)

    def _adjudicate(self, request: AccessRequest, presenter_device: Device):
        decision = self.gate.evaluate(request)
        self.assessments.append(decision.assessment)
        kind = "attacker" if request.presenter in self.gate.attacker_devices else "legit"
        verdict = "grant" if decision.verdict is Verdict.GRANT else "deny"
        self.log.append(
            request.time,
            f"decision manager={request.target_manager} identity={request.identity} "
            f"presenter={request.presenter} kind={kind} verdict={verdict} "
            f"trust={decision.trust!r} split={decision.assessment.split}",
        )
        if decision.verdict is Verdict.GRANT:
            admission = self.gate.admit(
                request.identity, request.target_manager, request.presenter, request.time
            )
            conflicts = "|".join(admission.conflicting_presenters) or "-"
            self.log.append(
                request.time,
                f"admit identity={admission.identity} manager={admission.manager} "
                f"presenter={admission.presenter} conflicts={conflicts}",
            )
        return decision

    def _drain_acquisitions(self, engine: AttackerEngine, now: float) -> None:
        while engine.events:
            event: AcquisitionEvent = engine.events.pop(0)
            if event.kind == "theft":
                self.log.append(now, f"theft attacker={engine.device.id} identity={event.identity} victim={event.victim}")
            else:
                self.log.append(now, f"fabricate attacker={engine.device.id} identity={event.identity}")

    # -- interactions and movement ----------------------------------------------

    def _member_presentation(self) -> tuple[np.ndarray, list[str | None]]:
        """Which devices currently act as members, and under which identity.

        A legitimate device is a member under its own id; an attacker device
        is one while it presents an identity the roster holds under it.
        Attacker device ids are never identity ids.
        """
        members = self.gate.members
        identity_of: list[str | None] = [i if i in members else None for i in self.ids]
        for attacker_id, engine in self.engines.items():
            presented = engine.presented
            holders = members.get(presented.id, ()) if presented is not None else ()
            identity_of[self.index[attacker_id]] = presented.id if attacker_id in holders else None
        member = np.array([i is not None for i in identity_of])
        return member, identity_of

    def _interactions(self, now: float, sq_dist: np.ndarray) -> None:
        """Service experiences between members in radius, each pair once per period.

        Pairs i < j in row-major order, found among the pairs in radius and
        then filtered by membership and due time: the same pairs, in the
        same order, as filtering the upper triangle of the whole matrix.
        """
        cfg = self.cfg
        member, identity_of = self._member_presentation()
        ii, jj = np.nonzero(sq_dist <= cfg.interaction_radius**2)
        upper = ii < jj
        ii, jj = ii[upper], jj[upper]
        due = now - self.last_interaction[ii, jj] >= cfg.interaction_period
        keep = member[ii] & member[jj] & due
        ii, jj = ii[keep], jj[keep]
        if len(ii) == 0:
            return
        draws = self.rng.random((len(ii), 2)).ravel()
        self.last_interaction[ii, jj] = now
        # two experiences per pair, in log order: i's of j (draw 0), j's of i (draw 1)
        evaluators = np.column_stack([ii, jj]).ravel()
        subjects = np.column_stack([jj, ii]).ravel()
        positive = _interaction_outcomes(
            draws, self.attacker_mask[subjects], cfg.p_positive_legit, cfg.p_negative_attacker
        )
        ids = self.ids
        for e, s, good in zip(evaluators.tolist(), subjects.tolist(), positive.tolist()):
            evaluator, subject = ids[e], identity_of[s]
            outcome = "positive" if good else "negative"
            self.store.record_experience(evaluator, subject, outcome)
            self.log.append(now, f"exp evaluator={evaluator} subject={subject} outcome={outcome}")

    def _move(self) -> None:
        tick = self.cfg.tick
        delta = self.targets - self.positions
        dist = np.hypot(delta[:, 0], delta[:, 1])
        step = self.speeds * tick
        arrive = dist <= step
        moving = ~arrive
        if moving.any():
            scale = (step[moving] / dist[moving])[:, None]
            self.positions[moving] += delta[moving] * scale
        if arrive.any():
            self.positions[arrive] = self.targets[arrive]
            count = int(arrive.sum())
            self.targets[arrive] = self.rng.uniform(self._area_low, self._area_high, size=(count, 2))

    # -- epoch tasks --------------------------------------------------------------

    def _epoch(self, now: float, sq_dist: np.ndarray) -> None:
        self._form_communities(now)
        self._duplicate_scan(now)
        self._rebuild_recommendations(sq_dist)
        self._monitor_members(now)
        self._snapshot_positions(now)

    def _form_communities(self, now: float) -> None:
        """Partition legitimate profiles at the first epoch; log it every epoch.

        Legitimate profiles never change, so the partition is static. It is
        still withheld until the first epoch: before it, managers have no
        community and similarity falls back to the base rate.
        """

        def similarity_of(pair: tuple[str, str]) -> float:
            return self.similarity.pair(
                self.registry.device(pair[0]), self.registry.device(pair[1])
            )

        if not self.communities:
            self.communities = partition_by_similarity(
                self.legit_ids, similarity_of, self.context, self.cfg.similarity_threshold
            )
            self._community_of = {m: c for c in self.communities for m in c.members}
        for community in self.communities:
            self.log.append(now, f"community id={community.id} size={len(community.members)}")

    def _duplicate_scan(self, now: float) -> None:
        """Penalize roster identities held by more than one device.

        The penalty lands at every manager so an already admitted duplicate
        cannot keep farming vacuous first impressions from managers it has
        not met yet.
        """
        penalty = self.cfg.duplicate_epoch_penalty
        managers = self.registry.managers()
        for identity_id in sorted(self.gate.members):
            presenters = self.gate.member_presenters(identity_id)
            if len(presenters) < 2:
                continue
            for manager in managers:
                for _ in range(penalty):
                    self.store.record_experience(manager.id, identity_id, "negative")
            joined = "|".join(sorted(presenters))
            self.log.append(
                now, f"duplicate-scan identity={identity_id} presenters={joined} penalty={penalty}"
            )

    def _rebuild_recommendations(self, sq_dist: np.ndarray) -> None:
        """Periodic opinion exchange.

        Managers broadcast their own opinions to every other manager;
        subordinates forward theirs to the nearest manager only. A
        contribution counts when the receiving manager's relation to the
        sender matches the configured filter. Attacker devices never send.

        The exchange runs on the dense store, one vector add per sender.
        Its means are bit-equal to summing each (receiver, subject) key in
        sender order under three rules (see `exchange_recommendations`):
          - E is `pos/mass + a*(2/mass)`, as in `Opinion.expected_value`;
          - senders add in a fixed order: managers first, then
            subordinates in `legit_ids` order;
          - no matrix product, whose summation order moves some means by
            one ulp.
        """
        relation = self.cfg.relation
        manager_ids = [m.id for m in self.registry.managers()]
        routes = [
            (sender, [r for r in manager_ids if r != sender and self._relation(r, sender) is relation])
            for sender in manager_ids
        ]
        for device_id in self.legit_ids:
            if self.registry.device(device_id).is_manager:
                continue
            nearest = self._nearest_manager(self.index[device_id], sq_dist)
            if self._relation(nearest.id, device_id) is relation:
                routes.append((device_id, [nearest.id]))
        self.rec_cache = exchange_recommendations(self.store, routes)

    def _monitor_members(self, now: float) -> None:
        """Assess every member at every manager, without verdicts.

        These assessments feed the trust trace and the in-network side of
        the ESR split. Membership itself is not revisited. Each manager's
        D, S and R are taken over the sorted members at once and blended as
        arrays: D for all managers comes from one read of the opinion store,
        and S is computed once per community, since it does not depend on
        the manager. Rows are `TrustAssessment` named tuples; they share
        the cached S and R float objects rather than holding copies, which
        keeps the retained assessments small.
        """
        base = self.store.base_rate
        managers = self.registry.managers()
        members = sorted(self.gate.members)
        direct = self.store.direct_trust_matrix([m.id for m in managers], members).tolist()
        similarity: dict[int, list[float]] = {}  # community id -> S over all members
        for manager, direct_row in zip(managers, direct):
            community = self._community_of[manager.id]
            if community.id not in similarity:
                similarity[community.id] = [
                    self.similarity.community_mean(self._profile_of(s), community, self.registry)
                    for s in members
                ]
            others = [k for k, s in enumerate(members) if s != manager.id]
            subjects = [members[k] for k in others]
            self.assessments.extend(
                assess_array(
                    now,
                    manager.id,
                    subjects,
                    self.cfg.relation,
                    [direct_row[k] for k in others],
                    [similarity[community.id][k] for k in others],
                    [self.rec_cache.get((manager.id, s), base) for s in subjects],
                    split="internal",
                )
            )

    def _snapshot_positions(self, now: float) -> None:
        for device_id in self.ids:
            i = self.index[device_id]
            x, y = self.positions[i]
            self.log.append(now, f"pos device={device_id} x={x:.6f} y={y:.6f}")


def _interaction_outcomes(
    draws: np.ndarray, subject_is_attacker: np.ndarray, p_positive_legit: float, p_negative_attacker: float
) -> np.ndarray:
    """Whether each experience is positive, elementwise over uniform draws.

    A legitimate subject gives a positive experience when the draw is below
    `p_positive_legit`, an attacker a negative one when it is below
    `p_negative_attacker`: the same `<` comparisons a scalar rule makes.
    """
    return np.where(subject_is_attacker, ~(draws < p_negative_attacker), draws < p_positive_legit)


def run_scenario(config: ScenarioConfig) -> RunResult:
    """Build and run one scenario to completion."""
    return SimulationEngine(config).run()
