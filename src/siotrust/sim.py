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

Proximity is computed on device indices, never as an n x n matrix: each
tick first takes one vector of `dx*dx + dy*dy` for every pair i < j, as a
full matrix would hold it. Every phase before movement reads that vector:
the interactions whole, nearest managers and attacker rows by pair position.

Managers are members under their own ids from the start, without
adjudication; a grant admits the presenting device, and members stay.
Epoch monitoring produces trust assessments, not verdicts, so a granted
device is never retroactively expelled and the false-positive story of a
run depends only on request adjudication.

Determinism contract: a config and a seed fix every byte of the event log.
All randomness flows from two seeded generators (a numpy PCG64 stream for
geometry and experience outcomes, a python Random for attacker forging),
iteration is always over sorted ids or index arrays in id order, and times are
computed as step * tick rather than accumulated. So are epochs: epoch k
runs at the first tick whose time reaches k * epoch_interval (within 1e-9),
every epoch due at that tick.
"""

from __future__ import annotations

import math
import numbers
import os
import random
from dataclasses import dataclass, fields, replace
from functools import cached_property
from typing import Any, Mapping, TextIO

import numpy as np

from .adversary import AttackBehavior, AttackerEngine
from .authn import AccessGate, DecisionRecord
from .community import (
    Community,
    SimilarityWeights,
    SimilarityColumns,
    pairwise_similarity,  # noqa: F401  S comes from SimilarityColumns; perfbench counts this name
    partition_by_similarity,
    sum_in_order,
)
from .dataset import FriendshipGraph, load_friendship_edges, sample_subgraph, synthetic_small_world
from .metrics import ConfusionCounters, MetricsReport
from .record import INT_FIELD_MAX, Channel, EventLog
from .social import (
    ConfigError,
    Context,
    Device,
    DeviceClass,
    Identity,
    IdentitySource,
    RelationType,
    classify_relation,
    context_for,
)
from .trust import (
    NO_RECOMMENDATIONS,
    AssessmentTable,
    OpinionStore,
    Recommendations,
    assess,
    exchange_recommendations,
    overall_trust_array,
)

SHARED_HOME = "home-0"

# ScenarioConfig's enum fields: `from_mapping` turns a string into its member, the config takes nothing else
_ENUM_FIELDS = (("relation", RelationType), ("behavior", AttackBehavior), ("identity_source", IdentitySource))
# the attacker fields a schedule or an identity source never reads
_UNREAD_FIELDS = {
    AttackBehavior.CHURN: ("pool_size", "idle_fraction"),
    AttackBehavior.MULTI: ("deny_streak_limit",),
    IdentitySource.STOLEN: ("forged_set_size",),
}


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
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "int" and (type(value) is bool or not isinstance(value, int)):
                raise ConfigError(f"{f.name} must be an integer: {value!r}")
            if f.type.startswith("float") and value is not None:
                if type(value) is bool or not isinstance(value, numbers.Real) or not math.isfinite(value):
                    raise ConfigError(f"{f.name} must be a finite number: {value!r}")
                object.__setattr__(self, f.name, float(value))  # so 30 and 30.0 write the same bytes
        for name, enum in _ENUM_FIELDS:
            if not isinstance(getattr(self, name), enum):
                raise ConfigError(f"{name} must be a {enum.__name__}: {getattr(self, name)!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative: {self.seed}")
        # the run files write it unquoted (see `record.check_unquoted`)
        if not isinstance(self.context_kind, str) or any(c in self.context_kind for c in ',"\r\n'):
            raise ConfigError(f"context_kind must be a string with no comma, quote or line break: {self.context_kind!r}")
        if self.friends_path is not None:
            if not isinstance(self.friends_path, str):
                raise ConfigError(f"friends_path must be a path string: {self.friends_path!r}")
            # so a replay from another directory reads the same file
            object.__setattr__(self, "friends_path", os.path.abspath(self.friends_path))
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
                     "request_retry_interval", "attempt_interval", "attacker_speed_factor"):
            value = getattr(self, name)
            if value <= 0:
                raise ConfigError(f"{name} must be positive: {value}")
        # a tick's index is a C int in the record, and a run does every epoch it spans
        for name, unit in (("tick", "ticks"), ("epoch_interval", "epochs")):
            count = self.duration / getattr(self, name)
            if count >= INT_FIELD_MAX + 0.5:
                raise ConfigError(f"duration / {name} gives {count:.3g} {unit}, above {INT_FIELD_MAX}")
        for name in ("p_positive_legit", "p_negative_attacker", "similarity_threshold",
                     "trust_threshold"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} out of range: {value}")
        for name in ("duplicate_request_penalty", "duplicate_epoch_penalty"):
            value = getattr(self, name)
            if not 0 <= value <= INT_FIELD_MAX:
                raise ConfigError(f"{name} out of range [0, {INT_FIELD_MAX}]: {value}")
        for name in ("shared_interest_count", "pool_size", "deny_streak_limit"):
            value = getattr(self, name)
            if value < 1:
                raise ConfigError(f"{name} must be at least 1: {value}")
        if self.forged_set_size < 0:
            raise ConfigError(f"forged_set_size must be non-negative: {self.forged_set_size}")
        if not 0.0 <= self.idle_fraction < 1.0:
            raise ConfigError(f"idle_fraction out of range [0, 1): {self.idle_fraction}")
        self.context()  # unknown kind or bad override fails here
        self.weights()

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

    def unread_fields(self) -> list[str]:
        """A note for each field set off its default that the configured schedule or identity source never reads."""
        defaults = {f.name: f.default for f in fields(self)}
        notes = []
        for mode, kind in ((self.behavior, "schedule"), (self.identity_source, "identity source")):
            for name in _UNREAD_FIELDS.get(mode, ()):
                if getattr(self, name) != defaults[name]:
                    notes.append(f"{name} is set to {getattr(self, name)!r}, but the {mode.value} {kind} never reads it")
        return notes

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
        for name, enum in _ENUM_FIELDS:
            if name in kwargs and not isinstance(kwargs[name], enum):
                try:
                    kwargs[name] = enum(str(kwargs[name]))
                except ValueError as exc:
                    choices = ", ".join(member.value for member in enum)
                    raise ConfigError(f"{exc}: {name} must be one of {choices}") from exc
        try:
            return cls(**kwargs)
        except (TypeError, ValueError) as exc:
            if isinstance(exc, ConfigError):
                raise
            raise ConfigError(str(exc)) from exc

    def with_seed(self, seed: int) -> "ScenarioConfig":
        return replace(self, seed=seed)


class _StaticSimilarity:
    """S by identity id, from rows of one similarity matrix.

    An id always presents the same sets: legitimate profiles are fixed at
    build time, a stolen identity copies its victim's sets verbatim, and
    fabricated ids are unique with sets frozen when forged. So the matrix of
    the legitimate devices, built at the first epoch, holds the row of each
    legitimate or stolen id. A fabricated id gets its row when first seen,
    from the identity its attacker pooled, which the engine puts in
    `fabricated` when it logs the fabrication.
    Both take their rows against one index of the legitimate devices' sets.
    A mean is `sum_in_order` over a row, so it equals `community_similarity`.
    """

    def __init__(self, weights: SimilarityWeights, legit: list[Device]) -> None:
        self.weights = weights
        self.legit = legit  # sorted by id: the matrix's rows and columns
        self._index = {device.id: k for k, device in enumerate(legit)}
        self.fabricated: dict[str, Identity] = {}
        self._rows: dict[str, np.ndarray] = {}  # fabricated id -> its row
        self._means: dict[tuple[str, int], float] = {}

    @cached_property
    def _columns(self) -> SimilarityColumns:
        return SimilarityColumns(self.legit, self.weights)

    @cached_property
    def matrix(self) -> np.ndarray:
        return self._columns.rows(self.legit)

    def pair(self, a: str, b: str) -> float:  # nothing in a run calls this; perfbench counts its calls
        return self.matrix[self._index[a], self._index[b]].item()

    def row(self, identity_id: str) -> np.ndarray:
        if identity_id in self._index:
            return self.matrix[self._index[identity_id]]
        if identity_id not in self._rows:
            self._rows[identity_id] = self._columns.rows([self.fabricated[identity_id]])[0]
        return self._rows[identity_id]

    def community_mean(self, identity_id: str, community: Community) -> float:
        """Same convention as community_similarity: self excluded, alone is 0."""
        key = (identity_id, community.id)
        found = self._means.get(key)
        if found is None:
            others = [self._index[m] for m in community.members if m != identity_id]
            found = sum_in_order(self.row(identity_id)[others].tolist()) / len(others) if others else 0.0
            self._means[key] = found
        return found


@dataclass
class RunResult:
    """Everything one run produced, in generation order.

    The log and the assessments are the columnar run record: they share
    one id table, keep each row's time as a float64, and hold no Python
    object per event or per assessment (see `record.EventLog` and
    `trust.AssessmentTable`).
    Iterating `assessments` builds its `TrustAssessment` rows on demand.
    A run that streamed its log and trust trace to files keeps only what
    those two files do not hold: its event count, and T and the split of
    each assessment.
    """

    config: ScenarioConfig
    log: EventLog
    decisions: list[DecisionRecord]
    assessments: AssessmentTable
    communities: list[Community]
    counters: ConfusionCounters

    def esr_splits(self) -> dict[str, list[float]]:
        """Trust samples for the empirical success-rate CDFs, by split, in row order."""
        return {split: self.assessments.split_trust(split).tolist() for split in self.assessments.splits}

    def summary(self) -> "SeedSummary":
        """What a batch keeps of this run once its files are written."""
        return SeedSummary(self.config, self.counters, len(self.decisions))


@dataclass(frozen=True)
class SeedSummary:
    """A run's config, confusion counters and decision count: what `cli.run_batch` returns per seed."""

    config: ScenarioConfig
    counters: ConfusionCounters
    decisions: int

    def metrics_report(self) -> MetricsReport:
        return MetricsReport(
            scenario=self.config.scenario_label,
            context=self.config.context_kind,
            relation=self.config.relation.value,
            seed=self.config.seed,
            counters=self.counters,
        )


class SimulationEngine:
    """Builds a world from a config and runs it to completion.

    Given open text files `events` and `trust`, the run streams its event
    log and its trust trace to them, a chunk at a time between ticks, and
    keeps no row of either once written (see `record.Spool`); the caller
    closes the files. Given a `writer.Writer` as both, it ships those rows
    to a writer process instead. Without them the run keeps its whole record.
    Given `friends`, the graph `config.friends_path` parses to, the engine
    samples its world from that instead of reading the file again.
    """

    def __init__(
        self,
        config: ScenarioConfig,
        events: TextIO | Channel | None = None,
        trust: TextIO | Channel | None = None,
        friends: FriendshipGraph | None = None,
    ) -> None:
        self.cfg = config
        self.context = config.context()
        self.rng = np.random.Generator(np.random.PCG64(config.seed))
        self.pyrng = random.Random(config.seed)
        self.log = EventLog(events)
        self.assessments = AssessmentTable(self.log.symbols, trust)
        self.store = OpinionStore(self.context.base_rate, self.log.symbols)
        self.communities: list[Community] = []
        self._community_of: dict[str, Community] = {}
        self.rec_cache: Recommendations = NO_RECOMMENDATIONS

        self._build_world(friends)
        self.similarity = _StaticSimilarity(config.weights(), self.legit_devices.tolist())
        code = self.log.symbols.code
        for device_id in self.ids:  # the table is empty: each device's index becomes its code
            code(device_id)
        self._outcomes = np.array([code("negative"), code("positive")], dtype=np.intc)

        self.gate = AccessGate(
            managers=self.managers,
            trust_threshold=config.trust_threshold,
            attacker_devices=self.attackers,
        )
        self._last_request = [-math.inf] * len(self.ids)  # by device index
        self._roster_size = -1  # len(gate.members) when the legitimate presentations were taken

    # -- world construction ---------------------------------------------------

    def _build_world(self, friends: FriendshipGraph | None) -> None:
        cfg = self.cfg
        graph = self._friendship_graph(cfg.legit_count, friends)
        ranked = sorted(graph.nodes())
        width = max(3, len(str(cfg.legit_count - 1)))
        name_of = {node: f"d{i:0{width}d}" for i, node in enumerate(ranked)}

        interests = {f"int-{k}" for k in range(cfg.shared_interest_count)}
        legit_ids = sorted(name_of.values())
        self.managers = frozenset(legit_ids[: cfg.manager_count])  # the gate and every attacker share it
        devices = [
            Device(
                id=device_id,
                device_class=DeviceClass.MANAGER if device_id in self.managers else DeviceClass.SUBORDINATE,
                friends={name_of[n] for n in graph.neighbors(node)},
                interests=set(interests),
                owner=f"own-{device_id}",
                batch=f"bat-{device_id}",
                home=SHARED_HOME,
                speed=cfg.speed,
            )
            for node, device_id in name_of.items()
        ]

        awidth = max(2, len(str(max(cfg.attacker_count - 1, 0))))
        self.attackers = frozenset(f"adv{i:0{awidth}d}" for i in range(cfg.attacker_count))  # the gate shares it
        devices.extend(
            Device(
                id=attacker_id,
                device_class=DeviceClass.SUBORDINATE,
                owner=f"own-{attacker_id}",
                batch=f"bat-{attacker_id}",
                speed=cfg.speed * cfg.attacker_speed_factor,
            )
            for attacker_id in self.attackers
        )
        devices.sort(key=lambda d: d.id)
        self.ids: list[str] = [d.id for d in devices]
        n = len(self.ids)
        self.attacker_mask = np.array([i in self.attackers for i in self.ids])
        self.legit_mask = ~self.attacker_mask
        self.manager_mask = np.array([i in self.managers for i in self.ids])
        self.manager_indices = np.nonzero(self.manager_mask)[0]
        self.attacker_indices = np.nonzero(self.attacker_mask)[0]
        self.legit_ids = legit_ids

        lows = np.zeros(2)
        highs = np.array([cfg.area_width, cfg.area_height])
        self.positions = self.rng.uniform(lows, highs, size=(n, 2))
        self.targets = self.rng.uniform(lows, highs, size=(n, 2))
        self.devices = np.empty(n, dtype=object)  # the one device table, by index; it takes index arrays
        self.devices[:] = devices
        self.legit_devices = self.devices[self.legit_mask]
        self.step_lengths = np.array([d.speed for d in devices]) * cfg.tick  # metres moved per tick
        # attackers x legitimate devices: whom each attacker has had in radius; its engine holds its row
        self.observed = np.zeros((len(self.attacker_indices), len(self.legit_devices)), dtype=bool)
        self.engines = [  # in `attacker_indices` order
            AttackerEngine(device, cfg, self.managers, self.pyrng, self.legit_devices, row)
            for device, row in zip(self.devices[self.attacker_indices], self.observed)
        ]
        self._area_low = lows
        self._area_high = highs
        self.last_interaction = np.full(n * (n - 1) // 2, -math.inf)  # by pair, as `_pairs` orders them

    def _friendship_graph(self, size: int, friends: FriendshipGraph | None) -> FriendshipGraph:
        if self.cfg.friends_path is not None:
            full = load_friends(self.cfg.friends_path) if friends is None else friends
            if full.node_count < size:
                raise ConfigError(
                    f"friendship file has {full.node_count} nodes, scenario needs {size}"
                )
            return sample_subgraph(full, size, self.cfg.seed)
        return synthetic_small_world(size, self.cfg.seed)

    # -- static lookups ---------------------------------------------------------

    def _request_similarity(self, identity_id: str, manager_id: str) -> float:
        """A request's S: the presented identity against the manager's community.

        Before the first epoch a manager has no community yet, and S is the
        base rate, as vacuous D and R are.
        """
        community = self._community_of.get(manager_id)
        if community is None:
            return self.store.base_rate
        return self.similarity.community_mean(identity_id, community)

    # -- run loop -----------------------------------------------------------------

    def run(self) -> RunResult:
        cfg = self.cfg
        for manager in sorted(self.managers):  # the gate's first members
            self.log.append(0.0, "bootstrap", manager)

        self._pending = self._subordinates.tolist()
        steps = int(round(cfg.duration / cfg.tick))
        epoch = 1  # the next epoch's number; see the module docstring
        for step in range(steps):
            now = step * cfg.tick
            # only `_move` moves a device: every phase before it reads this one pair vector
            sq_dist = self._squared_distances()
            while now + 1e-9 >= epoch * cfg.epoch_interval:
                self._epoch(now, sq_dist)
                epoch += 1
            self._legit_requests(now, sq_dist)
            self._attacker_requests(now, sq_dist)
            self._interactions(now, sq_dist)
            self._move()
            self.log.spill()
            self.assessments.spill()
        self.log.flush()
        self.assessments.flush()

        counters = ConfusionCounters.from_requests(self.gate.decisions)
        return RunResult(
            config=cfg,
            log=self.log,
            decisions=self.gate.decisions,
            assessments=self.assessments,
            communities=self.communities,
            counters=counters,
        )

    # -- distances ---------------------------------------------------------------

    @cached_property
    def _pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """(i, j) of every pair i < j in row-major order: the upper triangle, built at the first tick."""
        return np.triu_indices(len(self.ids), k=1)

    def _squared_distances(self) -> np.ndarray:
        """The squared distance of every pair in `_pairs`, one vector.

        Entry k is `dx*dx + dy*dy` with `dx = x[i] - x[j]`, the entry (i, j)
        of the full matrix, bit for bit.
        """
        ii, jj = self._pairs
        delta = self.positions.take(ii, axis=0) - self.positions.take(jj, axis=0)
        dx = delta[:, 0]
        dy = delta[:, 1]
        return dx * dx + dy * dy

    @cached_property
    def _attacker_pairs(self) -> np.ndarray:
        """The `_pairs` position of each (attacker, legitimate device), attackers x legitimate devices: static."""
        return _pair_position(self.attacker_indices[:, None], np.flatnonzero(self.legit_mask), len(self.ids))

    def _nearest_managers(self, sq_dist: np.ndarray, devices: np.ndarray) -> np.ndarray:
        """The index of each non-manager device's nearest manager; equal distances go to the first id."""
        managers = self.manager_indices
        return managers[np.argmin(sq_dist[_pair_position(devices[:, None], managers, len(self.ids))], axis=1)]

    def _attacker_ranges(self, sq_dist: np.ndarray) -> list[list[Device]]:
        """Per attacker, in `attacker_indices` order: the legitimate devices in radius.

        Nearest first, ties by id, managers among them, from the attackers'
        rows of the pair vector and one sort on (attacker, distance, index).
        Each attacker's row of `observed` gains the devices in its list.
        """
        block = sq_dist[self._attacker_pairs]
        in_radius = block <= self.cfg.interaction_radius**2
        self.observed |= in_radius
        rows, columns = np.nonzero(in_radius)
        order = np.lexsort((columns, block[rows, columns], rows))
        in_range = self.legit_devices[columns[order]].tolist()
        bounds = np.searchsorted(rows[order], np.arange(len(self.attacker_indices) + 1)).tolist()
        return [in_range[start:stop] for start, stop in zip(bounds, bounds[1:])]

    # -- request phases -------------------------------------------------------

    @cached_property
    def _subordinates(self) -> np.ndarray:
        """Indices of the legitimate devices that are not managers, in id order."""
        return np.flatnonzero(self.legit_mask & ~self.manager_mask)

    def _legit_requests(self, now: float, sq_dist: np.ndarray) -> None:
        """Requests from the subordinates not on the roster, each at most once per retry interval.

        The pending list only shrinks: an identity never leaves the roster,
        and the only identity a request in this loop admits is its own.
        """
        members, ids, last = self.gate.members, self.ids, self._last_request
        self._pending = [i for i in self._pending if ids[i] not in members]
        due = [i for i in self._pending if now - last[i] >= self.cfg.request_retry_interval]
        if due:  # most ticks have none, and the gather costs more than the two loops
            for device, manager in zip(due, self._nearest_managers(sq_dist, np.array(due)).tolist()):
                self._adjudicate(now, ids[device], ids[device], ids[manager])
                last[device] = now

    def _attacker_requests(self, now: float, sq_dist: np.ndarray) -> None:
        cfg = self.cfg
        for engine, in_range in zip(self.engines, self._attacker_ranges(sq_dist)):
            held = len(engine.pool)
            picked = engine.attempt(now, in_range)
            self._log_acquisitions(engine, held, now)
            if picked is None:
                continue
            identity, target = picked
            attacker_id = engine.device.id
            holders = self.gate.members.get(identity.id, ())
            if holders and attacker_id not in holders:
                # Presented identity is already on the roster under another
                # device; the manager books hard negative evidence before
                # adjudicating.
                self.store.record_experience(target.id, identity.id, "negative", cfg.duplicate_request_penalty)
                self.log.append(
                    now, "duplicate", identity.id, attacker_id, target.id, cfg.duplicate_request_penalty
                )
            decision = self._adjudicate(now, identity.id, attacker_id, target.id)
            held = len(engine.pool)
            engine.notify(decision.granted, in_range)
            self._log_acquisitions(engine, held, now)

    def _adjudicate(self, now: float, subject: str, presenter: str, manager: str) -> DecisionRecord:
        """Assess `presenter`'s request for `subject` at `manager`, let the gate decide on its T, and log it.

        D, S and R are gathered as in monitoring. The row is split internal
        when the presented identity is already on the roster. A grant has
        admitted the presenter; its `admit` line names the identity's other
        holders, an identity conflict.
        """
        find = self.log.symbols.find
        assessment = assess(
            now, manager, subject, self.cfg.relation,
            self.store.direct_trust(manager, subject),
            self._request_similarity(subject, manager),
            self.rec_cache.received(find(manager), [find(subject)], self.store.base_rate)[0].item(),
            "internal" if subject in self.gate.members else "external",
        )
        decision = self.gate.evaluate(now, subject, presenter, manager, assessment.trust)
        self.assessments.append(*assessment)
        self.log.append(
            now, "decision", manager, subject, presenter,
            "attacker" if decision.attacker else "legit", decision.verdict.value, decision.trust, assessment.split,
        )
        if decision.granted:
            conflicts = "|".join(sorted(h for h in self.gate.members[subject] if h != presenter)) or "-"
            self.log.append(now, "admit", subject, manager, presenter, conflicts)
        return decision

    def _log_acquisitions(self, engine: AttackerEngine, held: int, now: float) -> None:
        """Log the identities `engine` acquired since its pool held `held`.

        The pool only grows, by one identity per acquisition, so these are
        the pool's entries from `held` on, and the run's identity source is
        theirs. A stolen identity's id is its victim's id; a fabricated one
        goes to `similarity`, which takes its S row from it. Both happen
        before the identity is first presented.
        """
        for identity in engine.pool[held:]:
            if self.cfg.identity_source is IdentitySource.STOLEN:
                self.log.append(now, "theft", engine.device.id, identity.id, identity.id)
            else:
                self.similarity.fabricated[identity.id] = identity
                self.log.append(now, "fabricate", engine.device.id, identity.id)

    # -- interactions and movement ----------------------------------------------

    def _member_presentation(self) -> np.ndarray:
        """The id-table code of the identity each device acts under as a member, -1 if none.

        A legitimate device is a member under its own id; an attacker device
        is one while it presents an identity the roster holds under it.
        Attacker device ids are never identity ids. The roster only grows,
        so the legitimate part is retaken only when its size changes.
        """
        members = self.gate.members
        if len(members) != self._roster_size:
            self._roster_size = len(members)
            self._legit_presentation = np.where([i in members for i in self.ids], np.arange(len(self.ids)), -1)
        codes = self._legit_presentation.copy()
        for index, engine in zip(self.attacker_indices.tolist(), self.engines):
            presented = engine.presented
            holders = members.get(presented.id, ()) if presented is not None else ()
            codes[index] = self.log.symbols.code(presented.id) if engine.device.id in holders else -1
        return codes

    def _interactions(self, now: float, sq_dist: np.ndarray) -> None:
        """Service experiences between members in radius, each pair once per period.

        `sq_dist` is the pair vector of `_squared_distances`. Pairs i < j in
        row-major order, found among the pairs in radius and then filtered
        by membership and due time: the same pairs, in the same order, as
        filtering the upper triangle of the whole matrix. The tick's
        experiences, i's of j then j's of i for each pair, go to the opinion
        store as id-table codes in one batched write and to the log in one
        extend.
        """
        cfg = self.cfg
        identity_codes = self._member_presentation()
        member = identity_codes >= 0
        near = np.flatnonzero(sq_dist <= cfg.interaction_radius**2)
        ii, jj = self._pairs[0][near], self._pairs[1][near]
        keep = member[ii] & member[jj] & (now - self.last_interaction[near] >= cfg.interaction_period)
        near, ii, jj = near[keep], ii[keep], jj[keep]
        if len(ii) == 0:
            return
        draws = self.rng.random((len(ii), 2)).ravel()
        self.last_interaction[near] = now
        # two experiences per pair, in log order: i's of j (draw 0), j's of i (draw 1)
        evaluators = np.column_stack([ii, jj]).ravel()
        subjects = np.column_stack([jj, ii]).ravel()
        positive = _interaction_outcomes(
            draws, self.attacker_mask[subjects], cfg.p_positive_legit, cfg.p_negative_attacker
        )
        subject_codes = identity_codes[subjects]  # a device index is its own code
        self.store.record_coded(evaluators, subject_codes, positive)
        self.log.extend(now, "exp", evaluators, subject_codes, self._outcomes[positive.view(np.uint8)])

    def _move(self) -> None:
        delta = self.targets - self.positions
        dist = np.hypot(delta[:, 0], delta[:, 1])
        arrive = dist <= self.step_lengths
        moving = ~arrive
        if moving.any():
            scale = (self.step_lengths[moving] / dist[moving])[:, None]
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
        if not self.communities:
            self.communities = partition_by_similarity(
                self.legit_ids, self.similarity.matrix, self.context, self.cfg.similarity_threshold
            )
            self._community_of = {m: c for c in self.communities for m in c.members}
        for community in self.communities:
            self.log.append(now, "community", community.id, len(community.members))

    def _duplicate_scan(self, now: float) -> None:
        """Penalize roster identities held by more than one device.

        The penalty lands at every manager so an already admitted duplicate
        cannot keep farming vacuous first impressions from managers it has
        not met yet.
        """
        penalty = self.cfg.duplicate_epoch_penalty
        managers = self.manager_indices
        duplicated = [(i, held) for i, held in sorted(self.gate.members.items()) if len(held) > 1]
        if penalty and duplicated:  # zero units write nothing
            code = self.log.symbols.code
            self.store.record_coded(
                np.tile(managers, len(duplicated)),
                np.repeat([code(identity_id) for identity_id, _ in duplicated], len(managers)),
                np.zeros(len(managers) * len(duplicated), dtype=bool),
                penalty,
            )
        for identity_id, presenters in duplicated:
            self.log.append(now, "duplicate-scan", identity_id, "|".join(sorted(presenters)), penalty)

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
        routes = list(self._manager_routes)
        devices = self.devices
        nearest = self._nearest_managers(sq_dist, self._subordinates)
        for device, manager in zip(self._subordinates.tolist(), nearest.tolist()):
            if classify_relation(devices[manager], devices[device]) is relation:
                routes.append((device, [manager]))
        self.rec_cache = exchange_recommendations(self.store, routes)

    @cached_property
    def _manager_routes(self) -> list[tuple[int, list[int]]]:
        """(manager, managers it broadcasts to), as indices: static, so built at the first epoch only."""
        devices, managers = self.devices, self.manager_indices.tolist()
        return [
            (s, [r for r in managers if r != s and classify_relation(devices[r], devices[s]) is self.cfg.relation])
            for s in managers
        ]

    def _monitor_members(self, now: float) -> None:
        """Assess every member at every manager, without verdicts.

        These assessments feed the trust trace and the in-network side of
        the ESR split. Membership itself is not revisited. Each manager's
        D, S and R are taken over the sorted members at once, blended as
        arrays and appended to the assessment columns: D is one gather of
        the store's manager x member cells, never the whole store, S is
        computed once per community, since it does not depend on the
        manager, and R is one read of the manager's row of the exchange.
        Members and managers go by id-table code; a manager's index is its
        code.
        """
        base = self.store.base_rate
        code = self.log.symbols.code
        members = sorted(self.gate.members)
        codes = np.array([code(s) for s in members], dtype=np.intc)
        direct = self.store.direct_trust_matrix(self.manager_indices, codes)
        similarity: dict[int, np.ndarray] = {}  # community id -> S over all members
        for evaluator, direct_row in zip(self.manager_indices.tolist(), direct):
            manager = self.devices[evaluator]
            community = self._community_of[manager.id]
            if community.id not in similarity:
                similarity[community.id] = np.array([self.similarity.community_mean(s, community) for s in members])
            others = np.flatnonzero(codes != evaluator)
            d, s = direct_row[others], similarity[community.id][others]
            r = self.rec_cache.received(evaluator, codes[others], base)
            t = overall_trust_array(d, s, r, self.cfg.relation)
            self.assessments.extend(now, manager.id, codes[others], self.cfg.relation, d, s, r, t, "internal")

    def _snapshot_positions(self, now: float) -> None:
        self.log.extend(now, "pos", np.arange(len(self.ids)), self.positions[:, 0], self.positions[:, 1])


def _pair_position(i: np.ndarray, j: np.ndarray, n: int) -> np.ndarray:
    """The position in `_pairs` of each pair (i, j) of n devices, i != j in either order; shapes broadcast."""
    low, high = np.minimum(i, j), np.maximum(i, j)  # the upper triangle's rows before `low` hold low*(2n-low-1)/2
    return low * (2 * n - low - 1) // 2 + high - low - 1


def _interaction_outcomes(
    draws: np.ndarray, subject_is_attacker: np.ndarray, p_positive_legit: float, p_negative_attacker: float
) -> np.ndarray:
    """Whether each experience is positive, elementwise over uniform draws.

    A legitimate subject gives a positive experience when the draw is below
    `p_positive_legit`, an attacker a negative one when it is below
    `p_negative_attacker`: the same `<` comparisons a scalar rule makes.
    """
    return np.where(subject_is_attacker, ~(draws < p_negative_attacker), draws < p_positive_legit)


def load_friends(path: str) -> FriendshipGraph:
    """The friendship file at `path`; a malformed line, or bytes that are not UTF-8, raise `ConfigError`."""
    try:
        return load_friendship_edges(path)
    except ValueError as exc:
        raise ConfigError(f"friendship file {path!r}: {exc}") from exc


def run_scenario(config: ScenarioConfig) -> RunResult:
    """Build and run one scenario to completion."""
    return SimulationEngine(config).run()
