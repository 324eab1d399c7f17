import csv
import random

import numpy as np
import pytest

from siotrust.adversary import (
    AttackBehavior,
    AttackerEngine,
    AttackerProfile,
    write_attack_csv,
)
from siotrust.authn import DecisionRecord, Verdict
from siotrust.cli import run_batch
from siotrust.sim import ScenarioConfig, run_scenario
from siotrust.social import (
    ConfigError,
    Device,
    DeviceClass,
    IdentitySource,
)


def build_world(manager_count=2, victim_count=3):
    managers = [Device(id=f"m{i}", device_class=DeviceClass.MANAGER, home="h") for i in range(manager_count)]
    victims = [
        Device(
            id=f"v{i}",
            device_class=DeviceClass.SUBORDINATE,
            home="h",
            friends={f"v{(i + 1) % victim_count}"},
            interests={f"hobby-{i}"},
        )
        for i in range(victim_count)
    ]
    attacker = Device(id="a0", device_class=DeviceClass.SUBORDINATE)
    return frozenset(m.id for m in managers), managers, victims, attacker


def make_engine(manager_ids, attacker, seed=7, observable=(), **kw):
    """An engine whose observation row, unset, spans `observable`."""
    row = np.zeros(len(observable), dtype=bool)
    return AttackerEngine(attacker, AttackerProfile(**kw), manager_ids, random.Random(seed), list(observable), row)


def observe(engine, devices):
    """Mark `devices` in the engine's observation row, as the simulation does for those in radius."""
    ids = {d.id for d in devices}
    engine.observed |= [d.id in ids for d in engine.observable]


class TestProfile:
    def test_defaults_hold_together(self):
        profile = AttackerProfile()
        assert profile.behavior is AttackBehavior.CHURN
        assert profile.identity_source is IdentitySource.STOLEN

    @pytest.mark.parametrize(
        "kw",
        [
            {"identity_source": IdentitySource.LEGITIMATE},
            {"pool_size": 0},
            {"attempt_interval": 0.0},
            {"deny_streak_limit": 0},
            {"idle_fraction": 1.0},
            {"idle_fraction": -0.1},
            {"speed_factor": 0.0},
            {"forged_set_size": -1},
        ],
    )
    def test_bad_profiles_rejected(self, kw):
        with pytest.raises(ConfigError):
            AttackerProfile(**kw)


class TestTheft:
    def test_steal_copies_the_presented_profile(self):
        manager_ids, _, victims, attacker = build_world()
        engine = make_engine(manager_ids, attacker)
        stolen = engine.steal_identity(victims[0])
        assert stolen.id == "v0"
        assert stolen.source is IdentitySource.STOLEN
        assert stolen.friends == victims[0].friends
        assert stolen.friends is not victims[0].friends
        assert engine.pool == [stolen]


class TestFabrication:
    def test_ids_count_up_per_attacker(self):
        manager_ids, _, _, attacker = build_world()
        engine = make_engine(manager_ids, attacker)
        ids = [engine.fabricate_identity().id for _ in range(3)]
        assert ids == ["fab-a0-0", "fab-a0-1", "fab-a0-2"]

    def test_empty_forgery_without_observation(self):
        manager_ids, _, _, attacker = build_world()
        engine = make_engine(manager_ids, attacker, forged_set_size=3)
        minted = engine.fabricate_identity()
        assert minted.friends == set()
        assert minted.interests == set()
        assert minted.source is IdentitySource.FABRICATED

    def test_forged_sets_come_from_observation(self):
        manager_ids, managers, victims, attacker = build_world(victim_count=4)
        engine = make_engine(manager_ids, attacker, forged_set_size=2, observable=victims + managers)
        observe(engine, victims[:3])  # v3 is observable but never in radius
        minted = engine.fabricate_identity()
        assert len(minted.friends) == 2
        assert minted.friends <= {"v0", "v1", "v2"}
        assert len(minted.interests) == 2
        assert minted.interests <= {"hobby-0", "hobby-1", "hobby-2"}

    def test_forgery_is_seed_stable(self):
        draws = []
        for _ in range(2):
            manager_ids, _, victims, attacker = build_world()
            engine = make_engine(manager_ids, attacker, seed=11, forged_set_size=2, observable=victims)
            observe(engine, victims)
            minted = engine.fabricate_identity()
            draws.append((sorted(minted.friends), sorted(minted.interests)))
        assert draws[0] == draws[1]

    def test_zero_size_forges_nothing(self):
        manager_ids, _, victims, attacker = build_world()
        engine = make_engine(manager_ids, attacker, forged_set_size=0, observable=victims)
        observe(engine, victims)
        minted = engine.fabricate_identity()
        assert minted.friends == set() and minted.interests == set()


class TestChurnSchedule:
    def test_first_attempt_steals_nearest_victim(self):
        manager_ids, managers, victims, attacker = build_world()
        engine = make_engine(manager_ids, attacker)
        result = engine.attempt(0.0, victims + managers)
        assert result is not None
        identity, target = result
        assert identity.id == "v0"
        assert target.id == "m0"
        assert engine.presented is identity

    def test_attempt_interval_throttles(self):
        manager_ids, managers, victims, attacker = build_world()
        engine = make_engine(manager_ids, attacker, attempt_interval=10.0)
        assert engine.attempt(0.0, victims + managers) is not None
        assert engine.attempt(5.0, victims + managers) is None
        follow_up = engine.attempt(10.0, victims + managers)
        assert follow_up is not None

    def test_walks_untried_managers_with_one_identity(self):
        manager_ids, managers, victims, attacker = build_world(manager_count=3)
        engine = make_engine(manager_ids, attacker)
        seen = []
        for t in (0.0, 10.0, 20.0):
            identity, target = engine.attempt(t, victims + managers)
            seen.append((identity.id, target.id))
        assert seen == [("v0", "m0"), ("v0", "m1"), ("v0", "m2")]

    def test_rotates_after_every_manager_tried(self):
        manager_ids, managers, victims, attacker = build_world(manager_count=2)
        engine = make_engine(manager_ids, attacker)
        engine.attempt(0.0, victims + managers)
        engine.attempt(10.0, victims + managers)
        identity, target = engine.attempt(20.0, victims + managers)
        # fresh victim, manager slate wiped
        assert identity.id == "v1"
        assert target.id == "m0"

    def test_deny_streak_swaps_the_identity(self):
        manager_ids, managers, victims, attacker = build_world()
        engine = make_engine(manager_ids, attacker, deny_streak_limit=3)
        engine.attempt(0.0, victims + managers)
        assert engine.presented.id == "v0"
        for _ in range(3):
            engine.notify(False, victims)
        assert engine.presented.id == "v1"
        # the slate reset lets it revisit the first manager
        identity, target = engine.attempt(10.0, victims + managers)
        assert (identity.id, target.id) == ("v1", "m0")

    def test_grant_clears_the_streak(self):
        manager_ids, managers, victims, attacker = build_world()
        engine = make_engine(manager_ids, attacker, deny_streak_limit=2)
        engine.attempt(0.0, victims + managers)
        engine.notify(False, victims)
        engine.notify(True, victims)
        engine.notify(False, victims)
        assert engine.presented.id == "v0"

    def test_cycles_pool_when_no_victims_left(self):
        manager_ids, managers, victims, attacker = build_world(victim_count=2)
        engine = make_engine(manager_ids, attacker, deny_streak_limit=1)
        engine.attempt(0.0, victims + managers)
        engine.notify(False, victims)  # steals v1
        engine.notify(False, victims)  # nothing fresh, cycles back
        assert engine.presented.id == "v0"
        assert len(engine.pool) == 2

    def test_nothing_to_present_yields_none(self):
        manager_ids, _, _, attacker = build_world()
        engine = make_engine(manager_ids, attacker)
        assert engine.attempt(0.0, []) is None


class TestMultiSchedule:
    def test_pool_grows_one_per_call(self):
        manager_ids, managers, victims, attacker = build_world(victim_count=3)
        engine = make_engine(
            manager_ids, attacker, behavior=AttackBehavior.MULTI, pool_size=3
        )
        for step, expected in enumerate([1, 2, 3, 3]):
            engine.attempt(float(step), victims + managers)
            assert len(engine.pool) == expected

    def test_round_robin_over_the_active_slice(self):
        manager_ids, managers, _, attacker = build_world()
        engine = make_engine(
            manager_ids,
            attacker,
            behavior=AttackBehavior.MULTI,
            identity_source=IdentitySource.FABRICATED,
            pool_size=8,
            idle_fraction=2 / 3,
            attempt_interval=10.0,
        )
        for _ in range(8):
            engine.fabricate_identity()
        presented = []
        for t in (0.0, 10.0, 20.0, 30.0):
            identity, target = engine.attempt(t, managers)
            presented.append(identity.id)
            assert target.id == "m0"  # always the nearest manager
        # floor(8 * 1/3) = 2 active identities, alternating
        assert presented == ["fab-a0-0", "fab-a0-1", "fab-a0-0", "fab-a0-1"]

    def test_throttle_and_empty_range(self):
        manager_ids, managers, victims, attacker = build_world()
        engine = make_engine(manager_ids, attacker, behavior=AttackBehavior.MULTI)
        assert engine.attempt(0.0, victims + managers) is not None
        assert engine.attempt(4.0, victims + managers) is None
        assert engine.attempt(20.0, victims) is None

    def test_notify_is_inert(self):
        manager_ids, managers, victims, attacker = build_world()
        engine = make_engine(
            manager_ids, attacker, behavior=AttackBehavior.MULTI, deny_streak_limit=1
        )
        engine.attempt(0.0, victims + managers)
        before = engine.presented
        engine.notify(False, victims)
        assert engine.presented is before


class TestInRange:
    """An attempt is handed one list: the devices in radius, nearest first."""

    def test_attempt_forges_from_the_row_not_the_list(self):
        # the simulation observes; an attempt reads only what the row marks
        manager_ids, managers, victims, attacker = build_world()
        engine = make_engine(manager_ids, attacker, identity_source=IdentitySource.FABRICATED, forged_set_size=3,
                             observable=victims + managers)
        observe(engine, victims[:1])
        identity, _ = engine.attempt(0.0, victims + managers)
        assert engine.observed.tolist() == [True, False, False, False, False]
        assert (identity.friends, identity.interests) == ({"v0"}, {"hobby-0"})

    @pytest.mark.parametrize("behavior", list(AttackBehavior))
    def test_targets_the_nearest_device_in_the_manager_set(self, behavior):
        # m0 is a manager-class device outside the engine's manager set, and v0 is nearest of all
        manager_ids, managers, victims, attacker = build_world(manager_count=3)
        m0, m1, m2 = managers
        engine = make_engine(manager_ids - {"m0"}, attacker, behavior=behavior)
        in_range = [victims[0], m0, victims[1], m2, m1]
        targets = [engine.attempt(t, in_range)[1].id for t in (0.0, 10.0, 20.0)]
        # churn walks the managers it has not tried, then starts over; multi keeps the nearest
        assert targets == (["m2", "m1", "m2"] if behavior is AttackBehavior.CHURN else ["m2"] * 3)


def test_attack_csv(tmp_path):
    decisions = [
        DecisionRecord(10.0, "m1", "v3", True, Verdict.DENY, 0.4, presenter="a0"),
        DecisionRecord(10.0, "m0", "v1", False, Verdict.GRANT, 0.7, presenter="v1"),
    ]
    path = tmp_path / "attacks.csv"
    write_attack_csv(decisions, AttackerProfile(), path)
    header, row = list(csv.reader(path.read_text().splitlines()))
    assert header == ["time", "attacker_device", "identity", "source", "behavior", "target_manager"]
    assert row == ["10.0", "a0", "v3", "stolen", "churn", "m1"]


@pytest.mark.parametrize("behavior", ["churn", "multi"])
@pytest.mark.parametrize("source", ["stolen", "fabricated"])
def test_attack_csv_is_the_attacker_decisions(tmp_path, behavior, source):
    config = ScenarioConfig.from_mapping({
        "node_count": 30, "duration": 120.0, "behavior": behavior, "identity_source": source,
        "deny_streak_limit": 1, "forged_set_size": 3 if source == "fabricated" else 0,
    })
    run_batch(config, [1], tmp_path)
    decision_lines = [
        dict(field.split("=", 1) for field in line.split()[2:])
        | {"t": line.split()[0].removeprefix("t=")}
        for line in (tmp_path / "events-s1.log").read_text().splitlines()
        if line.split()[1] == "decision"
    ]
    with open(tmp_path / "attacks-s1.csv", encoding="utf-8", newline="") as handle:
        rows = list(csv.DictReader(handle))

    attacker_lines = [d for d in decision_lines if d["kind"] == "attacker"]
    assert rows
    assert [(r["time"], r["attacker_device"], r["identity"], r["target_manager"]) for r in rows] == [
        (d["t"], d["presenter"], d["identity"], d["manager"]) for d in attacker_lines
    ]
    assert {(r["source"], r["behavior"]) for r in rows} == {(source, behavior)}
    decisions = run_scenario(config).decisions
    assert [d.presenter for d in decisions] == [d["presenter"] for d in decision_lines]
