import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, strategies as st

from siotrust.adversary import AttackBehavior
from siotrust.metrics import CHUNK_LINES, ConfusionCounters
from siotrust.sim import (
    SHARED_HOME,
    EventLog,
    ScenarioConfig,
    SimulationEngine,
    _interaction_outcomes,
    run_scenario,
)
from siotrust.social import ConfigError, IdentitySource, RelationType

SMALL = dict(node_count=30, duration=60.0, seed=5)


@pytest.fixture(scope="module")
def small_run():
    engine = SimulationEngine(ScenarioConfig(**SMALL))
    return engine, engine.run()


class TestScenarioConfig:
    def test_default_head_counts(self):
        cfg = ScenarioConfig()
        assert (cfg.attacker_count, cfg.legit_count, cfg.manager_count) == (10, 90, 20)

    def test_small_head_counts(self):
        cfg = ScenarioConfig(**SMALL)
        assert (cfg.attacker_count, cfg.legit_count, cfg.manager_count) == (3, 27, 6)

    def test_scenario_label(self):
        cfg = ScenarioConfig(identity_source=IdentitySource.FABRICATED)
        assert cfg.scenario_label == "churn-fabricated"

    @pytest.mark.parametrize(
        "kw",
        [
            {"node_count": 1},
            {"attacker_fraction": 1.5},
            {"attacker_fraction": -0.1},
            {"node_count": 30, "attacker_fraction": 0.98},
            {"manager_fraction": 1.0},
            {"context_kind": "volcano"},
            {"base_rate": 1.7},
            {"duration": 0.0},
            {"tick": -1.0},
            {"trust_threshold": 1.2},
            {"p_positive_legit": -0.5},
            {"duplicate_request_penalty": -1},
            {"shared_interest_count": 0},
            {"friend_weight": 0.9},
            {"pool_size": 0},
            {"idle_fraction": 1.0},
        ],
    )
    def test_bad_configs_rejected(self, kw):
        with pytest.raises(ConfigError):
            ScenarioConfig(**kw)

    def test_base_rate_override_feeds_the_context(self):
        cfg = ScenarioConfig(context_kind="park", base_rate=0.35)
        assert cfg.context().base_rate == 0.35

    def test_mapping_round_trip(self):
        cfg = ScenarioConfig(
            node_count=40,
            behavior=AttackBehavior.MULTI,
            identity_source=IdentitySource.FABRICATED,
            relation=RelationType.SOR,
            seed=9,
        )
        mapping = cfg.to_mapping()
        assert mapping["behavior"] == "multi"
        assert mapping["identity_source"] == "fabricated"
        assert mapping["relation"] == "sor"
        assert ScenarioConfig.from_mapping(mapping) == cfg

    def test_unknown_mapping_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown scenario parameter"):
            ScenarioConfig.from_mapping({"node_cuont": 50})

    def test_mapping_type_junk_becomes_config_error(self):
        for junk in ({"node_count": "thirty"}, {"behavior": "nope"}, {"relation": 7}, {"identity_source": "legit"}):
            with pytest.raises(ConfigError):
                ScenarioConfig.from_mapping(junk)

    def test_with_seed(self):
        cfg = ScenarioConfig(**SMALL)
        reseeded = cfg.with_seed(99)
        assert reseeded.seed == 99
        assert reseeded == ScenarioConfig(node_count=30, duration=60.0, seed=99)


class TestEventLog:
    def test_lines_carry_repr_times(self):
        log = EventLog()
        log.append(0.0, "hello")
        log.append(12.5, "again")
        assert log.lines == ["t=0.0 hello", "t=12.5 again"]
        assert log.text() == "t=0.0 hello\nt=12.5 again\n"
        assert len(log) == 2

    def test_equal_times_are_fine_backwards_is_not(self):
        log = EventLog()
        log.append(3.0, "a")
        log.append(3.0, "b")
        with pytest.raises(ValueError, match="backwards"):
            log.append(2.9, "c")

    def test_write_round_trip(self, tmp_path):
        log = EventLog()
        log.append(1.0, "x")
        path = tmp_path / "events.log"
        log.write(path)
        assert path.read_text() == log.text()

    def test_backwards_after_a_run_of_equal_times(self):
        log = EventLog()
        now = 7.0
        for _ in range(3):
            log.append(now, "same object")
        log.append(float("7.0"), "equal, another object")
        with pytest.raises(ValueError, match="backwards: 6.5 after 7.0"):
            log.append(6.5, "late")
        assert log.lines == ["t=7.0 same object"] * 3 + ["t=7.0 equal, another object"]

    def test_equal_times_keep_their_own_text(self):
        log = EventLog()
        for time in (0.0, -0.0, 0.0, 30, 30.0, 30):
            log.append(time, "x")
        assert log.lines == ["t=0.0 x", "t=-0.0 x", "t=0.0 x", "t=30 x", "t=30.0 x", "t=30 x"]

    def test_first_line_at_zero_is_unchanged(self, small_run):
        _, result = small_run
        assert result.log.lines[0] == "t=0.0 bootstrap manager=d000"

    def test_write_equals_text_across_chunks(self, tmp_path):
        log = EventLog()
        for k in range(2 * CHUNK_LINES + 1):
            log.append(float(k // 3), f"line {k}")
        log.write(tmp_path / "events.log")
        assert (tmp_path / "events.log").read_text() == log.text()
        EventLog().write(tmp_path / "empty.log")
        assert (tmp_path / "empty.log").read_bytes() == b""


class TestWorldBuild:
    def test_roster_layout(self, small_run):
        engine, _ = small_run
        cfg = engine.cfg
        assert len(engine.ids) == cfg.node_count
        assert engine.ids == sorted(engine.ids)
        assert engine.attacker_ids == ["adv00", "adv01", "adv02"]
        managers = [d.id for d in engine.registry.managers()]
        assert managers == ["d000", "d001", "d002", "d003", "d004", "d005"]

    def test_legit_social_profiles(self, small_run):
        engine, _ = small_run
        for device_id in engine.legit_ids:
            device = engine.registry.device(device_id)
            assert device.home == SHARED_HOME
            assert len(device.interests) >= engine.cfg.shared_interest_count

    def test_attackers_are_blank_outsiders(self, small_run):
        engine, _ = small_run
        for attacker_id in engine.attacker_ids:
            device = engine.registry.device(attacker_id)
            assert device.home is None
            assert device.friends == set()
            assert not engine.registry.has_identity(attacker_id)


class TestDeterminism:
    def test_same_seed_same_log(self):
        first = run_scenario(ScenarioConfig(**SMALL))
        second = run_scenario(ScenarioConfig(**SMALL))
        assert first.log.text() == second.log.text()
        assert first.decisions == second.decisions

    def test_different_seed_differs(self):
        base = run_scenario(ScenarioConfig(**SMALL))
        other = run_scenario(ScenarioConfig(**SMALL).with_seed(6))
        assert base.log.text() != other.log.text()


class TestRunSemantics:
    def test_legit_admissions_happen_once_at_start(self, small_run):
        engine, result = small_run
        legit = [d for d in result.decisions if not d.attacker]
        subordinates = engine.cfg.legit_count - engine.cfg.manager_count
        assert len(legit) == subordinates
        assert all(d.time == 0.0 for d in legit)
        assert all(d.granted for d in legit)
        for decision in legit:
            assert decision.trust == pytest.approx(1.0, abs=1e-12)

    def test_attackers_do_attack(self, small_run):
        _, result = small_run
        assert result.attempts
        assert all(a.behavior is AttackBehavior.CHURN for a in result.attempts)
        assert all(a.source is IdentitySource.STOLEN for a in result.attempts)
        attacker_decisions = [d for d in result.decisions if d.attacker]
        assert len(attacker_decisions) == len(result.attempts)

    def test_counters_match_a_recount(self, small_run):
        _, result = small_run
        assert result.counters == ConfusionCounters.from_requests(result.decisions)

    def test_epoch_work_waits_for_the_first_epoch(self, small_run):
        _, result = small_run
        community_lines = [l for l in result.log.lines if l.split(" ", 1)[1].startswith("community ")]
        assert community_lines
        assert all(l.startswith("t=30.0 ") for l in community_lines)
        assert result.communities

    def test_recommendations_live_at_managers_only(self, small_run):
        engine, _ = small_run
        assert engine.rec_cache
        manager_ids = {d.id for d in engine.registry.managers()}
        assert {receiver for receiver, _ in engine.rec_cache} <= manager_ids

    def test_esr_split_labels(self, small_run):
        _, result = small_run
        splits = result.esr_splits()
        assert set(splits) == {"internal", "external"}
        assert splits["internal"] and splits["external"]
        flat = splits["internal"] + splits["external"]
        assert len(flat) == len(result.assessments)

    def test_metrics_report_carries_the_scenario(self, small_run):
        _, result = small_run
        report = result.metrics_report()
        assert report.scenario == "churn-stolen"
        assert report.context == "residence"
        assert report.relation == "clor"
        assert report.seed == 5
        assert report.counters is result.counters

    def test_a_finished_engine_is_freed_without_the_cycle_collector(self):
        # engine and gate must not form a cycle: a dropped run's log, rows
        # and store would otherwise wait for a full collection
        gc.collect()
        gc.disable()
        try:
            engine = SimulationEngine(ScenarioConfig(**SMALL))
            result = engine.run()
            gone = weakref.ref(engine)
            store = weakref.ref(engine.store)
            del engine
            assert gone() is None
            log = weakref.ref(result.log)
            del result
            assert log() is None
            assert store() is None
        finally:
            gc.enable()


def first_tick_reaching(k, tick, interval):
    """Time of the first tick with step * tick + 1e-9 >= k * interval."""
    step = max(0, math.floor(k * interval / tick) - 1)
    while step * tick + 1e-9 < k * interval:
        step += 1
    return step * tick


@pytest.mark.parametrize("tick,duration", [(1.0, 7900.0), (1.1, 7900.0), (2.5, 100.0)])
def test_epoch_k_fires_at_the_first_tick_reaching_k_intervals(tick, duration):
    # an interval of 1.1 is no multiple of a 1.0 tick, equals a 1.1 tick and
    # is shorter than a 2.5 one. A running sum of 1.1 drifts from k * 1.1:
    # it fired epoch 7140 a tick late at tick 1.0 and lost one at tick 1.1.
    config = ScenarioConfig(node_count=4, attacker_fraction=0.0, tick=tick, epoch_interval=1.1, duration=duration)
    result = run_scenario(config)
    fired = [float(line.split()[0][2:]) for line in result.log.lines if " pos device=d000 " in line]
    steps = int(round(config.duration / tick))
    expected = []
    while (due := first_tick_reaching(len(expected) + 1, tick, config.epoch_interval)) < steps * tick:
        expected.append(due)
    assert fired == expected
    if tick == 1.0:
        assert fired[7139] == 7854.0


@pytest.fixture(scope="module")
def park_run():
    return run_scenario(
        ScenarioConfig(node_count=30, duration=40.0, seed=5, context_kind="park")
    )


class TestParkContext:
    def test_cold_start_scores_the_park_base_rate(self, park_run):
        first_wave = [a for a in park_run.assessments if a.time == 0.0]
        external = [a for a in first_wave if a.split == "external"]
        assert external
        for assessment in external:
            assert assessment.trust == pytest.approx(0.2, abs=1e-12)
        # a stolen manager identity evaluates as a member and eats the
        # duplicate-presenter penalty, so it scores below the base rate
        for assessment in first_wave:
            if assessment.split == "internal":
                assert assessment.trust < 0.2

    def test_park_denies_the_cold_start(self, park_run):
        first_wave = [d for d in park_run.decisions if d.time == 0.0]
        assert first_wave
        assert not any(d.granted for d in first_wave)


# -- tick phases against the loops they replaced -------------------------------


def reference_in_range(engine, device_index, sq_dist, mask):
    """The scalar ordering: hits under `mask` other than the device, by (distance, id)."""
    row = sq_dist[device_index]
    hits = np.nonzero(mask & (row <= engine.cfg.interaction_radius**2))[0]
    ordered = sorted(int(i) for i in hits if i != device_index)
    ordered.sort(key=lambda i: (row[i], engine.ids[i]))
    return [engine.registry.device(engine.ids[i]) for i in ordered]


class TestInRange:
    # few distinct distances, so ties are common; 225.0 is the radius itself
    @given(distances=st.lists(st.sampled_from([0.0, 1.0, 4.0, 224.9, 225.0, 225.1]), min_size=30, max_size=30),
           device_index=st.integers(0, 29))
    def test_order_equals_the_distance_id_sort(self, small_run, distances, device_index):
        engine, _ = small_run
        sq_dist = np.zeros((30, 30))
        sq_dist[device_index] = distances
        got = engine._in_range(device_index, sq_dist)
        assert got == reference_in_range(engine, device_index, sq_dist, engine.legit_mask)
        # the attacker phase takes managers in range as the victims that manage
        managers = [d for d in got if d.is_manager]
        assert managers == reference_in_range(engine, device_index, sq_dist, engine.manager_mask)


def scalar_outcome(draw, subject_is_attacker, p_positive_legit, p_negative_attacker):
    """The per-experience rule the array form replaced; True is positive."""
    if subject_is_attacker:
        return not draw < p_negative_attacker
    return draw < p_positive_legit


probabilities = st.sampled_from([0.0, 0.8, 0.95, 1.0]) | st.floats(0.0, 1.0)


class TestInteractionOutcomes:
    @given(p_pos=probabilities, p_neg=probabilities, data=st.data())
    def test_equal_to_the_scalar_rule(self, p_pos, p_neg, data):
        # draws exactly at either threshold, next to them, and anywhere in [0, 1)
        near = [p_pos, p_neg, math.nextafter(p_pos, 0.0), math.nextafter(p_neg, 0.0)]
        draw = st.sampled_from([d for d in near if d < 1.0] or [0.0]) | st.floats(0.0, 1.0, exclude_max=True)
        cells = data.draw(st.lists(st.tuples(draw, st.booleans()), min_size=1, max_size=40))
        draws = np.array([d for d, _ in cells])
        attacker = np.array([a for _, a in cells])
        got = _interaction_outcomes(draws, attacker, p_pos, p_neg).tolist()
        assert got == [scalar_outcome(d, a, p_pos, p_neg) for d, a in cells]

    def test_draws_at_the_configured_thresholds(self):
        cfg = ScenarioConfig()
        draws = np.array([cfg.p_positive_legit, cfg.p_negative_attacker] * 2)
        attacker = np.array([False, False, True, True])
        assert _interaction_outcomes(draws, attacker, cfg.p_positive_legit, cfg.p_negative_attacker).tolist() == [
            False,  # a draw at p_positive_legit is not below it: negative
            True,
            True,
            True,  # a draw at p_negative_attacker is not below it: positive
        ]


class ScalarInteractions(SimulationEngine):
    """The engine with the per-pair interaction loop the batched one replaced."""

    def _scalar_member_presentation(self):
        n = len(self.ids)
        member = np.zeros(n, dtype=bool)
        identity_of = [None] * n
        for i, device_id in enumerate(self.ids):
            if self.attacker_mask[i]:
                presented = self.engines[device_id].presented
                if (
                    presented is not None
                    and self.gate.is_member(presented.id)
                    and device_id in self.gate.member_presenters(presented.id)
                ):
                    member[i] = True
                    identity_of[i] = presented.id
            elif self.gate.is_member(device_id):
                member[i] = True
                identity_of[i] = device_id
        assert np.array_equal(member, self._member_presentation()[0])
        assert identity_of == self._member_presentation()[1]
        return member, identity_of

    def _interactions(self, now, sq_dist):
        cfg = self.cfg
        member, identity_of = self._scalar_member_presentation()
        if not member.any():
            return
        due = now - self.last_interaction >= cfg.interaction_period
        eligible = (sq_dist <= cfg.interaction_radius**2) & member[:, None] & member[None, :] & due
        ii, jj = np.nonzero(np.triu(eligible, k=1))
        if len(ii) == 0:
            return
        draws = self.rng.random((len(ii), 2))
        for k in range(len(ii)):
            i, j = int(ii[k]), int(jj[k])
            self.last_interaction[i, j] = now
            self._experience(now, self.ids[i], identity_of[j], self.attacker_mask[j], draws[k, 0])
            self._experience(now, self.ids[j], identity_of[i], self.attacker_mask[i], draws[k, 1])

    def _experience(self, now, evaluator, subject, subject_is_attacker, draw):
        if subject_is_attacker:
            outcome = "negative" if draw < self.cfg.p_negative_attacker else "positive"
        else:
            outcome = "positive" if draw < self.cfg.p_positive_legit else "negative"
        self.store.record_experience(evaluator, subject, outcome)
        self.log.append(now, f"exp evaluator={evaluator} subject={subject} outcome={outcome}")


@pytest.mark.parametrize(
    "overrides", [{}, {"identity_source": IdentitySource.FABRICATED, "behavior": AttackBehavior.MULTI}]
)
def test_batched_interactions_equal_the_per_pair_loop(overrides):
    config = ScenarioConfig(**SMALL, **overrides)
    batched = SimulationEngine(config)
    scalar = ScalarInteractions(config)
    assert batched.run().log.lines == scalar.run().log.lines
    assert any(" exp " in line for line in scalar.log.lines)
    assert np.array_equal(batched.last_interaction, scalar.last_interaction)
    assert batched.store.by_evaluator() == scalar.store.by_evaluator()
