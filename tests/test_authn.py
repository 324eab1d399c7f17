import csv
import math
from typing import NamedTuple

import pytest

from siotrust.authn import AccessGate, RoutingError, Verdict, write_decision_csv
from siotrust.community import community_similarity
from siotrust.sim import ScenarioConfig, SimulationEngine
from siotrust.social import RelationType
from siotrust.trust import Opinion, TrustAssessment, assess


MANAGERS = frozenset({"m0", "m1"})  # "s0" is a subordinate


class Request(NamedTuple):
    """A request's fields, in the order `AccessGate.evaluate` and the engine's `_adjudicate` take them."""

    time: float
    identity: str
    presenter: str
    manager: str


def request(identity, manager="m0", time=0.0, presenter=None):
    return Request(time, identity, presenter or identity, manager)


def make_gate(trust_threshold=0.6, attacker_devices=frozenset()):
    return AccessGate(MANAGERS, trust_threshold, attacker_devices)


def assessed(gate, presented, direct, similarity, recommended):
    """Blend D, S and R under CLOR as the engine does, and hand the gate T."""
    trust = assess(presented.time, presented.manager, presented.identity, RelationType.CLOR,
                   direct, similarity, recommended).trust
    return gate.evaluate(*presented, trust)


def vacuous(gate, presented, base_rate=1.0):
    """Evaluate with no evidence at all: D, S and R all at the base rate."""
    return assessed(gate, presented, base_rate, base_rate, base_rate)


def small_engine():
    """A 30-node world before its first epoch: no community yet, so S is the base rate."""
    return SimulationEngine(ScenarioConfig(node_count=30, duration=60.0, seed=5))


def recording_rows(engine):
    """Keep each row the engine appends to its assessment columns; only a request appends one."""
    rows = []
    append = engine.assessments.append

    def recording(*row):
        rows.append(TrustAssessment(*row))
        append(*row)

    engine.assessments.append = recording
    return rows


class TestEvaluate:
    def test_vacuous_world_scores_the_base_rate(self):
        decision = vacuous(make_gate(), request("s0"), base_rate=0.4)
        assert decision.trust == pytest.approx(0.4, abs=1e-12)
        assert decision.verdict is Verdict.DENY

    def test_high_base_rate_grants(self):
        decision = vacuous(make_gate(), request("s0"), base_rate=1.0)
        assert decision.trust == 1.0
        assert decision.verdict is Verdict.GRANT and decision.granted

    def test_threshold_is_strictly_greater(self):
        for threshold in (0.6, 0.0, 1.0):
            gate = make_gate(trust_threshold=threshold)
            at = gate.evaluate(*request("s0"), threshold)
            assert at.trust == threshold and at.verdict is Verdict.DENY
            assert "s0" not in gate.members  # a denial admits nobody
            if threshold < 1.0:
                above = gate.evaluate(*request("s0"), math.nextafter(threshold, 2.0))
                assert above.verdict is Verdict.GRANT
                assert gate.members["s0"] == {"s0"}

    def test_only_managers_adjudicate(self):
        gate = make_gate(attacker_devices=frozenset({"adv"}))
        for target in ("s0", "unknown"):
            with pytest.raises(RoutingError):
                gate.evaluate(*request("s0", manager=target, presenter="adv"), 1.0)
        # nothing was booked: no decision, and the roster holds the managers only
        assert gate.decisions == [] and gate.members == {"m0": {"m0"}, "m1": {"m1"}}

    def test_direct_evidence_moves_the_verdict(self):
        gate = make_gate()
        assert vacuous(gate, request("s0"), base_rate=0.5).verdict is Verdict.DENY
        direct = Opinion(30, 0, 0.5).expected_value()
        decision = assessed(gate, request("s0"), direct, 0.5, 0.5)
        # D = 30/32 + 0.5 * 2/32, S and R vacuous at 0.5
        assert decision.trust == pytest.approx(0.35 * 0.96875 + 0.65 * 0.5)
        assert decision.verdict is Verdict.GRANT

    def test_split_follows_membership(self):
        # the engine splits a request: internal when the identity is already on the roster
        engine = small_engine()
        rows = recording_rows(engine)
        manager = min(engine.managers)
        engine._adjudicate(*request("d010", manager=manager))
        engine.gate.members["d011"] = {"d011"}
        engine._adjudicate(*request("d011", manager=manager))
        assert [(row.subject, row.split) for row in rows] == [("d010", "external"), ("d011", "internal")]
        logged = [line for line in engine.log.text().splitlines() if " decision " in line]
        assert [line.rsplit("=", 1)[1] for line in logged] == ["external", "internal"]

    def test_decision_log_records_attacker_flag(self):
        gate = make_gate(attacker_devices=frozenset({"adv"}))
        first = gate.evaluate(*request("s0"), 0.5)
        vacuous(gate, request("s0", presenter="adv"))
        legit, attack = gate.decisions
        assert first is legit  # evaluate returns the record it books
        assert not legit.attacker and legit.true_device_kind == "legitimate"
        assert attack.attacker and attack.true_device_kind == "attacker"
        assert (legit.presenter, attack.presenter) == ("s0", "adv")


def gate_similarity_samples(overrides):
    """Run a scenario and record every gate evaluation.

    Returns the engine and one (request, the presented profile, the S the
    engine assessed, the manager's community at that moment or None, the R
    assessed, the manager's received recommendation or None) sample per
    evaluation.
    """
    engine = SimulationEngine(ScenarioConfig.from_mapping({**overrides, "seed": 1}))
    adjudicate, find = engine._adjudicate, engine.log.symbols.find
    rows = recording_rows(engine)
    samples = []
    attackers = {e.device.id: e for e in engine.engines}

    def recording(*fields):
        presented = Request(*fields)
        # what the request presents: the attacker's current identity, or the device itself
        attacker = attackers.get(presented.presenter)
        profile = engine.devices[engine.ids.index(presented.presenter)] if attacker is None else attacker.presented
        community = engine._community_of.get(presented.manager)
        subject = [find(presented.identity)]
        cached = engine.rec_cache.received(find(presented.manager), subject, -1.0)[0].item()
        decision = adjudicate(*presented)
        assessment = rows[-1]
        assert (assessment.evaluator, assessment.subject, assessment.trust) == (
            presented.manager, presented.identity, decision.trust)
        samples.append((presented, profile, assessment.similarity, community, assessment.recommended,
                        None if cached < 0.0 else cached))
        return decision

    engine._adjudicate = recording
    engine.run()
    return engine, samples


@pytest.fixture(scope="module")
def gate_runs():
    """A stolen and two fabricated 40-node runs, one of them forging sets of three, as pinned in test_golden."""
    return [
        gate_similarity_samples({"node_count": 40}),
        gate_similarity_samples({"node_count": 40, "identity_source": "fabricated", "behavior": "multi"}),
        gate_similarity_samples({"node_count": 40, "identity_source": "fabricated", "forged_set_size": 3}),
    ]


class TestSimilarityHook:
    """The engine blends the community S of the presented identity into the T it hands the gate."""

    def test_injected_similarity_sees_request_and_manager(self):
        engine = small_engine()
        rows = recording_rows(engine)
        asked = []

        def similarity(identity_id, manager_id):
            asked.append((identity_id, manager_id))
            return 0.25

        engine._request_similarity = similarity
        manager = max(engine.managers)
        decision = engine._adjudicate(*request("d010", manager=manager))
        assert asked == [("d010", manager)]
        (row,) = rows
        assert (row.evaluator, row.similarity) == (manager, 0.25)
        base = engine.store.base_rate  # no evidence and no exchange yet: D and R are the base rate
        assert row.trust == decision.trust == pytest.approx(0.35 * base + 0.35 * 0.25 + 0.3 * base)

    def test_no_community_yet_falls_back_to_base_rate(self, gate_runs):
        for engine, samples in gate_runs:
            early = [(r, s) for r, _, s, community, _, _ in samples if community is None]
            assert early
            for presented, similarity in early:
                assert presented.time < engine.cfg.epoch_interval
                assert similarity == engine.store.base_rate

    def test_community_similarity_of_presented_profile(self, gate_runs):
        # The engine's cached S equals the uncached reference exactly, for
        # legitimate, stolen and fabricated presentations alike.
        for engine, samples in gate_runs:
            roster = {d.id: d for d in engine.devices}
            late = [(r, p, s, c) for r, p, s, c, _, _ in samples if c is not None]
            assert any(r.presenter in engine.attackers for r, _, _, _ in late)
            for presented, profile, similarity, community in late:
                assert presented.time >= engine.cfg.epoch_interval
                assert profile.id == presented.identity
                reference = community_similarity(profile, community, roster, engine.cfg.weights())
                assert similarity == reference


class TestRecommenderHook:
    """The engine blends the exchange's R into the T it hands the gate."""

    def test_injected_cache_wins(self, gate_runs):
        for _, samples in gate_runs:
            received = [(r, cached) for _, _, _, _, r, cached in samples if cached is not None]
            assert received
            for recommended, cached in received:
                # the exchange builds its floats on read: the same float, bit for bit
                assert (type(recommended), recommended.hex()) == (float, cached.hex())

    def test_cache_miss_falls_back_to_base_rate(self, gate_runs):
        for engine, samples in gate_runs:
            missed = [r for _, _, _, _, r, cached in samples if cached is None]
            assert missed
            for recommended in missed:
                assert recommended == engine.store.base_rate


class TestMembership:
    def test_admit_requires_a_grant(self):
        gate = make_gate()
        assert not vacuous(gate, request("s0"), base_rate=0.5).granted
        assert gate.members == {"m0": {"m0"}, "m1": {"m1"}}  # the managers are the first members

    def test_grant_then_admit(self):
        gate = make_gate()
        assert vacuous(gate, request("s0")).granted
        assert gate.members["s0"] == {"s0"}

    def test_second_presenter_is_a_conflict(self):
        gate = make_gate()
        vacuous(gate, request("s0"))
        vacuous(gate, request("s0", presenter="intruder", time=5.0))
        assert gate.members["s0"] == {"s0", "intruder"}

    def test_admit_line_names_the_other_holders_sorted(self):
        # no 40-node golden pin logs a two-holder conflict; the roster is set by hand
        engine = small_engine()
        engine.gate.trust_threshold = 0.0  # every request is granted
        manager = min(engine.managers)
        engine.gate.members["d010"] = {"d010", "adv02"}
        for presenter in ("adv00", "adv02", "d011"):
            engine._adjudicate(*request("d010", manager=manager, presenter=presenter))
        engine._adjudicate(*request("d012", manager=manager))
        admitted = [line.split(" ", 2)[2] for line in engine.log.text().splitlines() if " admit " in line]
        assert admitted == [
            f"identity=d010 manager={manager} presenter=adv00 conflicts=adv02|d010",
            f"identity=d010 manager={manager} presenter=adv02 conflicts=adv00|d010",
            f"identity=d010 manager={manager} presenter=d011 conflicts=adv00|adv02|d010",
            f"identity=d012 manager={manager} presenter=d012 conflicts=-",
        ]
        assert engine.gate.members["d010"] == {"d010", "adv00", "adv02", "d011"}


def test_decision_csv(tmp_path):
    gate = make_gate()
    vacuous(gate, request("s0"))
    path = tmp_path / "decisions.csv"
    write_decision_csv(gate.decisions, path)
    header, row = list(csv.reader(path.read_text().splitlines()))
    assert header == ["time", "manager", "identity", "true_device_kind", "verdict", "trust"]
    assert row == ["0.0", "m0", "s0", "legitimate", "grant", "1.0"]
