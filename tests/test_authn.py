import csv

import pytest

from siotrust.authn import (
    AccessGate,
    AccessRequest,
    AdmissionError,
    RoutingError,
    Verdict,
    write_decision_csv,
)
from siotrust.community import community_similarity
from siotrust.sim import ScenarioConfig, SimulationEngine
from siotrust.social import Device, DeviceClass, DeviceRegistry, RelationType
from siotrust.trust import Opinion


def build_world():
    registry = DeviceRegistry()
    registry.register(
        Device(id="m0", device_class=DeviceClass.MANAGER, home="h", interests={"i"})
    )
    registry.register(
        Device(id="m1", device_class=DeviceClass.MANAGER, home="h", interests={"i"})
    )
    registry.register(
        Device(id="s0", device_class=DeviceClass.SUBORDINATE, home="h", interests={"i"})
    )
    return registry


def request(identity, manager="m0", time=0.0, presenter=None):
    return AccessRequest(time=time, identity=identity, presenter=presenter or identity, target_manager=manager)


def make_gate(**kw):
    return AccessGate(build_world(), RelationType.CLOR, **kw)


def vacuous(gate, presented, base_rate=1.0):
    """Evaluate with no evidence at all: D, S and R all at the base rate."""
    return gate.evaluate(presented, base_rate, base_rate, base_rate)


class TestEvaluate:
    def test_vacuous_world_scores_the_base_rate(self):
        decision = vacuous(make_gate(), request("s0"), base_rate=0.4)
        assert decision.trust == pytest.approx(0.4, abs=1e-12)
        assert decision.verdict is Verdict.DENY

    def test_high_base_rate_grants(self):
        decision = vacuous(make_gate(), request("s0"), base_rate=1.0)
        assert decision.trust == 1.0
        assert decision.verdict is Verdict.GRANT

    def test_threshold_is_strictly_greater(self):
        decision = vacuous(make_gate(), request("s0"), base_rate=0.6)
        assert decision.trust == pytest.approx(0.6)
        assert decision.verdict is Verdict.DENY

    def test_only_managers_adjudicate(self):
        with pytest.raises(RoutingError):
            vacuous(make_gate(), request("s0", manager="s0"))

    def test_direct_evidence_moves_the_verdict(self):
        gate = make_gate()
        assert vacuous(gate, request("s0"), base_rate=0.5).verdict is Verdict.DENY
        direct = Opinion(30, 0, 0.5).expected_value()
        decision = gate.evaluate(request("s0"), direct, 0.5, 0.5)
        # D = 30/32 + 0.5 * 2/32, S and R vacuous at 0.5
        assert decision.trust == pytest.approx(0.35 * 0.96875 + 0.65 * 0.5)
        assert decision.verdict is Verdict.GRANT

    def test_split_follows_membership(self):
        gate = make_gate()
        external = vacuous(gate, request("s0"))
        assert external.assessment.split == "external"
        gate.bootstrap_member("s0", "s0")
        internal = vacuous(gate, request("s0"))
        assert internal.assessment.split == "internal"

    def test_decision_log_records_attacker_flag(self):
        gate = make_gate(attacker_devices=frozenset({"adv"}))
        gate.registry.register_bare(Device(id="adv", device_class=DeviceClass.SUBORDINATE))
        vacuous(gate, request("s0"))
        vacuous(gate, request("s0", presenter="adv"))
        legit, attack = gate.decisions
        assert not legit.attacker and legit.true_device_kind == "legitimate"
        assert attack.attacker and attack.true_device_kind == "attacker"


def gate_similarity_samples(overrides):
    """Run a scenario and record every gate evaluation.

    Returns the engine and one (request, the presented profile, S the
    engine handed the gate, the manager's community at that moment or None,
    R handed over, the manager's received recommendation or None) sample
    per evaluation.
    """
    engine = SimulationEngine(ScenarioConfig.from_mapping({**overrides, "seed": 1}))
    adjudicate, find = engine._adjudicate, engine.log.symbols.find
    samples = []

    def recording(presented):
        # what the request presents: the attacker's current identity, or the device itself
        attacker = engine.engines.get(presented.presenter)
        profile = engine.registry.device(presented.presenter) if attacker is None else attacker.presented
        community = engine._community_of.get(presented.target_manager)
        subject = [find(presented.identity)]
        cached = engine.rec_cache.received(find(presented.target_manager), subject, -1.0)[0].item()
        decision = adjudicate(presented)
        assessment = decision.assessment
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
    """The gate blends the S it is given; the engine hands it the community S."""

    def test_injected_similarity_sees_request_and_manager(self):
        presented = request("s0", manager="m1")
        decision = make_gate().evaluate(presented, 1.0, 0.25, 1.0)
        assert decision.assessment.evaluator == "m1"
        assert decision.assessment.similarity == 0.25
        assert decision.trust == pytest.approx(0.35 + 0.35 * 0.25 + 0.3)

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
            roster = {d.id: d for d in engine.registry.devices()}
            late = [(r, p, s, c) for r, p, s, c, _, _ in samples if c is not None]
            assert any(r.presenter in engine.attacker_ids for r, _, _, _ in late)
            for presented, profile, similarity, community in late:
                assert presented.time >= engine.cfg.epoch_interval
                assert profile.id == presented.identity
                reference = community_similarity(profile, community, roster, engine.cfg.weights())
                assert similarity == reference


class TestRecommenderHook:
    """The gate blends the R it is given; the engine hands it the exchange's R."""

    def test_injected_cache_wins(self, gate_runs):
        decision = make_gate().evaluate(request("s0"), 1.0, 1.0, 0.25)
        assert decision.assessment.recommended == 0.25
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
        with pytest.raises(AdmissionError):
            gate.admit("s0", "m0", "s0", 0.0)

    def test_grant_then_admit(self):
        gate = make_gate()
        vacuous(gate, request("s0"))
        admission = gate.admit("s0", "m0", "s0", 0.0)
        assert not admission.conflict
        assert gate.is_member("s0")
        assert gate.member_presenters("s0") == {"s0"}

    def test_second_presenter_is_a_conflict(self):
        gate = make_gate()
        vacuous(gate, request("s0"))
        gate.admit("s0", "m0", "s0", 0.0)
        vacuous(gate, request("s0", presenter="intruder", time=5.0))
        admission = gate.admit("s0", "m0", "intruder", 5.0)
        assert admission.conflict
        assert admission.conflicting_presenters == ("s0",)
        assert gate.member_presenters("s0") == {"s0", "intruder"}


def test_decision_csv(tmp_path):
    gate = make_gate()
    vacuous(gate, request("s0"))
    path = tmp_path / "decisions.csv"
    write_decision_csv(gate.decisions, path)
    header, row = list(csv.reader(path.read_text().splitlines()))
    assert header == ["time", "manager", "identity", "true_device_kind", "verdict", "trust"]
    assert row == ["0.0", "m0", "s0", "legitimate", "grant", "1.0"]
