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
from siotrust.trust import OpinionStore


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


def request(identity, manager="m0", time=0.0, presenter=None, friends=(), interests=("i",)):
    return AccessRequest(
        time=time,
        identity=identity,
        presenter=presenter or identity,
        friends=frozenset(friends),
        interests=frozenset(interests),
        target_manager=manager,
    )


def make_gate(base_rate=1.0, similarity=None, recommender=None, **kw):
    """A gate whose S and R sources know nothing: S is the base rate, R absent."""
    registry = build_world()
    store = OpinionStore(base_rate=base_rate)
    gate = AccessGate(
        registry,
        store,
        RelationType.CLOR,
        similarity=similarity or (lambda request, manager_id: store.base_rate),
        recommender=recommender or (lambda manager_id, subject: None),
        **kw,
    )
    return gate, store


class TestEvaluate:
    def test_vacuous_world_scores_the_base_rate(self):
        gate, _ = make_gate(base_rate=0.4)
        decision = gate.evaluate(request("s0"))
        assert decision.trust == pytest.approx(0.4, abs=1e-12)
        assert decision.verdict is Verdict.DENY

    def test_high_base_rate_grants(self):
        gate, _ = make_gate(base_rate=1.0)
        decision = gate.evaluate(request("s0"))
        assert decision.trust == 1.0
        assert decision.verdict is Verdict.GRANT

    def test_threshold_is_strictly_greater(self):
        gate, _ = make_gate(base_rate=0.6)
        decision = gate.evaluate(request("s0"))
        assert decision.trust == pytest.approx(0.6)
        assert decision.verdict is Verdict.DENY

    def test_only_managers_adjudicate(self):
        gate, _ = make_gate()
        with pytest.raises(RoutingError):
            gate.evaluate(request("s0", manager="s0"))

    def test_direct_evidence_moves_the_verdict(self):
        gate, store = make_gate(base_rate=0.5)
        assert gate.evaluate(request("s0")).verdict is Verdict.DENY
        for _ in range(30):
            store.record_experience("m0", "s0", "positive")
        decision = gate.evaluate(request("s0"))
        # D = 30/32 + 0.5 * 2/32, S and R vacuous at 0.5
        assert decision.trust == pytest.approx(0.35 * 0.96875 + 0.65 * 0.5)
        assert decision.verdict is Verdict.GRANT

    def test_split_follows_membership(self):
        gate, _ = make_gate()
        external = gate.evaluate(request("s0"))
        assert external.assessment.split == "external"
        gate.bootstrap_member("s0", "s0")
        internal = gate.evaluate(request("s0"))
        assert internal.assessment.split == "internal"

    def test_decision_log_records_attacker_flag(self):
        gate, _ = make_gate(base_rate=1.0, attacker_devices=frozenset({"adv"}))
        gate.registry.register_bare(Device(id="adv", device_class=DeviceClass.SUBORDINATE))
        gate.evaluate(request("s0"))
        gate.evaluate(request("s0", presenter="adv"))
        legit, attack = gate.decisions
        assert not legit.attacker and legit.true_device_kind == "legitimate"
        assert attack.attacker and attack.true_device_kind == "attacker"


def gate_similarity_samples(overrides):
    """Run a scenario and record every gate evaluation.

    Returns the engine and one (request, S the gate used, the manager's
    community at that moment or None) sample per evaluation.
    """
    engine = SimulationEngine(ScenarioConfig.from_mapping({**overrides, "seed": 1}))
    evaluate = engine.gate.evaluate
    samples = []

    def recording(presented):
        community = engine._community_of.get(presented.target_manager)
        decision = evaluate(presented)
        samples.append((presented, decision.assessment.similarity, community))
        return decision

    engine.gate.evaluate = recording
    engine.run()
    return engine, samples


@pytest.fixture(scope="module")
def gate_runs():
    """A stolen and a fabricated 40-node run, as pinned in test_golden."""
    return [
        gate_similarity_samples({"node_count": 40}),
        gate_similarity_samples({"node_count": 40, "identity_source": "fabricated", "behavior": "multi"}),
    ]


class TestSimilarityHook:
    def test_injected_similarity_sees_request_and_manager(self):
        calls = []

        def similarity(request, manager_id):
            calls.append((request, manager_id))
            return 0.25

        gate, _ = make_gate(base_rate=1.0, similarity=similarity)
        presented = request("s0", manager="m1")
        decision = gate.evaluate(presented)
        assert calls == [(presented, "m1")]
        assert decision.assessment.similarity == 0.25

    def test_no_community_yet_falls_back_to_base_rate(self, gate_runs):
        for engine, samples in gate_runs:
            early = [(r, s) for r, s, community in samples if community is None]
            assert early
            for presented, similarity in early:
                assert presented.time < engine.cfg.epoch_interval
                assert similarity == engine.store.base_rate

    def test_community_similarity_of_presented_profile(self, gate_runs):
        # The engine's cached S equals the uncached reference exactly, for
        # legitimate, stolen and fabricated presentations alike.
        for engine, samples in gate_runs:
            roster = {d.id: d for d in engine.registry.devices()}
            late = [(r, s, c) for r, s, c in samples if c is not None]
            assert any(r.presenter in engine.attacker_ids for r, _, _ in late)
            for presented, similarity, community in late:
                assert presented.time >= engine.cfg.epoch_interval
                reference = community_similarity(presented, community, roster, engine.cfg.weights())
                assert similarity == reference


class TestRecommenderHook:
    def test_injected_cache_wins(self):
        cache = {("m0", "s0"): 0.25}
        gate, _ = make_gate(base_rate=1.0, recommender=lambda m, s: cache.get((m, s)))
        decision = gate.evaluate(request("s0"))
        assert decision.assessment.recommended == 0.25

    def test_cache_miss_falls_back_to_base_rate(self):
        gate, _ = make_gate(base_rate=0.7, recommender=lambda manager_id, subject: None)
        decision = gate.evaluate(request("s0"))
        assert decision.assessment.recommended == 0.7


class TestMembership:
    def test_admit_requires_a_grant(self):
        gate, _ = make_gate()
        with pytest.raises(AdmissionError):
            gate.admit("s0", "m0", "s0", 0.0)

    def test_grant_then_admit(self):
        gate, _ = make_gate()
        gate.evaluate(request("s0"))
        admission = gate.admit("s0", "m0", "s0", 0.0)
        assert not admission.conflict
        assert gate.is_member("s0")
        assert gate.member_presenters("s0") == {"s0"}

    def test_second_presenter_is_a_conflict(self):
        gate, _ = make_gate()
        gate.evaluate(request("s0"))
        gate.admit("s0", "m0", "s0", 0.0)
        gate.evaluate(request("s0", presenter="intruder", time=5.0))
        admission = gate.admit("s0", "m0", "intruder", 5.0)
        assert admission.conflict
        assert admission.conflicting_presenters == ("s0",)
        assert gate.member_presenters("s0") == {"s0", "intruder"}


def test_decision_csv(tmp_path):
    gate, _ = make_gate(base_rate=1.0)
    gate.evaluate(request("s0"))
    path = tmp_path / "decisions.csv"
    write_decision_csv(gate.decisions, path)
    header, row = list(csv.reader(path.read_text().splitlines()))
    assert header == ["time", "manager", "identity", "true_device_kind", "verdict", "trust"]
    assert row == ["0.0", "m0", "s0", "legitimate", "grant", "1.0"]
