import pytest

from siotrust.social import (
    ConfigError,
    Context,
    Device,
    DeviceClass,
    RelationType,
    classify_relation,
    context_for,
)


def make(device_id="x", **kw):
    kw.setdefault("device_class", DeviceClass.SUBORDINATE)
    return Device(id=device_id, **kw)


class TestRelations:
    def test_same_owner_wins_over_everything(self):
        a = make("a", owner="o", batch="b1", home="h", work="w")
        b = make("b", owner="o", batch="b1", home="h", work="w")
        assert classify_relation(a, b) is RelationType.OOR

    def test_same_batch_beats_location(self):
        a = make("a", owner="o1", batch="b", home="h")
        b = make("b", owner="o2", batch="b", home="h")
        assert classify_relation(a, b) is RelationType.POR

    def test_shared_home(self):
        a = make("a", owner="o1", batch="b1", home="h")
        b = make("b", owner="o2", batch="b2", home="h", work="w")
        assert classify_relation(a, b) is RelationType.CLOR

    def test_shared_work(self):
        a = make("a", owner="o1", batch="b1", work="w")
        b = make("b", owner="o2", batch="b2", work="w")
        assert classify_relation(a, b) is RelationType.CWOR

    def test_friendship_either_direction(self):
        a = make("a", friends={"b"})
        b = make("b")
        assert classify_relation(a, b) is RelationType.SOR
        assert classify_relation(b, a) is RelationType.SOR

    def test_strangers_are_weak_sor(self):
        assert classify_relation(make("a"), make("b")) is RelationType.SOR

    def test_absent_home_never_matches(self):
        # two devices without a home token are not co-located
        relation = classify_relation(make("a", owner="o1", batch="b1"), make("b", owner="o2", batch="b2"))
        assert relation is RelationType.SOR

    def test_empty_owner_never_matches(self):
        assert classify_relation(make("a", home="h"), make("b", home="h")) is RelationType.CLOR

    @pytest.mark.parametrize(
        "relation,gamma",
        [
            (RelationType.CLOR, 0.3),
            (RelationType.CWOR, 0.2),
            (RelationType.OOR, 0.2),
            (RelationType.SOR, 0.1),
            (RelationType.POR, 0.1),
        ],
    )
    def test_recommendation_weight_table(self, relation, gamma):
        assert relation.gamma == gamma


class TestContext:
    @pytest.mark.parametrize(
        "kind,rate",
        [("residence", 1.0), ("office", 0.7), ("school", 0.5), ("gym", 0.4), ("park", 0.2)],
    )
    def test_default_base_rates(self, kind, rate):
        assert context_for(kind).base_rate == rate

    def test_override_known_kind(self):
        assert context_for("park", {"park": 0.35}).base_rate == 0.35

    def test_custom_kind_needs_a_rate(self):
        assert context_for("harbor", {"harbor": 0.6}).base_rate == 0.6
        with pytest.raises(ConfigError):
            context_for("harbor")

    def test_rate_out_of_range(self):
        with pytest.raises(ConfigError):
            Context("residence", 1.5)


class TestDevice:
    def test_never_its_own_friend(self):
        assert make("a", friends={"a", "b"}).friends == {"b"}

    def test_sets_are_copied(self):
        friends = {"b"}
        device = make("a", friends=friends)
        friends.add("c")
        assert device.friends == {"b"}
