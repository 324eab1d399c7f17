import collections
import gc
import io
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, strategies as st

from siotrust import record
from siotrust.adversary import AttackBehavior, AttackerEngine
from siotrust.metrics import CHUNK_LINES, ConfusionCounters
from siotrust.community import Community, SimilarityWeights, community_similarity, pairwise_similarity
from siotrust.sim import (
    SHARED_HOME,
    EventLog,
    ScenarioConfig,
    SimulationEngine,
    _interaction_outcomes,
    _StaticSimilarity,
    run_scenario,
)
from siotrust.social import (
    ConfigError,
    Device,
    DeviceClass,
    DeviceRegistry,
    Identity,
    IdentitySource,
    RelationType,
)
from siotrust.trust import write_trust_trace_csv

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

    @pytest.mark.parametrize(
        "kw",
        [
            {"seed": 1.5},
            {"seed": -1},
            {"node_count": 50.5},
            {"node_count": True},
            {"shared_interest_count": 2.5},
            {"duplicate_request_penalty": 1.5},
            {"duplicate_epoch_penalty": False},
            {"duplicate_epoch_penalty": 2**31},  # an event field holds a C int
            {"duplicate_request_penalty": 3_000_000_000},
            {"pool_size": 2.5},
            {"deny_streak_limit": 3.0},
            {"forged_set_size": np.int64(2)},
            {"friends_path": 3},
        ],
    )
    def test_malformed_integer_fields_rejected(self, kw):
        (name,) = kw
        for build in (lambda: ScenarioConfig(**kw), lambda: ScenarioConfig.from_mapping(kw)):
            with pytest.raises(ConfigError, match=name):
                build()

    @pytest.mark.parametrize(
        "kw, named",
        [
            ({"duration": 1e300}, "duration / tick"),
            ({"tick": 1e-12}, "duration / tick"),  # 6e14 ticks
            ({"epoch_interval": 1e-300}, "duration / epoch_interval"),  # every epoch at t=0, forever
        ],
    )
    def test_runs_too_long_to_record_rejected(self, kw, named):
        with pytest.raises(ConfigError, match=named):
            ScenarioConfig(**kw)

    @pytest.mark.parametrize(
        "kw",
        [
            {"speed": math.nan},
            {"duration": math.nan},
            {"duration": math.inf},
            {"interaction_radius": math.inf},
            {"area_width": math.inf},
            {"epoch_interval": math.inf},
            {"speed": True},
            {"attempt_interval": True},
            {"idle_fraction": False},
            {"base_rate": math.nan},
            {"base_rate": True},
        ],
    )
    def test_non_finite_and_bool_float_fields_rejected(self, kw):
        (name,) = kw
        for build in (lambda: ScenarioConfig(**kw), lambda: ScenarioConfig.from_mapping(kw)):
            with pytest.raises(ConfigError, match=name):
                build()

    def test_float_fields_keep_an_integer_as_it_is(self):
        cfg = ScenarioConfig.from_mapping({"tick": 1, "duration": 120, "speed": 2})
        assert (type(cfg.tick), type(cfg.duration), type(cfg.speed)) == (int, int, int)
        assert ScenarioConfig(friends_path=None).friends_path is None

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
        log.append(0.0, "bootstrap", "d000")
        log.append(12.5, "community", 0, 7)
        assert log.text() == "t=0.0 bootstrap manager=d000\nt=12.5 community id=0 size=7\n"
        assert len(log) == 2

    def test_equal_times_are_fine_backwards_is_not(self):
        log = EventLog()
        log.append(3.0, "bootstrap", "a")
        log.append(3.0, "bootstrap", "b")
        with pytest.raises(ValueError, match="backwards"):
            log.append(2.9, "bootstrap", "c")

    def test_write_round_trip(self, tmp_path):
        log = EventLog()
        log.append(1.0, "fabricate", "adv00", "fab-adv00-0")
        path = tmp_path / "events.log"
        log.write(path)
        assert path.read_text() == log.text() == "t=1.0 fabricate attacker=adv00 identity=fab-adv00-0\n"

    def test_backwards_after_a_run_of_equal_times(self):
        log = EventLog()
        now = 7.0
        for _ in range(3):
            log.append(now, "bootstrap", "same")
        log.append(float("7.0"), "bootstrap", "equal")
        with pytest.raises(ValueError, match="backwards: 6.5 after 7.0"):
            log.append(6.5, "bootstrap", "late")
        assert log.text().splitlines() == ["t=7.0 bootstrap manager=same"] * 3 + ["t=7.0 bootstrap manager=equal"]

    def test_equal_times_keep_their_own_text(self):
        log = EventLog()
        for time in (0.0, -0.0, 0.0, 30, 30.0, 30):
            log.append(time, "bootstrap", "x")
        prefixes = [line.split()[0] for line in log.text().splitlines()]
        assert prefixes == ["t=0.0", "t=-0.0", "t=0.0", "t=30", "t=30.0", "t=30"]

    def test_a_streamed_log_formats_each_time_and_id_once(self, monkeypatch):
        monkeypatch.setattr(record, "CHUNK_LINES", 3)
        CountedTime.formatted.clear()
        sink = io.StringIO()
        log = EventLog(sink)
        expected = []
        for k in range(20):
            now = CountedTime(k / 2)
            for j in range(k % 4):  # 0-3 events a tick, flushed every third
                log.append(now, "bootstrap", f"d{j}")
                expected.append(f"t={k / 2!r} bootstrap manager=d{j}\n")
                log.spill()
        log.flush()
        assert sink.getvalue() == "".join(expected)
        assert len(log) == len(expected)
        assert set(CountedTime.formatted.values()) == {1}
        assert len(CountedTime.formatted) == sum(1 for k in range(20) if k % 4)
        names = record.NameTexts(log.symbols.names, ",")
        first = names.of(np.array([0, 1, 2]))
        log.symbols.code("d9")
        again = names.of(np.array([2, 3]))
        assert again.tolist() == ["d2,", "d9,"] and again[0] is first[2]

    def test_first_line_at_zero_is_unchanged(self, small_run):
        _, result = small_run
        assert result.log.text().splitlines()[0] == "t=0.0 bootstrap manager=d000"

    def test_write_equals_text_across_chunks(self, tmp_path):
        log = EventLog()
        for k in range(2 * CHUNK_LINES + 1):
            log.append(float(k // 3), "community", k, k % 5)
            if k % 7 == 0:
                log.extend(float(k // 3), "pos", np.array([log.symbols.code("d000")] * 3), np.arange(3.0), -np.arange(3.0))
        log.write(tmp_path / "events.log")
        assert (tmp_path / "events.log").read_text() == log.text()
        EventLog().write(tmp_path / "empty.log")
        assert (tmp_path / "empty.log").read_bytes() == b""


class CountedTime(float):
    """A time that counts how often its text is formatted, by object."""

    formatted = collections.Counter()

    def __repr__(self):
        CountedTime.formatted[id(self)] += 1
        return float.__repr__(self)


# the f-strings the engine formatted each event with when the log held lines
LINE_FORMATS = {
    "bootstrap": lambda m: f"bootstrap manager={m}",
    "duplicate": lambda i, p, m, n: f"duplicate identity={i} presenter={p} manager={m} penalty={n}",
    "decision": lambda m, i, p, k, v, t, s: (
        f"decision manager={m} identity={i} presenter={p} kind={k} verdict={v} trust={t!r} split={s}"
    ),
    "admit": lambda i, m, p, c: f"admit identity={i} manager={m} presenter={p} conflicts={c}",
    "theft": lambda a, i, v: f"theft attacker={a} identity={i} victim={v}",
    "fabricate": lambda a, i: f"fabricate attacker={a} identity={i}",
    "exp": lambda e, s, o: f"exp evaluator={e} subject={s} outcome={o}",
    "community": lambda c, n: f"community id={c} size={n}",
    "duplicate-scan": lambda i, p, n: f"duplicate-scan identity={i} presenters={p} penalty={n}",
    "pos": lambda d, x, y: f"pos device={d} x={x:.6f} y={y:.6f}",
}
# fields that `extend` takes as id-table codes
CODED_FIELDS = {"exp": (0, 1, 2), "pos": (0,)}


class LineLog:
    """The line-per-append log the columnar one replaced, fed the same typed events.

    Each line is formatted at append time with the old f-string, its
    `t=<repr> ` prefix reused while the same time object comes back.
    """

    def __init__(self, symbols):
        self.symbols = symbols
        self.lines = []
        self._last_time = -math.inf
        self._prefix = ""

    def append(self, time, kind, *fields):
        if time is not self._last_time:
            if time < self._last_time:
                raise ValueError(f"event log time went backwards: {time} after {self._last_time}")
            self._last_time = time
            self._prefix = f"t={time!r} "
        self.lines.append(self._prefix + LINE_FORMATS[kind](*fields))

    def extend(self, time, kind, *columns):
        for fields in zip(*(np.asarray(c).tolist() for c in columns)):
            decoded = [self.symbols.names[v] if k in CODED_FIELDS[kind] else v for k, v in enumerate(fields)]
            self.append(time, kind, *decoded)

    def text(self):
        return "".join(line + "\n" for line in self.lines)

    def spill(self):
        """Nothing: the reference keeps every line, as a log without a sink does."""

    flush = spill


@pytest.mark.parametrize(
    "overrides",
    [
        {"node_count": 40},
        {"node_count": 40, "identity_source": "fabricated", "behavior": "multi"},
        {"node_count": 30, "tick": 1, "duration": 120},
        {"node_count": 30, "context_kind": "park", "duration": 200},
    ],
)
def test_columnar_log_equals_the_line_log(overrides, tmp_path):
    config = ScenarioConfig.from_mapping(overrides)
    columnar = run_scenario(config)
    engine = SimulationEngine(config)
    engine.log = LineLog(engine.log.symbols)
    reference = engine.run().log.text()
    assert columnar.log.text() == reference
    assert len(columnar.log) == len(engine.log.lines)
    columnar.log.write(tmp_path / "events.log")
    assert (tmp_path / "events.log").read_bytes() == reference.encode("utf-8")
    if type(config.tick) is int:
        assert "\nt=30 community id=0 " in reference


awkward_floats = st.sampled_from([0.0, -0.0, 1e-05, 5e-324, 0.1 + 0.2, 1.0, 99.9999995]) | st.floats(-1e3, 1e3)
names = st.sampled_from(["d000", "d001", "adv00", "fab-adv00-3", "-", "d000|adv00"])
# (kind, strategy of its fields): ids and labels as strings, as `append` takes them
FIELDS = {
    "bootstrap": st.tuples(names),
    "duplicate": st.tuples(names, names, names, st.integers(0, 50)),
    "decision": st.tuples(names, names, names, st.sampled_from(["legit", "attacker"]),
                          st.sampled_from(["grant", "deny"]), awkward_floats, st.sampled_from(["internal", "external"])),
    "admit": st.tuples(names, names, names, names),
    "theft": st.tuples(names, names, names),
    "fabricate": st.tuples(names, names),
    "community": st.tuples(st.integers(0, 9), st.integers(0, 300)),
    "duplicate-scan": st.tuples(names, names, st.integers(0, 9)),
}
batch = st.lists(st.tuples(names, names, st.sampled_from(["positive", "negative"])), max_size=5)
positions = st.lists(st.tuples(names, awkward_floats, awkward_floats), max_size=5)
step = st.one_of(
    st.sampled_from(sorted(FIELDS)).flatmap(lambda kind: st.tuples(st.just(kind), FIELDS[kind])),
    st.tuples(st.just("exp"), batch),
    st.tuples(st.just("pos"), positions),
)


@given(
    ticks=st.lists(
        st.tuples(st.sampled_from([0, 0.0, -0.0, 30, 30.0, 60.0]), st.lists(step, max_size=6)), max_size=8
    )
)
def test_columnar_log_equals_the_line_log_on_any_events(ticks):
    columnar = EventLog()
    reference = LineLog(columnar.symbols)
    ticks = sorted(ticks, key=lambda tick: tick[0])  # stable: equal times keep their order
    for time, steps in ticks:
        for kind, fields in steps:
            if kind in CODED_FIELDS:
                columns = [list(column) for column in zip(*fields)] or [[], [], []]
                for k in CODED_FIELDS[kind]:
                    columns[k] = [columnar.symbols.code(v) for v in columns[k]]
                for log in (columnar, reference):
                    log.extend(time, kind, *(np.array(c) for c in columns))
            else:
                for log in (columnar, reference):
                    log.append(time, kind, *fields)
    assert columnar.text() == reference.text()
    assert len(columnar) == len(reference.lines)


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
        community_lines = [l for l in result.log.text().splitlines() if l.split(" ", 1)[1].startswith("community ")]
        assert community_lines
        assert all(l.startswith("t=30.0 ") for l in community_lines)
        assert result.communities

    def test_recommendations_live_at_managers_only(self, small_run):
        engine, _ = small_run
        assert len(engine.rec_cache)
        manager_ids = {d.id for d in engine.registry.managers()}
        names = engine.log.symbols.names
        everyone = np.arange(len(names))
        received = [(engine.rec_cache.received(c, everyone, -1.0) >= 0).any() for c in everyone.tolist()]
        receivers = {names[c] for c in np.flatnonzero(received).tolist()}
        assert receivers and receivers <= manager_ids

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
    fired = [float(line.split()[0][2:]) for line in result.log.text().splitlines() if " pos device=d000 " in line]
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


def reference_matrix(positions):
    """The n x n squared-distance matrix the tick computed before it worked on pairs."""
    x = positions[:, 0]
    y = positions[:, 1]
    dx = x[:, None] - x[None, :]
    dy = y[:, None] - y[None, :]
    return dx * dx + dy * dy


def reference_in_range(engine, device_index, sq_dist, mask):
    """The scalar ordering: hits under `mask` other than the device, by (distance, id)."""
    row = sq_dist[device_index]
    hits = np.nonzero(mask & (row <= engine.cfg.interaction_radius**2))[0]
    ordered = sorted(int(i) for i in hits if i != device_index)
    ordered.sort(key=lambda i: (row[i], engine.ids[i]))
    return [engine.registry.device(engine.ids[i]) for i in ordered]


@pytest.fixture(scope="module")
def world():
    """A 30-node engine whose positions each example overwrites."""
    return SimulationEngine(ScenarioConfig(**SMALL))


# coordinates on a lattice whose distances tie often and land on the 15 m
# radius exactly (9-12-15, 0-15), just inside it (224.9) and just outside
# it (225.1), mixed with any coordinate in the field
coordinates = st.sampled_from([0.0, 3.0, 4.0, 9.0, 12.0, 15.0, math.sqrt(224.9), math.sqrt(225.1)]) | st.floats(0.0, 100.0)
layouts = st.lists(st.tuples(coordinates, coordinates), min_size=30, max_size=30).map(np.array)


class TestPairKernel:
    @given(positions=layouts)
    def test_pairs_equal_the_upper_triangle_of_the_matrix(self, world, positions):
        world.positions = positions
        matrix = reference_matrix(positions)
        n = len(world.ids)
        got = world._squared_distances()
        ii, jj = world._pairs
        assert list(zip(ii.tolist(), jj.tolist())) == [(i, j) for i in range(n) for j in range(i + 1, n)]
        assert got.tolist() == matrix[ii, jj].tolist()
        # the in-radius pairs, in the row-major order the matrix gave them
        radius_sq = world.cfg.interaction_radius**2
        near = np.flatnonzero(got <= radius_sq)
        want_i, want_j = np.nonzero(np.triu(matrix <= radius_sq, k=1))
        assert (ii[near].tolist(), jj[near].tolist()) == (want_i.tolist(), want_j.tolist())
        # the row blocks hold the same entries, and the nearest manager is the row's first minimum
        assert world._block(np.arange(n)).tolist() == matrix.tolist()
        managers = world.manager_indices
        nearest = world._nearest_managers(np.arange(n)).tolist()
        assert nearest == [managers[int(np.argmin(matrix[i, managers]))] for i in range(n)]

    def test_the_radius_itself_is_in_range(self):
        # d001, d002 and d003 sit at 225.0, 225.1 and 224.9 from d000; every
        # other device is 20 m from its neighbours, far off
        engine = SimulationEngine(ScenarioConfig(**SMALL))
        k = np.arange(30)
        engine.positions = np.column_stack([100.0 + 20.0 * (k % 6), 20.0 * (k // 6)])
        d000, d001, d002, d003 = (engine.ids.index(f"d00{i}") for i in range(4))
        engine.positions[[d000, d001, d002, d003]] = [
            (0.0, 0.0), (9.0, 12.0), (0.0, -math.sqrt(225.1)), (-math.sqrt(224.9), 0.0)
        ]
        assert reference_matrix(engine.positions)[d000, d001] == 225.0
        for device_id in engine.legit_ids:
            engine.gate.bootstrap_member(device_id, device_id)
        engine._interactions(0.0, engine._squared_distances())
        ii, jj = engine._pairs
        met = np.flatnonzero(engine.last_interaction == 0.0)
        assert list(zip(ii[met].tolist(), jj[met].tolist())) == [(d000, d001), (d000, d003)]


class TestInRange:
    @given(positions=layouts)
    def test_order_equals_the_distance_id_sort(self, world, positions):
        world.positions = positions
        matrix = reference_matrix(positions)
        ranges = world._attacker_ranges()
        assert len(ranges) == len(world.attacker_ids)
        for attacker_id, (victims, managers) in zip(world.attacker_ids, ranges):
            index = world.ids.index(attacker_id)
            assert victims == reference_in_range(world, index, matrix, world.legit_mask)
            # the victims that manage, in the same order
            assert managers == [d for d in victims if d.is_manager]
            assert managers == reference_in_range(world, index, matrix, world.manager_mask)


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
    """The engine with the per-pair interaction loop over the n x n matrix that the batched one replaced.

    It ignores the pair vector it is handed: it builds its own matrix from
    the positions and keeps its own n x n `last_matrix`.
    """

    def __init__(self, config):
        super().__init__(config)
        n = len(self.ids)
        self.last_matrix = np.full((n, n), -math.inf)

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
        names = self.log.symbols.names
        assert identity_of == [None if c < 0 else names[c] for c in self._member_presentation().tolist()]
        return member, identity_of

    def _interactions(self, now, sq_dist):
        cfg = self.cfg
        member, identity_of = self._scalar_member_presentation()
        if not member.any():
            return
        matrix = reference_matrix(self.positions)
        due = now - self.last_matrix >= cfg.interaction_period
        eligible = (matrix <= cfg.interaction_radius**2) & member[:, None] & member[None, :] & due
        ii, jj = np.nonzero(np.triu(eligible, k=1))
        if len(ii) == 0:
            return
        draws = self.rng.random((len(ii), 2))
        for k in range(len(ii)):
            i, j = int(ii[k]), int(jj[k])
            self.last_matrix[i, j] = now
            self._experience(now, self.ids[i], identity_of[j], self.attacker_mask[j], draws[k, 0])
            self._experience(now, self.ids[j], identity_of[i], self.attacker_mask[i], draws[k, 1])

    def _experience(self, now, evaluator, subject, subject_is_attacker, draw):
        if subject_is_attacker:
            outcome = "negative" if draw < self.cfg.p_negative_attacker else "positive"
        else:
            outcome = "positive" if draw < self.cfg.p_positive_legit else "negative"
        self.store.record_experience(evaluator, subject, outcome)
        self.log.append(now, "exp", evaluator, subject, outcome)


@pytest.mark.parametrize(
    "overrides", [{}, {"identity_source": IdentitySource.FABRICATED, "behavior": AttackBehavior.MULTI}]
)
def test_batched_interactions_equal_the_per_pair_loop(overrides):
    config = ScenarioConfig(**SMALL, **overrides)
    batched = SimulationEngine(config)
    scalar = ScalarInteractions(config)
    assert batched.run().log.text() == scalar.run().log.text()
    assert " exp " in scalar.log.text()
    upper = np.triu_indices(len(scalar.ids), k=1)
    assert np.array_equal(batched.last_interaction, scalar.last_matrix[upper])
    # one id table coded in the same order, so code-keyed writes land where the string writes did
    assert batched.log.symbols.names == scalar.log.symbols.names
    for got, want in zip(batched.store.expected_values(), scalar.store.expected_values()):
        assert got.tolist() == want.tolist()
    assert batched.store.by_evaluator() == scalar.store.by_evaluator()


@pytest.mark.parametrize("node_count", [30, 200])
def test_a_device_index_is_its_id_table_code(node_count):
    engine = SimulationEngine(ScenarioConfig(node_count=node_count, duration=60.0))
    find = engine.log.symbols.find
    assert [find(i) for i in engine.ids] == list(range(node_count))
    engine.run()  # later entries never move a device's code
    assert [find(i) for i in engine.ids] == list(range(node_count))


def test_member_presentation_follows_the_roster():
    # in the pinned scenarios every legitimate device joins at t=0 or never,
    # so the roster is grown here by hand between two reads
    engine = SimulationEngine(ScenarioConfig(**SMALL))
    names = engine.log.symbols.names

    def presented():
        return [names[c] if c >= 0 else None for c in engine._member_presentation().tolist()]

    assert presented() == [None] * 30
    engine.gate.bootstrap_member("d010", "d010")
    engine.gate.bootstrap_member("d003", "adv01")  # an identity on the roster makes its device a member
    expected = [i if i in ("d003", "d010") else None for i in engine.ids]
    assert presented() == expected
    attacker = engine.engines["adv01"]
    attacker.presented = attacker.steal_identity(engine.registry.device("d003"))
    assert presented() == [("d003" if i == "adv01" else p) for i, p in zip(engine.ids, expected)]


def observe_every_time(self, devices_in_radius):
    """The observe loop before already observed devices were skipped."""
    for dev in devices_in_radius:
        self.observed_devices.add(dev.id)
        self.observed_interests.update(dev.interests)


def test_observing_each_device_once_gathers_the_same_sets(monkeypatch):
    # fabricated identities forge their sets from what was observed, so the
    # forged sets and the log read the observations
    config = ScenarioConfig(node_count=40, duration=300.0, identity_source=IdentitySource.FABRICATED,
                            forged_set_size=3, seed=2)
    skipping = SimulationEngine(config)
    skipped = skipping.run()
    monkeypatch.setattr(AttackerEngine, "observe", observe_every_time)
    every = SimulationEngine(config)
    assert every.run().log.text() == skipped.log.text()

    def observations(engine):
        return {a: (e.observed_devices, e.observed_interests) for a, e in engine.engines.items()}

    def forged(engine):
        return {i.id: (i.friends, i.interests) for e in engine.engines.values() for i in e.pool}

    assert observations(skipping) == observations(every)
    assert forged(skipping) == forged(every)
    assert any(friends and interests for friends, interests in forged(every).values())


class TestRecordFootprint:
    """A finished run keeps its record as columns: bytes per row, no object per row."""

    @staticmethod
    def config(duration):
        return ScenarioConfig(node_count=40, seed=1, duration=duration)

    def test_bytes_per_event_and_per_assessment(self):
        run_scenario(self.config(60.0))  # first-use caches outside the run
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = run_scenario(self.config(600.0))
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # 17 bytes of columns per event and 46 per assessment, plus the
        # arrays' headroom and the decisions, attempts and communities
        assert retained <= 32 * len(result.log) + 64 * len(result.assessments)

    def tracked_objects(self, duration):
        run_scenario(self.config(duration))
        gc.collect()
        before = len(gc.get_objects())
        result = run_scenario(self.config(duration))
        # decisions and attack attempts are one dataclass per request, not
        # part of the columnar record
        result.decisions.clear()
        result.attempts.clear()
        gc.collect()
        return len(gc.get_objects()) - before, result

    def test_tracked_objects_do_not_grow_with_duration(self):
        short, short_run = self.tracked_objects(300.0)
        long, long_run = self.tracked_objects(600.0)
        assert len(long_run.log) > 1.5 * len(short_run.log)
        assert len(long_run.assessments) > 1.5 * len(short_run.assessments)
        assert long == short


class TestStreamedRecordFootprint:
    """A run given open files writes its log and trust trace as it goes and keeps no row of either."""

    @staticmethod
    def streamed(duration, out):
        config = ScenarioConfig(node_count=40, seed=1, duration=duration)
        with open(out / "events.log", "w", encoding="utf-8", newline="") as events, open(
            out / "trust.csv", "w", encoding="utf-8", newline=""
        ) as trust:
            return SimulationEngine(config, events, trust).run()

    def test_keeps_no_event_row_and_only_t_and_the_split(self, tmp_path):
        result = self.streamed(600.0, tmp_path)
        log, table = result.log, result.assessments
        assert [len(column) for column in (log._kinds, log._times, log._fields, log._values)] == [0] * 4
        pending = (table._time, table._evaluator, table._subject, table._relation, *table._components)
        assert [len(column) for column in pending] == [0] * 7
        assert len(table._trust) == len(table._split) == len(table) > 0
        # the lengths still count every row, as perfbench's sim.events reads them
        assert len(log) == len((tmp_path / "events.log").read_text().splitlines()) > 0
        assert len(table) == len((tmp_path / "trust.csv").read_text().splitlines()) - 1

    def test_bytes_grow_with_assessments_and_ticks_not_events(self, tmp_path):
        self.streamed(60.0, tmp_path)  # first-use caches outside the run
        grown = []
        for duration in (300.0, 1200.0):
            gc.collect()
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                result = self.streamed(duration, tmp_path)
                # one dataclass per request, not part of the record
                result.decisions.clear()
                result.attempts.clear()
                gc.collect()
                retained = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
            grown.append((retained, len(result.log), len(result.assessments), len(result.log.symbols.times)))
            del result
        (short, events, assessments, times), (long, more_events, more_assessments, more_times) = grown
        assert more_events - events > 2 * (more_assessments - assessments)
        # 9 bytes of T and split per assessment plus the arrays' headroom, and
        # the time table's float and list slot per tick; nothing per event
        assert long - short <= 12 * (more_assessments - assessments) + 40 * (more_times - times)

    def test_readers_of_the_whole_record_raise(self, tmp_path):
        result = self.streamed(60.0, tmp_path)
        with pytest.raises(ValueError, match="streams to a file"):
            result.log.text()
        with pytest.raises(ValueError, match="streams to a file"):
            result.log.write(tmp_path / "again.log")
        with pytest.raises(ValueError, match="streams to a file"):
            iter(result.assessments)
        with pytest.raises(ValueError, match="streams to a file"):
            write_trust_trace_csv(result.assessments, tmp_path / "again.csv")
        assert not (tmp_path / "again.log").exists() and not (tmp_path / "again.csv").exists()


class LoopDuplicateScan(SimulationEngine):
    """The engine with the per-(identity, manager) penalty loop the batched write replaced."""

    def _duplicate_scan(self, now):
        penalty = self.cfg.duplicate_epoch_penalty
        for identity_id in sorted(self.gate.members):
            presenters = self.gate.member_presenters(identity_id)
            if len(presenters) < 2:
                continue
            for manager in self.registry.managers():
                self.store.record_experience(manager.id, identity_id, "negative", penalty)
            self.log.append(now, "duplicate-scan", identity_id, "|".join(sorted(presenters)), penalty)


@pytest.mark.parametrize("penalty", [0, 4])
def test_batched_duplicate_penalties_equal_the_loop(penalty):
    config = ScenarioConfig(**SMALL, duplicate_epoch_penalty=penalty)
    batched, loop = SimulationEngine(config), LoopDuplicateScan(config)
    text = batched.run().log.text()
    assert text == loop.run().log.text()
    assert " duplicate-scan " in text
    assert batched.log.symbols.names == loop.log.symbols.names
    for got, want in zip(batched.store.expected_values(), loop.store.expected_values()):
        assert got.tolist() == want.tolist()
    assert batched.store.by_evaluator() == loop.store.by_evaluator()


# friends among the legitimate ids and beyond them; interests partly shared
LEGIT_IDS = [f"d{k}" for k in range(6)]
friend_sets = st.sets(st.sampled_from(LEGIT_IDS + ["adv0", "elsewhere"]), max_size=4)
interest_sets = st.sets(st.sampled_from(["p", "q", "r", "only-forged"]), max_size=3)


class TestStaticSimilarity:
    """The engine's S by identity id equals `community_similarity` of the presented sets, bit for bit."""

    @given(
        legit=st.lists(st.tuples(friend_sets, interest_sets), min_size=1, max_size=6),
        forged=st.tuples(friend_sets, interest_sets),
        victim=st.integers(0, 5),
        members=st.sets(st.integers(0, 5), min_size=1),
        weights=st.sampled_from([SimilarityWeights(), SimilarityWeights(0.9, 0.1), SimilarityWeights(0.2, 0.8)]),
    )
    def test_means_equal_community_similarity(self, legit, forged, victim, members, weights):
        registry = DeviceRegistry()
        for device_id, (friends, interests) in zip(LEGIT_IDS, legit):
            registry.register(Device(device_id, DeviceClass.SUBORDINATE, friends=friends, interests=interests))
        ids = LEGIT_IDS[: len(legit)]
        roster = {i: registry.device(i) for i in ids}
        victim_device = registry.device(ids[victim % len(ids)])
        stolen = Identity(victim_device.id, set(victim_device.friends), set(victim_device.interests),
                          IdentitySource.STOLEN)
        fabricated = Identity("fab-adv0-0", set(forged[0]), set(forged[1]), IdentitySource.FABRICATED)
        for identity in (stolen, fabricated):
            registry.add_identity(identity)
        community = Community(0, tuple(ids[k] for k in sorted({k % len(ids) for k in members})), "residence", 0.5)
        similarity = _StaticSimilarity(weights, registry, ids)
        presented = [*roster.values(), stolen, fabricated]
        for _ in range(2):  # the second pass reads the memo
            for profile in presented:
                want = community_similarity(profile, community, roster, weights)
                assert similarity.community_mean(profile.id, community).hex() == want.hex()

    def test_a_singleton_and_an_outsider(self):
        registry = DeviceRegistry()
        for device_id, friends in (("d0", {"d1"}), ("d1", {"d0"}), ("d2", {"d0", "d1"})):
            registry.register(Device(device_id, DeviceClass.SUBORDINATE, friends=friends, interests={"p"}))
        roster = {d.id: d for d in registry.devices()}
        similarity = _StaticSimilarity(SimilarityWeights(), registry, sorted(roster))
        alone = Community(0, ("d2",), "residence", 0.5)
        pair = Community(1, ("d0", "d1"), "residence", 0.5)
        assert similarity.community_mean("d2", alone) == 0.0
        assert similarity.community_mean("d0", alone) == community_similarity(roster["d0"], alone, roster) > 0.0
        assert similarity.community_mean("d2", pair) == community_similarity(roster["d2"], pair, roster)
        assert similarity.pair("d0", "d2") == pairwise_similarity(roster["d0"], roster["d2"])

    def test_the_matrix_waits_for_the_first_epoch(self):
        engine = SimulationEngine(ScenarioConfig(node_count=30, duration=20.0, seed=5))
        engine.run()  # shorter than one epoch interval
        assert "matrix" not in engine.similarity.__dict__
