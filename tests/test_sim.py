import collections
import dataclasses
import gc
import io
import math
import tracemalloc
import types
import weakref

import numpy as np
import pytest
from hypothesis import given, strategies as st

from siotrust import record
from siotrust.adversary import AttackBehavior, AttackerEngine
from siotrust.metrics import CHUNK_LINES, ConfusionCounters
from siotrust.community import (
    Community,
    SimilarityColumns,
    SimilarityWeights,
    community_similarity,
    pairwise_similarity,
)
from siotrust.sim import (
    SHARED_HOME,
    EventLog,
    ScenarioConfig,
    SimulationEngine,
    _interaction_outcomes,
    _pair_position,
    _StaticSimilarity,
    run_scenario,
)
from siotrust.social import (
    ConfigError,
    Device,
    DeviceClass,
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
        # kept as its float: 30 and 30.0 are one config and write the same bytes
        cfg = ScenarioConfig.from_mapping({"tick": 1, "duration": 120, "speed": 2, "base_rate": 0})
        assert [(type(v), v) for v in (cfg.tick, cfg.duration, cfg.speed, cfg.base_rate)] == [
            (float, 1.0), (float, 120.0), (float, 2.0), (float, 0.0)
        ]
        assert all(type(getattr(cfg, f.name)) is float for f in dataclasses.fields(cfg) if f.type == "float")
        assert ScenarioConfig(base_rate=None).base_rate is None
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

    @pytest.mark.parametrize("kw", [{"behavior": "churn"}, {"relation": "clor"}, {"identity_source": "stolen"}])
    def test_enum_fields_take_members_only(self, kw):
        # a string would run the wrong schedule or fail mid-run; from_mapping is what converts it
        (name,) = kw
        with pytest.raises(ConfigError, match=name):
            ScenarioConfig(**kw)
        assert getattr(ScenarioConfig.from_mapping(kw), name).value == kw[name]

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
        log.extend(30, "pos", np.array([log.symbols.code("x")]), np.zeros(1), np.zeros(1))
        prefixes = [line.split()[0] for line in log.text().splitlines()]
        assert prefixes == ["t=0.0", "t=-0.0", "t=0.0", "t=30.0", "t=30.0", "t=30.0", "t=30.0"]

    def test_a_streamed_log_formats_each_time_and_id_once(self, monkeypatch):
        monkeypatch.setattr(record, "CHUNK_LINES", 4)
        formatted = collections.Counter()

        class CountingTemplate(str):
            def format(self, time):
                formatted[time] += 1
                return super().format(time)

        time_texts = record.time_texts
        monkeypatch.setattr(record, "time_texts", lambda times, template: time_texts(times, CountingTemplate(template)))
        sink = io.StringIO()
        log = EventLog(sink)
        expected, chunks = [], set()
        for k in range(20):
            for j in range(k % 4):  # 0-3 events a tick, flushed every fourth
                log.append(k / 2, "bootstrap", f"d{j}")
                expected.append(f"t={k / 2!r} bootstrap manager=d{j}\n")
                chunks.add((k / 2, (len(expected) - 1) // 4))  # the chunks a time's events fall in
                log.spill()
        log.flush()
        assert sink.getvalue() == "".join(expected)
        assert len(log) == len(expected)
        # once per run of equal times in a chunk: a tick split across a flush is formatted in both chunks
        assert formatted == collections.Counter(time for time, _ in chunks)
        assert max(formatted.values()) == 2
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

    Each line is formatted at append time with the old f-string, behind a
    `t=<repr> ` prefix of the time as a float.
    """

    def __init__(self, symbols):
        self.symbols = symbols
        self.lines = []
        self._last_time = -math.inf

    def append(self, time, kind, *fields):
        if time < self._last_time:
            raise ValueError(f"event log time went backwards: {time} after {self._last_time}")
        self._last_time = time
        self.lines.append(f"t={float(time)!r} " + LINE_FORMATS[kind](*fields))

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
    if overrides.get("tick") == 1:
        assert "\nt=30.0 community id=0 " in reference


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
        assert sorted(engine.attackers) == ["adv00", "adv01", "adv02"]
        assert sorted(engine.managers) == ["d000", "d001", "d002", "d003", "d004", "d005"]

    def test_one_roster(self, small_run):
        engine, result = small_run
        managers = engine.managers
        assert managers == {engine.ids[i] for i in engine.manager_indices.tolist()}
        assert managers == {d.id for d in engine.devices if d.device_class is DeviceClass.MANAGER}
        assert engine.gate.managers is managers
        assert engine.engines and all(e.managers is managers for e in engine.engines)
        bootstrap = [l.split(" ")[2] for l in result.log.text().splitlines() if l.split(" ")[1] == "bootstrap"]
        assert bootstrap == [f"manager={m}" for m in sorted(managers)]
        assert all(engine.devices[i].id == device_id for i, device_id in enumerate(engine.ids))

    def test_one_attacker_roster(self, small_run):
        engine, _ = small_run
        attackers = engine.attackers
        assert isinstance(attackers, frozenset) and engine.gate.attacker_devices is attackers
        assert engine.attacker_mask.tolist() == [i in attackers for i in engine.ids]
        assert engine.attacker_indices.tolist() == np.flatnonzero(engine.attacker_mask).tolist()
        # one engine per attacker device, in index order
        by_index = [engine.ids[i] for i in engine.attacker_indices.tolist()]
        assert by_index == [e.device.id for e in engine.engines] == sorted(attackers)
        assert all(engine.devices[i] is e.device for i, e in zip(engine.attacker_indices.tolist(), engine.engines))

    def test_legit_social_profiles(self, small_run):
        engine, _ = small_run
        for device in engine.devices[engine.legit_mask]:
            assert device.home == SHARED_HOME
            assert len(device.interests) >= engine.cfg.shared_interest_count

    def test_attackers_are_blank_outsiders(self, small_run):
        engine, _ = small_run
        for device in engine.devices[engine.attacker_indices]:
            assert device.home is None
            assert device.friends == set()
        # an attacker device presents only the identities it acquired, never its own id
        attackers = engine.attackers
        assert not attackers & {identity.id for e in engine.engines for identity in e.pool}
        assert not attackers & set(engine.gate.members)
        assert not attackers & set(engine.similarity.fabricated)


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
        engine, result = small_run
        attacker_decisions = [d for d in result.decisions if d.attacker]
        assert attacker_decisions
        pools = {e.device.id: e.pool for e in engine.engines}
        for decision in attacker_decisions:
            assert decision.identity in {identity.id for identity in pools[decision.presenter]}
        # the default source is theft: every pooled identity bears a legitimate victim's id
        assert {i.id for e in engine.engines for i in e.pool} <= set(engine.legit_ids)
        assert all(d.presenter == d.identity for d in result.decisions if not d.attacker)

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
        names = engine.log.symbols.names
        everyone = np.arange(len(names))
        received = [(engine.rec_cache.received(c, everyone, -1.0) >= 0).any() for c in everyone.tolist()]
        receivers = {names[c] for c in np.flatnonzero(received).tolist()}
        assert receivers and receivers <= engine.managers

    def test_esr_split_labels(self, small_run, tmp_path):
        _, result = small_run
        splits = result.esr_splits()
        assert set(splits) == {"internal", "external"}
        assert splits["internal"] and splits["external"]
        flat = splits["internal"] + splits["external"]
        assert len(flat) == len(result.assessments)
        # each split's T in row order, bit for bit
        hexed = {split: list(map(float.hex, values)) for split, values in splits.items()}
        for split in splits:
            assert hexed[split] == [a.trust.hex() for a in result.assessments if a.split == split]
        # a streamed run keeps only T and the split, and returns the same lists
        with open(tmp_path / "events.log", "w", encoding="utf-8", newline="") as events, open(
            tmp_path / "trust.csv", "w", encoding="utf-8", newline=""
        ) as trust:
            streamed = SimulationEngine(ScenarioConfig(**SMALL), events, trust).run()
        assert {split: list(map(float.hex, values)) for split, values in streamed.esr_splits().items()} == hexed

    def test_metrics_report_carries_the_scenario(self, small_run):
        _, result = small_run
        report = result.summary().metrics_report()
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


def block_reference(engine, rows, columns=slice(None)):
    """Squared distances from each device in `rows` to each in `columns`: the block kernel the pair vector replaced."""
    x = engine.positions[:, 0]
    y = engine.positions[:, 1]
    dx = x[rows, None] - x[None, columns]
    dy = y[rows, None] - y[None, columns]
    return dx * dx + dy * dy


def nearest_managers_reference(engine, devices):
    """Each device's nearest manager from a block of its rows against the managers."""
    return engine.manager_indices[np.argmin(block_reference(engine, devices, engine.manager_indices), axis=1)]


def reference_in_range(engine, device_index, sq_dist, mask):
    """The scalar ordering: hits under `mask` other than the device, by (distance, id)."""
    row = sq_dist[device_index]
    hits = np.nonzero(mask & (row <= engine.cfg.interaction_radius**2))[0]
    ordered = sorted(int(i) for i in hits if i != device_index)
    ordered.sort(key=lambda i: (row[i], engine.ids[i]))
    return [engine.devices[i] for i in ordered]


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
        # the attackers' rows hold the matrix entries, and the nearest manager is the row's first minimum
        block = np.ix_(world.attacker_indices, np.flatnonzero(world.legit_mask))
        assert got[world._attacker_pairs].tolist() == matrix[block].tolist()
        managers, others = world.manager_indices, np.flatnonzero(~world.manager_mask)
        nearest = world._nearest_managers(got, others).tolist()
        assert nearest == [managers[int(np.argmin(matrix[i, managers]))] for i in others.tolist()]

    @given(n=st.integers(2, 80))
    def test_a_pair_position_is_its_place_in_the_pairs(self, n):
        ii, jj = SimulationEngine._pairs.func(types.SimpleNamespace(ids=range(n)))
        assert _pair_position(ii, jj, n).tolist() == list(range(n * (n - 1) // 2))
        # every pair i != j, in either order
        i, j = np.nonzero(~np.eye(n, dtype=bool))
        k = _pair_position(i, j, n)
        assert (ii[k].tolist(), jj[k].tolist()) == (np.minimum(i, j).tolist(), np.maximum(i, j).tolist())

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
            engine.gate.members[device_id] = {device_id}
        engine._interactions(0.0, engine._squared_distances())
        ii, jj = engine._pairs
        met = np.flatnonzero(engine.last_interaction == 0.0)
        assert list(zip(ii[met].tolist(), jj[met].tolist())) == [(d000, d001), (d000, d003)]


def two_list_ranges(engine):
    """The attacker ranges as two lists, before the managers were left to the attacker to pick out.

    Per attacker: (legitimate devices in radius, the managers among them),
    both nearest first, ties by id.
    """
    block = block_reference(engine, engine.attacker_indices)
    rows, columns = np.nonzero(engine.legit_mask & (block <= engine.cfg.interaction_radius**2))
    order = np.lexsort((columns, block[rows, columns], rows))
    rows, columns = rows[order], columns[order]
    manages = engine.manager_mask[columns]
    attackers = np.arange(len(engine.attacker_indices) + 1)
    victims = engine.devices[columns].tolist()
    managers = engine.devices[columns[manages]].tolist()
    v = np.searchsorted(rows, attackers).tolist()
    m = np.searchsorted(rows[manages], attackers).tolist()
    return [(victims[v[k] : v[k + 1]], managers[m[k] : m[k + 1]]) for k in attackers[:-1].tolist()]


def assert_one_list_equals_two(engine, ranges):
    """Each in-range list is the reference's victims, and its managers are the reference's managers."""
    reference = two_list_ranges(engine)
    assert len(ranges) == len(reference) == len(engine.engines)
    for in_range, (victims, managers), attacker in zip(ranges, reference, engine.engines):
        assert in_range == victims
        assert [d for d in in_range if d.id in attacker.managers] == managers


class TestInRange:
    @given(positions=layouts)
    def test_order_equals_the_distance_id_sort(self, world, positions):
        world.positions = positions
        matrix = reference_matrix(positions)
        ranges = world._attacker_ranges(world._squared_distances())
        assert_one_list_equals_two(world, ranges)
        for index, in_range in zip(world.attacker_indices.tolist(), ranges):
            assert in_range == reference_in_range(world, index, matrix, world.legit_mask)
            managers = [d for d in in_range if d.id in world.managers]
            assert managers == reference_in_range(world, index, matrix, world.manager_mask)

    @pytest.mark.parametrize("source", [IdentitySource.STOLEN, IdentitySource.FABRICATED])
    @pytest.mark.parametrize("behavior", [AttackBehavior.CHURN, AttackBehavior.MULTI])
    def test_every_tick_equals_the_two_list_reference(self, behavior, source):
        """The block kernel's in-range lists and nearest managers, and the observe loop's sets, on every tick."""
        config = ScenarioConfig(node_count=40, duration=300.0, seed=3, behavior=behavior, identity_source=source,
                                forged_set_size=3, deny_streak_limit=1)
        engine = SimulationEngine(config)
        ranges, nearest = engine._attacker_ranges, engine._nearest_managers
        managers_seen, picks = [], []
        observed = {e.device.id: (set(), set()) for e in engine.engines}

        def checked(sq_dist):
            got = ranges(sq_dist)
            assert_one_list_equals_two(engine, got)
            managers_seen.append(sum(d.id in engine.managers for in_range in got for d in in_range))
            for attacker, in_range in zip(engine.engines, got):
                devices, interests = observed[attacker.device.id]
                observe_loop(devices, interests, in_range)
                seen = engine.legit_devices[attacker.observed].tolist()
                assert {d.id for d in seen} == devices
                assert set().union(*(d.interests for d in seen)) == interests
            return got

        def checked_nearest(sq_dist, devices):
            got = nearest(sq_dist, devices)
            assert got.tolist() == nearest_managers_reference(engine, devices).tolist()
            picks.append(len(devices))
            return got

        engine._attacker_ranges = checked
        engine._nearest_managers = checked_nearest
        engine.run()
        assert len(managers_seen) == 300 and any(managers_seen) and sum(picks) > 0
        assert all(devices for devices, _ in observed.values())


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
        attackers = {e.device.id: e for e in self.engines}
        for i, device_id in enumerate(self.ids):
            if self.attacker_mask[i]:
                presented = attackers[device_id].presented
                if (
                    presented is not None
                    and device_id in self.gate.members.get(presented.id, ())
                ):
                    member[i] = True
                    identity_of[i] = presented.id
            elif device_id in self.gate.members:
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

    assert presented() == [i if i in engine.managers else None for i in engine.ids]  # the first members
    engine.gate.members["d010"] = {"d010"}
    engine.gate.members["d012"] = {"adv01"}  # an identity on the roster makes its device a member
    expected = [i if i in engine.managers or i in ("d010", "d012") else None for i in engine.ids]
    assert presented() == expected
    attacker = next(e for e in engine.engines if e.device.id == "adv01")
    attacker.presented = attacker.steal_identity(engine.devices[engine.ids.index("d012")])
    assert presented() == [("d012" if i == "adv01" else p) for i, p in zip(engine.ids, expected)]


@pytest.mark.parametrize("source", [IdentitySource.STOLEN, IdentitySource.FABRICATED])
@pytest.mark.parametrize("behavior", [AttackBehavior.CHURN, AttackBehavior.MULTI])
def test_acquisition_lines_name_each_attackers_pool(behavior, source):
    # a deny streak of one makes `notify` rotate, and so acquire, after most denials
    forged = 3 if source is IdentitySource.FABRICATED else 0
    config = ScenarioConfig(node_count=40, duration=300.0, seed=3, behavior=behavior, identity_source=source,
                            forged_set_size=forged, deny_streak_limit=1)
    engine = SimulationEngine(config)
    result = engine.run()
    logged = {attacker_id: [] for attacker_id in engine.attackers}
    for line in result.log.text().splitlines():
        _, kind, *pairs = line.split(" ")
        if kind in ("theft", "fabricate"):
            values = dict(pair.split("=", 1) for pair in pairs)
            assert kind == ("theft" if source is IdentitySource.STOLEN else "fabricate")
            assert values.get("victim", values["identity"]) == values["identity"]
            logged[values["attacker"]].append(values["identity"])
    assert logged == {e.device.id: [i.id for i in e.pool] for e in engine.engines}
    assert sum(map(len, logged.values())) > len(logged)


def observe_loop(devices, interests, in_range):
    """The per-device observe loop the mask replaced: add each device's id and interests to the sets."""
    for dev in in_range:
        if dev.id not in devices:
            devices.add(dev.id)
            interests.update(dev.interests)


def test_observing_each_device_once_gathers_the_same_sets(monkeypatch):
    # fabricated identities forge their sets from what was observed, so the
    # forged sets and the log read the observations; the reference observes
    # in `attempt` into sets and forges from the sets
    config = ScenarioConfig(node_count=40, duration=300.0, identity_source=IdentitySource.FABRICATED,
                            forged_set_size=3, seed=2)
    masked = SimulationEngine(config)
    masked_run = masked.run()
    attempt = AttackerEngine.attempt

    def observing_attempt(self, now, in_range):
        observe_loop(self.__dict__.setdefault("loop_devices", set()),
                     self.__dict__.setdefault("loop_interests", set()), in_range)
        return attempt(self, now, in_range)

    def forging_from_the_sets(self):
        k = self.config.forged_set_size
        identity = Identity(f"fab-{self.device.id}-{len(self.pool)}", self._forge(self.loop_devices, k),
                            self._forge(self.loop_interests, k))
        self.pool.append(identity)
        return identity

    monkeypatch.setattr(AttackerEngine, "attempt", observing_attempt)
    monkeypatch.setattr(AttackerEngine, "fabricate_identity", forging_from_the_sets)
    looped = SimulationEngine(config)
    assert looped.run().log.text() == masked_run.log.text()

    def forged(engine):
        return {i.id: (i.friends, i.interests) for e in engine.engines for i in e.pool}

    for mask_engine, loop_engine in zip(masked.engines, looped.engines):
        seen = masked.legit_devices[mask_engine.observed].tolist()
        assert {d.id for d in seen} == loop_engine.loop_devices
        assert set().union(*(d.interests for d in seen)) == loop_engine.loop_interests
    assert forged(masked) == forged(looped)
    assert any(friends and interests for friends, interests in forged(masked).values())


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
        # arrays' headroom and the decisions and communities
        assert retained <= 32 * len(result.log) + 64 * len(result.assessments)

    def tracked_objects(self, duration):
        run_scenario(self.config(duration))
        gc.collect()
        before = len(gc.get_objects())
        result = run_scenario(self.config(duration))
        # decisions are one dataclass per request, not part of the columnar record
        result.decisions.clear()
        gc.collect()
        return len(gc.get_objects()) - before, result

    def test_tracked_objects_do_not_grow_with_duration(self):
        short, short_run = self.tracked_objects(300.0)
        long, long_run = self.tracked_objects(600.0)
        assert len(long_run.log) > 1.5 * len(short_run.log)
        assert len(long_run.assessments) > 1.5 * len(short_run.assessments)
        assert long == short


class TestMonitorMemory:
    def test_reads_the_manager_by_member_cells_not_the_whole_store(self):
        engine = SimulationEngine(ScenarioConfig(node_count=30, duration=60.0, seed=5))
        engine.run()  # communities formed and members on the roster
        # one opinion far out on both axes: the store is now much wider than the block monitoring reads
        code = engine.log.symbols.code
        far = [code(f"far-{k}") for k in range(1200)][-1]
        engine.store.record_coded([far], [far], np.array([True]))
        rows, columns = engine.store._extent
        block = len(engine.managers) * len(engine.gate.members)
        assert rows * columns > 1000 * block
        engine._monitor_members(60.0)  # first-use caches outside the measurement
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            engine._monitor_members(60.0)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        # a gather of the block and its rows; a whole-store E alone is 8 bytes a cell
        assert peak < 8 * rows * columns, (peak, rows * columns)


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
                gc.collect()
                retained = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
            grown.append((retained, len(result.log), len(result.assessments)))
            del result
        (short, events, assessments), (long, more_events, more_assessments) = grown
        assert more_events - events > 2 * (more_assessments - assessments)
        # 9 bytes of T and split per assessment plus the arrays' headroom; nothing per event or tick
        assert long - short <= 12 * (more_assessments - assessments)

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
            presenters = self.gate.members[identity_id]
            if len(presenters) < 2:
                continue
            for manager in sorted(self.managers):
                self.store.record_experience(manager, identity_id, "negative", penalty)
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
        devices = [Device(device_id, DeviceClass.SUBORDINATE, friends=friends, interests=interests)
                   for device_id, (friends, interests) in zip(LEGIT_IDS, legit)]
        ids = [d.id for d in devices]
        roster = {d.id: d for d in devices}
        victim_device = devices[victim % len(devices)]
        stolen = Identity(victim_device.id, set(victim_device.friends), set(victim_device.interests))
        fabricated = Identity("fab-adv0-0", set(forged[0]), set(forged[1]))
        community = Community(0, tuple(ids[k] for k in sorted({k % len(ids) for k in members})), "residence")
        similarity = _StaticSimilarity(weights, devices)
        similarity.fabricated[fabricated.id] = fabricated
        presented = [*devices, stolen, fabricated]
        for _ in range(2):  # the second pass reads the memo
            for profile in presented:
                want = community_similarity(profile, community, roster, weights)
                assert similarity.community_mean(profile.id, community).hex() == want.hex()

    def test_a_singleton_and_an_outsider(self):
        devices = [Device(device_id, DeviceClass.SUBORDINATE, friends=friends, interests={"p"})
                   for device_id, friends in (("d0", {"d1"}), ("d1", {"d0"}), ("d2", {"d0", "d1"}))]
        roster = {d.id: d for d in devices}
        similarity = _StaticSimilarity(SimilarityWeights(), devices)
        alone = Community(0, ("d2",), "residence")
        pair = Community(1, ("d0", "d1"), "residence")
        assert similarity.community_mean("d2", alone) == 0.0
        assert similarity.community_mean("d0", alone) == community_similarity(roster["d0"], alone, roster) > 0.0
        assert similarity.community_mean("d2", pair) == community_similarity(roster["d2"], pair, roster)
        assert similarity.pair("d0", "d2") == pairwise_similarity(roster["d0"], roster["d2"])

    def test_one_column_index_per_run(self, monkeypatch):
        built = []
        init = SimilarityColumns.__init__

        def counting(self, *args):
            built.append(len(args[0]))
            init(self, *args)

        monkeypatch.setattr(SimilarityColumns, "__init__", counting)
        engine = SimulationEngine(ScenarioConfig(node_count=40, duration=300.0, seed=2,
                                                 identity_source=IdentitySource.FABRICATED, forged_set_size=3))
        engine.run()
        assert len(engine.similarity._rows) > 1  # fabricated ids took their own rows
        assert built == [len(engine.legit_ids)]

    def test_the_matrix_waits_for_the_first_epoch(self):
        engine = SimulationEngine(ScenarioConfig(node_count=30, duration=20.0, seed=5))
        engine.run()  # shorter than one epoch interval
        assert "matrix" not in engine.similarity.__dict__
