import collections
import csv
import json
import multiprocessing
import os
import signal
import threading

import pytest

from siotrust import ConfigError, ScenarioConfig, SimulationEngine, record, writer
from siotrust.adversary import AttackBehavior
from siotrust.cli import build_parser, main, run_batch
from siotrust.social import DEFAULT_BASE_RATES, IdentitySource, RelationType

SMALL = {"node_count": 30, "duration": 60.0}


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "small.json"
    path.write_text(json.dumps(SMALL))
    return str(path)


def read_metrics(out_dir):
    with open(out_dir / "metrics.csv") as handle:
        return list(csv.DictReader(handle))


class TestSingleRun:
    def test_writes_the_full_file_set(self, tmp_path, config_path, capsys):
        out = tmp_path / "out"
        assert main(["--config", config_path, "--out", str(out)]) == 0
        names = {p.name for p in out.iterdir()}
        assert names == {
            "events-s1.log",
            "decisions-s1.csv",
            "trust-s1.csv",
            "esr-s1.csv",
            "communities-s1.csv",
            "attacks-s1.csv",
            "metrics.csv",
            "manifest.json",
        }
        printed = capsys.readouterr().out
        assert printed.startswith("seed 1: churn-stolen residence DR=")
        assert "wrote" in printed

    def test_summary_reports_rates(self, tmp_path, config_path, capsys):
        out = tmp_path / "out"
        main(["--config", config_path, "--out", str(out)])
        rows = read_metrics(out)
        assert len(rows) == 1
        row = rows[0]
        assert row["scenario"] == "churn-stolen"
        assert row["context"] == "residence"
        assert row["seed"] == "1"
        assert row["FP"] == "0.0"  # structural: every resident admits at start


class TestSeedExpansion:
    def test_consecutive_seeds(self, tmp_path, config_path):
        out = tmp_path / "out"
        code = main(
            ["--config", config_path, "--seed", "42", "--seeds", "3", "--out", str(out)]
        )
        assert code == 0
        rows = read_metrics(out)
        assert [r["seed"] for r in rows] == ["42", "43", "44"]
        for seed in (42, 43, 44):
            assert (out / f"events-s{seed}.log").exists()

    def test_manifest_records_the_batch(self, tmp_path, config_path):
        out = tmp_path / "out"
        main(["--config", config_path, "--seed", "42", "--seeds", "2", "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["format"] == "siotrust-manifest/1"
        assert manifest["seeds"] == [42, 43]
        assert manifest["config"]["node_count"] == 30
        assert manifest["config"]["seed"] == 42
        assert manifest["outputs"]["43"]["decisions"] == "decisions-s43.csv"
        assert manifest["aggregate"] == {"metrics": "metrics.csv"}

    def test_zero_seeds_rejected(self, tmp_path, config_path, capsys):
        code = main(["--config", config_path, "--seeds", "0", "--out", str(tmp_path / "o")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_an_empty_seed_list_is_refused_before_any_write(self, tmp_path):
        # its manifest would list no seeds, which `--from-manifest` refuses
        out = tmp_path / "o"
        with pytest.raises(ConfigError, match="seed list is empty"):
            run_batch(ScenarioConfig(**SMALL), [], out)
        assert not out.exists()


class TestFailedSeed:
    """A seed that raises leaves its files under `.partial` names only; the others finish."""

    @staticmethod
    def fail_mid_run(monkeypatch, seed):
        move = SimulationEngine._move
        moves = collections.Counter()

        def failing(engine):
            moves[engine.cfg.seed] += 1
            if engine.cfg.seed == seed and moves[seed] == 40:
                raise RuntimeError(f"seed {seed} broke")
            move(engine)

        monkeypatch.setattr(SimulationEngine, "_move", failing)

    @pytest.mark.parametrize("path", ["in_process", "writer_path"], ids=["in-process", "writer"])
    def test_a_single_seed(self, tmp_path, monkeypatch, request, path):
        run_batch(ScenarioConfig(**SMALL), [5], tmp_path / "clean")
        request.getfixturevalue(path)
        monkeypatch.setattr(record, "CHUNK_LINES", 100)  # flush often enough to see the run's start
        self.fail_mid_run(monkeypatch, 5)
        out = tmp_path / "failed"
        with pytest.raises(RuntimeError, match="seed 5 broke"):
            run_batch(ScenarioConfig(**SMALL), [5], out)
        assert {p.name for p in out.iterdir()} == {"events-s5.log.partial", "trust-s5.csv.partial"}
        for partial, final in (("events-s5.log.partial", "events-s5.log"), ("trust-s5.csv.partial", "trust-s5.csv")):
            written, whole = (out / partial).read_bytes(), (tmp_path / "clean" / final).read_bytes()
            assert 1000 < len(written) < len(whole) and whole.startswith(written), partial

    def test_a_killed_writer_process_fails_the_seed(self, tmp_path, monkeypatch, writer_path):
        monkeypatch.setattr(record, "CHUNK_LINES", 100)
        move = SimulationEngine._move
        moves = collections.Counter()
        cpus = os.sched_getaffinity(0)

        def killing(engine):
            moves[engine.cfg.seed] += 1
            if moves[engine.cfg.seed] == 40:
                (child,) = multiprocessing.active_children()
                if len(cpus) > 1:  # this process keeps its CPU, and the child runs on the others
                    here = os.sched_getaffinity(0)
                    assert len(here) == 1 and os.sched_getaffinity(child.pid) == cpus - here
                os.kill(child.pid, signal.SIGKILL)
            move(engine)

        monkeypatch.setattr(SimulationEngine, "_move", killing)
        out = tmp_path / "out"
        with pytest.raises(ChildProcessError, match="died with exit code -9"):
            run_batch(ScenarioConfig(**SMALL), [5], out)
        names = {p.name for p in out.iterdir()}
        assert {"events-s5.log.partial", "trust-s5.csv.partial"} <= names
        assert all(name.endswith(".partial") for name in names), names

    @pytest.mark.parametrize("path", ["in_process", "writer_path"], ids=["in-process", "writer"])
    def test_one_seed_of_a_pooled_batch(self, tmp_path, monkeypatch, request, path):
        base = ScenarioConfig(**SMALL)
        run_batch(base, [6], tmp_path / "alone")
        request.getfixturevalue(path)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)  # two seeds on the thread pool
        self.fail_mid_run(monkeypatch, 5)
        out = tmp_path / "pooled"
        with pytest.raises(RuntimeError, match="seed 5 broke"):
            run_batch(base, [5, 6], out)
        names = {p.name for p in out.iterdir()}
        assert {name for name in names if "-s5." in name} == {"events-s5.log.partial", "trust-s5.csv.partial"}
        complete = {name for name in names if "-s6." in name}
        assert len(complete) == 6 and not any(name.endswith(".partial") for name in complete)
        for name in complete:
            assert (out / name).read_bytes() == (tmp_path / "alone" / name).read_bytes(), name
        assert "metrics.csv" not in names and "manifest.json" not in names

    def test_a_killed_writer_process_of_a_pooled_batch_fails_its_seed_alone(self, tmp_path, monkeypatch, writer_path):
        """The killed writer is retired, and the seeds after it still write a solo run's bytes."""
        base = ScenarioConfig(**SMALL)
        for seed in (6, 7):
            run_batch(base, [seed], tmp_path / "alone")
        monkeypatch.setattr(record, "CHUNK_LINES", 100)
        serving = {}  # pool thread -> the writer it borrowed last
        seed_of = writer.Writer.seed

        def recording(self, events, trust):
            serving[threading.get_ident()] = self
            return seed_of(self, events, trust)

        monkeypatch.setattr(writer.Writer, "seed", recording)
        move = SimulationEngine._move
        moves = collections.Counter()

        def killing(engine):
            moves[engine.cfg.seed] += 1
            if engine.cfg.seed == 5 and moves[5] == 40:
                os.kill(serving[threading.get_ident()]._process.pid, signal.SIGKILL)
            move(engine)

        monkeypatch.setattr(SimulationEngine, "_move", killing)
        out = tmp_path / "pooled"
        with pytest.raises(ChildProcessError, match="died with exit code -9"):
            run_batch(base, [5, 6, 7], out)
        names = {p.name for p in out.iterdir()}
        failed = {name for name in names if "-s5." in name}
        assert {"events-s5.log.partial", "trust-s5.csv.partial"} <= failed
        assert all(name.endswith(".partial") for name in failed), failed
        for seed in (6, 7):
            complete = {name for name in names if f"-s{seed}." in name}
            assert len(complete) == 6, complete
            for name in complete:
                assert (out / name).read_bytes() == (tmp_path / "alone" / name).read_bytes(), name
        assert "metrics.csv" not in names

    def test_a_failed_batch_leaves_no_earlier_batch_file_under_a_final_name(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        run_batch(ScenarioConfig(node_count=20, duration=60.0), [1, 2], out)
        self.fail_mid_run(monkeypatch, 1)
        with pytest.raises(RuntimeError, match="seed 1 broke"):
            run_batch(ScenarioConfig(node_count=24, duration=60.0), [1, 2], out)
        names = {p.name for p in out.iterdir()}
        assert {name for name in names if "-s1." in name} == {"events-s1.log.partial", "trust-s1.csv.partial"}
        assert "metrics.csv" not in names and "manifest.json" not in names
        monkeypatch.undo()
        run_batch(ScenarioConfig(node_count=24, duration=60.0), [2], tmp_path / "alone")
        complete = {name for name in names if "-s2." in name}
        assert len(complete) == 6
        for name in complete:
            assert (out / name).read_bytes() == (tmp_path / "alone" / name).read_bytes(), name


class TestPooledWriters:
    """A pooled batch forks one writer process per pool slot before its first thread starts."""

    def test_pool_threads_run_on_the_callers_cpu_and_writers_on_the_others(self, tmp_path, monkeypatch, writer_path):
        cpus = os.sched_getaffinity(0)
        move = SimulationEngine._move
        moves = collections.Counter()
        threads, children = [], []

        def placing(engine):
            moves[engine.cfg.seed] += 1
            if moves[engine.cfg.seed] == 40:
                caller = os.sched_getaffinity(threading.main_thread().native_id)
                threads.append((caller, os.sched_getaffinity(0)))
                if engine.cfg.seed == 1:
                    children.extend(os.sched_getaffinity(child.pid) for child in multiprocessing.active_children())
            move(engine)

        monkeypatch.setattr(SimulationEngine, "_move", placing)
        run_batch(ScenarioConfig(**SMALL), [1, 2, 3, 4], tmp_path)
        assert len(threads) == 4 and len(children) == 2
        for caller, thread in threads:
            assert len(caller) == 1 and thread == caller
        assert children == [cpus - threads[0][0]] * 2

    def test_every_writer_forks_beside_no_other_thread(self, tmp_path, monkeypatch, writer_path):
        fork = os.fork
        threads = []

        def counting():
            threads.append(threading.active_count())
            return fork()

        monkeypatch.setattr(os, "fork", counting)
        run_batch(ScenarioConfig(**SMALL), [1, 2, 3, 4], tmp_path)
        assert threads == [1, 1]


class TestWriterProcess:
    def test_reads_its_pipe_on_one_thread(self, tmp_path, monkeypatch, writer_path):
        monkeypatch.setattr(record, "CHUNK_LINES", 10)
        ship = writer.Writer.ship
        threads = []

        def counting(self, spool):
            ship(self, spool)
            threads.append(len(os.listdir(f"/proc/{self._process.pid}/task")))

        monkeypatch.setattr(writer.Writer, "ship", counting)
        run_batch(ScenarioConfig(**SMALL), [5], tmp_path)
        assert len(threads) > 10 and set(threads) == {1}, threads


class TestUnreadFields:
    """A field the configured schedule or identity source never reads is named on stdout, and changes no byte."""

    @pytest.mark.parametrize(
        "behavior, unread, reader",
        [
            ("churn", {"pool_size": 3, "idle_fraction": 0.1}, "churn schedule"),
            ("multi", {"deny_streak_limit": 1}, "multi schedule"),
            ("multi", {"forged_set_size": 3}, "stolen identity source"),
        ],
    )
    def test_warns_and_writes_the_default_bytes(self, tmp_path, capsys, behavior, unread, reader):
        runs = {}
        for label, fields in (("set", unread), ("default", {})):
            config = tmp_path / f"{label}.json"
            config.write_text(json.dumps({"node_count": 40, "behavior": behavior, **fields}))
            assert main(["--config", str(config), "--out", str(tmp_path / label)]) == 0
            runs[label] = capsys.readouterr()
        warnings = [line for line in runs["set"].out.splitlines() if line.startswith("warning: ")]
        assert [line.split()[1] for line in warnings] == list(unread)
        assert all(reader in line for line in warnings)
        assert runs["set"].err == "" and "warning" not in runs["default"].out
        names = sorted(p.name for p in (tmp_path / "default").iterdir() if p.name != "manifest.json")
        for name in names:
            assert (tmp_path / "set" / name).read_bytes() == (tmp_path / "default" / name).read_bytes(), name


def test_a_self_loop_warns_once_a_batch_on_stdout(tmp_path, capsys):
    edges = tmp_path / "edges.txt"
    edges.write_text("".join(f"{i} {(i + k) % 40}\n" for i in range(40) for k in (1, 2)) + "5 5\n")
    flags = ["--nodes", "30", "--duration", "60", "--seeds", "2", "--friends", str(edges)]
    assert main([*flags, "--out", str(tmp_path / "o")]) == 0
    printed = capsys.readouterr()
    warnings = [line for line in printed.out.splitlines() if line.startswith("warning: ")]
    assert warnings == [f"warning: dropped 1 self-loop(s) from {edges}"]
    assert printed.err == ""


def test_flag_choices_come_from_their_sources():
    choices = {action.dest: action.choices for action in build_parser()._actions}
    assert choices["behavior"] == [member.value for member in AttackBehavior]
    assert choices["identity"] == [member.value for member in IdentitySource]
    assert choices["relation"] == [member.value for member in RelationType]
    assert choices["context"] == list(DEFAULT_BASE_RATES)


class TestPrecedence:
    def test_flags_override_the_config_file(self, tmp_path, config_path):
        out = tmp_path / "out"
        main(["--config", config_path, "--duration", "30", "--context", "park", "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["duration"] == 30.0
        assert manifest["config"]["context_kind"] == "park"
        assert manifest["config"]["node_count"] == 30  # untouched config value survives


class TestReplay:
    def test_replay_reproduces_the_events(self, tmp_path, config_path):
        first = tmp_path / "first"
        again = tmp_path / "again"
        main(["--config", config_path, "--seed", "7", "--seeds", "2", "--out", str(first)])
        code = main(["--from-manifest", str(first / "manifest.json"), "--out", str(again)])
        assert code == 0
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in again.iterdir())
        assert len(names) == 2 * 6 + 2  # six files per seed, metrics.csv, manifest.json
        for name in names:
            assert (again / name).read_bytes() == (first / name).read_bytes(), name

    @pytest.mark.parametrize("via", ["flag", "config", "library"])
    def test_replay_from_another_directory_reads_the_same_friends_file(self, tmp_path, monkeypatch, via):
        run_dir, other = tmp_path / "run", tmp_path / "other"
        for root, step in ((run_dir, 3), (other, 1)):  # the same relative path, two different graphs
            (root / "data").mkdir(parents=True)
            edges = "".join(f"{i} {(i + k) % 40}\n" for i in range(40) for k in range(1, step + 1))
            (root / "data" / "edges.txt").write_text(edges)
        config = {**SMALL, "friends_path": "data/edges.txt"} if via == "config" else SMALL
        (run_dir / "small.json").write_text(json.dumps(config))
        monkeypatch.chdir(run_dir)
        if via == "library":
            run_batch(ScenarioConfig(**SMALL, friends_path="data/edges.txt"), [1], run_dir / "a")
        else:
            flags = ["--friends", "data/edges.txt"] if via == "flag" else []
            assert main(["--config", "small.json", *flags, "--out", "a"]) == 0
        recorded = json.loads((run_dir / "a" / "manifest.json").read_text())["config"]["friends_path"]
        assert os.path.isabs(recorded) and os.path.samefile(recorded, run_dir / "data" / "edges.txt")
        monkeypatch.chdir(other)
        assert main(["--from-manifest", "../run/a/manifest.json", "--out", "b"]) == 0
        names = sorted(p.name for p in (run_dir / "a").iterdir())
        assert names == sorted(p.name for p in (other / "b").iterdir())
        for name in names:
            assert (other / "b" / name).read_bytes() == (run_dir / "a" / name).read_bytes(), name

    def test_integer_and_float_twins_write_the_same_bytes(self, tmp_path):
        twins = [
            ScenarioConfig.from_mapping({"node_count": 30, "tick": tick, "duration": duration})
            for tick, duration in ((1, 120), (1.0, 120.0))
        ]
        assert twins[0] == twins[1] and hash(twins[0]) == hash(twins[1])
        for name, config in zip("ab", twins):
            run_batch(config, [1, 2], tmp_path / name)
        names = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert "manifest.json" in names and names == sorted(p.name for p in (tmp_path / "b").iterdir())
        for name in names:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name

    def test_replay_refuses_extra_scenario_flags(self, tmp_path, config_path, capsys):
        out = tmp_path / "out"
        main(["--config", config_path, "--out", str(out)])
        code = main(["--from-manifest", str(out / "manifest.json"), "--seed", "3"])
        assert code == 2
        assert "--seed" in capsys.readouterr().err

    def test_replay_rejects_foreign_json(self, tmp_path, capsys):
        impostor = tmp_path / "manifest.json"
        impostor.write_text(json.dumps({"format": "something-else"}))
        assert main(["--from-manifest", str(impostor)]) == 2
        assert "not a recognized run manifest" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "fields,named",
        [
            ({"seeds": [1]}, "'config'"),
            ({"config": SMALL}, "'seeds'"),
            ({"config": SMALL, "seeds": [1, "two"]}, "'seeds'"),
            ({"config": SMALL, "seeds": [1.5]}, "'seeds'"),
            ({"config": SMALL, "seeds": 3}, "'seeds'"),
            ({"config": [30], "seeds": [1]}, "'config'"),
        ],
    )
    def test_replay_rejects_incomplete_manifest(self, tmp_path, capsys, fields, named):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"format": "siotrust-manifest/1", **fields}))
        assert main(["--from-manifest", str(manifest), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: manifest") and named in err

    @pytest.mark.parametrize("seeds,named", [([1, 1], "1"), ([3, 1, 3, 2, 1], "1, 3")])
    def test_replay_refuses_a_repeated_seed(self, tmp_path, capsys, seeds, named):
        # two runs of one seed would write the same six files at once
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"format": "siotrust-manifest/1", "config": SMALL, "seeds": seeds}))
        out = tmp_path / "o"
        assert main(["--from-manifest", str(manifest), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: seed list repeats seed(s) {named}:")
        assert not out.exists()


class TestBadInput:
    def test_invalid_json_config(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        assert main(["--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--config", "--from-manifest"])
    def test_non_utf8_json_file(self, tmp_path, capsys, flag):
        path = tmp_path / "utf16.json"
        path.write_bytes("{}".encode("utf-16"))  # starts with the bytes ff fe
        assert main([flag, str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "not UTF-8" in err

    def test_config_must_hold_an_object(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        assert main(["--config", str(path), "--out", str(tmp_path / "o")]) == 2

    def test_unknown_config_key(self, tmp_path, capsys):
        path = tmp_path / "typo.json"
        path.write_text(json.dumps({"node_cuont": 30}))
        assert main(["--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "unknown scenario parameter" in capsys.readouterr().err

    def test_bad_enum_value_in_config(self, tmp_path, capsys):
        path = tmp_path / "enum.json"
        path.write_text(json.dumps({"behavior": "nope"}))
        assert main(["--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "error: 'nope' is not a valid AttackBehavior" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "bad", [{"pool_size": 0}, {"attacker_speed_factor": 0}, {"identity_source": "legitimate"}]
    )
    def test_attacker_field_errors_name_the_key(self, tmp_path, capsys, bad):
        path = tmp_path / "attack.json"
        path.write_text(json.dumps(bad))
        assert main(["--config", str(path), "--out", str(tmp_path / "o")]) == 2
        (key,) = bad
        assert any(line.startswith("error: ") and key in line for line in capsys.readouterr().err.splitlines())
        assert not (tmp_path / "o").exists()

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["--config", str(tmp_path / "ghost.json")]) == 2

    def test_missing_friends_file(self, tmp_path, config_path, capsys):
        code = main(
            [
                "--config",
                config_path,
                "--friends",
                str(tmp_path / "ghost-edges.txt"),
                "--out",
                str(tmp_path / "o"),
            ]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content, named",
        [(b"1 2 3\n", "edge line 1: expected 2 fields, got 3"), (b"1 \xff\n", "utf-8")],
    )
    def test_malformed_friends_file(self, tmp_path, config_path, capsys, content, named):
        edges = tmp_path / "e.txt"
        edges.write_bytes(content)
        code = main(["--config", config_path, "--friends", str(edges), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: friendship file") and named in err

    def test_unknown_flag_exits_through_argparse(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--bogus"])
        assert exc.value.code == 2

    def test_bad_choice_exits_through_argparse(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--behavior", "stealth"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "bad",
        [
            {"seed": 1.5},
            {"seed": -1},
            {"seed": True},
            {"shared_interest_count": 2.5},
            {"duplicate_request_penalty": 1.5},
            {"duplicate_epoch_penalty": 3000000000},
            {"node_count": 50.5},
            {"pool_size": 2.5},
            {"friends_path": 3},
        ],
    )
    def test_malformed_integer_config_values(self, tmp_path, capsys, bad):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**SMALL, **bad}))
        assert main(["--config", str(path), "--out", str(tmp_path / "o")]) == 2
        (name,) = bad
        err = capsys.readouterr().err
        assert err.startswith("error: ") and name in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_duration_flag(self, tmp_path, capsys, value):
        assert main(["--nodes", "20", f"--duration={value}", "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: duration must be a finite number")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("bad", ['"speed": NaN', '"interaction_radius": Infinity', '"speed": true'])
    def test_non_finite_or_bool_float_config_values(self, tmp_path, capsys, bad):
        path = tmp_path / "bad.json"
        path.write_text("{" + bad + "}")  # JSON text as Python's json module writes NaN and Infinity
        assert main(["--config", str(path), "--out", str(tmp_path / "o")]) == 2
        name = bad.split('"')[1]
        assert capsys.readouterr().err.startswith(f"error: {name} must be a finite number")
        assert not (tmp_path / "o").exists()

    def test_run_too_long_to_record_flag(self, tmp_path, capsys):
        assert main(["--nodes", "20", "--duration", "1e300", "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("error: duration / tick gives 1e+300 ticks")
        assert not (tmp_path / "o").exists()

    def test_negative_seed_flag(self, tmp_path, config_path, capsys):
        assert main(["--config", config_path, "--seed", "-1", "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("error: seed must be non-negative")
