import collections
import csv
import json
import os

import pytest

from siotrust import ScenarioConfig, SimulationEngine, record, trust
from siotrust.cli import main, run_batch

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

    def test_a_single_seed(self, tmp_path, monkeypatch):
        run_batch(ScenarioConfig(**SMALL), [5], tmp_path / "clean")
        for module in (record, trust):
            monkeypatch.setattr(module, "CHUNK_LINES", 100)  # flush often enough to see the run's start
        self.fail_mid_run(monkeypatch, 5)
        out = tmp_path / "failed"
        with pytest.raises(RuntimeError, match="seed 5 broke"):
            run_batch(ScenarioConfig(**SMALL), [5], out)
        assert {p.name for p in out.iterdir()} == {"events-s5.log.partial", "trust-s5.csv.partial"}
        for partial, final in (("events-s5.log.partial", "events-s5.log"), ("trust-s5.csv.partial", "trust-s5.csv")):
            written, whole = (out / partial).read_bytes(), (tmp_path / "clean" / final).read_bytes()
            assert 1000 < len(written) < len(whole) and whole.startswith(written), partial

    def test_one_seed_of_a_pooled_batch(self, tmp_path, monkeypatch):
        base = ScenarioConfig(**SMALL)
        run_batch(base, [6], tmp_path / "alone")
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
