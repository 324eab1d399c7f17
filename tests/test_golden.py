"""Golden hashes: pinned small configs reproduce their output files byte for byte.

The determinism contract holds across changes to the program, not only
within one process. Each config runs through `run_batch` (one seed, well
under a second) and every per-seed file plus `metrics.csv` must hash to the
value pinned here. A change that alters outputs on purpose re-pins these and
says why.

The nine configs cover the default stolen/churn scenario, stolen identities
under the multi schedule (an attacker steals on every tick until its pool
is full), fabricated identities under the multi schedule (the opinion store
and recommendation cache grow along the identity axis), fabricated
identities that present forged friend and interest sets of three (so their
S is taken against sets no legitimate device holds), under the churn and
under the multi schedule (multi also fabricates on ticks when no attempt
is due, so its forged sets read what it observed on those ticks), the
`por` relation filter, under which no sender qualifies and the
recommendation cache stays empty, and an integer `tick` and `duration`:
the config stores them as floats, so the run writes the bytes of its
float twin (`"tick": 1.0, "duration": 120.0`), `t=30.0` and not `t=30`.
Two more set every attacker field off its default, churn (attempt
interval, deny streak, speed factor) and multi over fabricated identities
(pool size, idle fraction, attempt interval, forged set size). The default
attempt interval equals the default interaction period, so only these two
tell a crossed field read apart. One more pin reads a friendship file, a
40-node ring, instead of generating the world.

Each output rule is checked once. The pins hold on each path a seed's
files can take (the `path` fixture): formatting in this process, in a
writer process (`siotrust.writer`) that formats the shipments of the
engine's flushes, and in a pooled writer that serves one seed after
another. Every leg runs with `math.fsum` standing in for the builtin `sum`
in `sim` and `community`: from Python 3.12 the builtin compensates float
additions as `fsum` does, and S adds left to right, so the pins must hold
on every supported Python. A run kept whole writes the same pinned bytes
through the record's own writers, with no streamed rerun. Flush boundaries
are `tests/test_properties.py`'s: over random scenarios, flushing every 1
to 7 rows (`record.CHUNK_LINES`, the one chunk size of every chunked
writer), every file a batch writes on each path must equal the in-process
run's.

Every float in every file is formatted by one kernel (`record.float_texts`),
and every file is written in one CSV dialect: plain comma-joined fields,
which `record.check_unquoted` refuses to write if a field would need
quoting. A config cannot supply such a field: the context kind, the one
free text a run writes, is refused if it holds a comma, a quote or a line
break.
"""

import collections
import hashlib
import json
import math

import pytest

from siotrust import ScenarioConfig, SimulationEngine, cli, community, metrics, record, run_scenario, sim, trust
from siotrust.metrics import write_esr_csv
from siotrust.trust import write_trust_trace_csv

GOLDEN = {
    "default-40": (
        {"node_count": 40},
        {
            "attacks-s1.csv": "a1a0fd821da9b65297e87c7575819c247c597b6dc1c7beb2f533adffb85a9972",
            "communities-s1.csv": "bb346db0b31f82c0391b7725c5f26b7b91327285546173f5e5efc1c623055173",
            "decisions-s1.csv": "2e8c7571edab151008b31340cfe183a2436776e3f00ab4835512d2006402b66f",
            "esr-s1.csv": "882ff9ba45d7388bbdf6471192860c248d6520b6ea297d16d2ecc3d34d0310a2",
            "events-s1.log": "56e4b6fa7579ad956b8bfc8a0c05669fe6584e8e67fbfa683cf5d22d3ec0c722",
            "metrics.csv": "2aac9b767b597c52e608ca80564c68fcd1460aff9e2857ec1e0ed48e88e9df87",
            "trust-s1.csv": "b2bf10b4bf71baf78235bf7565bd38cd6204dea21fa2857256a8a008e80736ee",
        },
    ),
    "fabricated-multi-40": (
        {"node_count": 40, "identity_source": "fabricated", "behavior": "multi"},
        {
            "attacks-s1.csv": "f3f21ec7a8a745b2288d525962b6efb2a142dae1f97716f635df1d95c8288c3d",
            "communities-s1.csv": "bb346db0b31f82c0391b7725c5f26b7b91327285546173f5e5efc1c623055173",
            "decisions-s1.csv": "92ef15884e80b539bf6b358f500b15ddbfd03babd9b4ef498d0b91e469964e8f",
            "esr-s1.csv": "c43e6a3a4c7ae0a839ba950c533f014b7cfa5e19d7572a5a6f234f00ffdac065",
            "events-s1.log": "923427221720c292c9cbd9b590149a69e60d56cf8fa3441a88c982d52c68c24b",
            "metrics.csv": "0d939f02e356127004aaf0fcef4bcd8552af49fbda99c37f46607792926a698a",
            "trust-s1.csv": "79c8e567f5598fee0ee7cc4c6c2febdc9986ce2ead61cdfea5ceb8e251cc8300",
        },
    ),
    "fabricated-forged-40": (
        {"node_count": 40, "identity_source": "fabricated", "forged_set_size": 3},
        {
            "attacks-s1.csv": "a511aff0088584ff80fd127b5d7e3be19cc06207596a1100e9f738923f8b7ddf",
            "communities-s1.csv": "bb346db0b31f82c0391b7725c5f26b7b91327285546173f5e5efc1c623055173",
            "decisions-s1.csv": "5b1b852572d797cf8d72aaf8a337edd13c1359a836b6e84723988dd1982d1cfb",
            "esr-s1.csv": "7f5e438af3531c8e8ae1fd7c96acae03ff2ed217a16f1a07b657b637a6347c83",
            "events-s1.log": "4e0bfe8088d834a15aa0c6f953cd425d01982f4590560cb6c5c4843815937d84",
            "metrics.csv": "f0ef13fa064d582a54b5e9842c119dc5e39611dbadad518052a280d6c4c953fc",
            "trust-s1.csv": "9122078bd7531488cc31f4b44a45c2144ee559fc02d2f657743dee84bd68b695",
        },
    ),
    "fabricated-multi-forged-40": (
        {"node_count": 40, "identity_source": "fabricated", "behavior": "multi", "forged_set_size": 3},
        {
            "attacks-s1.csv": "f3f21ec7a8a745b2288d525962b6efb2a142dae1f97716f635df1d95c8288c3d",
            "communities-s1.csv": "bb346db0b31f82c0391b7725c5f26b7b91327285546173f5e5efc1c623055173",
            "decisions-s1.csv": "6ffbaac623353e4772542714aebafe1b49c172dd2523eac24cf808cc3e76b22f",
            "esr-s1.csv": "64d1b8dd0192613f29399f87b0493bccad7af6ab3172cb21d3caf8677ff02c10",
            "events-s1.log": "ae067155d2da468789c8a2758a43d86b96e05fb7eeae899114c37e57d5ea4b26",
            "metrics.csv": "d0bc79ee165bbbaf9e9e247f7fc91e2f1517096e7c5c68e9bdab662f90e24f35",
            "trust-s1.csv": "195996f5c56a016d0c5ef63540b5b21242283967f30d591be60740cbce4e4def",
        },
    ),
    "churn-off-default-40": (
        {"node_count": 40, "attempt_interval": 7.0, "deny_streak_limit": 1, "attacker_speed_factor": 0.8},
        {
            "attacks-s1.csv": "7e1f43102ebf5162ac9bc39e29017322a35b0016a36e5118c135af23760ec650",
            "communities-s1.csv": "bb346db0b31f82c0391b7725c5f26b7b91327285546173f5e5efc1c623055173",
            "decisions-s1.csv": "4917affca181fb9ee71fb3b6fe3c4a5b81a0bf6063dad5e5ebb7c507a51e2170",
            "esr-s1.csv": "704eec8838e4bf2d515b78fd653f7390636f17cadef0969cd22ecee31e5b7866",
            "events-s1.log": "3897faeb615fc8df653430055ec81450152ea4444503985271350d6bf1e0e2d4",
            "metrics.csv": "b3784617b8b2c5968cbf89ed7d2326d23a0c7401ea7e4e863e4af95a941b90bc",
            "trust-s1.csv": "86481fcc3d1d641209d282c0975d6ddcac109fcb929a1621b9096aad6393c6fd",
        },
    ),
    "fabricated-multi-off-default-40": (
        {
            "node_count": 40, "identity_source": "fabricated", "behavior": "multi", "pool_size": 3,
            "idle_fraction": 0.5, "attempt_interval": 7.0, "forged_set_size": 2,
        },
        {
            "attacks-s1.csv": "ab8afd64e751d59ec23a264ee850b6da7b7fef9166742c1ea693db679754a446",
            "communities-s1.csv": "bb346db0b31f82c0391b7725c5f26b7b91327285546173f5e5efc1c623055173",
            "decisions-s1.csv": "77d9bb34820eb741dfde1be4d033a3d241b981ca32661344aeb98b7d207cb9db",
            "esr-s1.csv": "62c68e6b93bd34bf6af89e04e339502b5942604c56ffbc9d1ece51a1610b6da9",
            "events-s1.log": "abb64c5fb6391951a3c8ff2f678d98368566c9ef498b064424c17a3ab7713f73",
            "metrics.csv": "dd1b5f08b2f90a34a6b06f7b71f2068e53eb3060d8c10f2ca0078d0756982e22",
            "trust-s1.csv": "cf82a6b524eb107f1937ee812ea70f8cd2891bab611b162e73981d128011000c",
        },
    ),
    "stolen-multi-40": (
        {"node_count": 40, "behavior": "multi"},
        {
            "attacks-s1.csv": "592c4c90f7aa050e8563ea0134ae34dee219203bfdf9f78ac860e4dd63500898",
            "communities-s1.csv": "bb346db0b31f82c0391b7725c5f26b7b91327285546173f5e5efc1c623055173",
            "decisions-s1.csv": "93c61ef947b02ed25d332d193e5654b7db4ca2492a3d3f3630d9f44ec03200c9",
            "esr-s1.csv": "e71d2bba81130411ff9c61b110ced05ffb27a773f9cfefd39396ea55b332c360",
            "events-s1.log": "60e6874c49a3cd457da2415955053f77d9301b55430e1e8723540b9c10b398d0",
            "metrics.csv": "38eeecbbd7ef79a5bb02f56e907420da1a7e8afd68199e48517ad73462c86cd9",
            "trust-s1.csv": "c303c6f58586f5436ac9e5edae20a4775e108fc97e30eb89725edd85c3cf9518",
        },
    ),
    "por-40": (
        {"node_count": 40, "relation": "por"},
        {
            "attacks-s1.csv": "e6656c13287a862604a00f09f558db25e7a18d6be42bf7d2f6e461a7141d8b98",
            "communities-s1.csv": "bb346db0b31f82c0391b7725c5f26b7b91327285546173f5e5efc1c623055173",
            "decisions-s1.csv": "4a24629504d8c07b139fa47e0372b80b5c7db09280bdc95850400ca061757632",
            "esr-s1.csv": "3731e053e3068618a916f848180592d94513f013f47de5e18a37ef0ad0a42888",
            "events-s1.log": "f959beb9478876cd0ceaf3b7b47e6f480105df22ac383fd4bf7b32681882f5f7",
            "metrics.csv": "1af6b575e3401e161f0d6abe6cc53c1f2f38c56974d1d23e120a48e3944c3f52",
            "trust-s1.csv": "003c18fee5b30a3733c3f54736cab1a5a94d60d09e4de833e0858ffba15b67c9",
        },
    ),
    "integer-tick-30": (
        {"node_count": 30, "tick": 1, "duration": 120},
        {
            "attacks-s1.csv": "a4f09fd46d786317a6096c8c7bcfc6c18beb7f4be24f2997e1c7d34e5b16736f",
            "communities-s1.csv": "622add20fadf1b9036b4a9c447e0b66871e03dffdf1a3f75157b6213a4d7e344",
            "decisions-s1.csv": "cab7ebe5dce4617b6e5e637d9b427ba06a524964f32b656aa970a2ec40659801",
            "esr-s1.csv": "67ea7ecd666675395b21bfb073925f8f0e59f0d92b708e8556524f18859af33f",
            "events-s1.log": "0c06e968aa9409a07dedab24c15964190c61461f59496efb5ae87d156b0d43e0",
            "metrics.csv": "327443ceeb3acb3eeddf2c81f9504a09b9bba1afb72737b075acc9636aa762d4",
            "trust-s1.csv": "938cdad4cc50efb9d56ec2f9ab31b2859f9554b69858827a7cfe7e0fb31e3294",
        },
    ),
}


# The 40-node ring file the CI replays, each device befriending the next
# three, read at node_count 40: the friendship-file path
# (`load_friendship_edges`, `sample_subgraph`) instead of a synthetic world.
RING_40 = {
    "attacks-s1.csv": "a1a0fd821da9b65297e87c7575819c247c597b6dc1c7beb2f533adffb85a9972",
    "communities-s1.csv": "bb346db0b31f82c0391b7725c5f26b7b91327285546173f5e5efc1c623055173",
    "decisions-s1.csv": "568c218173ec9b2515d68ba1e961dc9d5a3498080ac106a81be99fcc61211f42",
    "esr-s1.csv": "1bf0efead0fb22bbb20ffd10db54da77dd9348222436815fcee18ff43bed3d8b",
    "events-s1.log": "33debd3669ae5d4d1ba6735521ffca015d16ac778f5c4954b6ffa0330b891f9a",
    "metrics.csv": "2aac9b767b597c52e608ca80564c68fcd1460aff9e2857ec1e0ed48e88e9df87",
    "trust-s1.csv": "8e5b6c6afeaac4b98c11401d6f86659fcf38b3c0bcf8b0b11c8cdf79584f9012",
}


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def batch_hashes(overrides, out) -> dict[str, str]:
    """Run a config's seed 1 through `run_batch` and hash every file but the manifest."""
    cli.run_batch(ScenarioConfig.from_mapping(overrides), [1], out)
    return {p.name: sha256(p) for p in sorted(out.iterdir()) if p.name != "manifest.json"}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_outputs_match_pinned_hashes(name, tmp_path, monkeypatch, path):
    """Batched with other seeds, seed 1's own files hold their pins; metrics.csv then has a row for each.

    `math.fsum` stands in for `sum` where S is summed: from Python 3.12 the builtin compensates as it does.
    """
    for module in (sim, community):
        monkeypatch.setattr(module, "sum", math.fsum, raising=False)
    seeds = path(1)
    cli.run_batch(ScenarioConfig.from_mapping(GOLDEN[name][0]), seeds, tmp_path)
    pinned = {file: digest for file, digest in GOLDEN[name][1].items() if len(seeds) == 1 or "-s1." in file}
    assert {file: sha256(tmp_path / file) for file in pinned} == pinned


def test_writer_process_on_the_default_pipe_size_writes_the_pinned_bytes(tmp_path, monkeypatch, writer_path):
    """Where the system refuses a wider pipe, the writer keeps the default one and the bytes."""
    import fcntl  # POSIX only, as the writer process is

    refused = []

    def refuse(fd, command, *args):
        refused.append(command)
        raise PermissionError("pipe size over the limit")

    monkeypatch.setattr(fcntl, "fcntl", refuse)
    assert batch_hashes(GOLDEN["default-40"][0], tmp_path) == GOLDEN["default-40"][1]
    assert refused == [fcntl.F_SETPIPE_SZ]


def test_friendship_file_matches_pinned_hashes(tmp_path):
    edges = tmp_path / "edges.txt"
    edges.write_text("".join(f"{i} {(i + k) % 40}\n" for i in range(40) for k in (1, 2, 3)))
    assert batch_hashes({"node_count": 40, "friends_path": str(edges)}, tmp_path / "out") == RING_40


@pytest.mark.parametrize("name", ["churn-off-default-40", "fabricated-multi-off-default-40"])
def test_off_default_configs_warn_of_nothing(name, tmp_path, capsys):
    """Every attacker field these set is read by their schedule and identity source."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**GOLDEN[name][0], "duration": 30.0}))
    assert cli.main(["--config", str(config), "--out", str(tmp_path / "out")]) == 0
    printed = capsys.readouterr()
    assert "warning" not in printed.out and printed.err == ""


def test_fabricated_config_mints_identities(tmp_path):
    overrides, _ = GOLDEN["fabricated-multi-40"]
    cli.run_batch(ScenarioConfig.from_mapping(overrides), [1], tmp_path)
    assert any(" fabricate attacker=" in line for line in (tmp_path / "events-s1.log").read_text().splitlines())


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_whole_record_writers_match_pinned_hashes(name, tmp_path):
    """A run kept whole writes its event log, trust trace and ESR file with the pinned bytes."""
    result = run_scenario(ScenarioConfig.from_mapping({**GOLDEN[name][0], "seed": 1}))
    result.log.write(tmp_path / "events-s1.log")
    write_trust_trace_csv(result.assessments, tmp_path / "trust-s1.csv")
    write_esr_csv(result.assessments, tmp_path / "esr-s1.csv")
    files = ("events-s1.log", "trust-s1.csv", "esr-s1.csv")
    assert {file: sha256(tmp_path / file) for file in files} == {file: GOLDEN[name][1][file] for file in files}


def test_one_patch_point_governs_every_chunked_writer(tmp_path, monkeypatch):
    """`record.CHUNK_LINES` alone sizes the chunks of the event log, the trust trace and the ESR file."""
    monkeypatch.setattr(record, "CHUNK_LINES", 7)
    join_columns = record.join_columns
    joined = collections.defaultdict(list)  # module -> rows of each join it made
    for module in (record, trust, metrics):

        def spy(columns, rows, name=module.__name__):
            joined[name].append(rows)
            return join_columns(columns, rows)

        monkeypatch.setattr(module, "join_columns", spy)
    cli._run_one(ScenarioConfig.from_mapping({**GOLDEN["default-40"][0], "seed": 1}), tmp_path)
    assert sorted(joined) == ["siotrust.metrics", "siotrust.record", "siotrust.trust"]
    assert {name: max(rows) for name, rows in joined.items()} == dict.fromkeys(joined, 7)


def test_por_config_leaves_the_recommendation_cache_empty():
    overrides, _ = GOLDEN["por-40"]
    engine = SimulationEngine(ScenarioConfig.from_mapping({**overrides, "seed": 1}))
    engine.run()
    assert len(engine.rec_cache) == 0


# What the benchmark reads as `sim.rec_entries` (summed over epochs) and
# `trust.store_entries`: the received (manager, subject) pairs after each
# exchange, and the held opinions at the end of the run.
SIZES = {
    "default-40": ([281] + [288] * 18, 1392),
    "fabricated-multi-40": ([332] + [352] * 18, 1707),
}


@pytest.mark.parametrize("name", sorted(SIZES))
def test_exchange_and_store_sizes_match_their_pins(name):
    overrides, _ = GOLDEN[name]
    engine = SimulationEngine(ScenarioConfig.from_mapping({**overrides, "seed": 1}))
    received = []
    rebuild = engine._rebuild_recommendations

    def recording(*args):
        rebuild(*args)
        received.append(len(engine.rec_cache))

    engine._rebuild_recommendations = recording
    engine.run()
    assert (received, len(engine.store)) == SIZES[name]
