"""Engine invariants and cross-path bytes over small random scenarios, checked on the written files.

Each example runs a seed through the batch entry point on each path its
files can take (the `path` fixture), flushing every 1 to 7 rows
(`record.CHUNK_LINES`): every admission follows a grant, log time never
goes backwards, the decision CSV recounts to the run's confusion counters,
and every file the batch writes but the manifest equals that of the same
seeds run in process at the default flush size.
The scenarios draw forged sets of 0 or 3 and deny streaks of 1 or 3, so
fabrications read the attackers' observation rows.
"""

import csv
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from siotrust import record
from siotrust.adversary import AttackBehavior
# `_run_one` as bound before a fixture wraps it: given no writers, it formats in process
from siotrust.cli import _run_one as run_in_process, run_batch
from siotrust.metrics import ConfusionCounters, write_metrics_csv
from siotrust.sim import ScenarioConfig
from siotrust.social import DEFAULT_BASE_RATES, IdentitySource, RelationType

scenarios = st.builds(
    ScenarioConfig,
    node_count=st.integers(6, 30),
    duration=st.integers(1, 90).map(float),
    behavior=st.sampled_from(AttackBehavior),
    identity_source=st.sampled_from([IdentitySource.STOLEN, IdentitySource.FABRICATED]),
    forged_set_size=st.sampled_from([0, 3]),
    deny_streak_limit=st.sampled_from([1, 3]),
    context_kind=st.sampled_from(sorted(DEFAULT_BASE_RATES)),
    relation=st.sampled_from(RelationType),
    seed=st.integers(0, 2**32 - 1),
)


def fields_of(line: str) -> tuple[float, str, dict[str, str]]:
    """(time, event kind, key=value fields) of one log line."""
    stamp, kind, *pairs = line.split(" ")
    return float(stamp.removeprefix("t=")), kind, dict(pair.split("=", 1) for pair in pairs)


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(config=scenarios, chunk_lines=st.integers(1, 7))
def test_admissions_follow_grants_time_advances_and_decisions_recount(config, chunk_lines, path):
    seeds = path(config.seed)
    with tempfile.TemporaryDirectory() as out:
        want, got = Path(out) / "want", Path(out) / "got"
        want.mkdir()
        alone = [run_in_process(config.with_seed(seed), want) for seed in seeds]
        write_metrics_csv((summary.metrics_report() for summary in alone), want / "metrics.csv")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(record, "CHUNK_LINES", chunk_lines)
            result = run_batch(config, seeds, got)[0]
        written = {file.name: file.read_bytes() for file in got.iterdir() if file.name != "manifest.json"}
        assert written == {file.name: file.read_bytes() for file in want.iterdir()}
    lines = written[f"events-s{config.seed}.log"].decode().splitlines()
    rows = list(csv.DictReader(written[f"decisions-s{config.seed}.csv"].decode().splitlines()))

    granted = set()
    last = float("-inf")
    for line in lines:
        time, kind, fields = fields_of(line)
        assert time >= last, line
        last = time
        if kind == "decision" and fields["verdict"] == "grant":
            granted.add((time, fields["identity"], fields["manager"]))
        elif kind == "admit":
            assert (time, fields["identity"], fields["manager"]) in granted, line

    recounted = ConfusionCounters()
    for row in rows:
        recounted.record(row["true_device_kind"] == "attacker", row["verdict"] == "grant")
    assert recounted == result.counters
