"""Engine invariants over small random scenarios, checked on the written files.

Each example runs one seed through the batch entry point, on each of the
two paths that format its event log and trust trace (in process, and in a
writer process), and reads its outputs back: every admission follows a
grant, log time never goes backwards, and the decision CSV recounts to the
run's confusion counters.
The scenarios draw forged sets of 0 or 3 and deny streaks of 1 or 3, so
fabrications read the attackers' observation rows.
"""

import csv
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from siotrust.adversary import AttackBehavior
from siotrust.cli import run_batch
from siotrust.metrics import ConfusionCounters
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


@pytest.fixture(params=["in_process", "writer_path"], ids=["in-process", "writer"])
def path(request):
    """Where each example formats its event log and trust trace (see conftest.py)."""
    request.getfixturevalue(request.param)


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(config=scenarios)
def test_admissions_follow_grants_time_advances_and_decisions_recount(config, path):
    with tempfile.TemporaryDirectory() as out:
        (result,) = run_batch(config, [config.seed], Path(out))
        lines = (Path(out) / f"events-s{config.seed}.log").read_text().splitlines()
        with open(Path(out) / f"decisions-s{config.seed}.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))

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
