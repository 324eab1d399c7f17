"""Fast self-check of the benchmark itself; runs in seconds.

    python3 perfbench/selfcheck.py

Pins a tiny two-seed-batch workload on the fly, runs the full benchmark path
on it untraced and traced, and checks that:

- every metric BENCHMARK.json names is printed with its unit and a sample
  count, and the result line carries exactly those metrics;
- no seed fails and the coverage checks pass;
- the traced self times add up to the traced wall time;
- flipping one byte of one output file trips the golden gate.

Exits 1 and names each failed check, or 0 when all hold.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import shutil
import sys

import run

TINY = run.Workload(
    {"node_count": 30, "duration": 120.0, "identity_source": "fabricated"},
    ((1, 2), (3, 4)),
    ("sim.rec_entries", "adversary.fabrications"),
)


def check_printed(trace: bool, outcome, declared: dict, failures: list[str]) -> None:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        run.print_outcome("tiny", outcome, trace)
    lines = out.getvalue().splitlines()
    result = json.loads(lines[-1])
    section = "per_layer" if trace else "end_to_end"
    wanted = {m["name"]: m["unit"] for m in declared[section]}
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        failures.append(f"trace={trace}: result keys are {sorted(result)}")
    if set(result["metrics"]) != set(wanted):
        failures.append(f"trace={trace}: result metrics differ from BENCHMARK.json {section}: "
                        f"{sorted(set(result['metrics']) ^ set(wanted))}")
    for name, unit in wanted.items():
        got = result["metrics"].get(name, {})
        if got.get("unit") != unit or not isinstance(got.get("value"), (int, float)):
            failures.append(f"trace={trace}: {name} reported as {got}, unit should be {unit}")
        pattern = rf"^  {re.escape(name)} +\S+ {re.escape(unit)} +n=[1-9]\d*$"
        if not any(re.match(pattern, line) for line in lines):
            failures.append(f"trace={trace}: no line prints {name} with unit {unit} and n")
    if not result["correct"] or result["failed"]:
        failures.append(f"trace={trace}: {result['failed']} of {result['attempted']} seeds failed, "
                        f"problems {outcome.problems}")


def check_gate(golden: dict, out_root, failures: list[str]) -> None:
    from siotrust import cli

    seeds = TINY.batches[0]
    pinned = golden["workloads"]["tiny"]["batches"][run.batch_key(seeds)]
    out_dir = out_root / "gate"
    results = cli.run_batch(run.base_config(TINY), seeds, out_dir)
    if run.failed_seeds(pinned, seeds, results, out_dir):
        failures.append("gate: unmodified outputs fail the golden check")
    victim = out_dir / f"trust-s{seeds[1]}.csv"
    data = bytearray(victim.read_bytes())
    data[len(data) // 2] ^= 0x01
    victim.write_bytes(bytes(data))
    if run.failed_seeds(pinned, seeds, results, out_dir) != [seeds[1]]:
        failures.append(f"gate: a flipped byte in {victim.name} did not fail seed {seeds[1]} alone")
    shutil.rmtree(out_dir)


def main() -> int:
    run.import_program()
    with open(run.CHECKOUT / "BENCHMARK.json", encoding="utf-8") as handle:
        declared = json.load(handle)
    out_root = run.CHECKOUT / ".perfbench_out" / "selfcheck"
    failures: list[str] = []
    try:
        golden = {"versions": run.versions(),
                  "workloads": {"tiny": run.pin_workload(TINY, out_root)}}
        for trace in (False, True):
            outcome = run.bench("tiny", TINY, golden, 1, 0.5, trace, out_root)
            check_printed(trace, outcome, declared, failures)
        share = outcome.metrics["trace.self_share"][0]
        if abs(share - 1.0) > 1e-6:
            failures.append(f"traced self times cover {share:.9f} of the traced wall time")
        check_gate(golden, out_root, failures)
    finally:
        shutil.rmtree(out_root, ignore_errors=True)
    for failure in failures:
        print(f"FAIL {failure}")
    print("selfcheck " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
