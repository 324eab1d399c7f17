"""siotrust benchmark: pinned workloads through the public batch entry point.

    python3 perfbench/run.py --workload batch-100 --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from its `src/`.
Each workload is a base scenario and a pinned list of seed batches. The
`--seed` argument orders the batches; the run then calls
`siotrust.cli.run_batch` on one batch after another, closed loop, until
`--seconds` have passed (always at least one call). Every output
file is checked against the SHA-256 pinned in `golden.json`, and so are the
DR/ACC/FN/FP values; a seed that raised or differs counts as failed.

With `--trace 0` the run reports the end-to-end metrics. With `--trace 1` it
first makes the same untraced pass, then replays the same batches with a
span around each layer's functions (see `instrument`) and reports the
per-layer metrics, the tracing overhead and the mechanism-coverage checks.
Human-readable lines come first; the last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from tracer import Tracer, union_length

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
GOLDEN_PATH = HERE / "golden.json"
SETUP_SLICE = 10
WARMUP = {"node_count": 20, "duration": 60.0}


@dataclass(frozen=True)
class Workload:
    overrides: dict[str, Any]
    batches: tuple[tuple[int, ...], ...]
    # per-layer counts that must be positive in a traced run
    requires: tuple[str, ...] = ("sim.rec_entries",)


WORKLOADS = {
    # README default scenario, 4 consecutive seeds per run_batch call: the
    # only workload that runs the thread pool and the writers at batch scale.
    "batch-100": Workload({}, tuple(tuple(range(s, s + 4)) for s in range(1, 25, 4))),
    # acceptance claim 9's size: the O(n^3) recommendation exchange dominates.
    "large-200": Workload({"node_count": 200}, tuple((s,) for s in range(123, 131))),
    # acceptance claim 6: every rotation mints a fresh identity, so the
    # opinion store and recommendation cache grow along the identity axis.
    "fabricated-100": Workload(
        {"identity_source": "fabricated"},
        tuple((s,) for s in range(1, 13)),
        ("sim.rec_entries", "adversary.fabrications"),
    ),
}

END_TO_END_UNITS = {
    "scenario_s": "s",
    "seeds_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "failed_frac": "ratio",
}

SPAN_METRICS = (
    "sim.distance", "sim.interactions", "sim.attacker_requests", "sim.legit_requests",
    "sim.move", "sim.recommendations", "sim.monitor", "sim.communities",
    "sim.duplicate_scan", "sim.snapshot", "sim.build", "sim.run",
    "trust.record_experience", "trust.by_evaluator", "authn.evaluate",
    "community.partition", "community.similarity", "adversary.attempt", "dataset.graph",
    "metrics.counters", "metrics.esr", "cli.write_events", "cli.write_trust",
    "cli.write_esr", "cli.write_other", "cli.run_one", "cli.batch",
)
COUNT_METRICS = (
    "sim.epochs", "sim.events", "sim.rec_entries", "trust.record_experience_calls",
    "trust.expected_value_calls", "trust.assess_calls", "trust.store_entries",
    "authn.evaluate_calls", "community.pair_calls", "adversary.attempt_calls",
    "adversary.thefts", "adversary.fabrications", "cli.bytes_written", "cli.pool_workers",
)
RATIO_METRICS = (
    "authn.grant_ratio", "community.pair_cache_hit_ratio", "adversary.request_ratio",
    "cli.pool_efficiency", "trace.overhead_ratio", "trace.self_share",
)
TRACE_SECONDS = ("trace.wall_s", "trace.untraced_wall_s")


def layer_units() -> dict[str, str]:
    units = {f"{name}_s": "s" for name in SPAN_METRICS}
    units.update({name: "count" for name in COUNT_METRICS})
    units.update({name: "ratio" for name in RATIO_METRICS})
    units.update({name: "s" for name in TRACE_SECONDS})
    return units


class BenchError(Exception):
    """The benchmark cannot run here: missing program, golden file or workload."""


def import_program() -> None:
    """Import siotrust from this checkout's src/, never from anywhere else.

    Every function below that touches the program imports it locally, after
    this has run.
    """
    src = CHECKOUT / "src"
    if not (src / "siotrust" / "__init__.py").is_file():
        raise BenchError(f"no siotrust package under {src}")
    sys.path.insert(0, str(src))
    import siotrust

    if Path(siotrust.__file__).resolve().parent != (src / "siotrust").resolve():
        raise BenchError(f"siotrust imported from {siotrust.__file__}, not from {src}")


def base_config(workload: Workload):
    from siotrust import ScenarioConfig

    return ScenarioConfig.from_mapping(workload.overrides)


# -- golden outputs -----------------------------------------------------------


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def report_values(result) -> dict[str, float | None]:
    report = result.metrics_report()
    return {"DR": report.dr, "ACC": report.acc, "FN": report.fn, "FP": report.fp}


def seed_files(out_dir: Path, seed: int) -> dict[str, str]:
    """SHA-256 of the per-seed files, by name."""
    return {
        path.name: sha256(path)
        for path in sorted(out_dir.iterdir())
        if path.stem.endswith(f"-s{seed}")
    }


def batch_key(seeds: tuple[int, ...]) -> str:
    return ",".join(str(s) for s in seeds)


def pin_workload(workload: Workload, out_root: Path) -> dict[str, Any]:
    """Golden entry for a workload: run each batch once and record its outputs."""
    from siotrust import cli

    base = base_config(workload)
    batches = {}
    for seeds in workload.batches:
        out_dir = out_root / "pin"
        results = cli.run_batch(base, seeds, out_dir)
        batches[batch_key(seeds)] = {
            "metrics.csv": sha256(out_dir / "metrics.csv"),
            "seeds": {
                str(seed): {"files": seed_files(out_dir, seed), "metrics": report_values(result)}
                for seed, result in zip(seeds, results)
            },
        }
        shutil.rmtree(out_dir)
    return {"config": base.to_mapping(), "batches": batches}


def failed_seeds(pinned: dict[str, Any], seeds: tuple[int, ...], results, out_dir: Path) -> list[int]:
    """Seeds whose files, metrics.csv or DR/ACC/FN/FP differ from the pins."""
    if results is None:
        return list(seeds)
    metrics_csv = out_dir / "metrics.csv"
    metrics_ok = metrics_csv.is_file() and sha256(metrics_csv) == pinned["metrics.csv"]
    failed = []
    for seed, result in zip(seeds, results):
        expected = pinned["seeds"][str(seed)]
        ok = (
            metrics_ok
            and seed_files(out_dir, seed) == expected["files"]
            and report_values(result) == expected["metrics"]
        )
        if not ok:
            failed.append(seed)
    return failed


def versions() -> dict[str, str]:
    import networkx
    import numpy

    return {
        "python": ".".join(str(v) for v in sys.version_info[:3]),
        "numpy": numpy.__version__,
        "networkx": networkx.__version__,
    }


def load_golden(path: Path = GOLDEN_PATH) -> dict[str, Any]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise BenchError(f"cannot read golden outputs {path}: {exc}") from exc


# -- running ------------------------------------------------------------------


@dataclass
class Call:
    seeds: tuple[int, ...]
    wall: float
    failed: int
    bytes_written: int


def run_call(base, pinned: dict[str, Any], seeds: tuple[int, ...], out_dir: Path) -> Call:
    """One run_batch call, its outputs checked against the workload's pins."""
    from siotrust import cli

    start = time.perf_counter()
    try:
        results = cli.run_batch(base, seeds, out_dir)
    except Exception:
        traceback.print_exc()
        results = None
    wall = time.perf_counter() - start
    written = sum(p.stat().st_size for p in out_dir.iterdir()) if out_dir.is_dir() else 0
    failed = failed_seeds(pinned["batches"][batch_key(seeds)], seeds, results, out_dir)
    del results
    shutil.rmtree(out_dir, ignore_errors=True)
    return Call(seeds, wall, len(failed), written)


def order_batches(workload: Workload, seed: int) -> list[tuple[int, ...]]:
    order = list(workload.batches)
    random.Random(seed).shuffle(order)
    return order


def closed_loop(base, pinned, order, seconds: float, out_root: Path,
                setups: list[float]) -> list[Call]:
    """Call run_batch batch after batch until `seconds` have passed.

    A slice of set-up samples is taken before every call and after the last
    one, so that set-up time is sampled across the whole run.
    """
    calls: list[Call] = []
    start = time.perf_counter()
    while not calls or time.perf_counter() - start < seconds:
        seeds = order[len(calls) % len(order)]
        setups.extend(setup_times(base, seeds))
        calls.append(run_call(base, pinned, seeds, out_root / f"call-{len(calls)}"))
    setups.extend(setup_times(base, calls[-1].seeds))
    return calls


def replay(base, pinned, calls: list[Call], out_root: Path) -> list[Call]:
    return [
        run_call(base, pinned, call.seeds, out_root / f"replay-{i}")
        for i, call in enumerate(calls)
    ]


def warm_up(out_root: Path) -> None:
    """Import and first-call costs, paid once before anything is timed."""
    from siotrust import ScenarioConfig, cli

    out_dir = out_root / "warmup"
    cli.run_batch(ScenarioConfig.from_mapping(WARMUP), [1], out_dir)
    shutil.rmtree(out_dir, ignore_errors=True)


def setup_times(base, seeds: tuple[int, ...]) -> list[float]:
    """Warm SimulationEngine(cfg) construction times over a batch's seeds."""
    from siotrust import SimulationEngine

    times = []
    for i in range(SETUP_SLICE):
        config = base.with_seed(seeds[i % len(seeds)])
        start = time.perf_counter()
        SimulationEngine(config)
        times.append(time.perf_counter() - start)
    return times


# -- tracing ------------------------------------------------------------------


def instrument(tracer) -> None:
    """Wrap each layer's functions: spans for time, counters for calls."""
    from siotrust import adversary, authn, cli, metrics, sim, trust

    engine = sim.SimulationEngine
    for attr, name in (
        ("__init__", "sim.build"),
        ("_squared_distances", "sim.distance"),
        ("_legit_requests", "sim.legit_requests"),
        ("_attacker_requests", "sim.attacker_requests"),
        ("_interactions", "sim.interactions"),
        ("_move", "sim.move"),
        ("_form_communities", "sim.communities"),
        ("_duplicate_scan", "sim.duplicate_scan"),
        ("_monitor_members", "sim.monitor"),
        ("_snapshot_positions", "sim.snapshot"),
    ):
        tracer.span(engine, attr, name)

    def after_run(counts, args, kwargs, result):
        counts["sim.events"] += len(result.log)
        counts["trust.store_entries"] += len(args[0].store)

    def after_exchange(counts, args, kwargs, result):
        counts["sim.rec_entries"] += len(args[0].rec_cache)

    tracer.span(engine, "run", "sim.run", after_run)
    tracer.span(engine, "_rebuild_recommendations", "sim.recommendations", after_exchange)
    tracer.span(sim, "synthetic_small_world", "dataset.graph")
    tracer.span(sim, "partition_by_similarity", "community.partition")
    tracer.count(sim, "pairwise_similarity", "community.pair_misses")
    tracer.count(sim._StaticSimilarity, "pair", "community.pair_calls")
    tracer.count(sim, "assess", "trust.assess_calls")
    tracer.span(sim.EventLog, "write", "cli.write_events")

    tracer.span(trust.OpinionStore, "record_experience", "trust.record_experience")
    tracer.span(trust.OpinionStore, "by_evaluator", "trust.by_evaluator")
    tracer.count(trust.Opinion, "expected_value", "trust.expected_value_calls")

    def after_evaluate(counts, args, kwargs, result):
        counts["authn.grants"] += result.verdict is authn.Verdict.GRANT

    tracer.span(authn.AccessGate, "evaluate", "authn.evaluate", after_evaluate)
    tracer.span(authn, "community_similarity", "community.similarity")
    tracer.count(authn, "assess", "trust.assess_calls")

    def after_attempt(counts, args, kwargs, result):
        counts["adversary.requests"] += result is not None

    tracer.span(adversary.AttackerEngine, "attempt", "adversary.attempt", after_attempt)
    tracer.count(adversary.AttackerEngine, "steal_identity", "adversary.thefts")
    tracer.count(adversary.AttackerEngine, "fabricate_identity", "adversary.fabrications")

    tracer.span(metrics.ConfusionCounters, "from_requests", "metrics.counters")
    tracer.span(metrics, "esr_cdf", "metrics.esr")

    def after_pool(counts, args, kwargs, result):
        counts["cli.pool_workers"] = max(counts["cli.pool_workers"], kwargs["max_workers"])

    tracer.span(cli, "run_batch", "cli.batch")
    tracer.span(cli, "_run_one", "cli.run_one")
    tracer.count(cli, "ThreadPoolExecutor", "cli.pools", after_pool)
    tracer.span(cli, "write_trust_trace_csv", "cli.write_trust")
    tracer.span(cli, "write_esr_csv", "cli.write_esr")
    for writer in ("write_decision_csv", "write_communities_csv", "write_attack_csv",
                   "write_metrics_csv"):
        tracer.span(cli, writer, "cli.write_other")


def span_count(tracer, name: str) -> int:
    return len(tracer.intervals(name))


def layer_metrics(tracer, untraced: list[Call], traced: list[Call]) -> dict[str, float]:
    """Per-layer metrics of the traced pass; times and counts are per seed.

    `untraced` and `traced` ran the same seed batches.
    """
    seeds = sum(len(call.seeds) for call in traced)
    own = tracer.self_times()
    counts = tracer.counts()
    out: dict[str, float] = {f"{n}_s": own.get(n, 0.0) / seeds for n in SPAN_METRICS}

    evaluated = span_count(tracer, "authn.evaluate")
    attempts = span_count(tracer, "adversary.attempt")
    pair_calls = counts["community.pair_calls"]
    workers = max(counts["cli.pool_workers"], 1)
    run_one = tracer.intervals("cli.run_one")
    busy = sum(end - start for start, end in run_one)
    traced_wall = sum(call.wall for call in traced)
    untraced_wall = sum(call.wall for call in untraced)
    # seconds in which two pooled seeds ran at once: work beyond the wall time
    overlap = busy - union_length(run_one)
    batch_wall = sum(end - start for start, end in tracer.intervals("cli.batch"))
    totals = {
        "sim.epochs": span_count(tracer, "sim.recommendations"),
        "sim.events": counts["sim.events"],
        "sim.rec_entries": counts["sim.rec_entries"],
        "trust.record_experience_calls": span_count(tracer, "trust.record_experience"),
        "trust.expected_value_calls": counts["trust.expected_value_calls"],
        "trust.assess_calls": counts["trust.assess_calls"],
        "trust.store_entries": counts["trust.store_entries"],
        "authn.evaluate_calls": evaluated,
        "community.pair_calls": pair_calls,
        "adversary.attempt_calls": attempts,
        "adversary.thefts": counts["adversary.thefts"],
        "adversary.fabrications": counts["adversary.fabrications"],
        "cli.bytes_written": sum(call.bytes_written for call in traced),
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
    }
    out.update({name: value / seeds for name, value in totals.items()})
    out.update({
        "cli.pool_workers": workers,
        "authn.grant_ratio": counts["authn.grants"] / max(evaluated, 1),
        "community.pair_cache_hit_ratio": 1.0 - counts["community.pair_misses"] / max(pair_calls, 1),
        "adversary.request_ratio": counts["adversary.requests"] / max(attempts, 1),
        "cli.pool_efficiency": busy / (workers * traced_wall),
        "trace.overhead_ratio": out["trace.wall_s"] / out["trace.untraced_wall_s"],
        "trace.self_share": sum(own.values()) / (batch_wall + overlap),
    })
    return out


def coverage_failures(workload: Workload, layers: dict[str, float]) -> list[str]:
    """Mechanisms the workload was chosen for that the traced pass did not reach."""
    problems = [f"{name} is {layers[name]}, expected > 0" for name in workload.requires
                if not layers[name] > 0]
    batch_size = max(len(batch) for batch in workload.batches)
    expected_workers = min(batch_size, os.cpu_count() or 1)
    if layers["cli.pool_workers"] != expected_workers:
        problems.append(f"cli.pool_workers is {layers['cli.pool_workers']}, expected {expected_workers}")
    return problems


# -- reporting ----------------------------------------------------------------


@dataclass
class Outcome:
    """What main prints: metric -> (value, unit, sample count), and the verdict."""

    metrics: dict[str, tuple[float, str, int]]
    attempted: int
    failed: int
    problems: list[str]

    def result(self, names: list[str]) -> dict[str, Any]:
        return {
            "correct": self.failed == 0 and not self.problems,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {n: {"value": self.metrics[n][0], "unit": self.metrics[n][1]} for n in names},
        }


def bench(name: str, workload: Workload, golden: dict[str, Any], seed: int,
          seconds: float, trace: bool, out_root: Path) -> Outcome:
    """Run one workload: end-to-end metrics, and per-layer ones when traced."""
    from siotrust import cli

    pinned = golden["workloads"].get(name)
    if pinned is None:
        raise BenchError(f"golden outputs hold no pins for workload {name!r}")
    base = base_config(workload)
    unpinned = [s for s in workload.batches if batch_key(s) not in pinned["batches"]]
    if pinned["config"] != base.to_mapping() or unpinned:
        raise BenchError(f"workload {name!r} differs from the one its outputs were pinned for")
    if golden["versions"] != versions():
        print(f"warning: outputs pinned under {golden['versions']}, running {versions()}",
              file=sys.stderr)

    out_root.mkdir(parents=True, exist_ok=True)
    order = order_batches(workload, seed)
    warm_up(out_root)

    # untraced: one timer around each seed's _run_one, nothing inside it
    setups: list[float] = []
    boundary = Tracer()
    boundary.span(cli, "_run_one", "cli.run_one")
    try:
        calls = closed_loop(base, pinned, order, seconds, out_root, setups)
    finally:
        boundary.restore()
    scenario = [end - start for start, end in boundary.intervals("cli.run_one")]
    seeds = sum(len(call.seeds) for call in calls)
    failed = sum(call.failed for call in calls)
    metrics = {
        "scenario_s": (statistics.median(scenario), "s", len(scenario)),
        "seeds_per_s": (seeds / sum(call.wall for call in calls), "1/s", len(calls)),
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
        "failed_frac": (failed / seeds, "ratio", seeds),
    }
    outcome = Outcome(metrics, seeds, failed, [])
    if not trace:
        return outcome

    tracer = Tracer()
    instrument(tracer)
    try:
        traced = replay(base, pinned, calls, out_root)
    finally:
        tracer.restore()
    tracer.save(out_root / f"spans-{name}.npz")
    traced_seeds = sum(len(call.seeds) for call in traced)
    units = layer_units()
    layers = layer_metrics(tracer, calls, traced)
    metrics.update({n: (v, units[n], traced_seeds) for n, v in layers.items()})
    outcome.attempted += traced_seeds
    outcome.failed += sum(call.failed for call in traced)
    outcome.problems = coverage_failures(workload, layers)
    return outcome


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="orders the pinned seed batches")
    parser.add_argument("--seconds", type=float, required=True, help="measuring time per pass")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: replay traced and report the per-layer metrics")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def metric_names(trace: bool) -> list[str]:
    """The metrics the result line carries: per-layer when traced, else end-to-end."""
    if trace:
        return list(layer_units())
    return [name for name in END_TO_END_UNITS if name != "failed_frac"]


def print_outcome(header: str, outcome: Outcome, trace: bool) -> None:
    print(f"{header}: {outcome.failed} of {outcome.attempted} seeds failed")
    for name, (value, unit, samples) in outcome.metrics.items():
        print(f"  {name:<36} {value:>14.6g} {unit:<6} n={samples}")
    for problem in outcome.problems:
        print(f"coverage: {problem}")
    print(json.dumps(outcome.result(metric_names(trace))))


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        import_program()
        golden = load_golden()
        outcome = bench(args.workload, WORKLOADS[args.workload], golden, args.seed,
                        args.seconds, bool(args.trace), CHECKOUT / ".perfbench_out")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print_outcome(f"workload {args.workload} seed {args.seed} trace {args.trace}",
                  outcome, bool(args.trace))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
