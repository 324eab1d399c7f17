"""Batch runner.

Resolves a scenario from defaults, an optional JSON config file, and
command-line flags (in that order of precedence), expands the seed list,
runs every seed, and writes one set of output files per seed plus an
aggregate metrics table and a manifest. A seed streams its event log and
trust trace while it runs, and writes each of its files under a `.partial`
name that becomes the final one only once all of them are written. On
Linux, where the process may run on a second CPU, a batch runs its seeds
on one CPU and formats those two files on the others, in writer processes
(`siotrust.writer`).
Re-running from the manifest reproduces the event logs byte for byte.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack, contextmanager
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator, Sequence

from .authn import write_decision_csv
from .community import write_communities_csv
from .adversary import AttackBehavior, write_attack_csv
from .dataset import FriendshipGraph
from .metrics import write_esr_csv, write_metrics_csv
from .record import open_output
from .sim import ScenarioConfig, SeedSummary, SimulationEngine, load_friends
from .social import DEFAULT_BASE_RATES, ConfigError, IdentitySource, RelationType
from .trust import write_trust_trace_csv  # noqa: F401  the trace streams from the run; perfbench spans this name

if TYPE_CHECKING:
    from .writer import Writers

MANIFEST_FORMAT = "siotrust-manifest/1"

# flag destination -> ScenarioConfig field
_FLAG_FIELDS = {
    "nodes": "node_count",
    "attacker_pct": "attacker_fraction",
    "behavior": "behavior",
    "identity": "identity_source",
    "context": "context_kind",
    "relation": "relation",
    "duration": "duration",
    "friends": "friends_path",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="siotrust",
        description="Run seeded social-trust admission scenarios and write CSV results.",
    )
    parser.add_argument("--nodes", type=int, help="total device count, attackers included")
    parser.add_argument(
        "--attacker-pct",
        type=float,
        dest="attacker_pct",
        help="attacker fraction of the node count, e.g. 0.1",
    )
    parser.add_argument("--behavior", choices=[b.value for b in AttackBehavior], help="attacker request schedule")
    parser.add_argument("--identity", choices=[s.value for s in IdentitySource], help="attacker identity source")
    parser.add_argument("--context", choices=list(DEFAULT_BASE_RATES), help="evaluation context (sets the base rate)")
    parser.add_argument(
        "--relation", choices=[r.value for r in RelationType], help="relation filter for recommendations and weights"
    )
    parser.add_argument("--seed", type=int, help="base seed (default 1)")
    parser.add_argument("--seeds", type=int, help="number of consecutive seeds to run (default 1)")
    parser.add_argument("--duration", type=float, help="simulated seconds (default 600)")
    parser.add_argument("--friends", help="friendship edge list; omit for a synthetic small world")
    parser.add_argument("--out", help="output directory (default siotrust-out)")
    parser.add_argument(
        "--config", help="JSON file of scenario parameter overrides, applied before flags"
    )
    parser.add_argument(
        "--from-manifest",
        dest="from_manifest",
        help="re-run exactly the scenario and seed list a previous run's manifest records",
    )
    return parser


def _load_json(path: str) -> dict[str, Any]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            loaded = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path!r} is not valid JSON: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path!r} is not UTF-8 text: {exc}") from exc
    if not isinstance(loaded, dict):
        raise ConfigError(f"{path!r} must hold a JSON object")
    return loaded


def resolve(args: argparse.Namespace) -> tuple[ScenarioConfig, list[int]]:
    """Turn parsed flags into a base config and the seed list."""
    if args.from_manifest:
        conflicting = [
            name
            for name in (*_FLAG_FIELDS, "seed", "seeds", "config")
            if getattr(args, name) is not None
        ]
        if conflicting:
            raise ConfigError(
                "--from-manifest replays a recorded scenario; it cannot be combined with "
                + ", ".join(sorted(f"--{n.replace('_', '-')}" for n in conflicting))
            )
        manifest = _load_json(args.from_manifest)
        if manifest.get("format") != MANIFEST_FORMAT:
            raise ConfigError(f"{args.from_manifest!r} is not a recognized run manifest")
        for key in ("config", "seeds"):
            if key not in manifest:
                raise ConfigError(f"manifest has no {key!r} field")
        if not isinstance(manifest["config"], dict):
            raise ConfigError("manifest 'config' must be a JSON object")
        seeds = manifest["seeds"]
        if not isinstance(seeds, list) or any(type(s) is not int for s in seeds):
            raise ConfigError(f"manifest 'seeds' must be a list of integers: {seeds!r}")
        if not seeds:
            raise ConfigError("manifest lists no seeds")
        return ScenarioConfig.from_mapping(manifest["config"]), seeds

    mapping: dict[str, Any] = {}
    if args.config:
        mapping.update(_load_json(args.config))
    for flag, field_name in _FLAG_FIELDS.items():
        value = getattr(args, flag)
        if value is not None:
            mapping[field_name] = value
    if args.seed is not None:
        mapping["seed"] = args.seed
    base = ScenarioConfig.from_mapping(mapping)
    count = 1 if args.seeds is None else args.seeds
    if count < 1:
        raise ConfigError(f"--seeds must be positive: {count}")
    seeds = [base.seed + i for i in range(count)]
    return base, seeds


def _output_names(seed: int) -> dict[str, str]:
    return {
        "events": f"events-s{seed}.log",
        "decisions": f"decisions-s{seed}.csv",
        "trust": f"trust-s{seed}.csv",
        "esr": f"esr-s{seed}.csv",
        "communities": f"communities-s{seed}.csv",
        "attacks": f"attacks-s{seed}.csv",
    }


def _run_one(
    config: ScenarioConfig, out_dir: Path, writers: Writers | None = None, friends: FriendshipGraph | None = None
) -> SeedSummary:
    """Remove an earlier run's six files, then run one seed and write its own; a raise leaves only `.partial` files.

    With `writers`, the seed borrows a free writer process
    (`writer.Writers`), which formats the event log and the trust trace
    while the run goes on and while this process writes the other four
    files; the six are renamed once it reports them written. Where that
    slot's writer has been retired, the seed formats in process.
    """
    finals = {key: out_dir / name for key, name in _output_names(config.seed).items()}
    for path in finals.values():
        path.unlink(missing_ok=True)
    partial = {key: path.with_name(path.name + ".partial") for key, path in finals.items()}
    with ExitStack() as sinks:
        writer = sinks.enter_context(writers.borrow()) if writers is not None else None
        if writer is not None:
            events = trust = sinks.enter_context(writer.seed(partial["events"], partial["trust"]))
        else:
            events, trust = (sinks.enter_context(open_output(partial[key])) for key in ("events", "trust"))
        result = SimulationEngine(config, events, trust, friends).run()
        write_decision_csv(result.decisions, partial["decisions"])
        write_esr_csv(result.assessments, partial["esr"])
        write_communities_csv(result.communities, partial["communities"])
        write_attack_csv(result.decisions, config, partial["attacks"])
    for key, path in partial.items():
        os.replace(path, finals[key])
    return result.summary()


@contextmanager
def _held_on_one_cpu() -> Iterator[set[int]]:
    """Hold the calling thread, and the threads it starts, on the CPU it is on; yield the other CPUs it may use.

    Restores the thread's CPU mask on every path. On one CPU the pool's
    threads hand the interpreter lock to each other more cheaply than
    across two. And while the caller waits for a writer, the scheduler
    would otherwise move it onto the writer's CPU, so that what it runs
    next changed CPU from batch to batch; on a machine whose CPUs differ
    in speed, that moves its timings.
    """
    mask = os.sched_getaffinity(0)
    with open("/proc/thread-self/stat") as stat:
        # `processor`, field 39: the CPU this thread last ran on; field 3 follows the parenthesised name
        here = int(stat.read().rsplit(")", 1)[1].split()[36])
    os.sched_setaffinity(0, {here})
    try:
        yield mask - {here}
    finally:
        os.sched_setaffinity(0, mask)


def run_batch(
    base: ScenarioConfig, seeds: Sequence[int], out_dir: Path, friends: FriendshipGraph | None = None
) -> list[SeedSummary]:
    """Run every seed (concurrently), then write the aggregate files.

    A batch counts the CPUs this process may run on: its CPU mask
    (`os.sched_getaffinity`), or `os.cpu_count` where there is no mask call.
    Several seeds run on a thread pool of one thread per CPU, at most one
    per seed: one thread on one CPU. On Linux, where this process may run
    on a second CPU, the batch holds the calling thread and its pool on the
    CPU it is on, and, with no other thread in this process, forks one
    writer process per pool slot onto the other CPUs before the pool
    starts; each seed formats its event log and trust trace in a free one
    (see `_run_one`). A batch of one seed is the one-slot case, run on the
    calling thread. The bytes are the same either way, and the caller's CPU
    mask is restored, and every writer joined, before this returns or
    raises. The friendship file, if any, is parsed once, unless the caller
    passes its graph as `friends`, and every seed samples from that graph.

    Returns one summary per seed, in seed-list order. A seed that raises
    propagates its error once every other seed has run, at any CPU count,
    and no aggregate file is written; an earlier run's are removed up front.

    An empty seed list is refused before anything is written, since its
    manifest could not be replayed; so is a repeated seed, whose two runs
    would write the same files at once and be counted twice in metrics.csv.
    """
    if not seeds:
        raise ConfigError("seed list is empty")
    repeated = sorted(seed for seed, count in Counter(seeds).items() if count > 1)
    if repeated:
        raise ConfigError(f"seed list repeats seed(s) {', '.join(map(str, repeated))}: {list(seeds)}")
    if friends is None and base.friends_path is not None:
        friends = load_friends(base.friends_path)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name in ("metrics.csv", "manifest.json"):
        (out_dir / name).unlink(missing_ok=True)
    configs = [base.with_seed(seed) for seed in seeds]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(len(configs), cpus)
    spare = sys.platform == "linux" and cpus > 1  # a second CPU to run on
    # a fork beside another thread may copy a lock that thread holds
    fork = spare and threading.active_count() == 1
    with ExitStack() as batch:
        writers = None
        if fork or (spare and workers > 1):
            others = batch.enter_context(_held_on_one_cpu())
            if fork:
                from .writer import Writers  # multiprocessing is imported only where a batch forks

                writers = batch.enter_context(Writers(workers, others))
        if len(configs) > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:  # waits for every seed: none is cancelled
                runs = [pool.submit(_run_one, cfg, out_dir, writers, friends) for cfg in configs]
            summaries = [run.result() for run in runs]
        else:
            summaries = [_run_one(configs[0], out_dir, writers, friends)]

    write_metrics_csv((s.metrics_report() for s in summaries), out_dir / "metrics.csv")
    manifest = {
        "format": MANIFEST_FORMAT,
        "config": base.to_mapping(),
        "seeds": list(seeds),
        "outputs": {str(seed): _output_names(seed) for seed in seeds},
        "aggregate": {"metrics": "metrics.csv"},
    }
    with open_output(out_dir / "manifest.json") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return summaries


def _fmt(value: float | None) -> str:
    return "NA" if value is None else f"{value:.2f}"


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        base, seeds = resolve(args)
        for note in base.unread_fields():
            print(f"warning: {note}")
        friends = None if base.friends_path is None else load_friends(base.friends_path)
        if friends is not None and friends.dropped_self_loops:
            print(f"warning: dropped {friends.dropped_self_loops} self-loop(s) from {base.friends_path}")
        out_dir = Path(args.out) if args.out else Path("siotrust-out")
        summaries = run_batch(base, seeds, out_dir, friends)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for summary in summaries:
        report = summary.metrics_report()
        print(
            f"seed {report.seed}: {report.scenario} {report.context} "
            f"DR={_fmt(report.dr)} ACC={_fmt(report.acc)} FN={_fmt(report.fn)} "
            f"FP={_fmt(report.fp)} decisions={summary.decisions}"
        )
    print(f"wrote {out_dir}/metrics.csv and manifest.json for {len(seeds)} seed(s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
