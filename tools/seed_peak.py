"""Peak RSS of a streamed CLI batch, and what writing its ESR files adds to it.

    PYTHONPATH=src python3 tools/seed_peak.py --nodes 1000 --seed 123 --out seed-peak-out
    PYTHONPATH=src python3 tools/seed_peak.py --nodes 100 --seeds 4 --out seed-peak-out

Runs `siotrust.cli.run_batch` on `--seeds` consecutive seeds (default one)
of the default scenario, resized to `--nodes`, in this process, and prints
one JSON object: the process's peak RSS (`ru_maxrss`) just before the last
ESR file is written and at the end, the largest peak of a child it waited
for (`RUSAGE_CHILDREN`: a writer process that formats the event logs and
trust traces on a machine with a second CPU; 0 if there was none), all in
MB, and the wall time. `ru_maxrss` never falls, so run each measurement in
a fresh process. The seeds write their files under `--out` (about 850 MB
for one seed at 1000 nodes) and they are left there.
"""

from __future__ import annotations

import argparse
import json
import resource
import time
from pathlib import Path

from siotrust import cli
from siotrust.sim import ScenarioConfig


def peak_mb(who: int = resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--nodes", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=123)
    parser.add_argument("--seeds", type=int, default=1, help="consecutive seeds in the batch, from --seed on")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    before_esr = []
    write_esr_csv = cli.write_esr_csv

    def measured(assessments, path):
        before_esr.append(peak_mb())
        write_esr_csv(assessments, path)

    cli.write_esr_csv = measured
    start = time.perf_counter()
    cli.run_batch(ScenarioConfig(node_count=args.nodes), list(range(args.seed, args.seed + args.seeds)), args.out)
    wall = time.perf_counter() - start
    end = peak_mb()
    print(json.dumps({
        "nodes": args.nodes,
        "seed": args.seed,
        "seeds": args.seeds,
        "peak_rss_before_esr_mb": round(before_esr[-1], 1),
        "peak_rss_mb": round(end, 1),
        "esr_adds_mb": round(end - before_esr[-1], 1),
        "peak_rss_children_mb": round(peak_mb(resource.RUSAGE_CHILDREN), 1),
        "wall_s": round(wall, 2),
    }))


if __name__ == "__main__":
    main()
