"""Memory of a streamed CLI batch and of its writer processes, as peak PSS.

    PYTHONPATH=src python3 tools/seed_pss.py --nodes 200 --seed 123 --out seed-pss-out
    PYTHONPATH=src python3 tools/seed_pss.py --nodes 100 --seeds 4 --out seed-pss-out

Runs `tools/seed_peak.py` with the same arguments in a child process and,
every `--interval` seconds until it exits, reads `/proc/<pid>/smaps_rollup`
of that process and of its children (the writer processes, where the batch
forks them). RSS counts a page in every process that maps it, so adding
the processes' RSS peaks counts twice the pages a forked writer shares
with its parent. PSS divides each shared page among the processes that map
it, so the sum of their PSS figures is the memory the batch holds. Prints
`seed_peak.py`'s JSON line with the sampled figures added, all in MB:
`peak_pss_mb` (the batch process and its children together),
`peak_pss_self_mb`, `peak_private_children_mb` (the children's pages that
no other process maps) and `last_private_children_mb` (the same, in the
last sample that saw a child: after the writers' last seeds, as the batch
closes them). Linux only. A peak shorter than the interval can fall
between two samples, and reading the tables costs the measured processes
some time, so take wall times from `seed_peak.py` alone.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path


def rollup(pid: int) -> dict[str, float]:
    """A process's `smaps_rollup` sizes in MB, or nothing once it has exited."""
    sizes = {}
    try:
        with open(f"/proc/{pid}/smaps_rollup") as handle:
            for line in handle:
                parts = line.split()
                if len(parts) == 3 and parts[2] == "kB":
                    sizes[parts[0].rstrip(":")] = int(parts[1]) / 1024
    except (FileNotFoundError, ProcessLookupError):
        pass
    return sizes


def children(pid: int) -> list[int]:
    try:
        with open(f"/proc/{pid}/task/{pid}/children") as handle:
            return [int(child) for child in handle.read().split()]
    except FileNotFoundError:
        return []


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--nodes", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=123)
    parser.add_argument("--seeds", type=int, default=1, help="consecutive seeds in the batch, from --seed on")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--interval", type=float, default=0.005)
    args = parser.parse_args()

    seed_peak = Path(__file__).with_name("seed_peak.py")
    command = [sys.executable, str(seed_peak), "--nodes", str(args.nodes), "--seed", str(args.seed)]
    command += ["--seeds", str(args.seeds), "--out", str(args.out)]
    process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    pss = pss_self = private_children = private_last = 0.0
    while process.poll() is None:
        own = rollup(process.pid)
        if own:
            kids = [rollup(child) for child in children(process.pid)]
            kids_pss = sum(kid.get("Pss", 0.0) for kid in kids)
            pss = max(pss, own["Pss"] + kids_pss)
            pss_self = max(pss_self, own["Pss"])
            private = sum(kid.get("Private_Clean", 0.0) + kid.get("Private_Dirty", 0.0) for kid in kids)
            private_children = max(private_children, private)
            if any(kids):
                private_last = private
        time.sleep(args.interval)
    output = process.stdout.read()
    if process.returncode:
        sys.exit(f"seed_peak.py exited with {process.returncode}")
    line = json.loads(output.splitlines()[-1])
    line.update(
        peak_pss_mb=round(pss, 1),
        peak_pss_self_mb=round(pss_self, 1),
        peak_private_children_mb=round(private_children, 1),
        last_private_children_mb=round(private_last, 1),
    )
    print(json.dumps(line))


if __name__ == "__main__":
    main()
