"""Pin the benchmark's golden outputs from the code in this checkout.

    python3 perfbench/pin.py [workload ...]

Runs every seed batch of the named workloads (all by default) once through
`siotrust.cli.run_batch` and rewrites `golden.json` with the SHA-256 of each
output file, the DR/ACC/FN/FP values and the interpreter and library
versions. Only re-pin when a change means to alter the outputs, and say why.
"""

from __future__ import annotations

import json
import sys

import run


def main(argv: list[str]) -> int:
    run.import_program()
    golden = run.load_golden() if run.GOLDEN_PATH.exists() else {"workloads": {}}
    golden["versions"] = run.versions()
    out_root = run.CHECKOUT / ".perfbench_out"
    for name in argv or sorted(run.WORKLOADS):
        golden["workloads"][name] = run.pin_workload(run.WORKLOADS[name], out_root)
        print(f"pinned {name}", flush=True)
    with open(run.GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
