"""Record the output digests that run.py holds every request to, bit for bit.

    python3 bench/reference.py

Runs the first REF_CYCLES[workload] cycles of each workload once for the
default seed (0) and the held-out seed (1), requires every output to pass
its invariant checks, and writes bench/reference/digests.json. Requests of
other seeds, or beyond these cycles, are held to the invariants alone.
Re-record only in a change that is meant to move the numbers, and say so.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import workloads as wls  # noqa: E402

SEEDS = (0, 1)
# about twice the cycles a 30-second run completes on a 2-vCPU Xeon VM
REF_CYCLES = {"cli_cold": 6, "desk_batch": 20, "fine_grid": 30}
OUT = BENCH / "reference" / "digests.json"


def main() -> int:
    eng = wls.Engine()
    work = BENCH / "_work" / "reference"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    digests: dict = {}
    try:
        for name, cls in wls.WORKLOADS.items():
            for seed in SEEDS:
                wl = cls(eng, seed, work)
                table = digests.setdefault(name, {}).setdefault(str(seed), {})
                for c in range(REF_CYCLES[name]):
                    for req in wl.cycle(c):
                        d, problems = req.check(req.run())
                        if problems:
                            print(f"{name} seed {seed} {req.key}: {problems}", file=sys.stderr)
                            return 1
                        table[req.key] = d
                print(f"{name} seed {seed}: {len(table)} digests", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    OUT.parent.mkdir(exist_ok=True)
    OUT.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
