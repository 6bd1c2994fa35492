"""Record the expected output digests that run.py compares against.

    python3 perfbench/record_digests.py --seeds 20

Runs one round of every workload at full size for seeds 0..N-1, and at toy
size for seed 0, and writes expected_digests.json. It refuses to record an
item whose output checks fail. Re-record only when a change is meant to alter
the deterministic output, and say so in the change.
"""

from __future__ import annotations

import argparse
import json
import sys

import run


def record(seeds: int) -> dict:
    from workloads import WORKLOADS

    plan = [("full", name, seed) for name in WORKLOADS for seed in range(seeds)]
    plan += [("toy", name, 0) for name in WORKLOADS]
    data: dict = {}
    for size, name, seed in plan:
        wl = WORKLOADS[name](seed, size)
        _, _, results = run.run_round(wl)
        errors = [e for errs in run.check_first_round(wl, results, None) for e in errs]
        if errors:
            sys.exit(f"{size} {name} seed {seed}: {errors}")
        digests = [d for _, outs, _ in results for d in run.item_digests(outs)]
        data.setdefault(size, {}).setdefault(name, {})[str(seed)] = digests
        print(size, name, seed, len(digests), flush=True)
    return data


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=20)
    args = ap.parse_args(argv)
    run._load_program()
    data = record(args.seeds)
    with open(run.EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
