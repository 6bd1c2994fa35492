"""Checker benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload classic-donut --seed 0 --seconds 28 --trace 0

Run from the repository root; the program is imported from `src/`. Items run
back to back in one process and one thread (a closed loop with one caller).
A round is one pass over the workload's items; rounds repeat on the same
inputs until the next one would take the summed round time past --seconds
(at least one round). Output checks run between rounds, outside that time.
Every output is checked, and the last line printed is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. The line before it records
the environment and the details behind the metrics.
"""

from __future__ import annotations

import time

START = time.perf_counter()  # set-up is timed from here, before the imports

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected_digests.json"
SPANS_DIR = HERE / "out"
SETUP_SAMPLES = 5


def _load_program():
    if not (SRC / "artgallery" / "__init__.py").is_file():
        sys.exit(f"perfbench: no artgallery sources at {SRC}; run from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    import artgallery

    if Path(artgallery.__file__).resolve().parent != SRC / "artgallery":
        sys.exit(f"perfbench: imported artgallery from {artgallery.__file__}, not {SRC}")


# ---------------------------------------------------------------------------
# Set-up


def measure_setup(workload: str, seed: int) -> list:
    """Set-up seconds (imports plus fixed inputs) from fresh processes."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


# ---------------------------------------------------------------------------
# Rounds


def run_round(wl, tracer=None):
    """One pass over the items: (round seconds, item seconds, item outputs)."""
    times, results = [], []
    t_round = time.perf_counter()
    for item_id, fn in wl.items():
        if tracer is not None:
            tracer.begin_item(item_id)
        t0 = time.perf_counter()
        try:
            outs, err = fn(), None
        except Exception as exc:  # an item that raises is a failed item
            outs, err = [], f"{item_id}: {type(exc).__name__}: {exc}"
        times.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.end_item()
        results.append((item_id, outs, err))
    return time.perf_counter() - t_round, times, results


def item_digests(outs) -> list:
    import verify

    return [verify.digest(verify.deterministic_part(o.doc)) for o in outs]


def check_first_round(wl, results, expected):
    """Errors per item for the first round: exceptions, the workload's own
    checks, and digests against the committed expected file when it has this
    workload, size and seed."""
    errors = []
    flat = [d for _, outs, _ in results for d in item_digests(outs)]
    pos = 0
    for item_id, outs, err in results:
        errs = [err] if err else []
        if not err:
            try:
                errs += wl.check(item_id, outs)
            except Exception as exc:  # a check that cannot run fails its item
                errs.append(f"{item_id}: check raised {type(exc).__name__}: {exc}")
        end = pos + len(outs)
        if expected is not None and (len(expected) != len(flat) or expected[pos:end] != flat[pos:end]):
            errs.append(f"{item_id}: digest differs from {EXPECTED.name}")
        pos = end
        errors.append(errs)
    return errors


def check_repeat(first, results):
    """A repeated round must reproduce the first round's digests."""
    errors = []
    for (item_id, outs0, _), (_, outs, err) in zip(first, results):
        if err:
            errors.append([err])
        elif item_digests(outs) != item_digests(outs0):
            errors.append([f"{item_id}: digest differs between rounds"])
        else:
            errors.append([])
    return errors


def p90(values) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def expected_digests(size, workload, seed):
    if not EXPECTED.is_file():
        return None
    with open(EXPECTED, encoding="utf-8") as fh:
        return json.load(fh).get(size, {}).get(workload, {}).get(str(seed))


def environment(seed: int) -> dict:
    import numpy
    from artgallery import rational

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "backend": rational._BACKEND,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "seed": seed,
        "commit": commit,
    }


def run_workload(name, seed, seconds, trace, size="full", setup_samples=None):
    """Run one workload; returns (result line dict, detail dict)."""
    from workloads import WORKLOADS

    wl = WORKLOADS[name](seed, size)
    expected = expected_digests(size, name, seed)

    wall, times, first = run_round(wl)
    walls, item_times = [wall], list(times)
    errors = check_first_round(wl, first, expected)

    tracer = None
    traced_walls = []
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            while not traced_walls or walls[0] + sum(traced_walls) + traced_walls[-1] <= seconds:
                wall, _, results = run_round(wl, tracer)
                traced_walls.append(wall)
                errors += check_repeat(first, results)
        finally:
            tracer.uninstall()
    else:
        while sum(walls) + walls[-1] <= seconds:
            wall, times, results = run_round(wl)
            walls.append(wall)
            item_times += times
            errors += check_repeat(first, results)

    attempted = len(errors)
    failed = sum(1 for e in errors if e)
    reports = [o.value for _, outs, _ in first for o in outs if o.doc.get("kind") == "report"]
    undetermined = sum(r.classification == "UNDETERMINED" for r in reports)
    first_docs = [o for _, outs, _ in first for o in outs]

    detail = {
        "workload": name,
        "size": size,
        "env": environment(seed),
        "rounds": len(walls) + len(traced_walls),
        "traced_rounds": len(traced_walls),
        "round_s": walls + traced_walls,
        "items_timed": len(item_times),
        "item_s": {"median": statistics.median(item_times), "p90": p90(item_times),
                   "n": len(item_times)},
        "fail_frac": failed / attempted,
        "undetermined_frac": undetermined / len(reports) if reports else 0.0,
        "digests_expected": expected is not None,
        "errors": [e for errs in errors for e in errs][:20],
    }

    if trace:
        metrics = layer_metrics(tracer, traced_walls, walls[0], reports, detail)
        tracer.write_spans(SPANS_DIR / f"spans-{name}-seed{seed}.jsonl")
    else:
        import verify

        if setup_samples is None:
            setup_samples = measure_setup(name, seed)
        detail["setup_samples_s"] = setup_samples
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "item_s.p90": (p90(item_times), "s"),
            "setup_s": (statistics.median(setup_samples), "s"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
            "coord_bits_max": (max((verify.max_coord_bits(verify.coordinate_parts(o.doc))
                                    for o in first_docs), default=0), "bits"),
            "doc_bytes": (sum(len(o.text.encode()) for o in first_docs), "bytes"),
        }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, detail


def layer_metrics(tracer, traced_walls, untraced_wall, reports, detail) -> dict:
    """Per-layer metrics per round, averaged over the traced rounds."""
    out = tracer.metrics(len(traced_walls))
    traced_wall = statistics.fmean(traced_walls)
    out["checkers.tuples_checked"] = (sum(r.coverage.checked for r in reports), "count")
    out["undetermined_frac"] = (detail["undetermined_frac"], "fraction")
    out["trace.wall_s"] = (traced_wall, "s")
    out["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="build the workload's fixed inputs and print the seconds taken")
    args = ap.parse_args(argv)

    _load_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    if args.setup_only:
        WORKLOADS[args.workload](args.seed)
        print(time.perf_counter() - START)
        return 0

    result, detail = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
