"""Steadiness check: two sets of runs of one build, per workload.

Usage, from the repository root::

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --workloads cold-scan --runs 5
    python3 perfbench/steady.py --trace 1 --runs 2

Each run is a fresh ``perfbench/run.py`` process.  Set A uses seeds
``1..runs`` and set B the same seeds again, one set after the other.
For every end-to-end metric the command prints both sets' medians and
quartiles, the spread (quartile distance over the median) of each set,
how much worse B's median is than A's, and whether the two medians
agree, and each spread stays, within the metric's bound in
``BENCHMARK.json``.  It also checks that
both sets fail the same share of queries, and that on the
single-thread workloads a seed gives exactly the same
``modelled_cost_per_query`` in both sets.

With ``--trace 1`` the runs are traced; the command prints the
per-layer medians, checks that the count metrics of the single-thread
workloads repeat exactly from set to set, and checks the split each
workload is chosen for (see ``split_checks``).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

#: Per-layer metrics that are counts, identical from run to run of one
#: seed on the single-thread workloads.
EXACT_COUNTS = (
    "pipeline.partitions",
    "pipeline.analyze_calls",
    "cache.chunk_hit_ratio",
    "cache.evictions",
    "backend.chunks_computed",
    "backend.tuples_scanned",
    "storage.pages_read",
    "storage.buffer_hit_ratio",
    "flight.coalesced_chunks",
    "l2.compactions",
    "l2.hit_ratio",
    "l2.write_amp",
)

#: Least share of the traced query time (the time of the
#: ``StagedPipeline.execute`` spans) that the named layers below the
#: executor must account for; the rest is the executor's own self time.
ATTRIBUTED_MIN = 0.70


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [
        sys.executable, str(ROOT / "perfbench" / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=600
    )
    if done.returncode != 0:
        raise SystemExit(
            f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: list[float]) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


def compare(workload: str, a: list[dict], b: list[dict], bounds: dict) -> bool:
    """Print one workload's table; returns whether every check held."""
    ok = True
    print(f"\n== {workload}: {len(a)} + {len(b)} runs")
    print(
        f"{'metric':<26}{'median A':>12}{'q1..q3 A':>24}{'spread A':>9}"
        f"{'median B':>12}{'q1..q3 B':>24}{'spread B':>9}{'B worse':>9}"
        f"{'bound':>7}  verdict"
    )
    for name in a[0]["metrics"]:
        va = [run["metrics"][name]["value"] for run in a]
        vb = [run["metrics"][name]["value"] for run in b]
        qa, qb = quartiles(va), quartiles(vb)
        bound = bounds[name]["bound"]
        sign = 1.0 if bounds[name]["better"] == "lower" else -1.0
        shift = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
        worse = sign * shift
        sa, sb = spread(va), spread(vb)
        # Both sets come from one build: a shift beyond the bound either
        # way means the metric is not steady.
        held = abs(shift) <= bound and (
            name == "setup_s" or (sa <= bound and sb <= bound)
        )
        ok &= held
        print(
            f"{name:<26}{qa[1]:12.5g}{f'{qa[0]:.5g}..{qa[2]:.5g}':>24}"
            f"{sa:9.3f}{qb[1]:12.5g}{f'{qb[0]:.5g}..{qb[2]:.5g}':>24}"
            f"{sb:9.3f}{worse:9.3f}{bound:7.2f}  {'ok' if held else 'OUT'}"
        )
    share_a = sum(r["failed"] for r in a) / sum(r["attempted"] for r in a)
    share_b = sum(r["failed"] for r in b) / sum(r["attempted"] for r in b)
    correct = all(r["correct"] for r in a + b)
    print(
        f"failed share A {share_a:.6f}  B {share_b:.6f}  "
        f"{'equal' if share_a == share_b else 'DIFFERENT'};  "
        f"all runs correct: {correct}"
    )
    return ok and share_a == share_b and correct


def exact_repeats(workload: str, a: list[dict], b: list[dict], names: tuple) -> bool:
    """Whether the named metrics repeat exactly per seed across sets."""
    ok = True
    for run_a, run_b in zip(a, b):
        for name in names:
            if name not in run_a["metrics"]:
                continue
            x = run_a["metrics"][name]["value"]
            y = run_b["metrics"][name]["value"]
            if x != y:
                ok = False
                print(f"NOT REPEATED: {workload} {name} {x!r} != {y!r}")
    print(f"{workload}: {', '.join(n for n in names if n in a[0]['metrics'])} "
          f"{'repeat exactly per seed' if ok else 'DO NOT repeat'}")
    return ok


def split_checks(medians: dict[str, dict[str, float]]) -> bool:
    """Print whether the traced split is the one the workloads are for;
    returns whether every claim held."""
    ok = True

    def show(claim: str, holds: bool) -> None:
        nonlocal ok
        ok &= holds
        print(f"{'holds' if holds else 'DOES NOT HOLD'}: {claim}")

    share = {w: m["trace.backend_share"] for w, m in medians.items()}
    if "cold-scan" in share:
        show("backend + storage self time > 1/2 of cold-scan's query time",
             share["cold-scan"] > 0.5)
    if "hot-hit" in share:
        show("backend + storage self time < 1/10 of hot-hit's query time",
             share["hot-hit"] < 0.1)
    for prefix, owner in (("l2.", "tiered-dup"), ("serve.backend_lock_wait", "shared-2t"),
                          ("serve.shard_lock_wait", "shared-2t")):
        nonzero = sorted(
            w for w, m in medians.items()
            if any(v != 0 for k, v in m.items() if k.startswith(prefix))
        )
        expected = [owner] if owner in medians else []
        show(f"{prefix}* non-zero only on {owner} (non-zero on {nonzero})",
             nonzero == expected)
    for w, m in medians.items():
        show(f"{w}: named layers account for {m['trace.attributed']:.3f} "
             f">= {ATTRIBUTED_MIN} of traced query time",
             m["trace.attributed"] >= ATTRIBUTED_MIN)
        print(f"{w}: tracing overhead {m['trace.overhead']:+.3f}")
    return ok


def main() -> None:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workloads", nargs="*",
        help="default: the workloads of BENCHMARK.json",
    )
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    all_ok = True
    traced_medians: dict[str, dict[str, float]] = {}
    for name in names:
        workload = workloads.WORKLOADS[name]
        sets = [
            [one_run(name, seed, seconds, args.trace) for seed in range(1, args.runs + 1)]
            for _ in range(2)
        ]
        if args.trace:
            print(f"\n== {name} (traced): medians of set A / set B")
            traced_medians[name] = {}
            for metric in sets[0][0]["metrics"]:
                ma = statistics.median(r["metrics"][metric]["value"] for r in sets[0])
                mb = statistics.median(r["metrics"][metric]["value"] for r in sets[1])
                unit = sets[0][0]["metrics"][metric]["unit"]
                traced_medians[name][metric] = ma
                print(f"{metric:<28}{ma:14.6g}{mb:14.6g}  {unit}")
            all_ok &= all(r["correct"] for r in sets[0] + sets[1])
            if workload.threads == 1:
                all_ok &= exact_repeats(name, *sets, EXACT_COUNTS)
            continue
        all_ok &= compare(name, *sets, bounds)
        if workload.threads == 1:
            all_ok &= exact_repeats(name, *sets, ("modelled_cost_per_query",))
    if traced_medians:
        print()
        all_ok &= split_checks(traced_medians)
    print("\nsteady" if all_ok else "\nNOT steady")
    sys.exit(0 if all_ok else 1)


if __name__ == "__main__":
    main()
