"""Run one benchmark workload and print its metrics as JSON.

Usage, from the repository root::

    python3 perfbench/run.py --workload hot-hit --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the
same queries twice, untraced and then with a wrapper around every
layer's public functions, and prints the per-layer metrics (including
the tracing overhead).  The last line of standard output is always the
JSON result; the lines before it are a readable summary.  The run exits
with a non-zero code, printing no result, when the program under
``src/`` is missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Prefix of the run's scratch directory (under the repository root),
#: which holds the L2 log files and is removed when the run ends.
TMP_PREFIX = ".perfbench-"

#: End-to-end metrics: name -> unit.
END_TO_END = {
    "qps": "queries/s",
    "query_p50_ms": "ms",
    "query_p99_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "modelled_cost_per_query": "cost/query",
    "cache_space_amp": "ratio",
}


def _import_program() -> None:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no program at {ROOT / 'src' / 'repro'}\n")
        sys.exit(2)
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))


def percentile(sorted_values: list[float], share: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * share // 1))
    return sorted_values[int(rank) - 1]


def run(workload_name: str, seed: int, seconds: int, trace: bool) -> dict:
    from repro import invariants
    from repro.pipeline.executor import StagedPipeline

    import layers
    import workloads
    from tracer import LatencyProbe, Patches, Tracer, clock

    # The default invariant level, whatever the environment asks for.
    invariants.set_mode(invariants.CHEAP)
    workload = workloads.WORKLOADS[workload_name]
    tmp_root = tempfile.mkdtemp(prefix=TMP_PREFIX, dir=ROOT)
    problems: list[str] = []
    attempted = failed = 0
    metrics: dict[str, float] = {}
    setup_seconds: list[float] = []

    def fresh_env() -> "workloads.Env":
        gc.collect()
        start = clock()
        env = workloads.setup(workload, seed, tmp_root)
        setup_seconds.append(clock() - start)
        return env

    def finish(env: "workloads.Env", result: "workloads.PassResult") -> None:
        nonlocal attempted, failed
        attempted += result.queries
        failed += result.failed
        problems.extend(workloads.check(env, result, samples))
        env.close()

    try:
        env = None
        for _ in range(1 if trace else SETUP_REPEATS):
            if env is not None:
                env.close()
                env = None
            env = fresh_env()
        run_rounds = workloads.rounds(workload, env.system.schema, seed, seconds)
        if trace:
            # Both passes of a traced run serve the first half of the
            # rounds, so it takes about as long as an untraced run.
            run_rounds = run_rounds[: len(run_rounds) // 2]
        samples = workloads.check_samples(run_rounds, seed)

        patches = Patches()
        probe = LatencyProbe()
        probe.install(patches, StagedPipeline)
        try:
            untraced = workloads.timed_pass(env, run_rounds, samples, probe.seconds)
        finally:
            patches.undo()
        if not trace:
            rounds = untraced.rounds
            latencies = sorted(t for r in rounds for t in r.latencies)
            metrics = {
                "qps": untraced.qps,
                "query_p50_ms": statistics.median(latencies) * 1000.0,
                "query_p99_ms": percentile(latencies, 0.99) * 1000.0,
                "setup_s": statistics.median(setup_seconds),
                "peak_rss_mb": untraced.peak_rss_mb,
                "modelled_cost_per_query": sum(r.modelled_time for r in rounds)
                / sum(r.queries - r.failed for r in rounds),
                "cache_space_amp": statistics.fmean(untraced.space_amps),
            }
        finish(env, untraced)
        if trace:
            env = fresh_env()
            tracer = Tracer()
            counts = layers.Counts()
            layers.install(tracer, patches, env.cache, counts)
            try:
                traced = workloads.timed_pass(env, run_rounds, samples, [])
            finally:
                patches.undo()
            metrics = layers.metrics(workload, traced, untraced.qps, tracer, counts)
            finish(env, traced)
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)

    units = (
        {name: unit for name, (unit, _better) in layers.PER_LAYER.items()}
        if trace
        else END_TO_END
    )
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    for name, value in metrics.items():
        print(f"{workload_name:>10}  {name:<26} {value:14.6f} {units[name]}")
    print(
        f"{workload_name:>10}  attempted {attempted}  failed {failed}  "
        f"answers checked per pass {sum(len(s) for s in samples)}"
    )
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(
            f"unknown workload {args.workload!r}; expected one of "
            f"{sorted(workloads.WORKLOADS)}"
        )
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    sys.stdout.flush()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
