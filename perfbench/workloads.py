"""The benchmark's four serving workloads.

Every workload runs at ``DEFAULT_SCALE`` (100 000 Table 1 tuples, a
buffer pool of about 10 % of the fact file) with the fact data, the hot
region and every query stream drawn from the run's seed.  A run serves
``ROUNDS`` sessions back to back on one stack and times a fixed number
of queries, about ``seconds x rate``, so every count it reports depends
only on the seed and the run length, never on the machine's speed.

Load is a closed loop from one process: each serving thread issues its
next query only when the previous one has returned.
"""

from __future__ import annotations

import gc
import math
import os
import random
import resource
import shutil
import tempfile
from dataclasses import dataclass, field
from itertools import combinations, product
from typing import Any

from repro.api import StackConfig, build_cache
from repro.exceptions import InvariantViolation, ReproError
from repro.experiments.configs import DEFAULT_SCALE
from repro.experiments.harness import System, build_system, make_chunk_manager
from repro.query.model import StarQuery
from repro.serve import FAIR, FREE, FrontConfig, FrontSession, ServeSession
from repro.workload.generator import Q80, Q100, RANDOM, LocalityMix, QueryGenerator
from repro.workload.stream import QueryStream

from reference import ReferenceEvaluator, answer_rows, same_rows
from tracer import clock

#: Schedule tag of the admission front door (``FrontSession``).
FRONT = "front"

#: Answers checked against the reference evaluator per pass (seeded).
CHECK_SAMPLE = 200

#: Sessions (rounds) per timed pass.
ROUNDS = 6

#: Fewest timed queries in a run, so the p99 has ten samples beyond it.
MIN_QUERIES = 1000


@dataclass(frozen=True)
class Workload:
    """One traffic mix and the stack it runs on.

    Attributes:
        name: The workload's name on the command line.
        mix: Locality mix of every user stream.
        users: User streams.
        threads: Serving threads (the closed-loop clients).
        schedule: ``"fair"``/``"free"`` (``ServeSession``) or
            ``"front"`` (``FrontSession``).
        rate: Queries per second the reference machine serves; sets the
            fixed query count of a run.
        cache_share: Cache budget as a share of the cube.
        shards: Cache shards (0 = the plain single-lock cache).
        tiers: 1, or 2 for an L1 over a file-backed chunk log.
        paired: Users come in pairs that issue identical queries.
        hot_sweep: Set-up warms the cache over the whole hot region.
    """

    name: str
    mix: LocalityMix
    users: int
    threads: int
    schedule: str
    rate: float
    cache_share: float = 0.1
    shards: int = 0
    tiers: int = 1
    paired: bool = False
    hot_sweep: bool = False

    def per_user(self, seconds: int) -> int:
        """Queries per user stream and round in a run of ``seconds``."""
        wanted = max(seconds * self.rate, MIN_QUERIES) / ROUNDS
        return math.ceil(wanted / self.users)


#: L1 share of the paper's cache budget on the 2-tier workload.
TIERED_L1_SHARE = 1 / 8
#: L2 byte budget as a share of the paper's cache budget.
TIERED_L2_SHARE = 1 / 4
#: Dead-space ratio that triggers a chunk-log compaction.  At 0.1 about
#: 1.6 % of the queries stall on a foreground compaction, so the p99
#: falls among the stalls.  At 0.2 the stalls were 0.7 %, the p99 sat
#: on the edge between stalls and backend misses, and it moved by up
#: to 27 % between runs.
TIERED_COMPACT_THRESHOLD = 0.1

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "hot-hit", Q100, users=8, threads=1, schedule=FAIR,
            rate=4800.0, cache_share=0.5, hot_sweep=True,
        ),
        Workload(
            "cold-scan", RANDOM, users=1, threads=1, schedule=FAIR,
            rate=500.0,
        ),
        Workload(
            "tiered-dup", Q80, users=8, threads=1, schedule=FRONT,
            rate=600.0, tiers=2, paired=True,
        ),
        Workload(
            "shared-2t", Q80, users=8, threads=2, schedule=FREE,
            rate=1000.0, shards=8,
        ),
    )
}


@dataclass
class Env:
    """One set-up stack: loaded system, cache, manager, L2 directory."""

    workload: Workload
    system: System
    cache: Any
    manager: Any
    l2_dir: str | None = None
    l2_path: str | None = None
    l2_budget: int | None = None
    closed: bool = False

    def close(self) -> None:
        if not self.closed:
            close = getattr(self.cache, "close", None)
            if close is not None:
                close()
            self.closed = True
        if self.l2_dir is not None:
            shutil.rmtree(self.l2_dir, ignore_errors=True)
            self.l2_dir = None


def setup(workload: Workload, seed: int, tmp_root: str) -> Env:
    """Build the system, the cache and the manager, then warm up.

    This is exactly the span ``setup_s`` times.
    """
    system = build_system(DEFAULT_SCALE.with_overrides(seed=seed))
    cache_bytes = int(system.cube_bytes * workload.cache_share)
    l2_dir = l2_path = l2_budget = None
    if workload.tiers == 2:
        l2_dir = tempfile.mkdtemp(prefix="l2-", dir=tmp_root)
        l2_path = os.path.join(l2_dir, "chunks.log")
        l2_budget = int(cache_bytes * TIERED_L2_SHARE)
        config = StackConfig(
            cache_bytes=int(cache_bytes * TIERED_L1_SHARE),
            num_shards=workload.shards,
            cache_tiers=2,
            persist_path=l2_path,
            l2_budget_bytes=l2_budget,
            compact_threshold=TIERED_COMPACT_THRESHOLD,
        )
    else:
        config = StackConfig(
            cache_bytes=cache_bytes, num_shards=workload.shards
        )
    cache = build_cache(config)
    manager = make_chunk_manager(system, cache=cache)
    if workload.hot_sweep:
        for query in hot_sweep(system.schema, seed):
            manager.pipeline.execute(query)
    return Env(workload, system, cache, manager, l2_dir, l2_path, l2_budget)


def _generator(schema: Any, seed: int) -> QueryGenerator:
    # The constructor seed places the hot region; every user of a run
    # shares it.
    return QueryGenerator(schema, seed=seed)


def hot_sweep(schema: Any, seed: int) -> list[StarQuery]:
    """One query per group-by of up to three dimensions, selecting the
    whole hot region at that group-by's levels.

    Every hot-region query of the run's streams touches a subset of the
    chunks these queries touch, so after the sweep every chunk of the
    timed queries is in the cache.
    """
    generator = _generator(schema, seed)
    dims = schema.dimensions
    queries = []
    for size in range(1, generator.max_grouped_dims + 1):
        for positions in combinations(range(len(dims)), size):
            ranges = [range(1, dims[p].leaf_level + 1) for p in positions]
            for levels in product(*ranges):
                groupby = [0] * len(dims)
                selections: list[Any] = [None] * len(dims)
                for pos, level in zip(positions, levels):
                    groupby[pos] = level
                    hierarchy = dims[pos].hierarchy
                    hot = generator.hot_leaf_intervals[pos]
                    interval = hierarchy.contained_interval(level, hot)
                    if interval is None:
                        member = dims[pos].ancestor_ordinal(
                            dims[pos].leaf_level, hot[0], level
                        )
                        interval = (member, member + 1)
                    selections[pos] = interval
                queries.append(
                    StarQuery.build(
                        schema, groupby, selections, generator.aggregates
                    )
                )
    return queries


def rounds(workload: Workload, schema: Any, seed: int, seconds: int) -> list[list[QueryStream]]:
    """The run's user streams, one set per round.

    In round ``r`` user ``u`` draws from the seed
    ``seed * 1000 + 10 * r + u + 1`` (paired users share ``u // 2``),
    after the hot region is placed from ``seed``.
    """
    per_user = workload.per_user(seconds)
    out = []
    for round_index in range(ROUNDS):
        streams = []
        for user in range(workload.users):
            generator = _generator(schema, seed)
            stream_id = user // 2 if workload.paired else user
            generator.rng.seed(seed * 1000 + 10 * round_index + stream_id + 1)
            streams.append(
                QueryStream(
                    name=f"user{user}",
                    queries=tuple(generator.stream(per_user, workload.mix)),
                )
            )
        out.append(streams)
    return out


def check_samples(run_rounds: list[list[QueryStream]], seed: int) -> list[set[int]]:
    """Per round, the canonical query numbers whose answers are checked."""
    rng = random.Random(seed * 7919 + 17)
    share = CHECK_SAMPLE // len(run_rounds)
    samples = []
    for streams in run_rounds:
        total = sum(len(stream) for stream in streams)
        samples.append(set(rng.sample(range(total), min(share, total))))
    return samples


@dataclass
class Round:
    """What one timed session left behind, summarized when it ends."""

    queries: int
    wall: float
    latencies: list[float]
    failures: tuple[Any, ...]
    pages: int
    modelled_time: float
    partitions: int
    coalesced: int
    answers: dict[int, tuple[Any, Any]]

    @property
    def failed(self) -> int:
        return len(self.failures)


@dataclass
class PassResult:
    """The timed rounds of one pass and the counters around them."""

    rounds: list[Round]
    before: dict[str, Any]
    after: dict[str, Any]
    peak_rss_mb: float
    #: :func:`space_amp` at the end of each round.
    space_amps: list[float] = field(default_factory=list)

    @property
    def queries(self) -> int:
        """Queries attempted (answered or failed)."""
        return sum(r.queries for r in self.rounds)

    @property
    def failed(self) -> int:
        return sum(r.failed for r in self.rounds)

    @property
    def wall(self) -> float:
        return sum(r.wall for r in self.rounds)

    @property
    def qps(self) -> float:
        """Queries over the summed wall time of the rounds."""
        return self.queries / self.wall


def counters(env: Env) -> dict[str, Any]:
    """Counter readings the metrics are deltas of."""
    backend = env.manager.backend
    stats = env.cache.stats
    pool = backend.buffer_pool.stats
    contention = env.cache.contention()
    out: dict[str, Any] = {
        "disk_reads": backend.disk.stats.reads,
        "pool_hits": pool.hits,
        "pool_misses": pool.misses,
        "cache_hits": stats.hits,
        "cache_misses": stats.misses,
        "cache_evictions": stats.evictions,
        "engine_lock_wait": backend.lock_wait_seconds,
        "shard_lock_wait": float(contention.get("lock_wait_seconds", 0.0)),
    }
    if env.workload.tiers == 2:
        l2 = env.cache.tiers()["l2"]
        out.update(
            l2_hits=l2["hits"],
            l2_misses=l2["misses"],
            l2_compactions=l2["compactions"],
        )
    return out


def _session(env: Env, streams: list[QueryStream], capture: Any) -> Any:
    workload = env.workload
    if workload.schedule == FRONT:
        return FrontSession(
            env.manager,
            streams,
            FrontConfig(max_workers=workload.threads),
            tolerate=(ReproError,),
            on_answer=capture,
        )
    return ServeSession(
        env.manager,
        streams,
        max_workers=workload.threads,
        schedule=workload.schedule,
        tolerate=(ReproError,),
        on_answer=capture,
    )


def timed_pass(
    env: Env,
    run_rounds: list[list[QueryStream]],
    samples: list[set[int]],
    latencies: list[float],
) -> PassResult:
    """Serve every round's streams, one session per round, back to back
    on the same stack, timing each session's wall clock.

    ``latencies`` is the list the installed probe appends each query's
    wall time to; every round takes its own slice of it.
    """
    result = PassResult([], counters(env), {}, 0.0)
    for streams, sample in zip(run_rounds, samples):
        answers: dict[int, tuple[Any, Any]] = {}

        def capture(seq: int, _stream: str, query: Any, rows: Any) -> None:
            if seq in sample:
                answers[seq] = (query, rows)

        session = _session(env, streams, capture)
        del latencies[:]
        gc.collect()
        start = clock()
        report = session.run()
        wall = clock() - start
        records = report.metrics.records
        flight = getattr(session, "flight", None)
        result.rounds.append(
            Round(
                queries=report.queries + len(report.failures),
                wall=wall,
                latencies=sorted(latencies),
                failures=report.failures,
                pages=sum(r.pages_read for r in records)
                + sum(f.pages_read for f in report.failures),
                modelled_time=sum(r.time for r in records),
                partitions=sum(t.partitions_total for t in report.metrics.traces),
                coalesced=flight.stats()["coalesced_chunks"] if flight else 0,
                answers=answers,
            )
        )
        del report, records, session
        result.space_amps.append(space_amp(env))
    result.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result.after = counters(env)
    return result


def check(env: Env, result: PassResult, samples: list[set[int]]) -> list[str]:
    """Every correctness check of one pass; returns the problems found.

    On the 2-tier workload this closes the cache (the log is closed and
    reopened), so it runs after every other reading of the stack.
    """
    problems: list[str] = []
    schema = env.system.schema
    evaluator = ReferenceEvaluator(schema, env.system.records)
    checked = wrong = 0
    for round_, sample in zip(result.rounds, samples):
        for query, rows in round_.answers.values():
            checked += 1
            if not same_rows(evaluator.evaluate(query), answer_rows(schema, query, rows)):
                wrong += 1
        expected = sample - {failure.seq for failure in round_.failures}
        if set(round_.answers) != expected:
            problems.append(
                f"captured {len(round_.answers)} sampled answers, expected {len(expected)}"
            )
        if any(f.kind == InvariantViolation.__name__ for f in round_.failures):
            problems.append("a query failed an invariant")
    if wrong:
        problems.append(f"{wrong} of {checked} sampled answers differ from the reference")
    pages = sum(r.pages for r in result.rounds)
    delta = result.after["disk_reads"] - result.before["disk_reads"]
    if pages != delta:
        problems.append(f"per-query backend pages {pages} != disk read delta {delta}")
    if env.workload.tiers == 2:
        cache = env.cache
        try:
            cache.check_conservation()
        except ReproError as error:
            problems.append(f"tiered conservation: {error}")
        live = cache.log.live_bytes
        if env.l2_budget is not None and live > env.l2_budget:
            problems.append(f"L2 live bytes {live} exceed the budget {env.l2_budget}")
        entries = len(cache.log)
        cache.close()
        recovery = cache.log.reopen()
        cache.log.close()
        if recovery.truncated_bytes or recovery.header_reset:
            problems.append(f"reopened chunk log lost bytes: {recovery}")
        if recovery.live_entries != entries:
            problems.append(
                f"reopened chunk log has {recovery.live_entries} live entries, expected {entries}"
            )
    return problems


def space_amp(env: Env) -> float:
    """(L1 used + L2 file bytes) / (L1 used + L2 live payload bytes).

    The 1-tier stacks have no L2, so the ratio is exactly 1.0.  On the
    2-tier stack the ratio saw-tooths between compactions, so a run
    reports the mean of its readings at the end of every round rather
    than one reading whose place on the tooth the seed decides.
    """
    if env.workload.tiers != 2:
        return 1.0
    l1 = env.cache.used_bytes
    return (l1 + os.path.getsize(env.l2_path)) / (l1 + env.cache.log.live_bytes)
