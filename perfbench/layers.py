"""The traced run: one wrapper per layer, and the per-layer metrics.

Layers are named after the program's modules.  Each metric is timed at
(or counted from) a public function of that module; the table in
``README.md`` lists which.  Times are self times in ms per timed query
unless the unit says otherwise.
"""

from __future__ import annotations

import os
import threading
from typing import Any

from repro.backend import engine as engine_module
from repro.chunks.grid import ChunkGrid
from repro.core import tiered as tiered_module
from repro.core.manager import ChunkAccountant, ChunkAnalyzer, ChunkAssembler
from repro.pipeline.executor import StagedPipeline
from repro.pipeline.flight import FlightResolver, FlightTable
from repro.pipeline.resolvers import BackendChunkResolver, CacheHitResolver
from repro.pipeline.work import ChunkWorkEstimator
from repro.storage.btree import BTree
from repro.storage.chunklog import ChunkLog
from repro.storage.factfile import FactFile
from repro.storage.l2 import record_length

from tracer import Patches, Tracer

#: Per-layer metrics: name -> (unit, better).
PER_LAYER: dict[str, tuple[str, str]] = {
    "pipeline.execute_ms": ("ms/query", "lower"),
    "pipeline.self_ms": ("ms/query", "lower"),
    "pipeline.analyze_ms": ("ms/query", "lower"),
    "pipeline.analyze_calls": ("count/query", "lower"),
    "pipeline.resolve_ms": ("ms/query", "lower"),
    "pipeline.assemble_ms": ("ms/query", "lower"),
    "pipeline.account_ms": ("ms/query", "lower"),
    "pipeline.partitions": ("count/query", "lower"),
    "chunks.selection_ms": ("ms/query", "lower"),
    "work.estimate_ms": ("ms/query", "lower"),
    "cache.get_ms": ("ms/query", "lower"),
    "cache.put_ms": ("ms/query", "lower"),
    "cache.chunk_hit_ratio": ("ratio", "higher"),
    "cache.evictions": ("count/query", "lower"),
    "backend.compute_ms": ("ms/query", "lower"),
    "backend.aggregate_ms": ("ms/query", "lower"),
    "backend.chunks_computed": ("count/query", "lower"),
    "backend.tuples_scanned": ("count/query", "lower"),
    "storage.index_probe_ms": ("ms/query", "lower"),
    "storage.read_decode_ms": ("ms/query", "lower"),
    "storage.pages_read": ("pages/query", "lower"),
    "storage.buffer_hit_ratio": ("ratio", "higher"),
    "serve.overhead_ms": ("ms/query", "lower"),
    "serve.backend_lock_wait_ms": ("ms/query", "lower"),
    "serve.shard_lock_wait_ms": ("ms/query", "lower"),
    "serve.backend_lock_ms": ("ms/query", "lower"),
    "flight.plan_ms": ("ms/query", "lower"),
    "flight.coalesced_chunks": ("count/query", "higher"),
    "l2.get_ms": ("ms/query", "lower"),
    "l2.put_ms": ("ms/query", "lower"),
    "l2.delete_ms": ("ms/query", "lower"),
    "l2.codec_ms": ("ms/query", "lower"),
    "l2.compact_ms": ("ms/query", "lower"),
    "l2.compactions": ("count", "lower"),
    "l2.compact_max_ms": ("ms", "lower"),
    "l2.hit_ratio": ("ratio", "higher"),
    "l2.write_amp": ("ratio", "lower"),
    "trace.backend_share": ("ratio", "lower"),
    "trace.attributed": ("ratio", "higher"),
    "trace.untraced_qps": ("queries/s", "higher"),
    "trace.traced_qps": ("queries/s", "higher"),
    "trace.overhead": ("ratio", "lower"),
}

#: Self-time metrics and the tracer layer each one reads.
TIMED = {
    "pipeline.self_ms": "pipeline.execute",
    "pipeline.analyze_ms": "pipeline.analyze",
    "pipeline.resolve_ms": "pipeline.resolve",
    "pipeline.assemble_ms": "pipeline.assemble",
    "pipeline.account_ms": "pipeline.account",
    "chunks.selection_ms": "chunks.selection",
    "work.estimate_ms": "work.estimate",
    "cache.get_ms": "cache.get",
    "cache.put_ms": "cache.put",
    "backend.compute_ms": "backend.compute",
    "backend.aggregate_ms": "backend.aggregate",
    "storage.index_probe_ms": "storage.index_probe",
    "storage.read_decode_ms": "storage.read_decode",
    "serve.backend_lock_ms": "serve.backend_lock",
    "flight.plan_ms": "flight.plan",
    "l2.get_ms": "l2.get",
    "l2.put_ms": "l2.put",
    "l2.delete_ms": "l2.delete",
    "l2.codec_ms": "l2.codec",
    "l2.compact_ms": "l2.compact",
}

#: Layers whose self time is backend or storage work.
BACKEND_LAYERS = (
    "backend.compute",
    "backend.aggregate",
    "storage.index_probe",
    "storage.read_decode",
)


class Counts:
    """Work counted by the wrappers' observers (thread-safe)."""

    def __init__(self) -> None:
        self.values: dict[str, int] = {}
        self._lock = threading.Lock()

    def add(self, name: str, amount: int) -> None:
        with self._lock:
            self.values[name] = self.values.get(name, 0) + amount


def install(tracer: Tracer, patches: Patches, cache: Any, counts: Counts) -> None:
    """Wrap every layer's public functions for one traced pass."""

    def computed(result: Any, *_args: Any) -> None:
        report = result[1]
        counts.add("chunks_computed", report.chunks_computed)
        counts.add("tuples_scanned", report.tuples_scanned)

    def l2_put(_pages: Any, _log: Any, token: str, payload: bytes, *_rest: Any) -> None:
        counts.add("l2_payload_bytes", len(payload))
        counts.add("l2_written_bytes", record_length(token, payload))

    def l2_delete(live: bool, _log: Any, token: str) -> None:
        if live:
            counts.add("l2_written_bytes", record_length(token))

    def l2_compact(reclaimed: int, log: Any) -> None:
        if reclaimed > 0 and log.path is not None:
            counts.add("l2_written_bytes", os.path.getsize(log.path))

    tracer.patch(patches, StagedPipeline, "execute", "pipeline.execute")
    tracer.patch(patches, ChunkAnalyzer, "analyze", "pipeline.analyze")
    for resolver in (CacheHitResolver, BackendChunkResolver, FlightResolver):
        tracer.patch(patches, resolver, "resolve", "pipeline.resolve")
    tracer.patch(patches, ChunkAssembler, "assemble", "pipeline.assemble")
    tracer.patch(patches, ChunkAccountant, "account", "pipeline.account")
    tracer.patch(patches, ChunkGrid, "chunk_numbers_for_selection", "chunks.selection")
    tracer.patch(patches, ChunkWorkEstimator, "ensure", "work.estimate")
    tracer.patch(patches, cache, "get", "cache.get")
    tracer.patch(patches, cache, "put", "cache.put")
    _patch_engine(tracer, patches, "compute_chunks", "backend.compute", computed)
    _patch_engine(tracer, patches, "estimate_chunk_work_batch", "work.estimate")
    for name in ("aggregate_records", "finalize_partials"):
        tracer.patch(patches, engine_module, name, "backend.aggregate")
    tracer.patch(patches, BTree, "search_many", "storage.index_probe")
    tracer.patch(patches, FactFile, "read_range", "storage.read_decode")
    tracer.patch(patches, FlightTable, "plan_window", "flight.plan")
    tracer.patch(patches, ChunkLog, "get", "l2.get")
    tracer.patch(patches, ChunkLog, "put", "l2.put", l2_put)
    tracer.patch(patches, ChunkLog, "delete", "l2.delete", l2_delete)
    tracer.patch(patches, ChunkLog, "compact", "l2.compact", l2_compact)
    for name in ("encode_chunk", "decode_chunk"):
        tracer.patch(patches, tiered_module, name, "l2.codec")


def _patch_engine(
    tracer: Tracer, patches: Patches, name: str, layer: str, observe: Any = None
) -> None:
    """Time a ``BackendEngine`` entry point inside the engine lock.

    The public method is the ``_synchronized`` lock wrapper around the
    work.  The work becomes a span of ``layer`` and the lock wrapper a
    span of ``serve.backend_lock``, whose self time is the wait for the
    lock.
    """
    engine = engine_module.BackendEngine
    inner = getattr(engine, name).__wrapped__
    locked = engine_module._synchronized(tracer.wrap(layer, inner, observe))
    patches.set(engine, name, tracer.wrap("serve.backend_lock", locked))


def metrics(
    workload: Any,
    traced: Any,
    untraced_qps: float,
    tracer: Tracer,
    counts: Counts,
) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    totals = tracer.totals()
    queries = traced.queries
    wall = traced.wall
    before, after = traced.before, traced.after

    def delta(name: str) -> float:
        return after.get(name, 0) - before.get(name, 0)

    def own_ms(layer: str) -> float:
        return totals.get(layer, [0.0])[0] * 1000.0 / queries

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    execute_s = totals.get("pipeline.execute", [0.0, 0.0])[1]
    out = {name: own_ms(layer) for name, layer in TIMED.items()}
    backend_s = sum(totals.get(layer, [0.0])[0] for layer in BACKEND_LAYERS)
    cache_lookups = delta("cache_hits") + delta("cache_misses")
    l2_lookups = delta("l2_hits") + delta("l2_misses")
    out.update(
        {
            "pipeline.execute_ms": execute_s * 1000.0 / queries,
            "pipeline.analyze_calls": totals.get("pipeline.analyze", [0, 0, 0])[2] / queries,
            "pipeline.partitions": sum(r.partitions for r in traced.rounds) / queries,
            "cache.chunk_hit_ratio": ratio(delta("cache_hits"), cache_lookups),
            "cache.evictions": delta("cache_evictions") / queries,
            "backend.chunks_computed": counts.values.get("chunks_computed", 0) / queries,
            "backend.tuples_scanned": counts.values.get("tuples_scanned", 0) / queries,
            "storage.pages_read": delta("disk_reads") / queries,
            "storage.buffer_hit_ratio": ratio(
                delta("pool_hits"), delta("pool_hits") + delta("pool_misses")
            ),
            "serve.overhead_ms": (wall * workload.threads - execute_s) * 1000.0 / queries,
            "serve.backend_lock_wait_ms": delta("engine_lock_wait") * 1000.0 / queries,
            "serve.shard_lock_wait_ms": delta("shard_lock_wait") * 1000.0 / queries,
            "flight.coalesced_chunks": sum(r.coalesced for r in traced.rounds) / queries,
            "l2.compactions": delta("l2_compactions"),
            "l2.compact_max_ms": totals.get("l2.compact", [0.0, 0.0, 0, 0.0])[3] * 1000.0,
            "l2.hit_ratio": ratio(delta("l2_hits"), l2_lookups),
            "l2.write_amp": ratio(
                counts.values.get("l2_written_bytes", 0),
                counts.values.get("l2_payload_bytes", 0),
            ),
            "trace.backend_share": ratio(backend_s, execute_s),
            "trace.attributed": 1.0 - ratio(totals.get("pipeline.execute", [0.0])[0], execute_s),
            "trace.untraced_qps": untraced_qps,
            "trace.traced_qps": traced.qps,
            "trace.overhead": ratio(untraced_qps, traced.qps) - 1.0,
        }
    )
    return {name: out[name] for name in PER_LAYER}
