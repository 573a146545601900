"""Tests of the reference evaluator on a hand-built table of six rows.

Run with ``python3 -m pytest perfbench/test_reference.py`` or
``python3 perfbench/test_reference.py`` from the repository root.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

from reference import ReferenceEvaluator, answer_rows, same_rows  # noqa: E402
from repro.query.model import StarQuery  # noqa: E402
from repro.schema.builder import build_star_schema  # noqa: E402

# D0: 2 members at level 1, 4 leaves (leaves 0,1 -> 0; 2,3 -> 1).
# D1: one level of 3 leaves.
SCHEMA = build_star_schema([[2, 4], [3]], measure_names=("v",))


def _table() -> np.ndarray:
    dtype = [("D0", "<i4"), ("D1", "<i4"), ("v", "<f8")]
    rows = [
        (0, 0, 1.0),
        (1, 0, 2.0),
        (2, 1, 4.0),
        (3, 2, 8.0),
        (3, 2, 16.0),
        (1, 1, 32.0),
    ]
    return np.array(rows, dtype=dtype)


def _query(groupby, selections, aggregates=(("v", "sum"),)):
    return StarQuery.build(SCHEMA, groupby, selections, aggregates)


def test_rollup_to_top_level_sums_children() -> None:
    evaluator = ReferenceEvaluator(SCHEMA, _table())
    got = evaluator.evaluate(_query([1, 0], [None, None]))
    assert got == {(0,): (35.0,), (1,): (28.0,)}


def test_leaf_groupby_with_selection_filters_first() -> None:
    evaluator = ReferenceEvaluator(SCHEMA, _table())
    # Leaves 1..3 of D0, D1 members 1..2.
    got = evaluator.evaluate(_query([2, 1], [(1, 4), (1, 3)]))
    assert got == {(1, 1): (32.0,), (2, 1): (4.0,), (3, 2): (24.0,)}


def test_selection_at_aggregated_level_maps_to_leaves() -> None:
    evaluator = ReferenceEvaluator(SCHEMA, _table())
    # D0 member 1 at level 1 is leaves 2..3; grouped by D1 only.
    got = evaluator.evaluate(_query([1, 1], [(1, 2), None]))
    assert got == {(1, 1): (4.0,), (1, 2): (24.0,)}


def test_count_min_max_avg() -> None:
    evaluator = ReferenceEvaluator(SCHEMA, _table())
    aggregates = (("v", "count"), ("v", "min"), ("v", "max"), ("v", "avg"))
    got = evaluator.evaluate(_query([0, 1], [None, (2, 3)], aggregates))
    assert got == {(2,): (2.0, 8.0, 16.0, 12.0)}


def test_empty_selection_gives_no_groups() -> None:
    records = _table()[:2]
    evaluator = ReferenceEvaluator(SCHEMA, records)
    assert evaluator.evaluate(_query([0, 1], [None, (2, 3)])) == {}


def test_same_rows_tolerance_and_key_mismatch() -> None:
    query = _query([1, 0], [None, None])
    rows = np.array(
        [(0, 35.0 + 1e-12), (1, 28.0)],
        dtype=[("D0", "<i4"), ("sum_v", "<f8")],
    )
    answer = answer_rows(SCHEMA, query, rows)
    assert same_rows({(0,): (35.0,), (1,): (28.0,)}, answer)
    assert not same_rows({(0,): (35.0,), (1,): (28.5,)}, answer)
    assert not same_rows({(0,): (35.0,)}, answer)


def test_agrees_with_the_backend_scan_on_random_data() -> None:
    from repro.api import build_backend
    from repro.chunks.grid import ChunkSpace
    from repro.workload.data import generate_fact_table

    records = generate_fact_table(SCHEMA, 200, seed=3)
    space = ChunkSpace(SCHEMA, 0.5)
    backend = build_backend(SCHEMA, space, records, buffer_pool_pages=8)
    evaluator = ReferenceEvaluator(SCHEMA, records)
    for groupby, selections in (
        ([1, 0], [None, None]),
        ([2, 1], [(1, 3), None]),
        ([0, 1], [None, (0, 2)]),
    ):
        query = _query(groupby, selections)
        rows, _ = backend.answer(query, "scan")
        assert same_rows(
            evaluator.evaluate(query), answer_rows(SCHEMA, query, rows)
        )


if __name__ == "__main__":
    import pytest

    sys.exit(pytest.main([__file__, "-q", "-p", "no:cacheprovider"]))
