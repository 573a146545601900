"""An independent NumPy evaluator for star queries.

It answers a :class:`~repro.query.model.StarQuery` straight from the
generated fact records, without the chunk grid, the cache, the
backend's aggregation operator or its storage layer:

1. filter base tuples by ``query.leaf_selection(schema)``;
2. roll every grouped dimension up to its group-by level through the
   schema hierarchy (``Dimension.ancestor_ordinal``, tabulated once per
   level);
3. aggregate each group.

:func:`same_rows` compares two result row sets: group keys exactly,
aggregate values within a float tolerance (the program sums chunk by
chunk, the evaluator in one pass, so the last digits may differ).
"""

from __future__ import annotations

from typing import Any

import numpy as np

#: Relative and absolute tolerance on aggregate values.
RTOL = 1e-9
ATOL = 1e-6


class ReferenceEvaluator:
    """Evaluates star queries over raw fact records.

    Args:
        schema: The star schema the records follow.
        records: Structured fact array: one leaf-ordinal column per
            dimension (named after it) and one column per measure.
    """

    def __init__(self, schema: Any, records: np.ndarray) -> None:
        self.schema = schema
        self.records = records
        self._rollup: dict[tuple[int, int], np.ndarray] = {}

    def _rollup_table(self, position: int, level: int) -> np.ndarray:
        """``table[leaf] = ancestor ordinal at level`` for one dimension."""
        key = (position, level)
        table = self._rollup.get(key)
        if table is None:
            dim = self.schema.dimensions[position]
            table = np.array(
                [
                    dim.ancestor_ordinal(dim.leaf_level, leaf, level)
                    for leaf in range(dim.leaf_cardinality)
                ],
                dtype=np.int64,
            )
            self._rollup[key] = table
        return table

    def evaluate(self, query: Any) -> dict[tuple[int, ...], tuple[float, ...]]:
        """``{group key: aggregate values}`` for one query."""
        records = self.records
        mask = np.ones(len(records), dtype=bool)
        for dim, interval in zip(
            self.schema.dimensions, query.leaf_selection(self.schema)
        ):
            if interval is not None:
                column = records[dim.name]
                mask &= (column >= interval[0]) & (column < interval[1])
        selected = records[mask]
        keys = [
            self._rollup_table(position, level)[selected[dim.name]]
            for position, (dim, level) in enumerate(
                zip(self.schema.dimensions, query.groupby)
            )
            if level > 0
        ]
        if keys:
            groups, inverse = np.unique(
                np.stack(keys, axis=1), axis=0, return_inverse=True
            )
            inverse = inverse.reshape(-1)
        else:
            groups = np.zeros((1 if len(selected) else 0, 0), dtype=np.int64)
            inverse = np.zeros(len(selected), dtype=np.int64)
        count = len(groups)
        columns = [
            _aggregate(selected[measure], inverse, count, aggregate)
            for measure, aggregate in query.aggregates
        ]
        return {
            tuple(int(v) for v in groups[index]): tuple(
                float(column[index]) for column in columns
            )
            for index in range(count)
        }


def _aggregate(
    values: np.ndarray, inverse: np.ndarray, count: int, aggregate: str
) -> np.ndarray:
    if aggregate == "sum":
        return np.bincount(inverse, weights=values, minlength=count)
    if aggregate == "count":
        return np.bincount(inverse, minlength=count).astype(np.float64)
    if aggregate == "avg":
        sums = np.bincount(inverse, weights=values, minlength=count)
        return sums / np.bincount(inverse, minlength=count)
    if aggregate in ("min", "max"):
        out = np.full(count, np.inf if aggregate == "min" else -np.inf)
        ufunc = np.minimum if aggregate == "min" else np.maximum
        ufunc.at(out, inverse, values.astype(np.float64))
        return out
    raise ValueError(f"reference evaluator has no aggregate {aggregate!r}")


def answer_rows(
    schema: Any, query: Any, rows: np.ndarray
) -> dict[tuple[int, ...], tuple[float, ...]]:
    """A program answer in the evaluator's ``{key: values}`` shape."""
    key_fields = [
        dim.name
        for dim, level in zip(schema.dimensions, query.groupby)
        if level > 0
    ]
    value_fields = [f"{agg}_{measure}" for measure, agg in query.aggregates]
    out: dict[tuple[int, ...], tuple[float, ...]] = {}
    for row in rows:
        key = tuple(int(row[name]) for name in key_fields)
        if key in out:
            raise AssertionError(f"duplicate group {key} in answer")
        out[key] = tuple(float(row[name]) for name in value_fields)
    return out


def same_rows(
    expected: dict[tuple[int, ...], tuple[float, ...]],
    actual: dict[tuple[int, ...], tuple[float, ...]],
) -> bool:
    """Equal group sets, and every value within the tolerance."""
    if expected.keys() != actual.keys():
        return False
    for key, values in expected.items():
        other = actual[key]
        if len(values) != len(other):
            return False
        for want, got in zip(values, other):
            if abs(want - got) > ATOL + RTOL * abs(want):
                return False
    return True
