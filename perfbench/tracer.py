"""Wall-clock wrappers around the program's public functions.

Everything here patches attributes from the benchmark's side and puts
them back afterwards; the program's files are never changed.

- :class:`Patches` records every replaced attribute and restores it.
- :class:`LatencyProbe` wraps ``StagedPipeline.execute`` and keeps one
  wall time per query; it is the only wrapper of an untraced run.
- :class:`Tracer` wraps one function per layer.  Each wrapped call is
  a span; spans nest per thread, and a layer's *self time* is its
  spans' time minus the time of wrapped calls nested inside them.
  Spans are folded into per-layer totals as they close (self time,
  total time, calls, longest call) rather than kept one by one.
"""

from __future__ import annotations

import functools
import threading
import time
from typing import Any, Callable

clock = time.perf_counter

_MISSING = object()


class Patches:
    """Replaced attributes, restored in reverse order by :meth:`undo`."""

    def __init__(self) -> None:
        self._saved: list[tuple[Any, str, Any]] = []

    def set(self, owner: Any, name: str, value: Any) -> None:
        # An attribute the owner only inherits (a method of an instance,
        # or of a base class) is restored by deleting the override.
        self._saved.append((owner, name, vars(owner).get(name, _MISSING)))
        setattr(owner, name, value)

    def undo(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            if original is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, original)


class LatencyProbe:
    """Per-query wall time of ``StagedPipeline.execute``."""

    def __init__(self) -> None:
        self.seconds: list[float] = []

    def install(self, patches: Patches, pipeline_class: type) -> None:
        original = pipeline_class.execute
        record = self.seconds.append

        @functools.wraps(original)
        def execute(pipeline: Any, query: Any) -> Any:
            start = clock()
            result = original(pipeline, query)
            record(clock() - start)
            return result

        patches.set(pipeline_class, "execute", execute)


class _ThreadState(threading.local):
    def __init__(self) -> None:
        self.stack: list[float] = []
        self.layers: dict[str, list[float]] | None = None


class Tracer:
    """Per-layer self time over every thread that runs wrapped code.

    ``totals()`` maps a layer name to ``[self_seconds, total_seconds,
    calls, max_seconds]`` summed over threads.
    """

    def __init__(self) -> None:
        self._state = _ThreadState()
        self._all: list[dict[str, list[float]]] = []
        self._lock = threading.Lock()

    def _layers(self) -> dict[str, list[float]]:
        layers: dict[str, list[float]] = {}
        with self._lock:
            self._all.append(layers)
        self._state.layers = layers
        return layers

    def wrap(
        self,
        layer: str,
        function: Callable[..., Any],
        observe: Callable[..., None] | None = None,
    ) -> Callable[..., Any]:
        """``function`` timed as a span of ``layer``.

        ``observe(result, *args)`` runs after a successful call, outside
        the span, to count work the call did.
        """
        state = self._state
        new_layers = self._layers

        @functools.wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = state.stack
            stack.append(0.0)
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = clock() - start
                nested = stack.pop()
                layers = state.layers
                if layers is None:
                    layers = new_layers()
                if stack:
                    stack[-1] += elapsed
                entry = layers.get(layer)
                if entry is None:
                    layers[layer] = [elapsed - nested, elapsed, 1, elapsed]
                else:
                    entry[0] += elapsed - nested
                    entry[1] += elapsed
                    entry[2] += 1
                    if elapsed > entry[3]:
                        entry[3] = elapsed
            if observe is not None:
                observe(result, *args)
            return result

        return traced

    def patch(
        self,
        patches: Patches,
        owner: Any,
        name: str,
        layer: str,
        observe: Callable[..., None] | None = None,
    ) -> None:
        """Replace ``owner.name`` by its traced version."""
        patches.set(owner, name, self.wrap(layer, getattr(owner, name), observe))

    def totals(self) -> dict[str, list[float]]:
        merged: dict[str, list[float]] = {}
        with self._lock:
            parts = list(self._all)
        for layers in parts:
            for layer, value in layers.items():
                own, total, calls, longest = value
                entry = merged.setdefault(layer, [0.0, 0.0, 0, 0.0])
                entry[0] += own
                entry[1] += total
                entry[2] += calls
                entry[3] = max(entry[3], longest)
        return merged
