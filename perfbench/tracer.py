"""Spans around the program's public functions, recorded from outside.

A :class:`Tracer` replaces a function in the namespace of the module that
calls it (``eigenshape.optimizer.solve_spectrum``, not the definition in
``eigenshape.spectral``) by a wrapper that records one span per call. Spans
nest through a stack, so each span's self time is its duration minus the
time covered by wrapped calls made inside it. A call to a span name from
inside a span of the same name (``write_grid_dump`` calling
``write_field_dump``, both counted as ``cli.write``) is not counted again.
"""

from __future__ import annotations

import dataclasses
import importlib
import math
import time

#: Percentiles ms_tail may report; it takes the highest with at least
#: TAIL_MIN_BEYOND calls beyond it.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_MIN_BEYOND = 10
#: Spans with fewer calls report no latency percentiles.
PERCENTILE_MIN_CALLS = 20


def tail_percentile(n: int) -> float | None:
    """Highest ladder percentile with at least TAIL_MIN_BEYOND of ``n``
    samples beyond it, or None when even the median has too few."""
    best = None
    for p in TAIL_LADDER:
        if n * (1.0 - p / 100.0) >= TAIL_MIN_BEYOND - 1e-9:
            best = p
    return best


def percentile(values, p: float) -> float:
    """Nearest-rank percentile of a non-empty sequence."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


@dataclasses.dataclass
class SpanStats:
    calls: int = 0
    s: float = 0.0
    self_s: float = 0.0
    failed: int = 0
    durations: list = dataclasses.field(default_factory=list)
    counters: dict = dataclasses.field(default_factory=dict)

    def add(self, key: str, amount) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def latency_ms(self) -> dict:
        """ms_p50, ms_tail and its percentile; zeros below PERCENTILE_MIN_CALLS."""
        n = len(self.durations)
        if n < PERCENTILE_MIN_CALLS:
            return {"ms_p50": 0.0, "ms_tail": 0.0, "ms_tail_pct": 0.0}
        tail = tail_percentile(n)
        return {
            "ms_p50": 1e3 * percentile(self.durations, 50.0),
            "ms_tail": 1e3 * percentile(self.durations, tail),
            "ms_tail_pct": tail,
        }


class _Frame:
    __slots__ = ("name", "child_s")

    def __init__(self, name: str):
        self.name = name
        self.child_s = 0.0


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict[str, SpanStats] = {}
        self._stack: list[_Frame] = []
        self._patched: list[tuple[object, str, object]] = []

    def stat(self, name: str) -> SpanStats:
        return self.stats.setdefault(name, SpanStats())

    def wrap(self, fn, name: str, on_return=None):
        """``fn`` recording a span ``name``; ``on_return(stats, result)`` may
        add counters or replace the result."""
        stats = self.stat(name)

        def traced(*args, **kwargs):
            if self._stack and self._stack[-1].name == name:
                return fn(*args, **kwargs)
            frame = _Frame(name)
            self._stack.append(frame)
            t0 = self.clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stats.failed += 1
                raise
            finally:
                dur = self.clock() - t0
                self._stack.pop()
                if self._stack:
                    self._stack[-1].child_s += dur
                stats.calls += 1
                stats.s += dur
                stats.self_s += dur - frame.child_s
                stats.durations.append(dur)
            return result if on_return is None else on_return(stats, result)

        return traced

    def patch(self, target: str, name: str, on_return=None) -> None:
        """Replace ``module.attr`` (given as "module:attr") by a traced wrapper."""
        module_name, attr = target.split(":")
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        self._patched.append((module, attr, original))
        setattr(module, attr, self.wrap(original, name, on_return))

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
