"""In-memory spans around the package's public functions, for traced runs.

A wrapper is installed on the module attribute through which the calling
code looks a function up: ``cascade.estimate`` resolves ``warp_image`` in
the ``cascade`` namespace at call time, so wrapping ``cascade.warp_image``
sees every warp the cascade makes, and the package itself is not edited.
Spans nest through a stack (the benchmark is single-threaded), carry the
index of the benchmark operation in progress, and are written out when the
run ends.  A span's self time is its duration minus the part of that
interval its child spans cover.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    op: int | None
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans for wrapped functions while ``active`` is true.

    A tracer with no wrappers installed records nothing, so untraced runs
    use the same code path.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.op: int | None = None  # benchmark operation in progress
        self.active = True
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, module, attr: str, name: str, variant=None, counts=None) -> None:
        """Replace ``module.attr`` by a recording wrapper.

        ``variant(*args, **kwargs)`` appends a suffix to the span name;
        ``counts(result, *args, **kwargs)`` returns work counts for the
        span, computed after its end so they cost no traced time.
        """
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            if not self.active:
                return original(*args, **kwargs)
            label = name if variant is None else f"{name}.{variant(*args, **kwargs)}"
            with self.span(label) as span:
                result = original(*args, **kwargs)
            if counts is not None:
                span.counts.update(counts(result, *args, **kwargs))
            return result

        setattr(module, attr, traced)
        self._patches.append((module, attr, original))

    @property
    def recording(self) -> bool:
        return bool(self._patches) and self.active

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, name, self.op, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def paused(self):
        """Run the benchmark's own checks without recording their calls."""
        active, self.active = self.active, False
        try:
            yield
        finally:
            self.active = active

    def self_times(self) -> list[float]:
        """Self time of every span, in the order of ``spans``."""
        children = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent].append((span.start, span.end))
        return [s.duration - _covered(children[s.id]) for s in self.spans]

    def summary(self, ops) -> dict[str, dict]:
        """Per span name: calls and mean inclusive/self ms over every span,
        and each count summed over the spans of the operations in ``ops``."""
        ops = set(ops)
        out: dict[str, dict] = defaultdict(
            lambda: {"calls": 0, "ms": 0.0, "self_ms": 0.0, "op_calls": 0, "op_counts": defaultdict(int)}
        )
        for span, self_time in zip(self.spans, self.self_times()):
            row = out[span.name]
            row["calls"] += 1
            row["ms"] += span.duration * 1e3
            row["self_ms"] += self_time * 1e3
            if span.op in ops:
                row["op_calls"] += 1
                for key, value in span.counts.items():
                    row["op_counts"][key] += value
        for row in out.values():
            row["ms"] /= row["calls"]
            row["self_ms"] /= row["calls"]
        return out

    def calls_under(self, prefix: str, ancestor: str, ops) -> int:
        """Spans named ``prefix[.variant]`` with an ``ancestor`` span, in ``ops``."""
        ops = set(ops)
        count = 0
        for span in self.spans:
            if span.op not in ops or not (span.name == prefix or span.name.startswith(prefix + ".")):
                continue
            parent = span.parent
            while parent is not None and self.spans[parent].name != ancestor:
                parent = self.spans[parent].parent
            count += parent is not None
        return count

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span, self_time in zip(self.spans, self.self_times()):
                fh.write(json.dumps({
                    "id": span.id,
                    "parent": span.parent,
                    "name": span.name,
                    "op": span.op,
                    "start_ms": round(span.start * 1e3, 4),
                    "ms": round(span.duration * 1e3, 4),
                    "self_ms": round(self_time * 1e3, 4),
                    **span.counts,
                }) + "\n")


def _covered(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total
